"""tools/linecov.py on a throwaway module: a reached line is not listed, an
unreached one is, and lines run only in a forked child or only as a program
are listed apart.  The committed report matches the code it describes."""
import importlib.util
import json
import os
from pathlib import Path

import pytest

LINECOV = Path(__file__).resolve().parents[1] / "tools" / "linecov.py"

THROWAWAY = '''\
def reached():
    return 1


def unreached():
    return 2


def in_child():
    return 3


if __name__ == "__main__":
    reached()
'''


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_linecov_lists_what_the_run_did_not_reach(tmp_path):
    linecov = load("linecov", LINECOV)
    (tmp_path / "throwaway.py").write_text(THROWAWAY)
    cov = linecov.LineCov(tmp_path)
    cov.start()
    try:
        throwaway = load("throwaway", tmp_path / "throwaway.py")
        assert throwaway.reached() == 1
        pid = os.fork()
        if pid == 0:
            try:
                throwaway.in_child()
            finally:
                os._exit(0)
        assert os.waitpid(pid, 0)[1] == 0
    finally:
        cov.stop()
    assert cov.report() == {"executable": 8, "reached": 5, "modules": {
        "throwaway.py": {"executable": 8, "unreached": [6],
                         "forked_child": [10], "subprocess": [14]}}}


def test_committed_report_matches_the_package():
    # a report left stale by a change to src/ no longer counts its lines
    linecov = load("linecov", LINECOV)
    report = json.loads(linecov.REPORT.read_text())
    paths = {path.relative_to(linecov.PACKAGE).as_posix(): path
             for path in linecov.PACKAGE.rglob("*.py")}
    assert sorted(report["modules"]) == sorted(paths)
    listed = 0
    for name, path in paths.items():
        lines = linecov.executable_lines(path.read_text(), str(path))
        entry = report["modules"][name]
        assert entry["executable"] == len(lines), name
        missed = entry["unreached"] + entry["forked_child"] + entry["subprocess"]
        assert set(missed) <= lines, name
        listed += len(missed)
    total = sum(entry["executable"] for entry in report["modules"].values())
    assert (report["executable"], report["reached"]) == (total, total - listed)
