"""tools/linecov.py on a throwaway module: a reached line is not listed, an
unreached one is, and lines run only in a forked child or only as a program
are listed apart."""
import importlib.util
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
