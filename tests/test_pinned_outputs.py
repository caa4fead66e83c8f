"""Every pinned benchmark job still prints the output it printed when its
digest was recorded.

The benchmark's workloads pin the SHA-256 of each seed-independent job's
canonical JSON output in ``perfbench/digests.json``.  Simplifications and
optimisations must leave every exact output unchanged; this test recomputes
all pinned jobs and compares their digests, so that an output change fails
the test suite instead of only a benchmark run.  Both files are read, never
written.
"""
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_pinned_job_reproduces_its_digest(monkeypatch):
    digests = json.loads((PERFBENCH / "digests.json").read_text())
    jobs = load_workloads(monkeypatch).pinned_jobs()
    assert sorted(job.key for job in jobs) == sorted(digests)
    failures = []
    for job in jobs:
        ok, text = job.run()
        if not ok:
            failures.append((job.key, "verdict"))
        elif hashlib.sha256(text.encode()).hexdigest() != digests[job.key]:
            failures.append((job.key, "digest"))
    assert failures == []
