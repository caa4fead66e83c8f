"""Self-test of the benchmark's exactness gate.

    python3 perfbench/selftest.py

Runs a few cheap pinned jobs through the benchmark's own job runner.  The
clean jobs must pass; then one output is corrupted, one verdict is turned
false and one call is made to raise, and each must be counted as failed,
raising the fail ratio above 0.  Exits 1 if the gate misses any of them.
"""
from __future__ import annotations

import dataclasses
import json
import sys

import run

CHEAP = ("families:s1a:-:sym:12", "families:F1a:-:sym:10", "tree:search-node:0")


def cheap_jobs(workloads):
    by_key = {job.key: job for job in workloads.pinned_jobs()}
    return [by_key[key] for key in CHEAP]


def corrupted(job, kind):
    """A copy of ``job`` whose output, verdict or call is broken."""
    def broken():
        if kind == "raises":
            raise ArithmeticError("injected fault")
        ok, text = job.run()
        if kind == "output":  # one digit of the exact output changes
            return ok, text.replace("1", "2", 1)
        return False, text
    return dataclasses.replace(job, run=broken)


def gate(jobs, digests):
    runner = run.Runner(jobs, digests)
    runner.run_pass()
    return runner


def main():
    workloads = run.load_library()
    digests = json.loads(run.DIGESTS.read_text())
    jobs = cheap_jobs(workloads)
    problems = []

    clean = gate(jobs, digests)
    if clean.failures:
        problems.append("clean jobs failed: %s" % clean.failures)
    for kind, reason in (("output", "digest"), ("verdict", "verdict"),
                         ("raises", "ArithmeticError: injected fault")):
        broken = [corrupted(jobs[0], kind)] + jobs[1:]
        runner = gate(broken, digests)
        ratio = len(runner.failures) / runner.attempted
        want = [{"job": jobs[0].key, "reason": reason}]
        print("%-8s fail_ratio %.3f  failures %s" % (kind, ratio, runner.failures))
        if runner.failures != want or not ratio > 0:
            problems.append("%s fault not counted as failed" % kind)
    for p in problems:
        print("SELFTEST FAIL:", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
