"""gkpfrac benchmark: one workload in this process, closed loop, one client.

    python3 perfbench/run.py --workload families --seed 1 --seconds 25 --trace 0

Each pass runs the workload's fixed job list once, every job starting when
the previous one ends.  A run makes as many passes as ``--seconds`` holds at
the workload's nominal pass time (``workloads.PASS_S``).  Every job is
checked: the library's exact verdict must hold, no call may raise, and a
pinned job's output digest must equal the one in ``digests.json``.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` the run first measures half the passes
untraced, then wraps the library's public functions (see ``tracer.py``) and
reports per-layer metrics.  The line before the last holds the details:
environment, pass times, failures and which traced names were absent.

    python3 perfbench/run.py --record-digests

rewrites ``digests.json`` from the current code (only for a deliberate
change of the library's outputs).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SPAN_DIR = ROOT / ".perfbench"
SETUP_PROBES = 3
# A run stops starting passes that would end later than this many times
# --seconds after the first pass began.
DEADLINE_FACTOR = 1.3

NOISE_NOTE = ("On a 2-CPU host with Python 3.11.7, process CPU time tracked "
              "wall time to within 1 ms, yet the same job varied by up to "
              "about +-30% between passes and whole runs drifted by as much; "
              "that noise comes from the host. Times are therefore scaled to "
              "a reference host speed measured in the same run; rely on "
              "medians over passes and on exact counts.")

# The reference kernel runs before every job.  Its median time in a run,
# against REF_NOMINAL_S, gives the host's speed during that run; every
# reported time is scaled by REF_NOMINAL_S / median, i.e. to a host on which
# the kernel takes exactly REF_NOMINAL_S.  The kernel shares no code with
# the library, so a change to the library cannot move it.
REF_ITERATIONS = 20000
REF_NOMINAL_S = 0.002


def reference_kernel_s() -> float:
    start = perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i % 7
    return perf_counter() - start


def load_library():
    """Import the library from this checkout's sources, never from elsewhere."""
    if not (SRC / "gkpfrac" / "__init__.py").is_file():
        sys.exit("perfbench: no gkpfrac sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import gkpfrac
    if Path(gkpfrac.__file__).resolve().parent != SRC / "gkpfrac":
        sys.exit("perfbench: imported gkpfrac from %s" % gkpfrac.__file__)
    import workloads
    return workloads


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Runner:
    """Runs passes over one job list and keeps every job's time and failure."""

    def __init__(self, jobs, digests):
        self.jobs = jobs
        self.digests = digests
        self.tracer = None
        self.job_times = []
        self.ref_times = []
        self.failures = []
        self.attempted = 0

    def run_job(self, job):
        start = perf_counter()
        try:
            ok, text = job.run()
            reason = None if ok else "verdict"
        except Exception as exc:  # a failed job is counted, the run goes on
            ok, text, reason = False, "", "%s: %s" % (type(exc).__name__, exc)
        elapsed = perf_counter() - start
        self.job_times.append(elapsed)
        self.attempted += 1
        if ok and job.pinned and self.digests.get(job.key) != digest(text):
            reason = "digest"
        if reason is not None:
            self.failures.append({"job": job.key, "reason": reason})
        if job.via_cli and self.tracer is not None:
            self.tracer.count("cli.report_bytes", len(text))
        return elapsed

    def run_pass(self):
        """One pass; returns the summed time of its jobs."""
        total = 0.0
        for i, job in enumerate(self.jobs):
            self.ref_times.append(reference_kernel_s())
            if self.tracer is not None:
                self.tracer.job = i
            total += self.run_job(job)
        return total

    def host_scale(self):
        """Factor that turns this run's times into reference-host times."""
        return REF_NOMINAL_S / statistics.median(self.ref_times)

    def typical_pass_s(self):
        """One pass's wall time, as the sum over its jobs of each job's
        median time across passes: steadier than the median pass when host
        noise comes in bursts shorter than a pass."""
        n = len(self.jobs)
        return sum(statistics.median(self.job_times[j::n]) for j in range(n))

    def run_passes(self, n, deadline, on_pass=None):
        """Up to n passes; after the first, a pass starts only if it is
        expected to end by ``deadline``, which bounds a run on a slow host."""
        times = []
        while len(times) < n and (
                not times or perf_counter() + times[-1] <= deadline):
            times.append(self.run_pass())
            if on_pass is not None:
                on_pass()
        return times


def tail(values):
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def setup_probe(workload, seed) -> float:
    """Import, lazy set-up and job-list generation in this fresh process."""
    start = perf_counter()
    workloads = load_library()
    workloads.build_jobs(workload, seed)
    return perf_counter() - start


def probe_setup_in_children(workload, seed, n):
    times = []
    for _ in range(n):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def layer_metrics(passes, untraced_wall, traced_wall):
    """Per-layer metrics from the traced passes.  Counts come from the first
    traced pass; they repeat exactly from pass to pass and run to run."""
    first = passes[0]

    def calls(name):
        return first.calls[name]

    def self_s(name):
        return statistics.median(p.self_s[name] for p in passes)

    def ratio(num, den):
        return num / den if den else 0.0

    def repeat_ratio(name):
        return ratio(first.calls[name], len(first.keys[name]))

    def repeat_share(name):
        return ratio(first.calls[name] - len(first.keys[name]), first.calls[name])

    term_rate = statistics.median(
        ratio(p.counts["hankel.term_products"], p.total_s["hankel.log_convexity"])
        for p in passes)
    values = {
        "exactalg.divide_exact.calls": (calls("exactalg.divide_exact"), "count"),
        "exactalg.divide_exact.self_s": (self_s("exactalg.divide_exact"), "s"),
        "exactalg.divide_exact.exact_ratio": (ratio(
            first.counts["exactalg.divide_exact.quotients"],
            calls("exactalg.divide_exact")), "ratio"),
        "exactalg.gcd.calls": (calls("exactalg.gcd"), "count"),
        "exactalg.gcd.self_s": (self_s("exactalg.gcd"), "s"),
        "exactalg.gcd.trivial_ratio": (ratio(first.counts["exactalg.gcd.trivial"],
                                             calls("exactalg.gcd")), "ratio"),
        "exactalg.gcd.repeat_ratio": (repeat_ratio("exactalg.gcd"), "ratio"),
        "exactalg.gcd.repeat_share": (repeat_share("exactalg.gcd"), "ratio"),
        "exactalg.mul.calls": (calls("exactalg.mul"), "count"),
        "exactalg.mul.self_s": (self_s("exactalg.mul"), "s"),
        "exactalg.peak_terms": (first.peaks["exactalg.peak_terms"], "count"),
        "exactalg.ratfunc.calls": (calls("exactalg.ratfunc"), "count"),
        "exactalg.ratfunc.self_s": (self_s("exactalg.ratfunc"), "s"),
        "exactalg.series.self_s": (self_s("exactalg.series"), "s"),
        "gkpcore.triangle.calls": (calls("gkpcore.triangle"), "count"),
        "gkpcore.triangle.self_s": (self_s("gkpcore.triangle"), "s"),
        "gkpcore.gf.self_s": (self_s("gkpcore.gf"), "s"),
        "cfrac.extract.calls": (calls("cfrac.extract"), "count"),
        "cfrac.extract.self_s": (self_s("cfrac.extract"), "s"),
        "cfrac.eval.self_s": (self_s("cfrac.eval"), "s"),
        "cfrac.contract.self_s": (self_s("cfrac.contract"), "s"),
        "families.verify.self_s": (self_s("families.verify"), "s"),
        "families.predicted.self_s": (self_s("families.predicted"), "s"),
        "search.node_cs.calls": (calls("search.node_cs"), "count"),
        "search.node_cs.repeat_ratio": (repeat_ratio("search.node_cs"), "ratio"),
        "search.node_cs.repeat_share": (repeat_share("search.node_cs"), "ratio"),
        "search.node_cs.self_s": (self_s("search.node_cs"), "s"),
        "search.get_node.self_s": (self_s("search.get_node"), "s"),
        "search.split_node.self_s": (self_s("search.split_node"), "s"),
        "hankel.log_convexity.self_s": (self_s("hankel.log_convexity"), "s"),
        "hankel.term_products": (first.counts["hankel.term_products"], "count"),
        "hankel.term_products_per_s": (term_rate, "1/s"),
        "hankel.hankel_tp.self_s": (self_s("hankel.hankel_tp"), "s"),
        "hankel.det.calls": (calls("hankel.det"), "count"),
        "symmetry.verify_action.calls": (calls("symmetry.verify_action"), "count"),
        "symmetry.verify_action.self_s": (self_s("symmetry.verify_action"), "s"),
        "symmetry.verify_relations.self_s": (self_s("symmetry.verify_relations"), "s"),
        "matprod.verify_product_case.self_s": (self_s("matprod.verify_product_case"), "s"),
        "matprod.inverse_pair_check.self_s": (self_s("matprod.inverse_pair_check"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.report_bytes": (first.counts["cli.report_bytes"], "count"),
        "trace.overhead_ratio": (ratio(traced_wall, untraced_wall), "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def to_reference_host(metrics, scale):
    """Times (unit s) times ``scale``, rates (unit 1/s) divided by it."""
    factor = {"s": scale, "1/s": 1.0 / scale}
    return {name: {"value": m["value"] * factor[m["unit"]] if m["unit"] in factor
                   else m["value"], "unit": m["unit"]}
            for name, m in metrics.items()}


def environment():
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "noise": NOISE_NOTE}


def run(args):
    start = perf_counter()
    workloads = load_library()
    jobs = workloads.build_jobs(args.workload, args.seed)
    setup_here = perf_counter() - start
    setup_times = [setup_here] + probe_setup_in_children(
        args.workload, args.seed, SETUP_PROBES)
    digests = json.loads(DIGESTS.read_text())

    runner = Runner(jobs, digests)
    passes = workloads.passes_for(args.workload, args.seconds)
    deadline = perf_counter() + DEADLINE_FACTOR * args.seconds
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "jobs_per_pass": len(jobs), "environment": environment(),
              "setup_s_samples": setup_times}
    if not args.trace:
        wall = runner.run_passes(passes, deadline)
        tail_s, tail_pct = tail(runner.job_times)
        metrics = {
            "wall_s": {"value": runner.typical_pass_s(), "unit": "s"},
            "job_p50_s": {"value": statistics.median(runner.job_times), "unit": "s"},
            "job_tail_s": {"value": tail_s, "unit": "s"},
        }
        detail.update({"pass_s": wall, "job_tail_percentile": tail_pct,
                       "job_count": len(runner.job_times)})
    else:
        from tracer import Tracer
        untraced = max(1, passes // 2)
        wall = runner.run_passes(untraced, deadline)
        tracer = Tracer()
        runner.tracer = tracer
        stats = []
        tracer.install()
        try:
            traced = runner.run_passes(
                max(1, passes - untraced), deadline,
                on_pass=lambda: stats.append(tracer.new_pass()))
        finally:
            tracer.uninstall()
        metrics = layer_metrics(stats, statistics.median(wall),
                                statistics.median(traced))
        SPAN_DIR.mkdir(exist_ok=True)
        span_file = SPAN_DIR / ("spans-%s-%d.jsonl" % (args.workload, args.seed))
        tracer.write_spans(span_file)
        detail.update({"pass_s": wall, "traced_pass_s": traced,
                       "absent": tracer.absent, "spans": len(tracer.spans),
                       "span_file": str(span_file.relative_to(ROOT))})
    scale = runner.host_scale()
    detail.update({"host_scale": scale, "raw_metrics": metrics})
    metrics = to_reference_host(metrics, scale)
    if not args.trace:
        # Set-up is imports and file reads, which the reference loop does
        # not track, so it is reported unscaled, like memory.
        metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}
    failed = len(runner.failures)
    detail.update({"fail_ratio": failed / runner.attempted,
                   "failures": runner.failures[:20]})
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))


def record_digests():
    workloads = load_library()
    out = {}
    for job in workloads.pinned_jobs():
        ok, text = job.run()
        if not ok:
            sys.exit("perfbench: %s fails its own verdict" % job.key)
        out[job.key] = digest(text)
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=("families", "tree", "hankel", "identities"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    if args.record_digests:
        record_digests()
    elif args.workload is None:
        ap.error("--workload is required")
    elif args.setup_probe:
        print(setup_probe(args.workload, args.seed))
    else:
        run(args)


if __name__ == "__main__":
    main()
