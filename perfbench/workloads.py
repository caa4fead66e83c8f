"""Job lists of the four benchmark workloads.

A job is one verification a user could ask for.  Running it returns the
library's own exact verdict and the canonical JSON text of its output.
Jobs whose inputs do not depend on the seed are *pinned*: the SHA-256 of
their output must equal the digest recorded in ``digests.json``.  Seeded
jobs are checked by their verdict alone.

Every input that depends on the seed is drawn here, from
``random.Random(seed)``; the library receives only the drawn values.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from gkpfrac import cli, families, gkpcore, hankel, matprod, search, symmetry
from gkpfrac.exactalg import (
    MPoly, RatFunc, TruncSeries, as_field, felem_is_zero, felem_to_json,
    series_to_json,
)

WORKLOADS = ("families", "tree", "hankel", "identities")

# Depths are chosen so that one pass over a job list takes a few seconds on
# a 2-CPU machine, which lets a run measure several passes.  A run makes
# seconds // PASS_S passes (at least one): the pass count, and with it the
# job-time percentiles, does not depend on how fast the host happens to be,
# unless the host is so slow that the run's deadline cuts passes.
PASS_S = {"families": 6.5, "tree": 12.0, "hankel": 8.0, "identities": 10.0}
FAMILY_DEPTH = 10
GKPZ_DEPTH = 8
TERMINATING_DEPTH = 12
F9_NUMERIC_DEPTH = 14
F9_NUMERIC_SAMPLES = 2
LOGCONVEX_NMAX = 8
TP_SAMPLES = 6
ACTION_DEPTH = 5
INVERSE_PAIR_SAMPLES = 6


@dataclass
class Job:
    key: str
    run: Callable[[], tuple]
    pinned: bool
    via_cli: bool = False


def canon(obj):
    """JSON-ready form of a library result, exact values via felem_to_json."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (Fraction, MPoly, RatFunc)):
        return felem_to_json(obj)
    if isinstance(obj, TruncSeries):
        return series_to_json(obj)
    if isinstance(obj, dict):
        return {str(k): canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canon(v) for v in obj]
    return repr(obj)


def dump(obj) -> str:
    return json.dumps(canon(obj), sort_keys=True)


def run_cli(argv) -> tuple:
    """One in-process CLI call; ok means exit code 0."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code == 0, buf.getvalue()


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def _family_job(fid, params, depth, kind, pinned):
    def run():
        rep = families.verify_family(fid, params, depth, kind=kind)
        return rep["first_mismatch"] is None, dump(rep)
    tag = "sym" if params is None else ",".join(
        "%s=%s" % (k, v) for k, v in sorted(params.items()))
    return Job("families:%s:%s:%s:%d" % (fid, kind or "-", tag, depth), run, pinned)


def _positive_rational(rng):
    return Fraction(rng.randint(1, 5), rng.randint(1, 3))


def families_jobs(rng):
    jobs = [_family_job(fid, None, FAMILY_DEPTH, None, True)
            for fid in families.SFRAC_FAMILY_IDS]
    jobs += [_family_job(fid, None, TERMINATING_DEPTH, None, True)
             for fid, spec in families.CATALOG.items()
             if spec.status == "terminating"]
    for fid, kinds in (("F7a", "JT"), ("F7b", "JT"), ("F8a", "T"), ("F8b", "T"),
                       ("F1c", "J"), ("F9a", "TJ"), ("F9b", "TJ")):
        jobs += [_family_job(fid, None, FAMILY_DEPTH, k, True) for k in kinds]
    jobs.append(_family_job("GKPZ", None, GKPZ_DEPTH, "J", True))
    for fid in ("F9a", "F9b"):
        for _ in range(F9_NUMERIC_SAMPLES):
            params = {name: _positive_rational(rng)
                      for name in families.CATALOG[fid].params}
            jobs.append(_family_job(fid, params, F9_NUMERIC_DEPTH, "T", False))
    return jobs


# ---------------------------------------------------------------------------
# tree
# ---------------------------------------------------------------------------

def _cli_job(key, argv, pinned):
    return Job(key, lambda: run_cli(argv), pinned, via_cli=True)


def _node_job(label):
    return _cli_job("tree:search-node:" + label,
                    ["search-node", "--label", label], True)


# Every label under this node costs seconds, because get_node recomputes
# the node itself; search-tree already covers it once per pass.
HEAVY_SUBTREE = "0,0,1b"


def tree_labels(rng):
    """Every documented label outside the expensive subtree, in seeded
    order.  Taking all of them keeps the job-time percentiles independent
    of the seed and gives a pass enough jobs for a tail percentile; leaving
    out the expensive subtree lets a run hold two passes."""
    labels = [",".join(k) for k in search.HINT_BOOK
              if not ",".join(k).startswith(HEAVY_SUBTREE)]
    return rng.sample(labels, len(labels))


def tree_jobs(rng):
    jobs = [_cli_job("tree:search-tree", ["search-tree"], True)]
    return jobs + [_node_job(label) for label in tree_labels(rng)]


# ---------------------------------------------------------------------------
# hankel
# ---------------------------------------------------------------------------

def _logconvex_job():
    def run():
        rep = hankel.log_convexity(hankel.gkp_tilde_polys(LOGCONVEX_NMAX + 2),
                                   LOGCONVEX_NMAX, strong=True)
        return rep["ok"], dump(rep)
    return Job("hankel:tilde-strong:%d" % LOGCONVEX_NMAX, run, True)


def _tp_job(mu):
    def run():
        rows = gkpcore.row_polys(gkpcore.gkp_triangle(mu, 8))
        rep = hankel.hankel_tp(rows, 5, 3)
        return rep.ok, dump({"order": rep.order, "ok": rep.ok,
                             "witness": rep.witness})
    return Job("hankel:tp3:" + ",".join(map(str, mu)), run, False)


def hankel_jobs(rng):
    jobs = [_logconvex_job()]
    # Positive samples: a zero parameter makes the minors far cheaper, and
    # the cost of a pass would then depend on how many zeros the seed drew.
    for _ in range(TP_SAMPLES):
        mu = tuple(Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(6))
        jobs.append(_tp_job(mu))
    jobs.append(_cli_job("hankel:cli-logconvex",
                         ["logconvex", "--mu", "1,sym,1,1,sym,1", "--nmax",
                          str(LOGCONVEX_NMAX), "--strong"], True))
    return jobs


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

def _action_job(word, mu):
    def run():
        rep = symmetry.verify_action(word, mu, ACTION_DEPTH)
        return rep["ok"], dump(rep)
    return Job("identities:action:%s:%d" % (word.name(), ACTION_DEPTH), run, True)


def _relations_job():
    def run():
        rep = symmetry.verify_relations()
        return rep["ok"], dump(rep)
    return Job("identities:relations", run, True)


def _group_table_job():
    def run():
        elems, _, classes, center = symmetry.group_table()
        data = {"order": len(elems), "center": [e.name() for e in center],
                "classes": [{"order": c["order"], "size": c["size"],
                             "elements": [e.name() for e in c["elements"]]}
                            for c in classes]}
        ok = len(elems) == 48 and sorted(
            (c["order"], c["size"]) for c in classes) == symmetry.EXPECTED_CLASS_PROFILE
        return ok, dump(data)
    return Job("identities:group-table", run, True)


def _product_job(cid):
    def run():
        rep = matprod.verify_product_case(cid, 5)
        return rep["ok"], dump(rep)
    return Job("identities:product:%s" % cid, run, True)


def _inverse_pair_job(i, rows, alpha):
    def run():
        B = gkpcore.Triangle(rows)
        rep = matprod.inverse_pair_check(matprod.inverse_pair_from_b(B, alpha), B, alpha)
        return rep["all"], dump(rep)
    return Job("identities:inverse-pair:%d" % i, run, False)


def _residual_job():
    def run():
        odes, pde = gkpcore.residual_checks(gkpcore.GKPParams.symbolic(), 8)
        ok = all(felem_is_zero(as_field(r)) for r in odes) and pde.is_zero()
        return ok, dump({"ode": odes, "pde": pde})
    return Job("identities:residuals:8", run, True)


def identities_jobs(rng):
    mu = gkpcore.GKPParams.symbolic()
    jobs = [_action_job(g, mu) for g in symmetry.all_elements()]
    jobs += [_relations_job(), _group_table_job()]
    jobs += [_product_job(cid) for cid in sorted(matprod.PRODUCT_CASES)]
    for i in range(INVERSE_PAIR_SAMPLES):
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(n + 1)] for n in range(6)]
        alpha = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        jobs.append(_inverse_pair_job(i, rows, alpha))
    jobs.append(_residual_job())
    return jobs


BUILDERS = {"families": families_jobs, "tree": tree_jobs,
            "hankel": hankel_jobs, "identities": identities_jobs}


def passes_for(workload: str, seconds: float) -> int:
    return max(1, int(seconds // PASS_S[workload]))


def build_jobs(workload: str, seed: int):
    return BUILDERS[workload](random.Random(seed))


def pinned_jobs():
    """Every job whose output has a recorded digest, whatever the seed."""
    jobs = [job for name in WORKLOADS for job in build_jobs(name, 0) if job.pinned]
    seen = {job.key for job in jobs}
    labels = (",".join(k) for k in search.HINT_BOOK)
    return jobs + [job for job in map(_node_job, labels) if job.key not in seen]
