"""Batch command-line front end: every generation and verification
capability behind one dispatcher with machine-readable JSON output.

Exit codes: 0 = all checks passed, 1 = a mathematical check failed (the
report carries the witness), 2 = usage or configuration error, 3 = internal
error (an ``ArithmeticError`` such as a failed cross-check, an overflow or a
division by zero; the report names it under "internal").  Parameters
are exact rational strings ("3", "-2/5") or the token "sym"; floats are
rejected.  Every depth argument is capped at ``MAX_DEPTH``.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from .exactalg import (
    EXPONENT_LIMIT, MPoly, TruncSeries, felem_to_json, rational, series_to_json,
    variables,
)
from .gkpcore import GKPParams, PARAM_NAMES, Triangle, triangle, triangle_rows
from . import cfrac as cf
from . import combinat
from . import families
from . import hankel as hk
from . import matprod
from . import search
from . import symmetry

SCHEMA_VERSION = 1
MAX_DEPTH = 24


class UsageError(ValueError):
    pass


# raised by a check on valid input when the mathematics does not hold: exit 1
# with the message as the witness, although they subclass ValueError
CHECK_FAILURES = (search.InconsistentNode, search.BadFactorHint,
                  cf.NonExtractableSeries)


def _nonnegative(value: int, option: str) -> int:
    if value < 0:
        raise UsageError("%s must be nonnegative, got %d" % (option, value))
    return value


def _depth(value: int) -> int:
    if _nonnegative(value, "depth") > MAX_DEPTH:
        raise UsageError("depth %d exceeds the cap %d" % (value, MAX_DEPTH))
    return value


def _parse_value(text, name=None, vars=None):
    """An exact rational, or for the token 'sym' the variable ``name`` over
    ``vars`` where the caller allows one.  Every bad value is a usage
    error."""
    if text == "sym" and vars is not None:
        return MPoly.variable(name, vars)
    try:
        return rational(text)
    except (ValueError, TypeError, ZeroDivisionError):
        raise UsageError("bad rational %r" % text)


def _parse_mu(text: str, registry=PARAM_NAMES):
    """Comma-separated exact rationals or 'sym' entries."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) not in (6, 8):
        raise UsageError("mu needs 6 (or 8 for the four-term form) entries")
    names = (registry + ("sigma", "tau"))[: len(parts)]
    return [_parse_value(p, name, names + ("x",)) for name, p in zip(names, parts)]


def _parse_params(text):
    """name=value pairs, value an exact rational or 'sym'."""
    if not text:
        return None
    out = {}
    for item in text.split(","):
        if "=" not in item:
            raise UsageError("expected name=value, got %r" % item)
        name, _, val = item.partition("=")
        name = name.strip()
        if name in out:
            raise UsageError("parameter %r given more than once" % name)
        out[name] = val.strip()
    vars = tuple(out) + ("x",)
    return {name: _parse_value(val, name, vars) for name, val in out.items()}


def _parse_coeff_list(text, vars=("x",)):
    """The polynomials of a semicolon-separated list; an empty entry would
    shift every later coefficient down one level, so it is refused."""
    if not text:
        return []
    toks = [tok.strip() for tok in text.split(";")]
    if "" in toks:
        raise UsageError("empty entry %d in the list %r"
                         % (toks.index("") + 1, text))
    return [parse_poly(tok, vars) for tok in toks]


def parse_poly(text: str, vars=("x",)):
    """Tiny recursive-descent parser for +, -, *, ^, parentheses, rationals
    and variable names."""
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take():
        t = tokens[pos[0]]
        pos[0] += 1
        return t

    def atom():
        t = peek()
        if t == "(":
            take()
            e = expr()
            if peek() != ")":
                raise UsageError("missing ) in %r" % text)
            take()
            return e
        if t is None:
            raise UsageError("unexpected end of expression in %r" % text)
        take()
        if t[0].isdigit():
            return MPoly.constant(_parse_value(t), vars)
        if t not in vars:
            raise UsageError("unknown variable %r (declared: %s)" % (t, vars))
        return MPoly.variable(t, vars)

    def power():
        base = atom()
        if peek() == "^":
            take()
            e = peek()
            if e is None or not e.isdigit() or int(e) >= EXPONENT_LIMIT:
                raise UsageError("exponent after ^ must be an integer from 0 to"
                                 " %d in %r" % (EXPONENT_LIMIT - 1, text))
            return base ** int(take())
        return base

    def term():
        acc = power()
        while peek() in ("*",):
            take()
            acc = acc * power()
        return acc

    def expr():
        sign = 1
        if peek() in ("+", "-"):
            sign = -1 if take() == "-" else 1
        acc = term() * sign
        while peek() in ("+", "-"):
            op = take()
            nxt = term()
            acc = acc + nxt if op == "+" else acc - nxt
        return acc

    out = expr()
    if pos[0] != len(tokens):
        raise UsageError("trailing tokens in %r" % text)
    return out


def _tokenize(text):
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()+-*^":
            out.append(c)
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] == "/"):
                j += 1
            out.append(text[i:j])
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            out.append(text[i:j])
            i = j
        else:
            raise UsageError("bad character %r" % c)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_triangle(args):
    mu = _parse_mu(args.mu)
    N = _depth(args.depth)
    t = triangle(mu, N)
    return True, {"triangle": t.to_json()}


def cmd_polys(args):
    mu = _parse_mu(args.mu)
    N = _depth(args.depth)
    ps = triangle_rows(mu, N)
    return True, {"row_polys": [felem_to_json(p) for p in ps]}


def cmd_sfrac(args):
    mu = _parse_mu(args.mu)
    N = _depth(args.depth)
    out = cf.extract_sfrac(TruncSeries(N, triangle_rows(mu, N)), N)
    return True, {"cfrac": out.to_json()}


def cmd_jfrac(args):
    mu = _parse_mu(args.mu)
    N = _depth(2 * args.levels)
    out = cf.extract_jfrac(TruncSeries(N, triangle_rows(mu, N)), args.levels)
    return True, {"cfrac": out.to_json()}


def cmd_eval_cfrac(args):
    N = _depth(args.order)
    kind = args.kind.upper()
    c = _parse_coeff_list(args.c or "")
    d = _parse_coeff_list(args.d or "")
    e = _parse_coeff_list(args.e or "")
    f = _parse_coeff_list(args.f or "")
    bundle = cf.CFrac(kind, c=tuple(c), d=tuple(d), e=tuple(e), f=tuple(f))
    series = cf.eval_cfrac(bundle, N)
    return True, {"series": series_to_json(series)}


def cmd_verify_family(args):
    N = _depth(args.depth)
    if args.symbolic and args.params:
        raise UsageError("--symbolic takes no --params")
    params = None if args.symbolic else _parse_params(args.params)
    rep = families.verify_family(args.id, params, N, kind=args.kind)
    ok = rep["first_mismatch"] is None
    return ok, {"report": _mk_jsonable(rep)}


def cmd_verify_egf(args):
    N = _depth(args.order)
    params = _parse_params(args.params)
    if params is None:
        raise UsageError("verify-egf needs numeric --params")
    rep = families.verify_egf_closed_forms(args.id, params, N)
    return rep["ok"], {"report": _mk_jsonable(rep)}


def cmd_symmetry(args):
    mu = _parse_mu(args.mu) if args.mu else list(GKPParams.symbolic())
    N = _depth(args.depth)
    g = args.map
    if g == "scaling":
        g = symmetry.ScalingMap(*variables("kappa lam", extra=PARAM_NAMES + ("x",)))
    rep = symmetry.verify_action(g, GKPParams.of(mu), N)
    out = {"action": _mk_jsonable(rep)}
    if args.show_map:
        moved = symmetry.apply_map(g, GKPParams.of(mu))
        out["mu_transformed"] = [felem_to_json(v) for v in moved]
    return rep["ok"], out


def cmd_group(args):
    if args.relations:
        rep = symmetry.verify_relations()
        return rep["ok"], {"relations": _mk_jsonable(rep)}
    elems, mult, classes, center = symmetry.group_table()
    data = {
        "order": len(elems),
        "center": [e.name() for e in center],
        "classes": [{"order": c["order"], "size": c["size"],
                     "elements": [e.name() for e in c["elements"]]}
                    for c in classes],
    }
    ok = len(elems) == 48 and sorted(
        (c["order"], c["size"]) for c in classes) == symmetry.EXPECTED_CLASS_PROFILE
    return ok, {"group": data}


def cmd_rescale(args):
    mu = _parse_mu(args.mu)
    vars = ("kappa", "lam") + PARAM_NAMES
    kappa = _parse_value(args.kappa, "kappa", vars)
    lam = _parse_value(args.lam, "lam", vars)
    rep = symmetry.rescale_gkp(args.case, mu, kappa, lam, _depth(args.depth))
    return rep["ok"], {"report": _mk_jsonable(rep)}


def cmd_hankel(args):
    m = args.size
    if not 1 <= m <= hk.SIZE_CAP:
        raise UsageError("--size must be between 1 and %d, got %d" % (hk.SIZE_CAP, m))
    if args.order < 1:
        raise UsageError("--order must be at least 1, got %d" % args.order)
    if (args.family == "gkp-tilde") == bool(args.mu):
        raise UsageError("need exactly one of --family gkp-tilde and --mu")
    # the m x m Hankel matrix reads a_0..a_{2m-2}
    if args.mu:
        ps = triangle_rows(_parse_mu(args.mu), 2 * m - 2)
    else:
        ps = hk.gkp_tilde_polys(2 * m - 2)
    rep = hk.hankel_tp(ps, m, args.order)
    return rep.ok, {"hankel": {"order": rep.order, "ok": rep.ok,
                               "witness": _mk_jsonable(rep.witness)},
                    "method": "minor-enumeration"}


def cmd_logconvex(args):
    nmax = _nonnegative(args.nmax, "--nmax")
    ps = triangle_rows(_parse_mu(args.mu), nmax + 2)
    rep = hk.log_convexity(ps, nmax, strong=args.strong)
    return rep["ok"], {"logconvex": _mk_jsonable(rep)}


def cmd_search_node(args):
    if tuple(tok for tok in args.label.split(",") if tok) not in search.HINT_BOOK:
        raise UsageError("unknown node label %r" % args.label)
    if args.level is not None and _depth(args.level) < 1:
        raise UsageError("--level must be at least 1, got %d" % args.level)
    node = search.get_node(args.label)
    rep = search.node_coefficient(node, args.level)
    data = {
        "label": node.name(),
        "free": list(node.free),
        "level": rep.level,
        "c": felem_to_json(rep.c),
        "degQ": rep.degQ,
        "degR": rep.degR,
        "remainder": felem_to_json(rep.remainder) if rep.remainder is not None else None,
        "rem_matches_doc": rep.rem_matches_doc,
        "children": [
            {"kind": ch[0],
             "value": ch[1] if isinstance(ch[1], str) else None,
             "label": ch[-1].name() if hasattr(ch[-1], "name") else None}
            for ch in rep.children],
    }
    ok = rep.rem_matches_doc in (True, None)
    return ok, {"node": data}


def cmd_search_tree(args):
    summary = search.run_tree()
    if args.dot:
        return summary["ok"], {"dot": search.tree_dot(summary)}
    return summary["ok"], {"tree": summary}


def cmd_matprod(args):
    N = _depth(args.depth)
    rep = matprod.verify_product_case(args.case, N)
    return rep["ok"], {"report": _mk_jsonable(rep)}


def cmd_combinat(args):
    out = {}
    ok = True
    if args.master is not None:
        rep = combinat.verify_master_sfrac(_nonnegative(args.master, "--master"))
        out["master"] = _mk_jsonable(rep)
        ok = ok and rep["ok"]
    if args.explicit is not None:
        rep = combinat.explicit_formula_checks(_nonnegative(args.explicit, "--explicit"))
        out["explicit"] = _mk_jsonable(rep)
        ok = ok and rep["ok"]
    if args.stats:
        st = combinat.perm_stats(tuple(int(ch) for ch in args.stats.split(",")))
        out["stats"] = st.__dict__
    if not out:
        raise UsageError("nothing to do; pass --master/--explicit/--stats")
    return ok, out


def cmd_inverse_pair(args):
    rng = random.Random(args.seed)
    N = _depth(args.depth)
    _nonnegative(args.random, "--random")
    _nonnegative(args.identity_range, "--identity-range")
    alpha = Fraction(1) if args.alpha is None else _parse_value(args.alpha)
    results = []
    ok = True
    for _ in range(args.random):
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(n + 1)]
                for n in range(N + 1)]
        B = Triangle(rows)
        A = matprod.inverse_pair_from_b(B, alpha)
        rep = matprod.inverse_pair_check(A, B, alpha)
        results.append(rep["all"])
        ok = ok and rep["all"]
    rep = matprod.binomial_inverse_identity(args.identity_range)
    ok = ok and rep["ok"]
    return ok, {"random_instances": results,
                "binomial_identity": _mk_jsonable(rep)}


def _mk_jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, dict):
        return {str(k): _mk_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_mk_jsonable(v) for v in obj]
    return felem_to_json(obj)


# minimal shipped schema: required top-level keys per report, plus the
# payload key each subcommand must emit
REPORT_SCHEMA = {
    "required": {"schema_version": int, "command": str, "ok": bool,
                 "exit": int},
    "payloads": {
        "triangle": "triangle", "polys": "row_polys", "sfrac": "cfrac",
        "jfrac": "cfrac", "eval-cfrac": "series",
        "verify-family": "report", "verify-egf": "report",
        "symmetry": "action", "group": None, "rescale": "report",
        "hankel": "hankel", "logconvex": "logconvex",
        "search-node": "node", "search-tree": None, "matprod": "report",
        "combinat": None, "inverse-pair": None,
    },
}


def validate_report(report: dict) -> bool:
    """Check a JSON report against the shipped schema."""
    if "error" in report:
        return report.get("exit") == 2
    if "failure" in report:
        return report.get("exit") == 1 and report.get("ok") is False
    if "internal" in report:
        return report.get("exit") == 3 and report.get("ok") is False
    for key, typ in REPORT_SCHEMA["required"].items():
        if key not in report or not isinstance(report[key], typ):
            return False
    if report["schema_version"] != SCHEMA_VERSION:
        return False
    payload = REPORT_SCHEMA["payloads"].get(report["command"], None)
    if payload is not None and payload not in report:
        return False
    return True


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gkpfrac",
        description="exact triangular recurrences, their symmetry group, "
                    "and continued-fraction verification")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON report to this path")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("triangle", parents=[common], help="generate a triangular array")
    p.add_argument("--mu", required=True)
    p.add_argument("--depth", type=int, default=8)
    p.set_defaults(fn=cmd_triangle)

    p = sub.add_parser("polys", parents=[common], help="row-generating polynomials")
    p.add_argument("--mu", required=True)
    p.add_argument("--depth", type=int, default=8)
    p.set_defaults(fn=cmd_polys)

    p = sub.add_parser("sfrac", parents=[common], help="extract S-fraction coefficients")
    p.add_argument("--mu", required=True)
    p.add_argument("--depth", type=int, default=8)
    p.set_defaults(fn=cmd_sfrac)

    p = sub.add_parser("jfrac", parents=[common], help="extract J-fraction coefficients")
    p.add_argument("--mu", required=True)
    p.add_argument("--levels", type=int, default=4)
    p.set_defaults(fn=cmd_jfrac)

    p = sub.add_parser("eval-cfrac", parents=[common], help="evaluate a coefficient bundle")
    p.add_argument("--kind", required=True, choices=["S", "T", "J", "s", "t", "j"])
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--c", help="semicolon-separated polynomials in x")
    p.add_argument("--d")
    p.add_argument("--e")
    p.add_argument("--f")
    p.set_defaults(fn=cmd_eval_cfrac)

    p = sub.add_parser("verify-family", parents=[common], help="end-to-end family verification")
    p.add_argument("--id", required=True)
    p.add_argument("--symbolic", action="store_true")
    p.add_argument("--params")
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--kind", choices=["S", "T", "J"])
    p.set_defaults(fn=cmd_verify_family)

    p = sub.add_parser("verify-egf", parents=[common], help="closed-form egf check")
    p.add_argument("--id", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--order", type=int, default=8)
    p.set_defaults(fn=cmd_verify_egf)

    p = sub.add_parser("symmetry", parents=[common], help="verify a parameter-map action")
    p.add_argument("--map", required=True,
                   help="word like S*Z*X^3, or 'scaling'")
    p.add_argument("--mu")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--show-map", action="store_true")
    p.set_defaults(fn=cmd_symmetry)

    p = sub.add_parser("group", parents=[common], help="group table / relations")
    p.add_argument("--relations", action="store_true")
    p.set_defaults(fn=cmd_group)

    p = sub.add_parser("rescale", parents=[common], help="rescaling identities")
    p.add_argument("--case", required=True, choices=["a", "b", "c"])
    p.add_argument("--mu", required=True)
    p.add_argument("--kappa", default="sym")
    p.add_argument("--lam", default="sym")
    p.add_argument("--depth", type=int, default=6)
    p.set_defaults(fn=cmd_rescale)

    p = sub.add_parser("hankel", parents=[common],
                       help="coefficientwise total positivity: every minor up to --order")
    p.add_argument("--family", choices=["gkp-tilde"])
    p.add_argument("--mu")
    p.add_argument("--size", type=int, default=5)
    p.add_argument("--order", type=int, default=2)
    p.set_defaults(fn=cmd_hankel)

    p = sub.add_parser("logconvex", parents=[common], help="coefficientwise log-convexity")
    p.add_argument("--mu", required=True)
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--strong", action="store_true")
    p.set_defaults(fn=cmd_logconvex)

    p = sub.add_parser("search-node", parents=[common], help="one decision-tree node")
    p.add_argument("--label", required=True)
    p.add_argument("--level", type=int)
    p.set_defaults(fn=cmd_search_node)

    p = sub.add_parser("search-tree", parents=[common], help="replay the whole decision tree")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(fn=cmd_search_tree)

    p = sub.add_parser("matprod", parents=[common], help="product-recurrence cases")
    p.add_argument("--case", required=True)
    p.add_argument("--depth", type=int, default=5)
    p.set_defaults(fn=cmd_matprod)

    p = sub.add_parser("combinat", parents=[common], help="permutation-statistic oracles")
    p.add_argument("--master", type=int)
    p.add_argument("--explicit", type=int)
    p.add_argument("--stats")
    p.set_defaults(fn=cmd_combinat)

    p = sub.add_parser("inverse-pair", parents=[common], help="inverse pairs of arrays")
    p.add_argument("--random", type=int, default=20)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--alpha")
    p.add_argument("--identity-range", type=int, default=8)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the random instances")
    p.set_defaults(fn=cmd_inverse_pair)

    return ap


# built on the first call of main, not at import, and then reused: parsing
# keeps no state in the parser, and building it takes about 3 ms
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    report = {"schema_version": SCHEMA_VERSION, "command": args.command}
    try:
        ok, payload = args.fn(args)
    except UsageError as exc:
        report.update({"ok": False, "error": str(exc), "exit": 2})
        _emit(report, args)
        return 2
    except CHECK_FAILURES as exc:
        report.update({"ok": False, "failure": "%s: %s"
                       % (type(exc).__name__, exc), "exit": 1})
        _emit(report, args)
        return 1
    except (KeyError, ValueError, TypeError, symmetry.SingularMap) as exc:
        report.update({"ok": False, "error": "%s: %s"
                       % (type(exc).__name__, exc), "exit": 2})
        _emit(report, args)
        return 2
    except ArithmeticError as exc:
        report.update({"ok": False, "internal": "%s: %s"
                       % (type(exc).__name__, exc), "exit": 3})
        _emit(report, args)
        return 3
    report.update(payload)
    report["ok"] = bool(ok)
    report["exit"] = 0 if ok else 1
    _emit(report, args)
    return 0 if ok else 1


def _emit(report, args):
    text = json.dumps(report, indent=2, sort_keys=True)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


if __name__ == "__main__":
    sys.exit(main())
