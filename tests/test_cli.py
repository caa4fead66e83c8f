import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gkpfrac
from gkpfrac import cli
from gkpfrac.cli import main, parse_poly
from gkpfrac.exactalg import (
    EXPONENT_LIMIT, MPoly, _norm_scalar, felem_eq, rational, variables,
)
from gkpfrac.gkpcore import row_polys, triangle
from gkpfrac.hankel import coeffwise_nonneg, hankel_tp, log_convexity


def mpoly_from_json(d) -> MPoly:
    """The polynomial a report prints as {"vars", "terms"}."""
    return MPoly(tuple(d["vars"]),
                 {tuple(e): _norm_scalar(rational(c)) for e, c in d["terms"]})


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    data = json.loads(out.read_text())
    return code, data


def test_triangle_stirling(tmp_path):
    code, data = run_cli(["triangle", "--mu", "0,1,0,0,0,1", "--depth", "5"],
                         tmp_path)
    assert code == 0 and data["ok"]
    assert data["schema_version"] == 1
    assert data["triangle"]["rows"][3] == ["0", "1", "3", "1"]


def test_verify_family_exit0(tmp_path):
    code, data = run_cli(["verify-family", "--id", "F3a", "--symbolic",
                          "--depth", "8"], tmp_path)
    assert code == 0 and data["ok"]


@pytest.mark.parametrize("fid", ["s1a", "s1b"])
def test_verify_family_terminating_kinds(fid, tmp_path):
    # a terminating family has only an S-form: --kind T or J is refused
    # instead of checking the S-form under another name
    for kind in "TJ":
        code, data = run_cli(["verify-family", "--id", fid, "--symbolic",
                              "--kind", kind], tmp_path, "kind%s.json" % kind)
        assert code == 2 and not data["ok"]
        assert data["error"] == "UnknownFamily: '%s has no %s-form'" % (fid, kind)
    code, data = run_cli(["verify-family", "--id", fid, "--symbolic",
                          "--kind", "S"], tmp_path)
    assert code == 0 and data["report"]["kind"] == "S"


def test_group_relations_exit0(tmp_path):
    code, data = run_cli(["group", "--relations"], tmp_path)
    assert code == 0 and data["ok"]


def test_group_table_summary(tmp_path):
    code, data = run_cli(["group"], tmp_path)
    assert code == 0
    assert data["group"]["order"] == 48
    assert data["group"]["center"] == ["1", "X^6"]
    assert len(data["group"]["classes"]) == 15


def test_failing_check_exit1(tmp_path):
    code, data = run_cli(["hankel", "--mu=-1,0,0,0,0,1", "--size", "2",
                          "--order", "1"], tmp_path)
    assert code == 1 and not data["ok"]
    assert data["hankel"]["witness"] is not None


def test_usage_error_exit2(tmp_path):
    out = tmp_path / "x.json"
    code = main(["triangle", "--mu", "1,2", "--out", str(out)])
    assert code == 2
    code = main(["triangle", "--mu", "0.5,0,0,0,0,0", "--out", str(out)])
    assert code == 2


def test_every_bad_value_is_a_usage_error(tmp_path):
    # one parser for "exact rational or sym" in every option that takes one;
    # "sym" only where the option declares a variable for it
    cases = [
        (["triangle", "--mu", "0,0,abc,0,0,1"], "abc"),
        (["triangle", "--mu", "0,0,1/0,0,0,1"], "1/0"),
        (["verify-family", "--id", "F1a", "--params", "alpha=1/0"], "1/0"),
        (["rescale", "--case", "a", "--mu", "0,1,0,0,0,1", "--kappa", "abc"],
         "abc"),
        (["rescale", "--case", "a", "--mu", "0,1,0,0,0,1", "--lam", "0.5"],
         "0.5"),
        (["inverse-pair", "--alpha", "sym"], "sym"),
        (["inverse-pair", "--alpha", "2/0"], "2/0"),
        (["eval-cfrac", "--kind", "S", "--c", "1/0", "--order", "3"], "1/0"),
    ]
    for i, (argv, value) in enumerate(cases):
        code, data = run_cli(argv, tmp_path, "bad%d.json" % i)
        assert code == 2 and data["exit"] == 2, argv
        assert data["error"] == "bad rational %r" % value, argv


def test_symbolic_option_removed_from_hankel_and_matprod(tmp_path):
    out = str(tmp_path / "x.json")
    assert main(["hankel", "--family", "gkp-tilde", "--symbolic", "x",
                 "--size", "2", "--out", out]) == 2
    assert main(["matprod", "--case", "A.15", "--depth", "3", "--symbolic",
                 "--out", out]) == 2


def test_minors_option_removed_from_hankel(tmp_path):
    # the minors are the only route, so there is nothing left to force
    out = tmp_path / "x.json"
    assert main(["hankel", "--family", "gkp-tilde", "--size", "2", "--order",
                 "2", "--minors", "--out", str(out)]) == 2
    assert not out.exists()


def test_singular_map_is_usage_error(tmp_path):
    code, data = run_cli(["symmetry", "--map", "Z", "--mu", "1,0,1,0,0,1",
                          "--depth", "3"], tmp_path)
    assert code == 2 and data["exit"] == 2 and not data["ok"]
    assert data["error"].startswith("SingularMap: map Z is singular")


def test_a_word_is_not_singular_where_its_map_is_defined(tmp_path):
    # X^7 divides by beta' only, so beta = 0 does not make it singular
    code, data = run_cli(["symmetry", "--map", "X^7", "--mu", "1,0,1,1,1,1",
                          "--depth", "4"], tmp_path)
    assert code == 0 and data["exit"] == 0 and data["ok"]


def test_unknown_subcommand_exit2():
    assert main(["definitely-not-a-command"]) == 2


def test_depth_cap(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "MAX_DEPTH", 6)
    code, data = run_cli(["triangle", "--mu", "0,1,0,0,0,1", "--depth", "10"],
                         tmp_path)
    assert code == 2 and data["error"] == "depth 10 exceeds the cap 6"
    assert run_cli(["triangle", "--mu", "0,1,0,0,0,1", "--depth", "6"],
                   tmp_path)[0] == 0


def test_determinism(tmp_path):
    _, d1 = run_cli(["sfrac", "--mu", "0,1,0,0,0,1", "--depth", "6"],
                    tmp_path, "a.json")
    _, d2 = run_cli(["sfrac", "--mu", "0,1,0,0,0,1", "--depth", "6"],
                    tmp_path, "b.json")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def _series_matches(data, want):
    coeffs = data["series"]["coeffs"]
    assert data["series"]["order"] == len(want) - 1 == len(coeffs) - 1
    for got, w in zip(coeffs, want):
        got = rational(got) if isinstance(got, str) else mpoly_from_json(got)
        assert felem_eq(got, parse_poly(w, ("x",))), (got, w)


def test_eval_cfrac_and_parse_poly(tmp_path):
    # expected series as printed by the bottom-up reciprocal evaluator
    code, data = run_cli(["eval-cfrac", "--kind", "S", "--order", "4",
                          "--c", "x;1;x;2"], tmp_path)
    assert code == 0
    _series_matches(data, ["1", "x", "x^2+x", "x^3+3*x^2+x",
                           "x^4+6*x^3+7*x^2+x"])
    code, data = run_cli(["eval-cfrac", "--kind", "T", "--order", "4",
                          "--c", "x;1;x;2", "--d", "1;0;x+1;0"], tmp_path)
    assert code == 0
    _series_matches(data, ["1", "x+1", "x^2+3*x+1", "x^3+7*x^2+7*x+1",
                           "x^4+15*x^3+31*x^2+15*x+1"])
    code, data = run_cli(["eval-cfrac", "--kind", "J", "--order", "5",
                          "--e", "x;1/2;2*x", "--f", "x;3"], tmp_path)
    assert code == 0
    _series_matches(data, ["1", "x", "x^2+x", "x^3+2*x^2+1/2*x",
                           "x^4+3*x^3+2*x^2+13/4*x",
                           "x^5+4*x^4+9/2*x^3+27/2*x^2+25/8*x"])
    x, = variables("x")
    p = parse_poly("(x+1)^2 - x^2 - 2*x", ("x",))
    assert felem_eq(p, 1)
    p = parse_poly("-3/2*x + 1", ("x",))
    assert felem_eq(p, MPoly.constant(1, ("x",)) - x * 3 / 2)
    top = EXPONENT_LIMIT - 1
    assert parse_poly("x^%d" % top, ("x",)).total_degree() == top


def test_search_node_cli(tmp_path):
    code, data = run_cli(["search-node", "--label", "0,0,0", "--level", "3"],
                         tmp_path)
    assert code == 0
    assert data["node"]["rem_matches_doc"] is True
    assert data["node"]["degQ"] <= 2 and data["node"]["degR"] <= 1


def test_symmetry_cli(tmp_path):
    code, data = run_cli(["symmetry", "--map", "D", "--depth", "4",
                          "--show-map", "--mu", "0,1,0,0,0,1"], tmp_path)
    assert code == 0 and data["ok"]
    assert data["mu_transformed"] == ["0", "0", "1", "1", "-1", "0"]


def test_rescale_cli(tmp_path):
    code, data = run_cli(["rescale", "--case", "c", "--mu", "0,0,1,0,0,0",
                          "--kappa", "2", "--lam", "-1", "--depth", "5"],
                         tmp_path)
    assert code == 0 and data["ok"]


def test_combinat_cli(tmp_path):
    code, data = run_cli(["combinat", "--master", "4", "--stats", "2,3,1"],
                         tmp_path)
    assert code == 0
    assert data["stats"]["exc"] == 2 and data["stats"]["cyc"] == 1


def test_inverse_pair_cli(tmp_path):
    code, data = run_cli(["inverse-pair", "--random", "3", "--depth", "4",
                          "--identity-range", "4"], tmp_path)
    assert code == 0 and data["ok"]


def test_seed_is_rejected_where_nothing_reads_it():
    assert main(["triangle", "--mu", "0,1,0,0,0,1", "--seed", "1"]) == 2


def test_seed_on_inverse_pair(tmp_path):
    code, data = run_cli(["inverse-pair", "--seed", "1", "--random", "3",
                          "--depth", "4", "--identity-range", "4"], tmp_path)
    assert code == 0 and data["ok"]


def test_reports_validate_against_schema(tmp_path):
    from gkpfrac.cli import validate_report
    cases = [
        ["triangle", "--mu", "0,1,0,0,0,1", "--depth", "4"],
        ["polys", "--mu", "0,1,0,0,0,1", "--depth", "4"],
        ["sfrac", "--mu", "0,1,0,0,0,1", "--depth", "4"],
        ["jfrac", "--mu", "0,1,1,1,-1,0", "--levels", "2"],
        ["eval-cfrac", "--kind", "S", "--order", "3", "--c", "x;1;x"],
        ["verify-family", "--id", "F2b", "--symbolic", "--depth", "6"],
        ["group"],
        ["rescale", "--case", "b", "--mu", "1,2,3,0,0,1", "--depth", "4"],
        ["logconvex", "--mu", "0,1,0,0,0,1", "--nmax", "3"],
        ["matprod", "--case", "A.5", "--depth", "4"],
        ["combinat", "--master", "3"],
        ["inverse-pair", "--random", "2", "--depth", "3",
         "--identity-range", "3"],
    ]
    for i, argv in enumerate(cases):
        code, data = run_cli(argv, tmp_path, "schema%d.json" % i)
        assert validate_report(data), argv
    # the last report, each way it can break the schema
    assert not validate_report({k: v for k, v in data.items() if k != "ok"})
    assert not validate_report(dict(data, ok="yes"))
    assert not validate_report(dict(data, schema_version=cli.SCHEMA_VERSION + 1))
    code, data = run_cli(cases[0], tmp_path, "schema_payload.json")
    assert not validate_report({k: v for k, v in data.items() if k != "triangle"})


def test_search_tree_dot(tmp_path):
    code, data = run_cli(["search-tree", "--dot"], tmp_path)
    assert code == 0
    assert data["dot"].startswith("digraph")
    assert "F2b" in data["dot"] and "s6b" in data["dot"]


def test_unknown_search_label_is_usage_error(tmp_path):
    code, data = run_cli(["search-node", "--label", "0,7"], tmp_path)
    assert code == 2 and data["exit"] == 2 and not data["ok"]
    assert "0,7" in data["error"]


def test_inconsistent_node_is_check_failure(tmp_path, monkeypatch):
    from gkpfrac import search

    def broken(node, k=None):
        raise search.InconsistentNode("%s: documented Q mismatch" % node.name())

    monkeypatch.setattr(search, "node_coefficient", broken)
    code, data = run_cli(["search-node", "--label", "0"], tmp_path)
    assert code == 1 and data["exit"] == 1 and not data["ok"]
    assert data["failure"].startswith("InconsistentNode:")
    assert "documented Q mismatch" in data["failure"]
    from gkpfrac.cli import validate_report
    assert validate_report(data)


def test_logconvex_strong_failure_reports(tmp_path):
    code, data = run_cli(["logconvex", "--mu=-1,0,0,0,0,1", "--nmax", "4",
                          "--strong"], tmp_path)
    assert code == 1 and not data["ok"]
    assert data["logconvex"] == {
        "ok": False, "strong": True,
        "first_failure": {"m": 0, "n": 0, "monomial": "x", "coeff": -1}}
    # a symbolic parameter, and a Fraction witness at a later pair
    code, data = run_cli(["logconvex", "--mu=sym,1,1,1/2,-1,1/2", "--nmax",
                          "3", "--strong"], tmp_path)
    assert code == 1 and not data["ok"]
    assert data["logconvex"]["first_failure"] == {
        "m": 1, "n": 1, "monomial": "x^2", "coeff": "-1/4"}


def test_hankel_order2_reports_come_from_the_minors(tmp_path):
    code, data = run_cli(["hankel", "--family", "gkp-tilde", "--size", "3",
                          "--order", "2"], tmp_path)
    assert code == 0 and data["ok"]
    assert data["method"] == "minor-enumeration"
    assert data["hankel"] == {"ok": True, "order": 2, "witness": None}
    # a failure is witnessed by the first failing minor: here the entry x - 1
    code, data = run_cli(["hankel", "--mu=-1,0,0,0,0,1", "--size", "3",
                          "--order", "2"], tmp_path)
    assert code == 1 and data["method"] == "minor-enumeration"
    assert data["hankel"]["witness"]["rows"] == [0]
    assert data["hankel"]["witness"]["cols"] == [1]
    assert data["hankel"]["witness"]["offending"] == {"coeff": -1, "monomial": {"x": 0}}


def test_hankel_builds_only_the_rows_the_matrix_reads(tmp_path, monkeypatch):
    # the m x m Hankel matrix reads a_0..a_{2m-2}: rows 0..2m-2 of the triangle
    asked = []
    rows = cli.triangle_rows
    monkeypatch.setattr(cli, "triangle_rows", lambda mu, N: asked.append(N) or rows(mu, N))
    tilde = cli.hk.gkp_tilde_polys
    monkeypatch.setattr(cli.hk, "gkp_tilde_polys", lambda N: asked.append(N) or tilde(N))
    for m in (1, 3):
        assert run_cli(["hankel", "--mu", "1,2,1,1,1,1", "--size", str(m)], tmp_path)[0] == 0
        assert run_cli(["hankel", "--family", "gkp-tilde", "--size", str(m)], tmp_path)[0] == 0
    assert asked == [0, 0, 4, 4]


def test_hankel_order2_checks_the_entries_and_only_the_matrix(tmp_path):
    # the entry a_1 = 1 - 2x fails although every difference passes
    code, data = run_cli(["hankel", "--mu=0,-1,1,-2,2,-2", "--size", "3", "--order", "2"],
                         tmp_path)
    assert code == 1 and data["method"] == "minor-enumeration"
    assert data["hankel"]["witness"]["offending"] == {"coeff": -2, "monomial": {"x": 1}}
    # P_1 P_3 - P_2^2 fails, but a_3 lies outside the 2 x 2 matrix
    code, data = run_cli(["hankel", "--mu=-1,3,1,0,0,2", "--size", "2", "--order", "2"],
                         tmp_path)
    assert code == 0 and data["ok"]
    # P_0 P_4 - P_1 P_3 fails, but it is no minor of the 3 x 3 matrix, and
    # every minor passes
    code, data = run_cli(["hankel", "--mu=2,1,1/2,-1,2,0", "--size", "3", "--order", "2"],
                         tmp_path)
    assert code == 0 and data["method"] == "minor-enumeration"
    assert data["hankel"] == {"ok": True, "order": 2, "witness": None}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(-2, 2), min_size=6, max_size=6)
       | st.lists(st.integers(0, 2), min_size=6, max_size=6), st.integers(2, 5))
def test_strong_log_convexity_implies_order2_hankel(mu, size):
    # nonnegative entries a_0..a_{2m-2} and strong log-convexity to n_max =
    # 2m - 4 imply order 2: every 2 x 2 minor of the m x m matrix is a sum
    # of the differences.  Nonnegative mu make the premise hold at every size.
    ps = row_polys(triangle(mu, 2 * size))
    rep = hankel_tp(ps, size, 2)
    if all(coeffwise_nonneg(p)[0] for p in ps[:2 * size - 1]) and \
            log_convexity(ps, 2 * size - 4, strong=True)["ok"]:
        assert rep.ok
    with tempfile.TemporaryDirectory() as d:
        code, data = run_cli(["hankel", "--mu=" + ",".join(map(str, mu)),
                              "--size", str(size), "--order", "2"], Path(d))
    assert code == (0 if rep.ok else 1)
    assert data["hankel"] == json.loads(json.dumps(cli._mk_jsonable(
        {"order": rep.order, "ok": rep.ok, "witness": rep.witness})))


def test_vacuous_ranges_are_usage_errors(tmp_path):
    cases = [
        (["logconvex", "--mu", "0,1,0,0,0,1", "--nmax", "-1"], "--nmax"),
        (["logconvex", "--mu", "0,1,0,0,0,1", "--nmax", "-3", "--strong"], "--nmax"),
        (["hankel", "--family", "gkp-tilde", "--size", "0"], "--size"),
        # the minors are capped at every order
        (["hankel", "--mu=-1,0,0,0,0,1", "--size", "7", "--order", "2"], "--size"),
        (["hankel", "--family", "gkp-tilde", "--order", "0"], "--order"),
        (["hankel", "--mu", "0,1,0,0,0,1", "--order", "-1"], "--order"),
    ]
    for i, (argv, name) in enumerate(cases):
        code, data = run_cli(argv, tmp_path, "vacuous%d.json" % i)
        assert code == 2 and data["exit"] == 2 and not data["ok"], argv
        assert data["error"].startswith(name + " must be"), argv


@pytest.mark.parametrize("argv, error", [
    (["combinat", "--master", "-1"], "--master must be nonnegative"),
    (["combinat", "--explicit", "-1"], "--explicit must be nonnegative"),
    (["inverse-pair", "--identity-range", "-1"], "--identity-range must be"),
    (["inverse-pair", "--random", "-1"], "--random must be nonnegative"),
    (["search-node", "--label", "0,0", "--level", "0"], "--level must be"),
    (["search-node", "--label", "0,0", "--level", "-2"], "depth must be"),
    (["search-node", "--label", "0,0", "--level", "30"], "depth 30 exceeds"),
])
def test_counts_that_check_nothing_are_usage_errors(argv, error, tmp_path):
    code, data = run_cli(argv, tmp_path)
    assert code == 2 and data["exit"] == 2 and not data["ok"]
    assert cli.validate_report(data) and data["error"].startswith(error)


@pytest.mark.parametrize("argv, error", [
    (["verify-family", "--id", "F3a", "--params", "beta"], "expected name=value"),
    # --symbolic used to drop --params silently and check symbolically
    (["verify-family", "--id", "F3a", "--symbolic", "--params",
      "beta=1,betap=2,gammap=3", "--depth", "4"], "--symbolic takes no --params"),
    (["combinat"], "nothing to do"),
    (["combinat", "--master", "10"], "SizeLimit: n=10 exceeds the brute-force cap 9"),
    (["eval-cfrac", "--kind", "S", "--c", "(x"], "missing )"),
    (["eval-cfrac", "--kind", "S", "--c", "x+"], "unexpected end of expression"),
    (["eval-cfrac", "--kind", "S", "--c", "y"], "unknown variable 'y'"),
    (["eval-cfrac", "--kind", "S", "--c", "x)"], "trailing tokens"),
    (["eval-cfrac", "--kind", "S", "--c", "x$1"], "bad character '$'"),
])
def test_usage_errors_of_parsers_and_option_sets(argv, error, tmp_path):
    code, data = run_cli(argv, tmp_path)
    assert code == 2 and data["exit"] == 2 and not data["ok"]
    assert cli.validate_report(data) and data["error"].startswith(error), data["error"]


@pytest.mark.parametrize("fid, params", [
    ("GKPZ", "beta=1,gamma=2,alphap=3,gammap=1,kappa=2"),
    ("F3a", "beta=1,betap=2,gammap=3"),
    ("F7a", "beta=1,gamma=2,betap=3,gammap=1"),
    ("F1c", "beta=2,gamma=3,alphap=1,gammap=5"),
])
def test_verify_egf_passes(fid, params, tmp_path):
    code, data = run_cli(["verify-egf", "--id", fid, "--params", params,
                          "--order", "6"], tmp_path)
    assert data["report"] == {"id": fid, "ok": True, "first_mismatch": None}
    assert code == 0 and data["exit"] == 0 and cli.validate_report(data)


@pytest.mark.parametrize("argv, code", [
    (["symmetry", "--map", "scaling"], 0),
    (["symmetry", "--map", "scaling", "--show-map"], 0),
    (["combinat", "--explicit", "4"], 0),
    (["verify-egf", "--id", "F3a", "--params", ""], 2),
    (["hankel", "--size", "3"], 2),
])
def test_exit_codes_of_less_used_routes(argv, code, tmp_path):
    got, data = run_cli(argv, tmp_path)
    assert got == code and data["exit"] == code and data["ok"] is (code == 0)
    assert cli.validate_report(data)
    if "--show-map" in argv:
        kappa, lam, *mu = variables("kappa lam alpha beta gamma alphap betap gammap")
        want = [kappa * v for v in mu[:3]] + [lam * v for v in mu[3:]]
        moved = [mpoly_from_json(v) for v in data["mu_transformed"]]
        assert len(moved) == 6
        assert all(felem_eq(m, w) for m, w in zip(moved, want))


@pytest.mark.parametrize("coeffs", ["1;;x", "1;x;", ";1", " ; "])
def test_empty_coefficient_entries_are_usage_errors(coeffs, tmp_path):
    # dropping the entry would move x from c_3 to c_2 and exit 0
    code, data = run_cli(["eval-cfrac", "--kind", "S", "--order", "2",
                          "--c", coeffs], tmp_path)
    assert code == 2 and data["exit"] == 2 and cli.validate_report(data)
    assert data["error"].startswith("empty entry")


def test_missing_or_empty_coefficient_option_is_an_empty_list(tmp_path):
    # a J-fraction reads no c list
    reports = [run_cli(["eval-cfrac", "--kind", "J", "--order", "2", "--e",
                        "1;1", "--f", "1;1"] + argv, tmp_path)
               for argv in ([], ["--c", ""])]
    assert reports[0] == reports[1] and reports[0][0] == 0


@pytest.mark.parametrize("exponent", ["", "y", "2/3", "-1", str(EXPONENT_LIMIT)])
def test_bad_exponents_are_usage_errors(exponent, tmp_path):
    code, data = run_cli(["eval-cfrac", "--kind", "S", "--order", "2",
                          "--c", "x^%s;1" % exponent], tmp_path)
    assert code == 2 and cli.validate_report(data)
    assert data["error"].startswith("exponent after ^ must be an integer")


def test_hankel_minor_enumeration_reports(tmp_path):
    code, data = run_cli(["hankel", "--mu=-1,0,0,0,0,1", "--size", "3",
                          "--order", "3"], tmp_path)
    assert code == 1 and data["exit"] == 1 and not data["ok"]
    assert data["method"] == "minor-enumeration"
    assert data["hankel"] == {"ok": False, "order": 3, "witness": {
        "rows": [0], "cols": [1],
        "minor": {"terms": [[[1], "1"], [[0], "-1"]], "vars": ["x"]},
        "offending": {"coeff": -1, "monomial": {"x": 0}}}}
    code, data = run_cli(["hankel", "--family", "gkp-tilde", "--size", "3",
                          "--order", "3"], tmp_path)
    assert code == 0 and data["exit"] == 0 and data["ok"]
    assert data["method"] == "minor-enumeration"
    assert data["hankel"] == {"ok": True, "order": 3, "witness": None}


def test_arithmetic_errors_are_internal(tmp_path, monkeypatch):
    from gkpfrac import cli, hankel
    from gkpfrac.cli import validate_report

    def raiser(exc):
        def fn(*args, **kwargs):
            raise exc
        return fn

    # every command builds its rows with cli.triangle, so each case patches
    # only the function it names
    cases = [
        (hankel, "hankel_tp", ArithmeticError("cross-check"),
         ["hankel", "--mu", "0,1,0,0,0,1", "--size", "3", "--order", "3"],
         "ArithmeticError: cross-check"),
        (hankel, "log_convexity", OverflowError("key limit"),
         ["logconvex", "--mu", "0,1,0,0,0,1", "--nmax", "3"],
         "OverflowError: key limit"),
        (cli, "triangle", ZeroDivisionError("zero pivot"),
         ["triangle", "--mu", "0,1,0,0,0,1", "--depth", "3"],
         "ZeroDivisionError: zero pivot"),
    ]
    for i, (owner, name, exc, argv, message) in enumerate(cases):
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, raiser(exc))
            code, data = run_cli(argv, tmp_path, "internal%d.json" % i)
        assert code == 3 and data["exit"] == 3 and data["ok"] is False, argv
        assert data["internal"] == message
        assert validate_report(data)
    # a singular parameter map stays a usage error
    monkeypatch.setattr(cli, "triangle", raiser(cli.symmetry.SingularMap("map Z")))
    code, data = run_cli(cases[2][3], tmp_path, "singular.json")
    assert code == 2 and data["exit"] == 2 and validate_report(data)



def test_vanishing_egf_denominator_is_a_usage_error(tmp_path):
    # removable singularities of the closed forms: reported, not an
    # internal division by zero (exit 3)
    for fid, params, expr in [
            ("F3a", "beta=0,betap=1,gammap=1", "beta"),
            ("F3b", "alpha=1,gamma=1,alphap=0", "alpha*alphap"),
            ("F1a", "beta=0,alphap=0,gammap=1", "beta - alphap*x"),
            ("F4b", "alpha=1,gamma=1,kappa=0", "kappa")]:
        code, data = run_cli(["verify-egf", "--id", fid, "--params", params], tmp_path)
        assert code == 2 and data["exit"] == 2 and not data["ok"], fid
        assert data["error"] == ("VanishingDenominator: %s: denominator %s vanishes"
                                 % (fid, expr))


def test_main_builds_one_parser_and_no_option_leaks(monkeypatch, tmp_path, capsys):
    # the parser is built on the first call and reused; --out and --level
    # of one call must not reach the next
    built = []
    build = cli.build_parser

    def spy():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", spy)
    monkeypatch.setattr(cli, "_parser", None)
    out = tmp_path / "first.json"
    assert main(["search-node", "--label", "0,0", "--level", "1", "--out", str(out)]) == 0
    first = out.read_text()
    assert json.loads(first)["node"]["level"] == 1
    assert capsys.readouterr().out == ""
    assert main(["group"]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == "group"
    assert main(["search-node", "--label", "0,0"]) == 0
    assert json.loads(capsys.readouterr().out)["node"]["level"] == 2
    assert main(["no-such-command"]) == 2
    assert out.read_text() == first
    assert built == [1]


def test_python_dash_m_runs_the_cli(tmp_path):
    src = str(Path(gkpfrac.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(*args):
        return subprocess.run([sys.executable, "-m", *args], env=env,
                              capture_output=True, text=True, timeout=120)

    out = tmp_path / "group.json"
    done = run("gkpfrac", "group", "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert json.loads(out.read_text())["ok"] is True
    assert run("gkpfrac", "no-such-command").returncode == 2
    # the module of the front end runs as a program too
    assert run("gkpfrac.cli", "no-such-command").returncode == 2


def test_repeated_parameter_name_is_a_usage_error(tmp_path):
    argv = ["verify-family", "--id", "F3a", "--depth", "3", "--params"]
    code, data = run_cli(argv + ["beta=1,betap=2,gammap=3,beta=5"], tmp_path, "twice.json")
    assert code == 2 and data["exit"] == 2 and not data["ok"]
    assert cli.validate_report(data) and "'beta'" in data["error"]
    code, data = run_cli(argv + ["beta=5,betap=2,gammap=3"], tmp_path, "once.json")
    assert code == 0 and data["ok"]


def test_hankel_takes_one_of_family_and_mu(tmp_path):
    code, data = run_cli(["hankel", "--family", "gkp-tilde", "--mu", "1,2,3,1,1,1",
                          "--size", "3"], tmp_path)
    assert code == 2 and data["exit"] == 2 and not data["ok"]
    assert cli.validate_report(data)
    assert data["error"] == "need exactly one of --family gkp-tilde and --mu"


def test_hankel_and_logconvex_take_the_four_term_mu(tmp_path):
    # sigma = tau = 2 make the sequence fail where the GKP triangle of the
    # first six entries passes; the reports are those of gkpz_triangle
    from gkpfrac import hankel
    from gkpfrac.gkpcore import gkpz_triangle, row_polys
    mu = (2, 1, -1, 1, 1, 1, 2, 2)
    code, data = run_cli(["hankel", "--mu", "2,1,-1,1,1,1,2,2", "--size", "3",
                          "--order", "3"], tmp_path, "hankel.json")
    rep = hankel.hankel_tp(row_polys(gkpz_triangle(mu, 6)), 3, 3)
    assert code == 1 and cli.validate_report(data) and not rep.ok
    assert data["hankel"]["witness"] == json.loads(json.dumps(cli._mk_jsonable(rep.witness)))
    assert data["hankel"]["witness"]["rows"] == [0, 1]
    code, data = run_cli(["logconvex", "--mu", "2,1,-1,1,1,1,2,2", "--nmax", "3",
                          "--strong"], tmp_path, "logconvex.json")
    rep = hankel.log_convexity(row_polys(gkpz_triangle(mu, 5)), 3, strong=True)
    assert code == 1 and cli.validate_report(data) and not rep["ok"]
    assert data["logconvex"] == json.loads(json.dumps(cli._mk_jsonable(rep)))
    for argv in (["hankel", "--mu", "2,1,-1,1,1,1", "--size", "3", "--order", "3"],
                 ["logconvex", "--mu", "2,1,-1,1,1,1", "--nmax", "3", "--strong"]):
        assert run_cli(argv, tmp_path, "six.json")[0] == 0, argv
