"""The J cases of ``verify_family`` decide success on the series.

The extraction comparison they used to run, kept below as a test-only
oracle with a prediction ending at its first zero f as extraction does,
must give the same verdict and witness on every J family, symbolic and at
numeric samples (terminating ones included), and on bent predictions.
"""
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gkpfrac import cfrac, families as F
from gkpfrac.cfrac import (
    CFrac, NonExtractableSeries, cfrac_refutation, eval_jr,
    extract_jfrac,
)
from gkpfrac.exactalg import (
    MPoly, TruncSeries, as_field, felem_eq, felem_is_zero, first_mismatch,
)
from gkpfrac.gkpcore import ogf_trunc, triangle
from helpers import cfrac_confirms

J_FAMILIES = [(fid, 8 if fid == "GKPZ" else 10) for fid in
              ("F1c", "GKPZ", "F7a", "F7b", "F9a", "F9b")]

# numeric samples: the first six end at a zero f_2 or f_3, the last two do
# not
SAMPLES = [
    ("F1c", {"beta": 1, "gamma": 0, "alphap": -1, "gammap": 2}, 10),
    ("F1c", {"beta": 1, "gamma": 0, "alphap": 0, "gammap": 0}, 10),
    ("GKPZ", {"beta": 1, "gamma": 0, "alphap": -1, "gammap": 1, "kappa": 0}, 8),
    ("F7a", {"beta": 1, "gamma": 2, "betap": 1, "gammap": -2}, 10),
    ("F7b", {"alpha": 1, "gamma": -2, "alphap": 1, "gammap": 3}, 10),
    ("F9b", {"alpha": 1, "alphap": 2, "kappa": -3}, 10),
    ("F1c", {"beta": 2, "gamma": Fraction(1, 2), "alphap": -1, "gammap": 3}, 9),
    ("F9a", {"beta": 3, "alphaphat": Fraction(2, 3), "kappa": 1}, 10),
]


# -- test-only oracle: the extraction comparison ------------------------------

def first_zero(f):
    """The level of the first zero f, where a J prediction ends."""
    return next((k for k, v in enumerate(f, 1) if felem_is_zero(as_field(v))), None)


def extraction_witness(fid, params, N):
    """first_mismatch of the J prediction against ``extract_jfrac``: the
    first differing e_n or f_n, in the order of the t^n that they first
    move (e_n at 2n + 1, f_n at 2n), else a termination level that differs
    (the prediction ends at its first zero f)."""
    got = extract_jfrac(ogf_trunc(triangle(F.family_params(fid, params), N)), N // 2)
    want = F.predicted_cfrac(fid, params, N // 2, kind="J")
    end = first_zero(want.f)
    if end is not None:
        want = replace(want, e=want.e[:end], f=want.f[:end - 1])
    pairs = [(2 * n + 1, ("e", n), g, w) for n, (g, w) in enumerate(zip(got.e, want.e))]
    pairs += [(2 * n, ("f", n), g, w) for n, (g, w) in enumerate(zip(got.f, want.f), 1)]
    bad = first_mismatch(p[1:] for p in sorted(pairs))
    if bad is not None:
        level, g, w = bad
        return {"level": level, "expected": repr(w), "got": repr(g)}
    if got.terminated_at == end:
        return None
    return {"level": got.terminated_at, "expected": "nonterminating" if end is None
            else "termination at %s" % end}


PREDICTED = F.predicted_cfrac


def bend(monkeypatch, edit):
    """Make predicted_cfrac hand back ``edit(e, f)`` for J kinds.  Each bend
    edits the catalog's own prediction, not one bent before it, so that
    every edit is checked alone."""
    predicted = PREDICTED

    def bent(id, params=None, m=8, kind=None):
        want = predicted(id, params, m, kind)
        if want.kind != "J":
            return want
        e, f = edit(list(want.e), list(want.f))
        return replace(want, e=tuple(e), f=tuple(f))

    monkeypatch.setattr(F, "predicted_cfrac", bent)


def both_routes(fid, params, N):
    report = F.verify_family(fid, params, N, kind="J")
    assert report["first_mismatch"] == extraction_witness(fid, params, N)
    return report["first_mismatch"]


def add_at(seq, j, delta=1):
    return seq[:j] + [seq[j] + delta] + seq[j + 1:]


# -- the series route against the oracle --------------------------------------

@pytest.mark.parametrize("fid, N", J_FAMILIES)
def test_every_j_family_agrees_with_the_extraction_oracle(fid, N):
    assert both_routes(fid, None, N) is None


@pytest.mark.parametrize("fid, params, N", SAMPLES)
def test_numeric_samples_agree_with_the_extraction_oracle(fid, params, N):
    assert both_routes(fid, params, N) is None


@pytest.mark.parametrize("fid, N", J_FAMILIES)
@pytest.mark.parametrize("edit", ["e", "f", "zero"])
def test_bent_symbolic_predictions_agree_with_the_oracle(fid, N, edit, monkeypatch):
    m = N // 2
    # the first level, the middle one and the last one that extraction reads
    for j in sorted({1, m // 2, m}):
        if edit == "e":
            bend(monkeypatch, lambda e, f: (add_at(e, j - 1), f))
        elif edit == "f":
            bend(monkeypatch, lambda e, f: (e, add_at(f, j - 1)))
        else:
            bend(monkeypatch, lambda e, f: (e, f[:j - 1] + [0] + f[j:]))
        witness = both_routes(fid, None, N)
        assert witness is not None, (edit, j)
        if edit == "zero":
            assert witness == {"level": None, "expected": "termination at %d" % j}


@pytest.mark.parametrize("fid, params, N", SAMPLES[:6])
def test_bent_terminating_predictions_agree_with_the_oracle(fid, params, N, monkeypatch):
    end = first_zero(F.predicted_cfrac(fid, params, N // 2, kind="J").f)
    # an extra nonzero f past the end, one more past that, and e or f bent
    # before the end
    edits = [lambda e, f: (e, f[:end - 1] + [1] + f[end:]),
             lambda e, f: (e, [1 if felem_is_zero(as_field(v)) else v for v in f]),
             lambda e, f: (add_at(e, end - 1, Fraction(1, 2)), f)]
    if end > 1:
        edits.append(lambda e, f: (e, add_at(f, end - 2)))
    for edit in edits:
        bend(monkeypatch, edit)
        assert both_routes(fid, params, N) is not None


def test_a_prediction_past_an_early_end_is_refuted(monkeypatch):
    # the series of (0, 1, 0, 0, 0, 0) is 1: e_0 = 0 and f_1 = 0, so
    # extraction ends at level 1 and a prediction that goes on is wrong,
    # although e_0 agrees
    params = {"beta": 1, "gamma": 0, "alphap": 0, "gammap": 0}
    bend(monkeypatch, lambda e, f: (e, [MPoly.variable("x", ("x",))] * len(f)))
    assert extract_jfrac(ogf_trunc(triangle(F.family_params("F1c", params), 10)),
                         5).terminated_at == 1
    report = F.verify_family("F1c", params, 10, kind="J")
    assert report["first_mismatch"] == {"level": 1, "expected": "nonterminating"}
    assert extraction_witness("F1c", params, 10) == report["first_mismatch"]


def off_at_the_end(monkeypatch):
    """Make the path sums of every claim wrong in their last coefficient, a
    fault of the series check that extraction does not share."""
    real = cfrac.eval_cfrac

    def off(cf, order):
        s = real(cf, order)
        return TruncSeries(order, s.coeffs[:-1] + [s.coeffs[-1] + 1])

    monkeypatch.setattr(cfrac, "eval_cfrac", off)


def test_an_unconfirmed_j_refutation_raises(monkeypatch):
    off_at_the_end(monkeypatch)
    with pytest.raises(ArithmeticError, match="refutes"):
        F.verify_family("F1c", None, 6, kind="J")


# -- deciding a predicted J-fraction on the series ----------------------------

@st.composite
def nonzero_jfracs(draw):
    """(e, f, j, delta): m = 1-4 levels of Fraction coefficients, or 1-3 of
    MPoly coefficients over 2 variables, with every f nonzero (e may
    vanish), a level j and a nonzero change."""
    fracs = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    if draw(st.booleans()):
        coeff, size = fracs, 4
    else:
        exps = st.tuples(st.integers(0, 1), st.integers(0, 1))
        coeff = st.builds(MPoly, st.just(("p", "q")), st.dictionaries(
            exps, fracs.filter(bool).map(lambda c: int(c) if c.denominator == 1 else c),
            max_size=2))
        size = 3
    m = draw(st.integers(1, size))
    e = draw(st.lists(coeff, min_size=m, max_size=m))
    f = draw(st.lists(coeff.filter(lambda c: not felem_is_zero(c)), min_size=m, max_size=m))
    delta = draw(coeff.filter(lambda c: not felem_is_zero(c)))
    return e, f, draw(st.integers(1, m)), delta


@settings(max_examples=60, deadline=None, derandomize=True)
@given(nonzero_jfracs())
def test_series_decides_a_nonzero_j_prediction(case):
    # [t^{2k}] = f_1...f_k + (terms in e_<k, f_<k) and
    # [t^{2k+1}] = f_1...f_k e_k + (terms in e_<k, f_<=k): a change of f_j
    # moves t^{2j} first, one of e_{j-1} moves t^{2j-1} first
    e, f, j, delta = case
    m = len(f)
    a = eval_jr(e, f, 2 * m)
    back = extract_jfrac(a, m)
    assert back.terminated_at is None
    assert all(felem_eq(as_field(x), as_field(y)) for x, y in
               zip(back.e + back.f, e + f))
    assert cfrac_confirms(a, CFrac("J", e=tuple(e), f=tuple(f)))
    for bent_e, bent_f, level in ((add_at(e, j - 1, delta), f, ("e", j - 1)),
                                  (e, add_at(f, j - 1, delta), ("f", j))):
        want = CFrac("J", e=tuple(bent_e), f=tuple(bent_f))
        assert not cfrac_confirms(a, want)
        assert cfrac_refutation(a, want, "bent")["level"] == level


def test_a_predicted_zero_f_is_left_to_extraction():
    # e = 1, 2, 3 and f = 2, 5, 0 is the finite fraction that ends at level
    # 3: with no stated end the prediction ends at its zero f_3, where
    # extraction ends too
    e, f = [1, 2, 3], [2, 5, 0]
    a = eval_jr(e, f, 6)
    assert extract_jfrac(a, 3).terminated_at == 3
    assert cfrac_confirms(a, CFrac("J", e=tuple(e), f=tuple(f)))
    assert cfrac_confirms(a, CFrac("J", e=(1, 2, 3), f=(2, 5), terminated_at=3))
    # the same fraction claimed to end one level earlier or later
    assert not cfrac_confirms(a, CFrac("J", e=(1, 2), f=(2,), terminated_at=2))
    # a zero before a stated end is left to extraction, which ends at 3;
    # the stated end 4 lies beyond the three levels read, so through them
    # the prediction claims none
    late = CFrac("J", e=(1, 2, 3, 4), f=(2, 5, 0), terminated_at=4)
    assert not cfrac_confirms(a, late)
    assert cfrac_refutation(a, late, "zero") == {"level": 3, "expected": "nonterminating"}
    assert not cfrac_confirms(a, CFrac("J", e=(1, 0, 3), f=(0, 5), terminated_at=3))
    # an end beyond the levels read is not claimed: the two levels that
    # extraction from t^4 reads agree
    assert cfrac_confirms(a.truncate(4), CFrac("J", e=(1, 2, 3), f=(2, 5),
                                               terminated_at=3))


def test_the_order_through_which_a_claim_is_compared():
    # extraction of m levels from a series of order 2m + 1 reads [t^{2m+1}]
    # only to check that the tail of a finite fraction vanishes
    def raised(a):
        return TruncSeries(7, a.coeffs[:7] + [a.coeffs[7] + 1])

    a = raised(eval_jr([1, 2, 3, 4], [2, 5, 7], 7))
    assert cfrac_confirms(a, CFrac("J", e=(1, 2, 3), f=(2, 5, 7)))
    assert extract_jfrac(a, 3) == CFrac("J", e=(1, 2, 3), f=(2, 5, 7))
    b = eval_jr([1, 2, 3, 4], [2, 5, 0], 7)
    finite = CFrac("J", e=(1, 2, 3), f=(2, 5), terminated_at=3)
    assert cfrac_confirms(b, finite)
    assert not cfrac_confirms(raised(b), finite)
    with pytest.raises(NonExtractableSeries):
        cfrac_refutation(raised(b), finite, "tail")
