"""Guards on work the catalog checks no longer do: a confirmed J family is
not extracted, and row polynomials are built without powers of x."""
import pytest

from gkpfrac import cfrac, families as F
from gkpfrac.cfrac import CFrac
from gkpfrac.exactalg import MPoly
from gkpfrac.gkpcore import ogf_trunc, row_polys, triangle

J_FAMILIES = [("F1c", 10), ("GKPZ", 8), ("F7a", 10), ("F7b", 10), ("F9a", 10),
              ("F9b", 10)]


def counted(monkeypatch, owner, name):
    """Patch ``owner.name`` to record its calls; returns the call list."""
    calls = []
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_confirmed_j_families_are_not_extracted(monkeypatch):
    calls = counted(monkeypatch, cfrac, "extract_jfrac")
    for fid, N in J_FAMILIES:
        assert F.verify_family(fid, None, N, kind="J")["first_mismatch"] is None
    assert calls == []
    # the spy sees the one extraction that names a refuted prediction's
    # failing level
    monkeypatch.setattr(F, "predicted_cfrac",
                        lambda *args, **kwargs: CFrac("J", e=(1,) * 3, f=(1,) * 3))
    assert F.verify_family("F1c", None, 6, kind="J")["first_mismatch"] is not None
    assert len(calls) == 1


@pytest.mark.parametrize("fid", F.family_ids())
def test_row_polys_forms_no_power_of_x(fid, monkeypatch):
    calls = counted(monkeypatch, MPoly, "__pow__")
    t = triangle(F.family_params(fid), 8)
    rows = row_polys(t)
    assert calls == []
    x = MPoly.variable("x", rows[0].vars)
    assert rows[2] == sum((c * x ** k for k, c in enumerate(t.rows[2])), 0 * x)
    assert len(calls) == 3
    assert ogf_trunc(t).coeffs == list(rows)
