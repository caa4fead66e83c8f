import ast
import sys
import types
from pathlib import Path

import gkpfrac

# Every name the package exports.  A change to this set must be deliberate:
# removing a name breaks callers, so it is recorded here and in CHANGES.md.
PUBLIC_NAMES = {
    # exactalg
    "MPoly", "RatFunc", "TruncSeries", "generalized_binomial_series",
    "rational", "variables",
    # gkpcore
    "GKPParams", "GKPZParams", "Triangle", "binomial_like_triangle",
    "closed_form_check", "egf_trunc", "gkp_triangle", "gkpz_triangle",
    "ogf_trunc", "residual_checks", "row_polys",
    # cfrac
    "CFrac", "binomial_transform_seq", "contract", "eval_jr", "eval_sr",
    "eval_tr", "extract_jfrac", "extract_sfrac", "transform_laws",
    # symmetry
    "GroupWord", "ScalingMap", "apply_map", "group_table", "parse_word",
    "rescale_gkp", "verify_action", "verify_relations",
    # families
    "family_params", "predicted_cfrac", "verify_binomial_relations",
    "verify_egf_closed_forms", "verify_family",
    # search
    "get_node", "node_coefficient", "run_tree", "split_node",
    # hankel
    "coeffwise_nonneg", "hankel_tp", "hypothesis_check", "log_convexity",
    # combinat
    "eulerian", "master_poly_bruteforce", "perm_stats", "stirling_cycle",
    "stirling_subset", "verify_master_sfrac", "x_stirling_transform",
    # matprod
    "inverse_pair_check", "nearly_binomial_identities", "triangle_product",
    "verify_product_case", "xshift_smalln_check",
}


def test_exported_names_are_pinned():
    exported = {name for name, value in vars(gkpfrac).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC_NAMES


def foreign_imports(source):
    """Top-level names of the absolute imports in ``source`` that are not
    standard-library modules."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {n.split(".")[0] for n in names} - sys.stdlib_module_names


def test_the_package_imports_only_the_standard_library():
    # sympy and the other test tools stay test-only
    assert foreign_imports("import sympy.polys\nfrom hypothesis import given\n"
                           "from .exactalg import MPoly\nimport json\n") \
        == {"sympy", "hypothesis"}
    modules = sorted(Path(gkpfrac.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    found = {m.name: foreign_imports(m.read_text()) for m in modules}
    assert {name: f for name, f in found.items() if f} == {}


def import_faults(source):
    """Names that ``source`` imports and never uses, and names it imports
    more than once."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {"unused": sorted(set(bound) - used),
            "twice": sorted({name for name in bound if bound.count(name) > 1})}


def test_no_module_imports_a_name_it_never_uses_or_twice():
    assert import_faults(
        "from __future__ import annotations\nimport os.path\n"
        "from fractions import Fraction\nfrom .exactalg import Fraction, MPoly\n"
        "def f(x: MPoly):\n    return Fraction(x)\n") \
        == {"unused": ["os"], "twice": ["Fraction"]}
    modules = sorted(Path(gkpfrac.__file__).parent.glob("*.py"))
    found = {m.name: import_faults(m.read_text()) for m in modules
             if m.name != "__init__.py"}
    assert len(found) > 10
    assert {name: f for name, f in found.items() if f["unused"] or f["twice"]} == {}
