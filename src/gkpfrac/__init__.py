"""Exact-arithmetic toolkit for two-term triangular recurrences: the full
parameter symmetry group, S-/T-/J-type continued fractions of the generating
functions, the decision-tree classification of polynomial S-fraction
families, and coefficientwise Hankel-total-positivity checks.
"""

from .exactalg import (
    MPoly, RatFunc, TruncSeries, generalized_binomial_series, rational,
    variables,
)
from .gkpcore import (
    GKPParams, GKPZParams, Triangle, binomial_like_triangle, closed_form_check,
    egf_trunc, gkp_triangle, gkpz_triangle, ogf_trunc, residual_checks,
    row_polys,
)
from .cfrac import (
    CFrac, binomial_transform_seq, contract, eval_jr, eval_sr, eval_tr,
    extract_jfrac, extract_sfrac, transform_laws,
)
from .symmetry import (
    GroupWord, ScalingMap, apply_map, group_table, parse_word, rescale_gkp,
    verify_action, verify_relations,
)
from .families import (
    family_params, predicted_cfrac, verify_binomial_relations,
    verify_egf_closed_forms, verify_family,
)
from .search import get_node, node_coefficient, run_tree, split_node
from .hankel import coeffwise_nonneg, hankel_tp, hypothesis_check, log_convexity
from .combinat import (
    eulerian, master_poly_bruteforce, perm_stats, stirling_cycle,
    stirling_subset, verify_master_sfrac, x_stirling_transform,
)
from .matprod import (
    inverse_pair_check, nearly_binomial_identities, triangle_product,
    verify_product_case, xshift_smalln_check,
)

__version__ = "1.0.0"
