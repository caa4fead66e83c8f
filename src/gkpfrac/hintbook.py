"""Documented decision-tree data: per node, the inequations in force
(``atoms``), the node's own coefficient (``own_c``) and what its vanishing
gives (``c_zero``), the declared R-multiplier (``rfactor``), the documented
remainder (``rem_doc``, and ``Q_doc``/``R_doc`` where recorded) and two
fully attributed factor lists: ``factors`` of the remainder numerator and
``deg0["factors"]`` of the x^1 coefficient of R, whose vanishing drops R to
degree 0.  A node whose coefficient is a polynomial has
``passthrough=token`` instead: its one child reads its own record.

Every branch is written in one grammar.  A factor is a dict {"f": factor,
"mult": power (default 1), "actions": [...]} where each action is one of

    ("atom",)                               excluded by an inequation
    ("discard", solve, family)              inside an earlier family
    ("child", token, solve)                 new internal node
    ("red", token, solve, (family, atoms))
    ("terminating", token, solve, (s_id[, atoms]))

``solve`` is a list of (parameter, value) eliminations that kill the
factor, and a leaf's ``atoms`` are its inequations; a terminating leaf
without them keeps its node's.  A leaf names its family only: the family's
parameter values are read off the leaf's point by
``families.family_binding``.  ``deg0["const_atoms"]`` must stay nonzero
on every degree-0 branch.  ``c_zero`` is None when one of the coefficient's
two x-coefficients is a product of atoms, else one action on the
coefficient itself: a ``discard``, or a ``terminating`` leaf with token
``c=0`` and empty atoms (six of the seven such solves kill one of their
node's inequations).  Every entry is a value over the generators of
``GKPParams.symbolic()`` (``a`` .. ``gp``, with ``x`` on their variable
tuple ``VARS``), built once at import.
"""
from __future__ import annotations

from fractions import Fraction

from .exactalg import MPoly, ratfunc
from .gkpcore import GKPParams

a, b, g, ap, bp, gp = GKPParams.symbolic()
VARS = a.vars
x = MPoly.variable("x", VARS)

HINT_BOOK = {
    ("0",): dict(own_c=1, c_zero=None, passthrough="0"),
    ("0", "0"): dict(
        atoms=[],
        own_c=(a + g) + (ap + bp + gp) * x,
        c_zero=("terminating", "c=0", [("gamma", -a), ("gammap", -ap - bp)],
                ("s0", [])),
        rfactor=1,
        rem_doc=(a + g) * (bp * (a + g) - b * (ap + bp + gp)) / (ap + bp + gp),
        Q_doc=a * (a + g)
        + (2 * a * ap + a * bp + a * gp + b * bp + b * gp + b * ap
           + g * ap) * x
        + (ap + bp) * (ap + bp + gp) * x ** 2,
        deg0=dict(const_atoms=[a + g], factors=[
            dict(f=ap + bp + gp,
                 actions=[("child", "0", [("gammap", -ap - bp)])]),
        ]),
        factors=[
            dict(f=a + g, mult=1, actions=[("child", "1a", [("gamma", -a)])]),
            dict(f=bp * (a + g) - b * (ap + bp + gp), mult=1,
                 actions=[("child", "1b",
                           [("beta", (a + g) * bp / (ap + bp + gp))])]),
        ],
    ),
    ("0", "0", "0"): dict(
        atoms=[a + g],
        own_c=a + ap * x,
        c_zero=("discard", [("alpha", 0), ("alphap", 0)], "F2b"),
        rfactor=1,
        rem_doc=a * (a * bp - b * ap) / ap,
        Q_doc=a * (2 * a + g) + ap * (3 * a + b + g) * x
        + ap * (ap + bp) * x ** 2,
        R_doc=a + ap * x,
        deg0=dict(const_atoms=[a], factors=[
            dict(f=ap, actions=[("red", "0", [("alphap", 0)],
                                 ("F2b", [a + g, 2 * a + g, a]))]),
        ]),
        factors=[
            dict(f=a, mult=1, actions=[("child", "1a", [("alpha", 0)])]),
            dict(f=a * bp - b * ap, mult=1,
                 actions=[("child", "1b", [("beta", a * bp / ap)])]),
        ],
    ),
    ("0", "0", "1a"): dict(
        atoms=[ap + bp + gp],
        own_c=(a + b) + (ap + bp) * x,
        c_zero=("discard", [("beta", -a), ("betap", -ap)], "F2a"),
        rfactor=1,
        rem_doc=(a + b) * (a * bp - b * ap) / (ap + bp),
        Q_doc=a * (a + b) + (a + b) * (3 * ap + 2 * bp + gp) * x
        + (ap + bp) * (2 * ap + 2 * bp + gp) * x ** 2,
        R_doc=a + b + (ap + bp) * x,
        deg0=dict(factors=[
            dict(f=ap + bp, actions=[("child", "0", [("betap", -ap)])]),
        ], const_atoms=[a + b, gp]),
        factors=[
            dict(f=a + b, mult=1,
                 actions=[("red", "1a", [("beta", -a)],
                           ("F2a", [ap + bp, ap + bp + gp,
                                    2 * ap + 2 * bp + gp]))]),
            dict(f=a * bp - b * ap, mult=1, actions=[
                ("child", "1b", [("beta", a * bp / ap)]),
                ("red", "1c", [("alpha", 0), ("alphap", 0)],
                 ("F3a", [bp, bp + gp, 2 * bp + gp]))]),
        ],
    ),
    ("0", "0", "1b"): dict(
        atoms=[ap + bp + gp, a + g],
        own_c=a + (ap + bp) * x,
        c_zero=("discard", [("alpha", 0), ("betap", -ap)], "F6"),
        rfactor=ap + bp + gp,
        rem_doc=a * bp * (a * gp - g * ap - g * bp) / (ap + bp),
        deg0=dict(const_atoms=[a, gp], factors=[
            dict(f=ap + bp, actions=[("child", "0", [("betap", -ap)])]),
            dict(f=ap + bp + gp, actions=[("atom",)]),
        ]),
        factors=[
            dict(f=a, mult=1, actions=[("child", "1a", [("alpha", 0)])]),
            dict(f=bp, mult=1, actions=[("red", "1b", [("betap", 0)],
                                         ("F5", [ap + gp, a + g, ap]))]),
            dict(f=a * gp - g * ap - g * bp, mult=1,
                 actions=[("red", "1c", [("gamma", a * gp / (ap + bp))],
                           ("F6", [ap + bp, ap + bp + gp,
                                   2 * ap + 2 * bp + gp, a]))]),
        ],
    ),
    # -------------------------------------------------------------- c4
    ("0", "0", "0", "1a"): dict(
        atoms=[g, ap],
        own_c=(b + g) + (ap + bp) * x,
        c_zero=("discard", [("gamma", -b), ("betap", -ap)], "F1b"),
        rfactor=1,
        rem_doc=-(b + g) * (b * ap - g * bp) / (ap + bp),
        Q_doc=(3 * b * ap + b * bp + 2 * g * ap) * x
        + (ap + bp) * (2 * ap + bp) * x ** 2,
        deg0=dict(const_atoms=[b + g], factors=[
            dict(f=ap + bp, actions=[("red", "0", [("betap", -ap)],
                                      ("F1b", [b + g, g, ap]))]),
        ]),
        factors=[
            dict(f=b + g, mult=1, actions=[("child", "1a", [("gamma", -b)])]),
            dict(f=b * ap - g * bp, mult=1,
                 actions=[("child", "1b", [("betap", b * ap / g)])]),
        ],
    ),
    ("0", "0", "0", "1b"): dict(
        atoms=[ap, a + g],
        own_c=(2 * a + g) + (ap + bp) * x,
        c_zero=("discard", [("gamma", -2 * a), ("betap", -ap)], "F3b"),
        rfactor=ap,
        rem_doc=bp * (2 * a + g) * (a * ap - a * bp + g * ap) / (ap + bp),
        deg0=dict(const_atoms=[2 * a + g], factors=[
            dict(f=ap + bp, actions=[("red", "0", [("betap", -ap)],
                                      ("F3b", [ap, a + g, 2 * a + g]))]),
            dict(f=ap, actions=[("atom",)]),
        ]),
        factors=[
            dict(f=bp, mult=1, actions=[("discard", [("betap", 0)], "F5")]),
            dict(f=2 * a + g, mult=1,
                 actions=[("child", "1a", [("gamma", -2 * a)])]),
            dict(f=a * ap - a * bp + g * ap, mult=1,
                 actions=[("child", "1b",
                           [("gamma", -a * (ap - bp) / ap)])]),
        ],
    ),
    ("0", "0", "1a", "0"): dict(
        atoms=[gp, a + b],
        own_c=a + (ap + gp) * x,
        c_zero=("discard", [("alpha", 0), ("gammap", -ap)], "F1a"),
        rfactor=1,
        rem_doc=-a * (a * ap + b * ap + b * gp) / (ap + gp),
        Q_doc=a * (2 * a + b)
        + (3 * a * ap + 2 * b * ap + 2 * a * gp + 2 * b * gp) * x,
        deg0=dict(const_atoms=[a], factors=[
            dict(f=ap + gp, actions=[("child", "0", [("gammap", -ap)])]),
        ]),
        factors=[
            dict(f=a, mult=1, actions=[("red", "1a", [("alpha", 0)],
                                        ("F1a", [ap + gp, b, gp]))]),
            dict(f=a * ap + b * ap + b * gp, mult=1,
                 actions=[("child", "1b",
                           [("beta", -a * ap / (ap + gp))])]),
        ],
    ),
    ("0", "0", "1a", "1b"): dict(
        atoms=[ap, ap + bp, ap + bp + gp],
        own_c=a + (2 * ap + 2 * bp + gp) * x,
        c_zero=("discard", [("alpha", 0), ("gammap", -2 * ap - 2 * bp)],
                "F2a"),
        rfactor=ap,
        rem_doc=-a ** 2 * bp * (ap + 2 * bp + gp) / (2 * ap + 2 * bp + gp),
        deg0=dict(const_atoms=[a], factors=[
            dict(f=2 * ap + 2 * bp + gp,
                 actions=[("child", "0", [("gammap", -2 * ap - 2 * bp)])]),
            dict(f=ap, actions=[("atom",)]),
        ]),
        factors=[
            dict(f=a, mult=2, actions=[("discard", [("alpha", 0)], "F2a")]),
            dict(f=bp, mult=1, actions=[("discard", [("betap", 0)], "F5")]),
            dict(f=ap + 2 * bp + gp, mult=1,
                 actions=[("child", "1a", [("gammap", -ap - 2 * bp)])]),
        ],
    ),
    ("0", "0", "1b", "0"): dict(
        atoms=[a, gp, a + g],
        own_c=(2 * a + g) + (ap + gp) * x,
        c_zero=("discard", [("gamma", -2 * a), ("gammap", -ap)], "F4b"),
        rfactor=gp,
        rem_doc=ap * (2 * a + g) * (a * ap + g * ap - a * gp) / (ap + gp),
        deg0=dict(const_atoms=[2 * a + g], factors=[
            dict(f=ap + gp, actions=[("child", "0", [("gammap", -ap)])]),
            dict(f=gp, actions=[("atom",)]),
        ]),
        factors=[
            dict(f=ap, mult=1, actions=[("discard", [("alphap", 0)], "F5")]),
            dict(f=2 * a + g, mult=1,
                 actions=[("child", "1a", [("gamma", -2 * a)])]),
            dict(f=a * ap + g * ap - a * gp, mult=1,
                 actions=[("red", "1b", [("alphap", a * gp / (a + g))],
                           ("F4b", [a + g, 2 * a + g, a, gp]))]),
        ],
    ),
    ("0", "0", "1b", "1a"): dict(
        atoms=[ap + bp, ap + bp + gp, g],
        own_c=ratfunc(g * (ap + 2 * bp + gp), ap + bp + gp)
        + (2 * ap + 2 * bp + gp) * x,
        c_zero=("discard", [("alphap", 0), ("gammap", -2 * bp)], "F4a"),
        rfactor=ap + bp + gp,
        R_doc=g * (ap + 2 * bp + gp)
        + (ap + bp + gp) * (2 * ap + 2 * bp + gp) * x,
        rem_doc=-ap * bp * g ** 2 * (ap + 2 * bp + gp)
        / ((ap + bp + gp) * (2 * ap + 2 * bp + gp)),
        deg0=dict(const_atoms=[ap, g], factors=[
            dict(f=2 * ap + 2 * bp + gp,
                 actions=[("child", "0", [("gammap", -2 * ap - 2 * bp)])]),
            dict(f=ap + bp + gp, actions=[("atom",)]),
        ]),
        factors=[
            dict(f=g, mult=2, actions=[("atom",)]),
            dict(f=bp, mult=1, actions=[("discard", [("betap", 0)], "F5")]),
            dict(f=ap, mult=1,
                 actions=[("red", "1a", [("alphap", 0)],
                           ("F4a", [bp + gp, 2 * bp + gp, g, bp]))]),
            dict(f=ap + 2 * bp + gp, mult=1,
                 actions=[("child", "1b", [("gammap", -ap - 2 * bp)])]),
        ],
    ),
    # -------------------------------------------------------------- c5
    ("0", "0", "0", "1a", "1a"): dict(
        atoms=[ap + bp, b, ap],
        own_c=b + (2 * ap + bp) * x,
        c_zero=None,
        rfactor=1,
        rem_doc=-2 * b ** 2 * ap / (2 * ap + bp),
        Q_doc=2 * b * (2 * ap + bp) * x
        + 2 * (ap + bp) * (2 * ap + bp) * x ** 2,
        deg0=dict(const_atoms=[b], factors=[
            dict(f=2 * ap + bp, actions=[("terminating", "0",
                                          [("betap", -2 * ap)], ("s4a",))]),
        ]),
        factors=[
            dict(f=b, mult=2, actions=[("atom",)]),
            dict(f=ap, mult=1, actions=[("atom",)]),
        ],
    ),
    ("0", "0", "0", "1a", "1b"): dict(
        atoms=[g, ap, b + g, b + 2 * g],
        own_c=ratfunc(ap * (b + 2 * g), g) * x,
        c_zero=("terminating", "c=0", [("beta", -2 * g)], ("s1a", [])),
        passthrough="0",
    ),
    ("0", "0", "0", "1b", "1a"): dict(
        atoms=[ap + bp, a, ap, 2 * ap + bp],
        own_c=ratfunc(2 * ap + bp, ap) * (a + ap * x),
        c_zero=("terminating", "c=0", [("betap", -2 * ap)], ("s3a", [])),
        passthrough="0",
    ),
    ("0", "0", "0", "1b", "1b"): dict(
        atoms=[ap + bp, a, ap, bp],
        own_c=2 * a + (2 * ap + bp) * x,
        c_zero=None,
        rfactor=ap,
        rem_doc=-2 * a ** 2 * bp ** 2 / (2 * ap + bp),
        deg0=dict(const_atoms=[a], factors=[
            dict(f=2 * ap + bp, actions=[("terminating", "0",
                                          [("betap", -2 * ap)], ("s5a",))]),
            dict(f=ap, actions=[("atom",)]),
        ]),
        factors=[
            dict(f=a, mult=2, actions=[("atom",)]),
            dict(f=bp, mult=2, actions=[("atom",)]),
        ],
    ),
    ("0", "0", "1a", "0", "0"): dict(
        atoms=[a + b, a, ap],
        own_c=(2 * a + b) + ap * x,
        c_zero=None,
        rfactor=1,
        rem_doc=-2 * (a + b) * (2 * a + b),
        deg0=dict(factors=[dict(f=ap, actions=[("atom",)])]),
        factors=[
            dict(f=a + b, mult=1, actions=[("atom",)]),
            dict(f=2 * a + b, mult=1,
                 actions=[("terminating", "1a", [("beta", -2 * a)],
                           ("s4b",))]),
        ],
    ),
    ("0", "0", "1a", "0", "1b"): dict(
        atoms=[ap + gp, a, gp, ap + 2 * gp],
        own_c=ratfunc(a * (ap + 2 * gp), ap + gp),
        c_zero=("terminating", "c=0", [("alphap", -2 * gp)], ("s1b", [])),
        passthrough="0",
    ),
    ("0", "0", "1a", "1b", "0"): dict(
        atoms=[ap + bp, a, ap, 2 * ap + bp],
        own_c=ratfunc(2 * ap + bp, ap) * (a + ap * x),
        c_zero=("terminating", "c=0", [("betap", -2 * ap)], ("s3b", [])),
        passthrough="0",
    ),
    ("0", "0", "1a", "1b", "1a"): dict(
        atoms=[ap + bp, ap, bp],
        own_c=ratfunc(a * (2 * ap + bp), ap) + 2 * (ap + bp) * x,
        c_zero=None,
        rfactor=ap,
        rem_doc=-a ** 2 * bp ** 2 * (2 * ap + bp) / (2 * ap * (ap + bp)),
        deg0=dict(factors=[
            dict(f=ap, actions=[("atom",)]),
            dict(f=ap + bp, actions=[("atom",)]),
        ]),
        factors=[
            dict(f=a, mult=2, actions=[("discard", [("alpha", 0)], "F2a")]),
            dict(f=bp, mult=2, actions=[("atom",)]),
            dict(f=2 * ap + bp, mult=1,
                 actions=[("terminating", "1a", [("betap", -2 * ap)],
                           ("s5b",))]),
        ],
    ),
    ("0", "0", "1b", "0", "0"): dict(
        atoms=[a + g, 2 * a + g, a, ap],
        own_c=2 * a + ap * x,
        c_zero=None,
        rfactor=1,
        rem_doc=-2 * a * (3 * a + g),
        deg0=dict(factors=[dict(f=ap, actions=[("atom",)])]),
        factors=[
            dict(f=a, mult=1, actions=[("atom",)]),
            dict(f=3 * a + g, mult=1,
                 actions=[("terminating", "1a", [("gamma", -3 * a)],
                           ("s6a",))]),
        ],
    ),
    ("0", "0", "1b", "0", "1a"): dict(
        atoms=[ap + gp, a, gp, ap + 2 * gp],
        own_c=ratfunc(a * (ap + 2 * gp), gp),
        c_zero=("terminating", "c=0", [("alphap", -2 * gp)], ("s2b", [])),
        passthrough="0",
    ),
    ("0", "0", "1b", "1a", "0"): dict(
        atoms=[g, ap, ap + bp, 2 * ap + bp],
        own_c=(2 * ap + bp) * x,
        c_zero=("terminating", "c=0", [("betap", -2 * ap)], ("s2a", [])),
        passthrough="0",
    ),
    ("0", "0", "1b", "1a", "1b"): dict(
        atoms=[ap + bp, g, ap, bp],
        own_c=-g + 2 * (ap + bp) * x,
        c_zero=None,
        rfactor=1,
        rem_doc=-g ** 2 * (2 * ap + bp) / (2 * (ap + bp)),
        deg0=dict(factors=[dict(f=ap + bp, actions=[("atom",)])]),
        factors=[
            dict(f=g, mult=2, actions=[("atom",)]),
            dict(f=2 * ap + bp, mult=1,
                 actions=[("terminating", "1a", [("betap", -2 * ap)],
                           ("s6b",))]),
        ],
    ),
    # -------------------------------------------------------------- c6
    ("0", "0", "0", "1a", "1b", "0"): dict(
        atoms=[g, ap, b + g, b + 2 * g],
        own_c=(2 * b + g) + ratfunc(2 * (b + g) * ap, g) * x,
        c_zero=None,
        rfactor=g ** 2,
        rem_doc=-b * g ** 3 * (2 * b + g) / (2 * (b + g)),
        deg0=dict(factors=[
            dict(f=g, actions=[("atom",)]),
            dict(f=ap, actions=[("atom",)]),
            dict(f=b + g, actions=[("atom",)]),
        ]),
        factors=[
            dict(f=g, mult=3, actions=[("atom",)]),
            dict(f=b, mult=1, actions=[("discard", [("beta", 0)], "F5")]),
            dict(f=2 * b + g, mult=1,
                 actions=[("child", "1a", [("gamma", -2 * b)])]),
        ],
    ),
    ("0", "0", "0", "1b", "1a", "0"): dict(
        atoms=[ap + bp, 2 * ap + bp, a, ap],
        own_c=a + 2 * (ap + bp) * x,
        c_zero=None,
        rfactor=ap,
        rem_doc=-a ** 2 * bp * (ap + 2 * bp) / (2 * (ap + bp)),
        deg0=dict(factors=[
            dict(f=ap, actions=[("atom",)]),
            dict(f=ap + bp, actions=[("atom",)]),
        ]),
        factors=[
            dict(f=a, mult=2, actions=[("atom",)]),
            dict(f=bp, mult=1, actions=[("discard", [("betap", 0)], "F5")]),
            dict(f=ap + 2 * bp, mult=1,
                 actions=[("child", "1a", [("alphap", -2 * bp)])]),
        ],
    ),
    ("0", "0", "1a", "0", "1b", "0"): dict(
        atoms=[a, gp, ap + gp, ap + 2 * gp],
        own_c=2 * a + (2 * ap + gp) * x,
        c_zero=None,
        rfactor=ap + gp,
        rem_doc=-2 * a ** 2 * ap * gp / (2 * ap + gp),
        deg0=dict(const_atoms=[a], factors=[
            dict(f=2 * ap + gp,
                 actions=[("child", "0", [("gammap", -2 * ap)])]),
            dict(f=ap + gp, actions=[("atom",)]),
        ]),
        factors=[
            dict(f=a, mult=2, actions=[("atom",)]),
            dict(f=ap, mult=1, actions=[("discard", [("alphap", 0)], "F5")]),
            dict(f=gp, mult=1, actions=[("atom",)]),
        ],
    ),
    ("0", "0", "1a", "1b", "0", "0"): dict(
        atoms=[ap + bp, 2 * ap + bp, a, ap],
        own_c=2 * a + (ap + bp) * x,
        c_zero=None,
        rfactor=ap,
        rem_doc=2 * a ** 2 * bp * (ap - bp) / (ap + bp),
        deg0=dict(factors=[
            dict(f=ap, actions=[("atom",)]),
            dict(f=ap + bp, actions=[("atom",)]),
        ]),
        factors=[
            dict(f=a, mult=2, actions=[("atom",)]),
            dict(f=bp, mult=1, actions=[("discard", [("betap", 0)], "F5")]),
            dict(f=ap - bp, mult=1,
                 actions=[("child", "1a", [("betap", ap)])]),
        ],
    ),
    ("0", "0", "1b", "0", "1a", "0"): dict(
        atoms=[a, gp, ap + gp, ap + 2 * gp],
        own_c=a + (2 * ap + gp) * x,
        c_zero=None,
        rfactor=gp,
        rem_doc=-2 * a ** 2 * ap * (ap + gp) / (2 * ap + gp),
        deg0=dict(const_atoms=[a], factors=[
            dict(f=2 * ap + gp,
                 actions=[("child", "0", [("gammap", -2 * ap)])]),
            dict(f=gp, actions=[("atom",)]),
        ]),
        factors=[
            dict(f=a, mult=2, actions=[("atom",)]),
            dict(f=ap, mult=1, actions=[("discard", [("alphap", 0)], "F5")]),
            dict(f=ap + gp, mult=1, actions=[("atom",)]),
        ],
    ),
    ("0", "0", "1b", "1a", "0", "0"): dict(
        atoms=[g, ap, ap + bp, 2 * ap + bp],
        own_c=ratfunc(g * (ap - bp), ap + bp) + (ap + bp) * x,
        c_zero=None,
        rfactor=ap + bp,
        rem_doc=2 * g ** 2 * ap * bp * (ap - bp) / (ap + bp) ** 2,
        deg0=dict(factors=[dict(f=ap + bp, mult=2, actions=[("atom",)])]),
        factors=[
            dict(f=g, mult=2, actions=[("atom",)]),
            dict(f=ap, mult=1, actions=[("atom",)]),
            dict(f=bp, mult=1, actions=[("discard", [("betap", 0)], "F5")]),
            dict(f=ap - bp, mult=1,
                 actions=[("child", "1a", [("betap", ap)])]),
        ],
    ),
    # -------------------------------------------------------------- c7
    ("0", "0", "0", "1a", "1b", "0", "1a"): dict(
        atoms=[b, ap],
        own_c=b + 2 * ap * x,
        c_zero=None,
        rfactor=1,
        rem_doc=Fraction(-5, 4) * b ** 2,
        deg0=dict(factors=[dict(f=ap, actions=[("atom",)])]),
        factors=[dict(f=b, mult=2, actions=[("atom",)])],
    ),
    ("0", "0", "0", "1b", "1a", "0", "1a"): dict(
        atoms=[a, bp],
        own_c=Fraction(5, 2) * a - 4 * bp * x,
        c_zero=None,
        rfactor=-1,
        rem_doc=Fraction(5, 16) * a ** 2,
        deg0=dict(factors=[dict(f=bp, actions=[("atom",)])]),
        factors=[dict(f=a, mult=2, actions=[("atom",)])],
    ),
    ("0", "0", "1a", "0", "1b", "0", "0"): dict(
        atoms=[a, ap],
        own_c=4 * a + ap * x,
        c_zero=None,
        rfactor=1,
        rem_doc=-20 * a ** 2,
        deg0=dict(factors=[dict(f=ap, actions=[("atom",)])]),
        factors=[dict(f=a, mult=2, actions=[("atom",)])],
    ),
    ("0", "0", "1a", "1b", "0", "0", "1a"): dict(
        atoms=[a, ap],
        own_c=4 * a + 5 * ap * x,
        c_zero=None,
        rfactor=1,
        rem_doc=Fraction(-4, 5) * a ** 2,
        deg0=dict(factors=[dict(f=ap, actions=[("atom",)])]),
        factors=[dict(f=a, mult=2, actions=[("atom",)])],
    ),
    ("0", "0", "1b", "0", "1a", "0", "0"): dict(
        atoms=[a, ap],
        own_c=Fraction(5, 2) * a + ap * x,
        c_zero=None,
        rfactor=-1,
        rem_doc=5 * a ** 2,
        deg0=dict(factors=[dict(f=ap, actions=[("atom",)])]),
        factors=[dict(f=a, mult=2, actions=[("atom",)])],
    ),
    ("0", "0", "1b", "1a", "0", "0", "1a"): dict(
        atoms=[g, ap],
        own_c=-g * Fraction(1, 2) + 5 * ap * x,
        c_zero=None,
        rfactor=1,
        rem_doc=Fraction(-1, 5) * g ** 2,
        deg0=dict(factors=[dict(f=ap, actions=[("atom",)])]),
        factors=[dict(f=g, mult=2, actions=[("atom",)])],
    ),
}
