"""Documented decision-tree data: per node, the inequations in force
(``atoms``), the node's own coefficient (``own_c``) and what its vanishing
gives (``c_zero``), the declared R-multiplier (``rfactor``), the documented
remainder (``rem_doc``, and ``Q_doc``/``R_doc`` where recorded) and two
fully attributed factor lists: ``factors`` of the remainder numerator and
``deg0["factors"]`` of the x^1 coefficient of R, whose vanishing drops R to
degree 0.  A node whose coefficient is a polynomial has
``passthrough=token`` instead: its one child reads its own record.

Every branch is written in one grammar.  A factor is a dict {"f": builder,
"mult": power (default 1), "actions": [...]} where each action is one of

    ("atom",)                               excluded by an inequation
    ("discard", solve, family)              inside an earlier family
    ("child", token, solve)                 new internal node
    ("red", token, solve, (family, atoms))
    ("terminating", token, solve, (s_id[, atoms]))

``solve`` is a list of (parameter, value-builder) eliminations that kill
the factor, and a leaf's ``atoms`` are its inequations; a terminating leaf
without them keeps its node's.  A leaf names its family only: the family's
parameter values are read off the leaf's point by
``families.family_binding``.  ``deg0["const_atoms"]`` must stay nonzero
on every degree-0 branch.  ``c_zero`` is None when one of the coefficient's
two x-coefficients is a product of atoms, else one action on the
coefficient itself: a ``discard``, or a ``terminating`` leaf with token
``c=0`` and empty atoms (six of the seven such solves kill one of their
node's inequations).  All builders take the generator namespace.
"""
from __future__ import annotations

from fractions import Fraction

from .exactalg import ratfunc


def _h(**kw):
    return kw


def make_hint_book(V):
    a, b, g, ap, bp, gp, x = V.a, V.b, V.g, V.ap, V.bp, V.gp, V.x
    half = Fraction(1, 2)

    return {
        ("0",): _h(
            own_c=lambda v: 1,
            c_zero=None,
            passthrough="0",
        ),
        ("0", "0"): _h(
            atoms=lambda v: [],
            own_c=lambda v: (v.a + v.g) + (v.ap + v.bp + v.gp) * v.x,
            c_zero=("terminating", "c=0",
                    [("gamma", lambda v: -v.a),
                     ("gammap", lambda v: -v.ap - v.bp)],
                    ("s0", lambda v: [])),
            rfactor=lambda v: 1,
            rem_doc=lambda v: (v.a + v.g)
            * (v.bp * (v.a + v.g) - v.b * (v.ap + v.bp + v.gp))
            / (v.ap + v.bp + v.gp),
            Q_doc=lambda v: v.a * (v.a + v.g)
            + (2 * v.a * v.ap + v.a * v.bp + v.a * v.gp + v.b * v.bp
               + v.b * v.gp + v.b * v.ap + v.g * v.ap) * v.x
            + (v.ap + v.bp) * (v.ap + v.bp + v.gp) * v.x ** 2,
            deg0=_h(const_atoms=[lambda v: v.a + v.g], factors=[
                _h(f=lambda v: v.ap + v.bp + v.gp,
                   actions=[("child", "0",
                             [("gammap", lambda v: -v.ap - v.bp)])]),
            ]),
            factors=[
                _h(f=lambda v: v.a + v.g, mult=1,
                   actions=[("child", "1a", [("gamma", lambda v: -v.a)])]),
                _h(f=lambda v: v.bp * (v.a + v.g) - v.b * (v.ap + v.bp + v.gp),
                   mult=1,
                   actions=[("child", "1b",
                             [("beta", lambda v: (v.a + v.g) * v.bp
                               / (v.ap + v.bp + v.gp))])]),
            ],
        ),
        ("0", "0", "0"): _h(
            atoms=lambda v: [v.a + v.g],
            own_c=lambda v: v.a + v.ap * v.x,
            c_zero=("discard", [("alpha", lambda v: 0),
                                ("alphap", lambda v: 0)], "F2b"),
            rfactor=lambda v: 1,
            rem_doc=lambda v: v.a * (v.a * v.bp - v.b * v.ap) / v.ap,
            Q_doc=lambda v: v.a * (2 * v.a + v.g)
            + v.ap * (3 * v.a + v.b + v.g) * v.x
            + v.ap * (v.ap + v.bp) * v.x ** 2,
            R_doc=lambda v: v.a + v.ap * v.x,
            deg0=_h(const_atoms=[lambda v: v.a], factors=[
                _h(f=lambda v: v.ap,
                   actions=[("red", "0", [("alphap", lambda v: 0)],
                             ("F2b",
                              lambda v: [v.a + v.g, 2 * v.a + v.g, v.a]))]),
            ]),
            factors=[
                _h(f=lambda v: v.a, mult=1,
                   actions=[("child", "1a", [("alpha", lambda v: 0)])]),
                _h(f=lambda v: v.a * v.bp - v.b * v.ap, mult=1,
                   actions=[("child", "1b",
                             [("beta", lambda v: v.a * v.bp / v.ap)])]),
            ],
        ),
        ("0", "0", "1a"): _h(
            atoms=lambda v: [v.ap + v.bp + v.gp],
            own_c=lambda v: (v.a + v.b) + (v.ap + v.bp) * v.x,
            c_zero=("discard", [("beta", lambda v: -v.a),
                                ("betap", lambda v: -v.ap)], "F2a"),
            rfactor=lambda v: 1,
            rem_doc=lambda v: (v.a + v.b) * (v.a * v.bp - v.b * v.ap)
            / (v.ap + v.bp),
            Q_doc=lambda v: v.a * (v.a + v.b)
            + (v.a + v.b) * (3 * v.ap + 2 * v.bp + v.gp) * v.x
            + (v.ap + v.bp) * (2 * v.ap + 2 * v.bp + v.gp) * v.x ** 2,
            R_doc=lambda v: v.a + v.b + (v.ap + v.bp) * v.x,
            deg0=_h(factors=[
                _h(f=lambda v: v.ap + v.bp,
                   actions=[("child", "0", [("betap", lambda v: -v.ap)])]),
            ], const_atoms=[lambda v: v.a + v.b, lambda v: v.gp]),
            factors=[
                _h(f=lambda v: v.a + v.b, mult=1,
                   actions=[("red", "1a", [("beta", lambda v: -v.a)],
                             ("F2a",
                              lambda v: [v.ap + v.bp, v.ap + v.bp + v.gp,
                                         2 * v.ap + 2 * v.bp + v.gp]))]),
                _h(f=lambda v: v.a * v.bp - v.b * v.ap, mult=1,
                   actions=[
                       ("child", "1b",
                        [("beta", lambda v: v.a * v.bp / v.ap)]),
                       ("red", "1c",
                        [("alpha", lambda v: 0), ("alphap", lambda v: 0)],
                        ("F3a",
                         lambda v: [v.bp, v.bp + v.gp, 2 * v.bp + v.gp]))]),
            ],
        ),
        ("0", "0", "1b"): _h(
            atoms=lambda v: [v.ap + v.bp + v.gp, v.a + v.g],
            own_c=lambda v: v.a + (v.ap + v.bp) * v.x,
            c_zero=("discard", [("alpha", lambda v: 0),
                                ("betap", lambda v: -v.ap)], "F6"),
            rfactor=lambda v: v.ap + v.bp + v.gp,
            rem_doc=lambda v: v.a * v.bp
            * (v.a * v.gp - v.g * v.ap - v.g * v.bp) / (v.ap + v.bp),
            deg0=_h(const_atoms=[lambda v: v.a, lambda v: v.gp], factors=[
                _h(f=lambda v: v.ap + v.bp,
                   actions=[("child", "0", [("betap", lambda v: -v.ap)])]),
                _h(f=lambda v: v.ap + v.bp + v.gp, actions=[("atom",)]),
            ]),
            factors=[
                _h(f=lambda v: v.a, mult=1,
                   actions=[("child", "1a", [("alpha", lambda v: 0)])]),
                _h(f=lambda v: v.bp, mult=1,
                   actions=[("red", "1b", [("betap", lambda v: 0)],
                             ("F5",
                              lambda v: [v.ap + v.gp, v.a + v.g, v.ap]))]),
                _h(f=lambda v: v.a * v.gp - v.g * v.ap - v.g * v.bp, mult=1,
                   actions=[("red", "1c",
                             [("gamma",
                               lambda v: v.a * v.gp / (v.ap + v.bp))],
                             ("F6",
                              lambda v: [v.ap + v.bp, v.ap + v.bp + v.gp,
                                         2 * v.ap + 2 * v.bp + v.gp, v.a]))]),
            ],
        ),
        # -------------------------------------------------------------- c4
        ("0", "0", "0", "1a"): _h(
            atoms=lambda v: [v.g, v.ap],
            own_c=lambda v: (v.b + v.g) + (v.ap + v.bp) * v.x,
            c_zero=("discard", [("gamma", lambda v: -v.b),
                                ("betap", lambda v: -v.ap)], "F1b"),
            rfactor=lambda v: 1,
            rem_doc=lambda v: -(v.b + v.g) * (v.b * v.ap - v.g * v.bp)
            / (v.ap + v.bp),
            Q_doc=lambda v: (3 * v.b * v.ap + v.b * v.bp + 2 * v.g * v.ap)
            * v.x + (v.ap + v.bp) * (2 * v.ap + v.bp) * v.x ** 2,
            deg0=_h(const_atoms=[lambda v: v.b + v.g], factors=[
                _h(f=lambda v: v.ap + v.bp,
                   actions=[("red", "0", [("betap", lambda v: -v.ap)],
                             ("F1b", lambda v: [v.b + v.g, v.g, v.ap]))]),
            ]),
            factors=[
                _h(f=lambda v: v.b + v.g, mult=1,
                   actions=[("child", "1a", [("gamma", lambda v: -v.b)])]),
                _h(f=lambda v: v.b * v.ap - v.g * v.bp, mult=1,
                   actions=[("child", "1b",
                             [("betap", lambda v: v.b * v.ap / v.g)])]),
            ],
        ),
        ("0", "0", "0", "1b"): _h(
            atoms=lambda v: [v.ap, v.a + v.g],
            own_c=lambda v: (2 * v.a + v.g) + (v.ap + v.bp) * v.x,
            c_zero=("discard", [("gamma", lambda v: -2 * v.a),
                                ("betap", lambda v: -v.ap)], "F3b"),
            rfactor=lambda v: v.ap,
            rem_doc=lambda v: v.bp * (2 * v.a + v.g)
            * (v.a * v.ap - v.a * v.bp + v.g * v.ap) / (v.ap + v.bp),
            deg0=_h(const_atoms=[lambda v: 2 * v.a + v.g], factors=[
                _h(f=lambda v: v.ap + v.bp,
                   actions=[("red", "0", [("betap", lambda v: -v.ap)],
                             ("F3b",
                              lambda v: [v.ap, v.a + v.g, 2 * v.a + v.g]))]),
                _h(f=lambda v: v.ap, actions=[("atom",)]),
            ]),
            factors=[
                _h(f=lambda v: v.bp, mult=1,
                   actions=[("discard", [("betap", lambda v: 0)], "F5")]),
                _h(f=lambda v: 2 * v.a + v.g, mult=1,
                   actions=[("child", "1a",
                             [("gamma", lambda v: -2 * v.a)])]),
                _h(f=lambda v: v.a * v.ap - v.a * v.bp + v.g * v.ap, mult=1,
                   actions=[("child", "1b",
                             [("gamma",
                               lambda v: -v.a * (v.ap - v.bp) / v.ap)])]),
            ],
        ),
        ("0", "0", "1a", "0"): _h(
            atoms=lambda v: [v.gp, v.a + v.b],
            own_c=lambda v: v.a + (v.ap + v.gp) * v.x,
            c_zero=("discard", [("alpha", lambda v: 0),
                                ("gammap", lambda v: -v.ap)], "F1a"),
            rfactor=lambda v: 1,
            rem_doc=lambda v: -v.a * (v.a * v.ap + v.b * v.ap + v.b * v.gp)
            / (v.ap + v.gp),
            Q_doc=lambda v: v.a * (2 * v.a + v.b)
            + (3 * v.a * v.ap + 2 * v.b * v.ap + 2 * v.a * v.gp
               + 2 * v.b * v.gp) * v.x,
            deg0=_h(const_atoms=[lambda v: v.a], factors=[
                _h(f=lambda v: v.ap + v.gp,
                   actions=[("child", "0", [("gammap", lambda v: -v.ap)])]),
            ]),
            factors=[
                _h(f=lambda v: v.a, mult=1,
                   actions=[("red", "1a", [("alpha", lambda v: 0)],
                             ("F1a", lambda v: [v.ap + v.gp, v.b, v.gp]))]),
                _h(f=lambda v: v.a * v.ap + v.b * v.ap + v.b * v.gp, mult=1,
                   actions=[("child", "1b",
                             [("beta",
                               lambda v: -v.a * v.ap / (v.ap + v.gp))])]),
            ],
        ),
        ("0", "0", "1a", "1b"): _h(
            atoms=lambda v: [v.ap, v.ap + v.bp, v.ap + v.bp + v.gp],
            own_c=lambda v: v.a + (2 * v.ap + 2 * v.bp + v.gp) * v.x,
            c_zero=("discard", [("alpha", lambda v: 0),
                                ("gammap", lambda v: -2 * v.ap - 2 * v.bp)],
                    "F2a"),
            rfactor=lambda v: v.ap,
            rem_doc=lambda v: -v.a ** 2 * v.bp * (v.ap + 2 * v.bp + v.gp)
            / (2 * v.ap + 2 * v.bp + v.gp),
            deg0=_h(const_atoms=[lambda v: v.a], factors=[
                _h(f=lambda v: 2 * v.ap + 2 * v.bp + v.gp,
                   actions=[("child", "0",
                             [("gammap", lambda v: -2 * v.ap - 2 * v.bp)])]),
                _h(f=lambda v: v.ap, actions=[("atom",)]),
            ]),
            factors=[
                _h(f=lambda v: v.a, mult=2,
                   actions=[("discard", [("alpha", lambda v: 0)], "F2a")]),
                _h(f=lambda v: v.bp, mult=1,
                   actions=[("discard", [("betap", lambda v: 0)], "F5")]),
                _h(f=lambda v: v.ap + 2 * v.bp + v.gp, mult=1,
                   actions=[("child", "1a",
                             [("gammap", lambda v: -v.ap - 2 * v.bp)])]),
            ],
        ),
        ("0", "0", "1b", "0"): _h(
            atoms=lambda v: [v.a, v.gp, v.a + v.g],
            own_c=lambda v: (2 * v.a + v.g) + (v.ap + v.gp) * v.x,
            c_zero=("discard", [("gamma", lambda v: -2 * v.a),
                                ("gammap", lambda v: -v.ap)], "F4b"),
            rfactor=lambda v: v.gp,
            rem_doc=lambda v: v.ap * (2 * v.a + v.g)
            * (v.a * v.ap + v.g * v.ap - v.a * v.gp) / (v.ap + v.gp),
            deg0=_h(const_atoms=[lambda v: 2 * v.a + v.g], factors=[
                _h(f=lambda v: v.ap + v.gp,
                   actions=[("child", "0", [("gammap", lambda v: -v.ap)])]),
                _h(f=lambda v: v.gp, actions=[("atom",)]),
            ]),
            factors=[
                _h(f=lambda v: v.ap, mult=1,
                   actions=[("discard", [("alphap", lambda v: 0)], "F5")]),
                _h(f=lambda v: 2 * v.a + v.g, mult=1,
                   actions=[("child", "1a",
                             [("gamma", lambda v: -2 * v.a)])]),
                _h(f=lambda v: v.a * v.ap + v.g * v.ap - v.a * v.gp, mult=1,
                   actions=[("red", "1b",
                             [("alphap",
                               lambda v: v.a * v.gp / (v.a + v.g))],
                             ("F4b",
                              lambda v: [v.a + v.g, 2 * v.a + v.g, v.a,
                                         v.gp]))]),
            ],
        ),
        ("0", "0", "1b", "1a"): _h(
            atoms=lambda v: [v.ap + v.bp, v.ap + v.bp + v.gp, v.g],
            own_c=lambda v: ratfunc(v.g * (v.ap + 2 * v.bp + v.gp),
                                    v.ap + v.bp + v.gp)
            + (2 * v.ap + 2 * v.bp + v.gp) * v.x,
            c_zero=("discard", [("alphap", lambda v: 0),
                                ("gammap", lambda v: -2 * v.bp)], "F4a"),
            rfactor=lambda v: v.ap + v.bp + v.gp,
            R_doc=lambda v: v.g * (v.ap + 2 * v.bp + v.gp)
            + (v.ap + v.bp + v.gp) * (2 * v.ap + 2 * v.bp + v.gp) * v.x,
            rem_doc=lambda v: -v.ap * v.bp * v.g ** 2
            * (v.ap + 2 * v.bp + v.gp)
            / ((v.ap + v.bp + v.gp) * (2 * v.ap + 2 * v.bp + v.gp)),
            deg0=_h(const_atoms=[lambda v: v.ap, lambda v: v.g], factors=[
                _h(f=lambda v: 2 * v.ap + 2 * v.bp + v.gp,
                   actions=[("child", "0",
                             [("gammap", lambda v: -2 * v.ap - 2 * v.bp)])]),
                _h(f=lambda v: v.ap + v.bp + v.gp, actions=[("atom",)]),
            ]),
            factors=[
                _h(f=lambda v: v.g, mult=2, actions=[("atom",)]),
                _h(f=lambda v: v.bp, mult=1,
                   actions=[("discard", [("betap", lambda v: 0)], "F5")]),
                _h(f=lambda v: v.ap, mult=1,
                   actions=[("red", "1a", [("alphap", lambda v: 0)],
                             ("F4a",
                              lambda v: [v.bp + v.gp, 2 * v.bp + v.gp, v.g,
                                         v.bp]))]),
                _h(f=lambda v: v.ap + 2 * v.bp + v.gp, mult=1,
                   actions=[("child", "1b",
                             [("gammap", lambda v: -v.ap - 2 * v.bp)])]),
            ],
        ),
        # -------------------------------------------------------------- c5
        ("0", "0", "0", "1a", "1a"): _h(
            atoms=lambda v: [v.ap + v.bp, v.b, v.ap],
            own_c=lambda v: v.b + (2 * v.ap + v.bp) * v.x,
            c_zero=None,
            rfactor=lambda v: 1,
            rem_doc=lambda v: -2 * v.b ** 2 * v.ap / (2 * v.ap + v.bp),
            Q_doc=lambda v: 2 * v.b * (2 * v.ap + v.bp) * v.x
            + 2 * (v.ap + v.bp) * (2 * v.ap + v.bp) * v.x ** 2,
            deg0=_h(const_atoms=[lambda v: v.b], factors=[
                _h(f=lambda v: 2 * v.ap + v.bp,
                   actions=[("terminating", "0",
                             [("betap", lambda v: -2 * v.ap)], ("s4a",))]),
            ]),
            factors=[
                _h(f=lambda v: v.b, mult=2, actions=[("atom",)]),
                _h(f=lambda v: v.ap, mult=1, actions=[("atom",)]),
            ],
        ),
        ("0", "0", "0", "1a", "1b"): _h(
            atoms=lambda v: [v.g, v.ap, v.b + v.g, v.b + 2 * v.g],
            own_c=lambda v: ratfunc(v.ap * (v.b + 2 * v.g), v.g) * v.x,
            c_zero=("terminating", "c=0", [("beta", lambda v: -2 * v.g)],
                    ("s1a", lambda v: [])),
            passthrough="0",
        ),
        ("0", "0", "0", "1b", "1a"): _h(
            atoms=lambda v: [v.ap + v.bp, v.a, v.ap, 2 * v.ap + v.bp],
            own_c=lambda v: ratfunc(2 * v.ap + v.bp, v.ap)
            * (v.a + v.ap * v.x),
            c_zero=("terminating", "c=0", [("betap", lambda v: -2 * v.ap)],
                    ("s3a", lambda v: [])),
            passthrough="0",
        ),
        ("0", "0", "0", "1b", "1b"): _h(
            atoms=lambda v: [v.ap + v.bp, v.a, v.ap, v.bp],
            own_c=lambda v: 2 * v.a + (2 * v.ap + v.bp) * v.x,
            c_zero=None,
            rfactor=lambda v: v.ap,
            rem_doc=lambda v: -2 * v.a ** 2 * v.bp ** 2 / (2 * v.ap + v.bp),
            deg0=_h(const_atoms=[lambda v: v.a], factors=[
                _h(f=lambda v: 2 * v.ap + v.bp,
                   actions=[("terminating", "0",
                             [("betap", lambda v: -2 * v.ap)], ("s5a",))]),
                _h(f=lambda v: v.ap, actions=[("atom",)]),
            ]),
            factors=[
                _h(f=lambda v: v.a, mult=2, actions=[("atom",)]),
                _h(f=lambda v: v.bp, mult=2, actions=[("atom",)]),
            ],
        ),
        ("0", "0", "1a", "0", "0"): _h(
            atoms=lambda v: [v.a + v.b, v.a, v.ap],
            own_c=lambda v: (2 * v.a + v.b) + v.ap * v.x,
            c_zero=None,
            rfactor=lambda v: 1,
            rem_doc=lambda v: -2 * (v.a + v.b) * (2 * v.a + v.b),
            deg0=_h(factors=[_h(f=lambda v: v.ap, actions=[("atom",)])]),
            factors=[
                _h(f=lambda v: v.a + v.b, mult=1, actions=[("atom",)]),
                _h(f=lambda v: 2 * v.a + v.b, mult=1,
                   actions=[("terminating", "1a",
                             [("beta", lambda v: -2 * v.a)], ("s4b",))]),
            ],
        ),
        ("0", "0", "1a", "0", "1b"): _h(
            atoms=lambda v: [v.ap + v.gp, v.a, v.gp, v.ap + 2 * v.gp],
            own_c=lambda v: ratfunc(v.a * (v.ap + 2 * v.gp), v.ap + v.gp),
            c_zero=("terminating", "c=0", [("alphap", lambda v: -2 * v.gp)],
                    ("s1b", lambda v: [])),
            passthrough="0",
        ),
        ("0", "0", "1a", "1b", "0"): _h(
            atoms=lambda v: [v.ap + v.bp, v.a, v.ap, 2 * v.ap + v.bp],
            own_c=lambda v: ratfunc(2 * v.ap + v.bp, v.ap)
            * (v.a + v.ap * v.x),
            c_zero=("terminating", "c=0", [("betap", lambda v: -2 * v.ap)],
                    ("s3b", lambda v: [])),
            passthrough="0",
        ),
        ("0", "0", "1a", "1b", "1a"): _h(
            atoms=lambda v: [v.ap + v.bp, v.ap, v.bp],
            own_c=lambda v: ratfunc(v.a * (2 * v.ap + v.bp), v.ap)
            + 2 * (v.ap + v.bp) * v.x,
            c_zero=None,
            rfactor=lambda v: v.ap,
            rem_doc=lambda v: -v.a ** 2 * v.bp ** 2 * (2 * v.ap + v.bp)
            / (2 * v.ap * (v.ap + v.bp)),
            deg0=_h(factors=[
                _h(f=lambda v: v.ap, actions=[("atom",)]),
                _h(f=lambda v: v.ap + v.bp, actions=[("atom",)]),
            ]),
            factors=[
                _h(f=lambda v: v.a, mult=2,
                   actions=[("discard", [("alpha", lambda v: 0)], "F2a")]),
                _h(f=lambda v: v.bp, mult=2, actions=[("atom",)]),
                _h(f=lambda v: 2 * v.ap + v.bp, mult=1,
                   actions=[("terminating", "1a",
                             [("betap", lambda v: -2 * v.ap)], ("s5b",))]),
            ],
        ),
        ("0", "0", "1b", "0", "0"): _h(
            atoms=lambda v: [v.a + v.g, 2 * v.a + v.g, v.a, v.ap],
            own_c=lambda v: 2 * v.a + v.ap * v.x,
            c_zero=None,
            rfactor=lambda v: 1,
            rem_doc=lambda v: -2 * v.a * (3 * v.a + v.g),
            deg0=_h(factors=[_h(f=lambda v: v.ap, actions=[("atom",)])]),
            factors=[
                _h(f=lambda v: v.a, mult=1, actions=[("atom",)]),
                _h(f=lambda v: 3 * v.a + v.g, mult=1,
                   actions=[("terminating", "1a",
                             [("gamma", lambda v: -3 * v.a)], ("s6a",))]),
            ],
        ),
        ("0", "0", "1b", "0", "1a"): _h(
            atoms=lambda v: [v.ap + v.gp, v.a, v.gp, v.ap + 2 * v.gp],
            own_c=lambda v: ratfunc(v.a * (v.ap + 2 * v.gp), v.gp),
            c_zero=("terminating", "c=0", [("alphap", lambda v: -2 * v.gp)],
                    ("s2b", lambda v: [])),
            passthrough="0",
        ),
        ("0", "0", "1b", "1a", "0"): _h(
            atoms=lambda v: [v.g, v.ap, v.ap + v.bp, 2 * v.ap + v.bp],
            own_c=lambda v: (2 * v.ap + v.bp) * v.x,
            c_zero=("terminating", "c=0", [("betap", lambda v: -2 * v.ap)],
                    ("s2a", lambda v: [])),
            passthrough="0",
        ),
        ("0", "0", "1b", "1a", "1b"): _h(
            atoms=lambda v: [v.ap + v.bp, v.g, v.ap, v.bp],
            own_c=lambda v: -v.g + 2 * (v.ap + v.bp) * v.x,
            c_zero=None,
            rfactor=lambda v: 1,
            rem_doc=lambda v: -v.g ** 2 * (2 * v.ap + v.bp)
            / (2 * (v.ap + v.bp)),
            deg0=_h(factors=[
                _h(f=lambda v: v.ap + v.bp, actions=[("atom",)]),
            ]),
            factors=[
                _h(f=lambda v: v.g, mult=2, actions=[("atom",)]),
                _h(f=lambda v: 2 * v.ap + v.bp, mult=1,
                   actions=[("terminating", "1a",
                             [("betap", lambda v: -2 * v.ap)], ("s6b",))]),
            ],
        ),
        # -------------------------------------------------------------- c6
        ("0", "0", "0", "1a", "1b", "0"): _h(
            atoms=lambda v: [v.g, v.ap, v.b + v.g, v.b + 2 * v.g],
            own_c=lambda v: (2 * v.b + v.g)
            + ratfunc(2 * (v.b + v.g) * v.ap, v.g) * v.x,
            c_zero=None,
            rfactor=lambda v: v.g ** 2,
            rem_doc=lambda v: -v.b * v.g ** 3 * (2 * v.b + v.g)
            / (2 * (v.b + v.g)),
            deg0=_h(factors=[
                _h(f=lambda v: v.g, actions=[("atom",)]),
                _h(f=lambda v: v.ap, actions=[("atom",)]),
                _h(f=lambda v: v.b + v.g, actions=[("atom",)]),
            ]),
            factors=[
                _h(f=lambda v: v.g, mult=3, actions=[("atom",)]),
                _h(f=lambda v: v.b, mult=1,
                   actions=[("discard", [("beta", lambda v: 0)], "F5")]),
                _h(f=lambda v: 2 * v.b + v.g, mult=1,
                   actions=[("child", "1a",
                             [("gamma", lambda v: -2 * v.b)])]),
            ],
        ),
        ("0", "0", "0", "1b", "1a", "0"): _h(
            atoms=lambda v: [v.ap + v.bp, 2 * v.ap + v.bp, v.a, v.ap],
            own_c=lambda v: v.a + 2 * (v.ap + v.bp) * v.x,
            c_zero=None,
            rfactor=lambda v: v.ap,
            rem_doc=lambda v: -v.a ** 2 * v.bp * (v.ap + 2 * v.bp)
            / (2 * (v.ap + v.bp)),
            deg0=_h(factors=[
                _h(f=lambda v: v.ap, actions=[("atom",)]),
                _h(f=lambda v: v.ap + v.bp, actions=[("atom",)]),
            ]),
            factors=[
                _h(f=lambda v: v.a, mult=2, actions=[("atom",)]),
                _h(f=lambda v: v.bp, mult=1,
                   actions=[("discard", [("betap", lambda v: 0)], "F5")]),
                _h(f=lambda v: v.ap + 2 * v.bp, mult=1,
                   actions=[("child", "1a",
                             [("alphap", lambda v: -2 * v.bp)])]),
            ],
        ),
        ("0", "0", "1a", "0", "1b", "0"): _h(
            atoms=lambda v: [v.a, v.gp, v.ap + v.gp, v.ap + 2 * v.gp],
            own_c=lambda v: 2 * v.a + (2 * v.ap + v.gp) * v.x,
            c_zero=None,
            rfactor=lambda v: v.ap + v.gp,
            rem_doc=lambda v: -2 * v.a ** 2 * v.ap * v.gp / (2 * v.ap + v.gp),
            deg0=_h(const_atoms=[lambda v: v.a], factors=[
                _h(f=lambda v: 2 * v.ap + v.gp,
                   actions=[("child", "0",
                             [("gammap", lambda v: -2 * v.ap)])]),
                _h(f=lambda v: v.ap + v.gp, actions=[("atom",)]),
            ]),
            factors=[
                _h(f=lambda v: v.a, mult=2, actions=[("atom",)]),
                _h(f=lambda v: v.ap, mult=1,
                   actions=[("discard", [("alphap", lambda v: 0)], "F5")]),
                _h(f=lambda v: v.gp, mult=1, actions=[("atom",)]),
            ],
        ),
        ("0", "0", "1a", "1b", "0", "0"): _h(
            atoms=lambda v: [v.ap + v.bp, 2 * v.ap + v.bp, v.a, v.ap],
            own_c=lambda v: 2 * v.a + (v.ap + v.bp) * v.x,
            c_zero=None,
            rfactor=lambda v: v.ap,
            rem_doc=lambda v: 2 * v.a ** 2 * v.bp * (v.ap - v.bp)
            / (v.ap + v.bp),
            deg0=_h(factors=[
                _h(f=lambda v: v.ap, actions=[("atom",)]),
                _h(f=lambda v: v.ap + v.bp, actions=[("atom",)]),
            ]),
            factors=[
                _h(f=lambda v: v.a, mult=2, actions=[("atom",)]),
                _h(f=lambda v: v.bp, mult=1,
                   actions=[("discard", [("betap", lambda v: 0)], "F5")]),
                _h(f=lambda v: v.ap - v.bp, mult=1,
                   actions=[("child", "1a", [("betap", lambda v: v.ap)])]),
            ],
        ),
        ("0", "0", "1b", "0", "1a", "0"): _h(
            atoms=lambda v: [v.a, v.gp, v.ap + v.gp, v.ap + 2 * v.gp],
            own_c=lambda v: v.a + (2 * v.ap + v.gp) * v.x,
            c_zero=None,
            rfactor=lambda v: v.gp,
            rem_doc=lambda v: -2 * v.a ** 2 * v.ap * (v.ap + v.gp)
            / (2 * v.ap + v.gp),
            deg0=_h(const_atoms=[lambda v: v.a], factors=[
                _h(f=lambda v: 2 * v.ap + v.gp,
                   actions=[("child", "0",
                             [("gammap", lambda v: -2 * v.ap)])]),
                _h(f=lambda v: v.gp, actions=[("atom",)]),
            ]),
            factors=[
                _h(f=lambda v: v.a, mult=2, actions=[("atom",)]),
                _h(f=lambda v: v.ap, mult=1,
                   actions=[("discard", [("alphap", lambda v: 0)], "F5")]),
                _h(f=lambda v: v.ap + v.gp, mult=1, actions=[("atom",)]),
            ],
        ),
        ("0", "0", "1b", "1a", "0", "0"): _h(
            atoms=lambda v: [v.g, v.ap, v.ap + v.bp, 2 * v.ap + v.bp],
            own_c=lambda v: ratfunc(v.g * (v.ap - v.bp), v.ap + v.bp)
            + (v.ap + v.bp) * v.x,
            c_zero=None,
            rfactor=lambda v: v.ap + v.bp,
            rem_doc=lambda v: 2 * v.g ** 2 * v.ap * v.bp * (v.ap - v.bp)
            / (v.ap + v.bp) ** 2,
            deg0=_h(factors=[
                _h(f=lambda v: v.ap + v.bp, mult=2, actions=[("atom",)]),
            ]),
            factors=[
                _h(f=lambda v: v.g, mult=2, actions=[("atom",)]),
                _h(f=lambda v: v.ap, mult=1, actions=[("atom",)]),
                _h(f=lambda v: v.bp, mult=1,
                   actions=[("discard", [("betap", lambda v: 0)], "F5")]),
                _h(f=lambda v: v.ap - v.bp, mult=1,
                   actions=[("child", "1a", [("betap", lambda v: v.ap)])]),
            ],
        ),
        # -------------------------------------------------------------- c7
        ("0", "0", "0", "1a", "1b", "0", "1a"): _h(
            atoms=lambda v: [v.b, v.ap],
            own_c=lambda v: v.b + 2 * v.ap * v.x,
            c_zero=None,
            rfactor=lambda v: 1,
            rem_doc=lambda v: Fraction(-5, 4) * v.b ** 2,
            deg0=_h(factors=[_h(f=lambda v: v.ap, actions=[("atom",)])]),
            factors=[_h(f=lambda v: v.b, mult=2, actions=[("atom",)])],
        ),
        ("0", "0", "0", "1b", "1a", "0", "1a"): _h(
            atoms=lambda v: [v.a, v.bp],
            own_c=lambda v: Fraction(5, 2) * v.a - 4 * v.bp * v.x,
            c_zero=None,
            rfactor=lambda v: -1,
            rem_doc=lambda v: Fraction(5, 16) * v.a ** 2,
            deg0=_h(factors=[_h(f=lambda v: v.bp, actions=[("atom",)])]),
            factors=[_h(f=lambda v: v.a, mult=2, actions=[("atom",)])],
        ),
        ("0", "0", "1a", "0", "1b", "0", "0"): _h(
            atoms=lambda v: [v.a, v.ap],
            own_c=lambda v: 4 * v.a + v.ap * v.x,
            c_zero=None,
            rfactor=lambda v: 1,
            rem_doc=lambda v: -20 * v.a ** 2,
            deg0=_h(factors=[_h(f=lambda v: v.ap, actions=[("atom",)])]),
            factors=[_h(f=lambda v: v.a, mult=2, actions=[("atom",)])],
        ),
        ("0", "0", "1a", "1b", "0", "0", "1a"): _h(
            atoms=lambda v: [v.a, v.ap],
            own_c=lambda v: 4 * v.a + 5 * v.ap * v.x,
            c_zero=None,
            rfactor=lambda v: 1,
            rem_doc=lambda v: Fraction(-4, 5) * v.a ** 2,
            deg0=_h(factors=[_h(f=lambda v: v.ap, actions=[("atom",)])]),
            factors=[_h(f=lambda v: v.a, mult=2, actions=[("atom",)])],
        ),
        ("0", "0", "1b", "0", "1a", "0", "0"): _h(
            atoms=lambda v: [v.a, v.ap],
            own_c=lambda v: Fraction(5, 2) * v.a + v.ap * v.x,
            c_zero=None,
            rfactor=lambda v: -1,
            rem_doc=lambda v: 5 * v.a ** 2,
            deg0=_h(factors=[_h(f=lambda v: v.ap, actions=[("atom",)])]),
            factors=[_h(f=lambda v: v.a, mult=2, actions=[("atom",)])],
        ),
        ("0", "0", "1b", "1a", "0", "0", "1a"): _h(
            atoms=lambda v: [v.g, v.ap],
            own_c=lambda v: -v.g * half + 5 * v.ap * v.x,
            c_zero=None,
            rfactor=lambda v: 1,
            rem_doc=lambda v: Fraction(-1, 5) * v.g ** 2,
            deg0=_h(factors=[_h(f=lambda v: v.ap, actions=[("atom",)])]),
            factors=[_h(f=lambda v: v.g, mult=2, actions=[("atom",)])],
        ),
    }
