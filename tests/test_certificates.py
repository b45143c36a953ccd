"""Symbolic proofs of the closed-form claims behind the bulged bicombing
(sympy), kept beside the numeric checks in ``test_verify`` and
``test_acceptance``."""

import numpy as np
import sympy
from sympy.solvers.inequalities import solve_univariate_inequality

from bicombing_lab.verify import (_threshold_rows, convexity_pair_gap_squared,
                                  convexity_pair_model)

d, tau = sympy.symbols("delta tau", real=True)


def _exact(expr):
    # the code's constants are dyadic floats (integers, 31/8, 255/64), so
    # each converts to the rational it denotes without rounding
    expr = sympy.sympify(expr)
    return expr.xreplace({f: sympy.Rational(f) for f in expr.atoms(sympy.Float)})


def test_threshold_expressions_are_positive_on_the_admissible_deltas():
    admissible = sympy.Interval(0, sympy.Rational(1, 64))
    rows = _threshold_rows(d)
    assert len(rows) == 5
    for label, expr in rows:
        positive = solve_univariate_inequality(_exact(expr) > 0, d, relational=False)
        assert admissible.is_subset(positive), label


def test_convexity_pair_gap_polynomial():
    # antenna-pair branch of sigma_delta: the long geodesic (-3,0) -> (3,0)
    # has span 6, so it bows with amplitude delta * (6 - 4); at
    # t = 1/2 + side * tau / 2 it sits at x = 3 side tau,
    # y = 2 delta (1 - x^2) for |x| <= 1. The short one (-2,0) -> (2,0) has
    # span 4 and stays on the axis at x = 2 side tau.
    by_hand = tau ** 2 + 4 * d ** 2 * (1 - 9 * tau ** 2) ** 2
    model = 4 * d ** 2 + (1 - 72 * d ** 2) * tau ** 2 + 324 * d ** 2 * tau ** 4
    for side in (-1, 1):
        x_long = 3 * side * tau
        gap2 = (x_long - 2 * side * tau) ** 2 + (2 * d * (1 - x_long ** 2)) ** 2
        assert sympy.expand(gap2 - by_hand) == 0
        assert sympy.expand(gap2 - model) == 0
    assert sympy.expand(_exact(convexity_pair_model(d, tau)) - model) == 0
    # never below 4 delta^2 on the admissible deltas: no negative coefficient
    admissible = sympy.Interval(0, sympy.Rational(1, 64))
    assert admissible.is_subset(
        solve_univariate_inequality(1 - 72 * d ** 2 > 0, d, relational=False))

    # the float evaluation through sigma_delta follows the derived branch
    exact = sympy.lambdify((d, tau), model)
    for delta in np.linspace(0.0, 1.0 / 64.0, 5):
        for t in np.linspace(0.0, 1.0 / 3.0, 7):
            for gap in convexity_pair_gap_squared(delta, t):
                assert abs(gap - exact(delta, t)) <= 1e-14
