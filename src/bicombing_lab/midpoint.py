"""Metric midpoints by alternating geodesic halving, and the reversal fix.

Iterating ``x <- sigma(x, y, 1/2)``, ``y <- sigma(y, x, 1/2)`` halves the gap
between the two sequences whenever the selection satisfies the conical
inequality, so both converge geometrically to a common metric midpoint.
Feeding the midpoint of ``sigma(x, y, t)`` and ``sigma(y, x, 1-t)`` back
through this map turns any conical selection into a reversible one.

Iteration state is local to each call; everything here is safe to run
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bicombings import Bicombing, _pq

#: The halving budget: 64 halvings underflow any diameter occurring here, so
#: a gap still above tol after them did not contract.
_MAX_HALVINGS = 64


class ConvergenceError(RuntimeError):
    """Raised when the halving iteration fails to contract.

    This signals that the underlying selection is not conical on the pair,
    since conical selections halve the gap at every step.
    """


@dataclass(frozen=True)
class MidpointConfig:
    """Stopping rule for the halving iteration: stop once the gap is at most
    ``tol``. The iteration gives up after :data:`_MAX_HALVINGS` halvings."""

    tol: float = 1e-10

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")


def midpoint_iteration(base, x, y, cfg=None):
    """Run the halving iteration and return ``(midpoints, gaps)``.

    ``gaps[i, n]`` is the distance between the two sequences of pair ``i``
    after ``n`` halvings, ``nan`` once that pair has stopped. Each pair stops
    at the first n with gap <= tol and its midpoint is frozen there.
    """
    cfg = cfg or MidpointConfig()
    X, Y, single = _pq(x, y)
    # the iteration writes into X and Y, which may be the caller's arrays
    X, Y = X.copy(), Y.copy()
    n = X.shape[0]
    gaps = np.full((n, _MAX_HALVINGS + 1), np.nan)
    g = np.atleast_1d(np.asarray(base.dist(X, Y), dtype=float))
    gaps[:, 0] = g
    active = g > cfg.tol
    step = 0
    while active.any():
        if step >= _MAX_HALVINGS:
            worst = float(np.max(g[active]))
            raise ConvergenceError(
                f"midpoint gap {worst:g} still above tol {cfg.tol:g} after "
                f"{_MAX_HALVINGS} halvings; base selection is not conical here")
        step += 1
        Xa, Ya = X[active], Y[active]
        Xn = base.eval(Xa, Ya, 0.5)
        Yn = base.eval(Ya, Xa, 0.5)
        X[active] = Xn
        Y[active] = Yn
        ga = np.atleast_1d(np.asarray(base.dist(Xn, Yn), dtype=float))
        gaps[active, step] = ga
        g[active] = ga
        active[active] = ga > cfg.tol
    mids = X[0] if single else X
    return mids, gaps


def midpoint(base, x, y, cfg=None):
    """Metric midpoint of ``x`` and ``y`` under the selection ``base``.

    Symmetric in its arguments and half way from either endpoint, each up to
    ``cfg.tol``. Raises :class:`ConvergenceError` when the iteration does not
    contract within :data:`_MAX_HALVINGS` halvings.
    """
    mids, _ = midpoint_iteration(base, x, y, cfg)
    return mids


def reversibilize(base, cfg=None):
    """Reversible bicombing built on top of a conical one.

    The returned selection evaluates the base geodesic in both orientations
    and takes the metric midpoint of the two, so forward and backward
    traversals agree within ``2 * cfg.tol``; the result stays geodesic and
    conical up to the same slack. Midpoint iteration failures propagate.
    """
    cfg = cfg or MidpointConfig()

    def ev(p, q, t):
        a = base.eval(p, q, t)
        b = base.eval(q, p, 1.0 - np.asarray(t, dtype=float))
        return midpoint(base, a, b, cfg)

    return Bicombing(name=f"reversibilized({base.name})", space=base.space,
                     domain=base.domain, eval=ev)
