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

import functools
from dataclasses import dataclass

import numpy as np

from .bicombings import Bicombing, _pq
from .spaces import _require_tol

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
        _require_tol(self.tol)


def _halvings(base, X, Y, tol):
    """Halve the gaps between the rows of ``X`` and ``Y`` in place until each
    is at most ``tol``. Yields ``(step, rows, gaps)`` once per step: the rows
    halved at that step (every row at step 0, before any halving) and their
    gaps after it. Each row stops at the first gap <= tol and stays frozen."""
    g = np.atleast_1d(np.asarray(base.dist(X, Y), dtype=float))
    yield 0, slice(None), g
    active = g > tol
    step = 0
    while active.any():
        if step >= _MAX_HALVINGS:
            worst = float(np.max(g[active]))
            raise ConvergenceError(
                f"midpoint gap {worst:g} still above tol {tol:g} after "
                f"{_MAX_HALVINGS} halvings; base selection is not conical here")
        step += 1
        Xa, Ya = X[active], Y[active]
        Xn = base.eval(Xa, Ya, 0.5)
        Yn = base.eval(Ya, Xa, 0.5)
        X[active] = Xn
        Y[active] = Yn
        ga = np.atleast_1d(np.asarray(base.dist(Xn, Yn), dtype=float))
        yield step, active, ga
        g[active] = ga
        active[active] = ga > tol


def _start(x, y):
    X, Y, single = _pq(x, y)
    # the iteration writes into X and Y, which may be the caller's arrays
    return X.copy(), Y.copy(), single


def midpoint_iteration(base, x, y, cfg=None):
    """Run the halving iteration and return ``(midpoints, gaps)``.

    ``gaps[i, n]`` is the distance between the two sequences of pair ``i``
    after ``n`` halvings, ``nan`` once that pair has stopped. Each pair stops
    at the first n with gap <= tol and its midpoint is frozen there.
    """
    cfg = cfg or MidpointConfig()
    X, Y, single = _start(x, y)
    gaps = np.full((X.shape[0], _MAX_HALVINGS + 1), np.nan)
    for step, rows, g in _halvings(base, X, Y, cfg.tol):
        gaps[rows, step] = g
    return (X[0] if single else X), gaps


def midpoint(base, x, y, cfg=None):
    """Metric midpoint of ``x`` and ``y`` under the selection ``base``.

    Symmetric in its arguments and half way from either endpoint, each up to
    ``cfg.tol``. Raises :class:`ConvergenceError` when the iteration does not
    contract within :data:`_MAX_HALVINGS` halvings. Unlike
    :func:`midpoint_iteration` it keeps no gap history.
    """
    cfg = cfg or MidpointConfig()
    X, Y, single = _start(x, y)
    for _ in _halvings(base, X, Y, cfg.tol):
        pass
    return X[0] if single else X


class _ReversibilizedPath:
    """A reversibilized selection prepared on one endpoint batch: the base
    paths ``p -> q`` and ``q -> p``, prepared once; ``at(t)`` takes the
    metric midpoint of the two at mirrored parameters."""

    def __init__(self, base, cfg, p, q):
        self.base, self.cfg = base, cfg
        self.forward, self.backward = base.path(p, q), base.path(q, p)

    def at(self, t):
        a = self.forward(t)
        b = self.backward(1.0 - np.asarray(t, dtype=float))
        return midpoint(self.base, a, b, self.cfg)


def reversibilize(base, cfg=None):
    """Reversible bicombing built on top of a conical one.

    The returned selection evaluates the base geodesic in both orientations
    and takes the metric midpoint of the two, so forward and backward
    traversals agree within ``2 * cfg.tol``; the result stays geodesic and
    conical up to the same slack. Midpoint iteration failures propagate.

    Its ``prepare(p, q)`` prepares the two base paths once per endpoint
    batch (through ``base.path``, so a base without ``prepare`` works too),
    and ``eval(p, q, t)`` is ``prepare(p, q).at(t)``: ``path`` and ``eval``
    agree bit for bit. Only the halving iteration, whose endpoints move,
    evaluates the base afresh at each step.
    """
    prepare = functools.partial(_ReversibilizedPath, base, cfg or MidpointConfig())

    def ev(p, q, t):
        return prepare(p, q).at(t)

    return Bicombing(name=f"reversibilized({base.name})", space=base.space,
                     domain=base.domain, eval=ev, prepare=prepare)
