"""Concrete geodesic bicombings on the planar counterexample spaces.

A bicombing selects, for every ordered pair of points, a constant-speed
geodesic between them. Besides the plain affine selection this module builds:

* ``sigma_delta`` on the antenna blob ``X`` (hybrid norm): geodesics joining
  the two antennas bow upward onto a shallow parabola of height controlled by
  ``delta``; all other geodesics are piecewise linear. Convex but not
  consistent for ``delta > 0``.
* ``sigma_tilde_delta``: same, except right-to-left antenna geodesics stay on
  the axis, which destroys reversibility.
* ``sigma_X1`` on the folded strip ``X1`` (max norm): retract an affine
  segment onto the strip, routing the two orientations through the two
  unfoldings. Conical but not reversible.
* ``tau_X1``: reroute every ``sigma_X1`` geodesic through the average of the
  two half-way points, which restores the midpoint property (but still not
  reversibility).

Evaluators are closed-form, pure and batch-aware: points may be ``(2,)`` or
``(n, 2)`` arrays and the parameter a scalar or a length-``n`` array. Each
planar selection is one kernel in two steps: preparing an endpoint batch
validates it once and does all the work that does not depend on ``t``
(orientation, case split, slopes, folds, the ``tau_X1`` midpoint); ``at(t)``
does the per-parameter arithmetic. The public functions prepare and call
``at`` once; ``Bicombing.path`` keeps the prepared path for a scan over many
parameters. Any row of a batch equals that row evaluated alone, bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import spaces

#: Largest admissible bulge parameter for ``sigma_delta``.
DELTA_MAX = 1.0 / 64.0

_X = spaces.Region("X")
_X1 = spaces.Region("X1")
_X2 = spaces.Region("X2")


@dataclass(frozen=True)
class Bicombing:
    """A geodesic selection together with its domain and ambient norm.

    ``eval(p, q, t)`` is the selected geodesic from ``p`` to ``q`` at
    parameter ``t``; instances are immutable and safe to share.

    ``path(p, q)`` is the selection as a function of ``t`` alone: the ``at``
    of the optional ``prepare(p, q)``, which validates the endpoint batch once
    and equals ``eval(p, q, t)`` bit for bit, or else a call of ``eval``.
    """

    name: str
    space: str
    domain: spaces.Region
    eval: Callable
    prepare: Callable | None = None

    def path(self, p, q):
        if self.prepare is not None:
            return self.prepare(p, q).at
        return lambda t: self.eval(p, q, t)

    def dist(self, p, q):
        return spaces.dist(self.space, p, q)

    def sample(self, rng, count):
        return spaces.sample_region_rng(self.domain, rng, count)


def _check_delta(delta):
    if not 0.0 <= delta <= DELTA_MAX:
        raise ValueError(f"delta must lie in [0, 1/64], got {delta!r}")


def _pq(p, q):
    """Normalize endpoints to ``(n, 2)`` arrays; also whether both were points."""
    P = np.asarray(p, dtype=float)
    Q = np.asarray(q, dtype=float)
    single = P.ndim == 1 and Q.ndim == 1
    P = np.atleast_2d(P)
    Q = np.atleast_2d(Q)
    n = max(P.shape[0], Q.shape[0])
    if P.shape[0] != n:
        P = np.broadcast_to(P, (n, 2))
    if Q.shape[0] != n:
        Q = np.broadcast_to(Q, (n, 2))
    return np.ascontiguousarray(P), np.ascontiguousarray(Q), single


def _param(t, n):
    # a scalar parameter stays 0-d and serves every row as it is
    T = np.asarray(t, dtype=float)
    return T if T.ndim == 0 else np.broadcast_to(T, (n,))


def _take(T, rows):
    return T if T.ndim == 0 else T[rows]


def _require_in(region, P, label, tol=spaces.DEFAULT_TOL):
    ok = np.atleast_1d(spaces.contains(region, P, tol))
    if not ok.all():
        bad = np.atleast_2d(P)[~ok][0]
        raise ValueError(f"{label} {tuple(bad)} lies outside {region.tag}")


def linear(p, q, t):
    """Affine interpolation ``(1-t) p + t q``."""
    P = np.asarray(p, dtype=float)
    Q = np.asarray(q, dtype=float)
    T = np.asarray(t, dtype=float)[..., None]
    return (1.0 - T) * P + T * Q


class _SigmaDeltaPath:
    """``sigma_delta`` (with ``tilde``, ``sigma_tilde_delta``) prepared on one
    endpoint batch: validation, orientation, case split and every slope and
    amplitude happen here once, ``at`` does the per-parameter arithmetic."""

    def __init__(self, delta, p, q, tilde=False):
        _check_delta(delta)
        P, Q, self.single = _pq(p, q)
        _require_in(_X, P, "p endpoint")
        _require_in(_X, Q, "q endpoint")
        self.n = len(P)
        # right-to-left antenna pairs of sigma_tilde run straight along the axis
        self.flat = c = (np.flatnonzero((P[:, 0] >= 1.0) & (Q[:, 0] <= -1.0)) if tilde
                         else np.empty(0, dtype=np.intp))
        if c.size:
            self.fx, self.fdx = P[c, 0], Q[c, 0] - P[c, 0]
        # canonical orientation, smaller x first (ties broken on y); running the
        # reversed pair through the identical branch makes reversibility hold bit
        # for bit whenever 1-(1-t) == t
        swap = (P[:, 0] > Q[:, 0]) | ((P[:, 0] == Q[:, 0]) & (P[:, 1] > Q[:, 1]))
        self.swap = swap if swap.any() else None
        if self.swap is not None:
            P, Q = np.where(swap[:, None], Q, P), np.where(swap[:, None], P, Q)
        px, py = P[:, 0], P[:, 1]
        qx, qy = Q[:, 0], Q[:, 1]
        self.px, self.dx = px, qx - px
        # case dispatch keys on the closed antennas x <= -1 and x >= 1, the
        # interior is open in x; rows of no case have both endpoints on one
        # antenna and stay on the axis
        p_minus, p_zero = px <= -1.0, (px > -1.0) & (px < 1.0)
        q_plus, q_zero = qx >= 1.0, (qx > -1.0) & (qx < 1.0)
        self.bow = c = np.flatnonzero(p_minus & q_plus)  # onto a parabola
        if c.size:
            self.amp = delta * np.maximum(qx[c] - px[c] - 4.0, 0.0)
        self.climb = c = np.flatnonzero(p_minus & q_zero)  # chord from the left tip
        if c.size:
            self.up = qy[c] / (qx[c] + 1.0)
        self.descend = c = np.flatnonzero(p_zero & q_plus)  # chord into the right
        if c.size:
            self.down = py[c] / (px[c] - 1.0)
        self.inner = c = np.flatnonzero(p_zero & q_zero)  # linear interpolation
        if c.size:
            self.py, self.dy = py[c], qy[c] - py[c]

    def at(self, t):
        T = _param(t, self.n)
        S = T if self.swap is None else np.where(self.swap, 1.0 - T, T)
        x = self.px + S * self.dx
        y = np.zeros_like(x)
        if self.bow.size:
            xb = x[self.bow]
            y[self.bow] = self.amp * np.maximum(0.0, 1.0 - xb * xb)
        if self.climb.size:
            y[self.climb] = np.maximum(0.0, self.up * (x[self.climb] + 1.0))
        if self.descend.size:
            y[self.descend] = np.maximum(0.0, self.down * (x[self.descend] - 1.0))
        if self.inner.size:
            y[self.inner] = self.py + _take(S, self.inner) * self.dy
        if self.flat.size:
            x[self.flat] = self.fx + _take(T, self.flat) * self.fdx
            y[self.flat] = 0.0
        out = np.stack([x, y], axis=-1)
        return out[0] if self.single and T.ndim == 0 else out


def sigma_delta(delta, p, q, t):
    """Bulged geodesic selection on the antenna blob ``X``.

    Geodesics between the two antennas follow the parabola
    ``delta * max(span - 4, 0) * (1 - x^2)``; everything else is piecewise
    linear. Reversible by construction.
    """
    return _SigmaDeltaPath(delta, p, q).at(t)


def sigma_tilde_delta(delta, p, q, t):
    """Like :func:`sigma_delta`, except geodesics from the right antenna to
    the left one run straight along the axis, which breaks reversibility."""
    return _SigmaDeltaPath(delta, p, q, tilde=True).at(t)


def _fold(P):
    # reflect the slanted antenna (x <= -1) across the x-axis; an involution
    # exchanging the folded strip with its mirror image, identity at x = -1
    flip = P[:, 0] <= -1.0
    R = P.copy()
    R[flip, 1] = -R[flip, 1]
    return R


def fold_f(p, direction):
    """Unfolding isometry between the strip ``X2`` and the strip ``X1``.

    ``forward`` maps ``X2`` to ``X1`` and ``inverse`` maps ``X1`` to ``X2``;
    both flip the antenna part ``x <= -1`` across the x-axis and fix the rest.
    """
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    P = np.asarray(p, dtype=float)
    squeeze = P.ndim == 1
    P = np.atleast_2d(P)
    src = _X2 if direction == "forward" else _X1
    _require_in(src, P, f"{direction} endpoint")
    out = _fold(P)
    return out[0] if squeeze else out


def _pi(P):
    """The paper's vertical retraction pi of ``Y1 u Y2`` onto ``X1 u X2``:
    ``|y|`` clamped to ``||x| - 1|``, keeping the sign of ``y``. It fixes
    ``X1 u X2`` pointwise, is idempotent and 1-Lipschitz in the max norm.
    ``Y1 = X1 u {|x + 1| <= y <= 1}`` and ``Y2`` is its mirror image."""
    x, y = P[:, 0], P[:, 1]
    cap = np.abs(np.abs(x) - 1.0)
    return np.stack([x, np.sign(y) * np.minimum(np.abs(y), cap)], axis=-1)


class _X1Path:
    """``sigma_X1`` prepared on one endpoint batch: the branch split and the
    folded endpoints of the right-to-left rows. ``checked=False`` skips the
    validation for endpoints already known to lie in ``X1``."""

    def __init__(self, p, q, checked=True):
        P, Q, self.single = _pq(p, q)
        if checked:
            _require_in(_X1, P, "p endpoint")
            _require_in(_X1, Q, "q endpoint")
        self.n = len(P)
        first = P[:, 0] <= Q[:, 0]
        self.first, self.rest = np.flatnonzero(first), np.flatnonzero(~first)
        if self.first.size:
            self.P, self.Q = P[self.first], Q[self.first]
        if self.rest.size:
            self.A, self.B = _fold(P[self.rest]), _fold(Q[self.rest])

    def at(self, t):
        T = _param(t, self.n)
        out = np.empty((self.n, 2))
        if self.first.size:
            out[self.first] = _pi(linear(self.P, self.Q, _take(T, self.first)))
        if self.rest.size:
            out[self.rest] = _fold(_pi(linear(self.A, self.B, _take(T, self.rest))))
        return out[0] if self.single and T.ndim == 0 else out


def sigma_X1(p, q, t):
    """Retraction bicombing on the folded strip ``X1`` under the max norm.

    Left-to-right pairs retract the affine segment onto the strip; right-to-
    left pairs do the same in the mirror image and fold back, so the two
    orientations select genuinely different paths. Conical, not reversible.
    Ties ``p_x == q_x`` take the first branch.
    """
    return _X1Path(p, q).at(t)


class _TauX1Path:
    """``tau_X1`` prepared on one endpoint batch: the averaged midpoint ``M``,
    checked once, and the two ``sigma_X1`` halves ``(P, M)`` and ``(M, Q)``.
    ``M`` is checked at twice the endpoints' tolerance, so that ``tau_X1`` is
    defined on every pair of points its domain test accepts."""

    def __init__(self, p, q):
        P, Q, self.single = _pq(p, q)
        _require_in(_X1, P, "p endpoint")
        _require_in(_X1, Q, "q endpoint")
        M = 0.5 * (_X1Path(P, Q, False).at(0.5) + _X1Path(Q, P, False).at(0.5))
        # endpoints may sit DEFAULT_TOL outside X1, and averaging the two
        # half-way points adds rounding on top of that slack
        _require_in(_X1, M, "averaged midpoint", 2.0 * spaces.DEFAULT_TOL)
        self.n = len(P)
        self.lo, self.hi = _X1Path(P, M, False), _X1Path(M, Q, False)

    def at(self, t):
        T = _param(t, self.n)
        if T.ndim == 0:
            out = self.lo.at(2.0 * T) if T <= 0.5 else self.hi.at(2.0 * T - 1.0)
            return out[0] if self.single else out
        # each row keeps the half its parameter falls in
        return np.where((T <= 0.5)[:, None], self.lo.at(2.0 * T), self.hi.at(2.0 * T - 1.0))


def tau_X1(p, q, t):
    """Midpoint-modified retraction bicombing on ``X1``.

    Runs from ``p`` to the average ``m`` of the two half-way points of
    :func:`sigma_X1` and then from ``m`` to ``q``, each at double speed. Has
    the midpoint property by construction, yet is still not reversible.
    """
    return _TauX1Path(p, q).at(t)


def linear_bicombing(space="euclid", domain=None, name="linear"):
    """The affine selection, by default on a large ball so it can be sampled."""
    if domain is None:
        domain = spaces.Region.ball((0.0, 0.0), 8.0, space)
    return Bicombing(name, space, domain, linear)


def sigma_delta_bicombing(delta=DELTA_MAX):
    _check_delta(delta)
    return Bicombing(f"sigma_delta[{delta:g}]", "hybrid", _X,
                     functools.partial(sigma_delta, delta),
                     functools.partial(_SigmaDeltaPath, delta))


def sigma_tilde_bicombing(delta=DELTA_MAX):
    _check_delta(delta)
    return Bicombing(f"sigma_tilde[{delta:g}]", "hybrid", _X,
                     functools.partial(sigma_tilde_delta, delta),
                     functools.partial(_SigmaDeltaPath, delta, tilde=True))


def sigma_X1_bicombing():
    return Bicombing("sigma_X1", "linf", _X1, sigma_X1, _X1Path)


def tau_X1_bicombing():
    return Bicombing("tau_X1", "linf", _X1, tau_X1, _TauX1Path)
