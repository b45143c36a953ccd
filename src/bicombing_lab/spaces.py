"""Planar norms, region membership, and seeded region samplers.

Three norms are used throughout: the Euclidean norm, the maximum norm, and a
hybrid norm ``max(|x|, sqrt((x^2 + y^2)/2))``. The regions are the handful of
planar sets on which the nonstandard geodesic selections of this package
live: a thin parabolic blob flanked by two antenna segments (``X`` and its
pieces), a diamond with a slanted antenna and its mirror image (``X1``,
``X2`` and the enlarged sets ``Y1``, ``Y2``), and norm balls.

``face`` maps a direction to the minimal face of the unit sphere containing
it, which is what decides the shape of metric in-between sets.

All functions are pure and safe to call concurrently. Apart from ``face``,
which takes one direction, they accept either a single point of shape
``(2,)`` or a batch of shape ``(n, 2)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPACES = ("euclid", "linf", "hybrid")

REGION_TAGS = ("X", "Xminus", "Xzero", "Xplus", "X1", "X2", "Y1", "Y2", "ball")

#: Default slack for membership tests on computed geodesic points. The
#: constructions place geodesics exactly on region boundaries, so raw
#: floating-point output can sit a few ulps outside the exact set.
DEFAULT_TOL = 1e-9

_TINY = np.finfo(float).tiny


def _xy(p):
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != 2:
        raise ValueError("points must have two coordinates")
    return p[..., 0], p[..., 1]


def norm(space, v):
    """Norm of a vector (or batch of vectors) in the given space."""
    x, y = _xy(v)
    if space == "euclid":
        return np.hypot(x, y)
    if space == "linf":
        return np.maximum(np.abs(x), np.abs(y))
    if space == "hybrid":
        # max(|x|, (sqrt2/2)*|v|_2), written with a single sqrt so the two
        # branches compare exactly when |y| == |x|; rows whose squares overflow
        # or underflow are rescaled by m = max(|x|, |y|) first
        with np.errstate(over="ignore"):
            s = x * x + y * y
        r = np.sqrt(s / 2.0)
        if not (s.max() < np.inf and (s.min() >= _TINY or not (x.any() or y.any()))):
            m = np.maximum(np.abs(x), np.abs(y))
            bad = np.isinf(s) & np.isfinite(m) | (s < _TINY) & (m > 0.0)
            if bad.any():
                with np.errstate(invalid="ignore", divide="ignore"):
                    r = np.where(bad, m * np.sqrt(((x / m) ** 2 + (y / m) ** 2) / 2.0), r)
        return np.maximum(np.abs(x), r)
    raise ValueError(f"unknown space {space!r}")


def dist(space, p, q):
    """Distance induced by :func:`norm` (norm of the difference)."""
    return norm(space, np.asarray(p, dtype=float) - np.asarray(q, dtype=float))


def face(space, v):
    """Ends ``(f_minus, f_plus)`` of the minimal face of the unit sphere that
    contains ``v / norm(space, v)``.

    The face is a point (``f_minus == f_plus == v / norm``) exactly when the
    direction is extreme: always for the Euclidean norm, at the four corners
    ``|v_x| == |v_y|`` of the max norm, and on the arcs and at the corners
    ``|v_y| >= |v_x|`` of the hybrid norm. Otherwise it is a flat edge, given
    with ``f_minus <= f_plus`` componentwise: ``x = +-1, |y| <= 1`` when
    ``|v_x| > |v_y|`` (max and hybrid norms), ``y = +-1, |x| <= 1`` when
    ``|v_y| > |v_x|`` (max norm).
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (2,) or not np.isfinite(v).all():
        raise ValueError("a direction must be one finite point of shape (2,)")
    n = float(norm(space, v))
    if n == 0.0:
        raise ValueError("the zero vector has no direction")
    ax, ay = abs(v[0]), abs(v[1])
    if space == "linf" and ay > ax:
        axis = 1
    elif space in ("linf", "hybrid") and ax > ay:
        axis = 0
    else:
        u = v / n
        return u, u.copy()
    f_minus = np.full(2, -1.0)
    f_minus[axis] = np.copysign(1.0, v[axis])
    f_plus = f_minus.copy()
    f_plus[1 - axis] = 1.0
    return f_minus, f_plus


@dataclass(frozen=True)
class Region:
    """A named planar region, or a norm ball when ``tag == "ball"``."""

    tag: str
    center: tuple | None = None
    radius: float | None = None
    norm: str | None = None

    def __post_init__(self):
        if self.tag not in REGION_TAGS:
            raise ValueError(f"unknown region tag {self.tag!r}")
        if self.tag == "ball":
            if self.center is None or self.radius is None or self.norm is None:
                raise ValueError("ball regions need center, radius and norm")
            if self.norm not in SPACES:
                raise ValueError(f"unknown space {self.norm!r}")
            cx, cy = self.center
            object.__setattr__(self, "center", (float(cx), float(cy)))
            object.__setattr__(self, "radius", float(self.radius))
            if not self.radius >= 0.0:
                raise ValueError("ball radius must be >= 0")

    @classmethod
    def ball(cls, center, radius, norm="euclid"):
        return cls("ball", tuple(center), radius, norm)


def contains(region, p, tol=DEFAULT_TOL):
    """Membership test with every defining inequality relaxed by ``tol``."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    x, y = _xy(p)
    tag = region.tag
    if tag == "X":
        cap = np.maximum(0.0, 1.0 - x * x) / 32.0
        return (x >= -3.0 - tol) & (x <= 3.0 + tol) & (y >= -tol) & (y <= cap + tol)
    if tag == "Xminus":
        return (x >= -3.0 - tol) & (x <= -1.0 + tol) & (np.abs(y) <= tol)
    if tag == "Xzero":
        # open in x by definition; the parabola cap is negative outside [-1,1]
        return ((x > -1.0 - tol) & (x < 1.0 + tol)
                & (y >= -tol) & (y <= (1.0 - x * x) / 32.0 + tol))
    if tag == "Xplus":
        return (x >= 1.0 - tol) & (x <= 3.0 + tol) & (np.abs(y) <= tol)
    if tag == "X1":
        ax = np.abs(x)
        return ((x >= -2.0 - tol) & (x <= 1.0 + tol)
                & (y >= ax - 1.0 - tol) & (y <= np.abs(ax - 1.0) + tol))
    if tag == "X2":
        return contains(Region("X1"), np.stack([x, -y], axis=-1), tol)
    if tag == "Y1":
        in_triangle = (y >= np.abs(x + 1.0) - tol) & (y <= 1.0 + tol)
        return contains(Region("X1"), np.stack([x, y], axis=-1), tol) | in_triangle
    if tag == "Y2":
        return contains(Region("Y1"), np.stack([x, -y], axis=-1), tol)
    if tag == "ball":
        c = np.asarray(region.center, dtype=float)
        return dist(region.norm, np.stack([x, y], axis=-1), c) <= region.radius + tol
    raise ValueError(f"unknown region tag {tag!r}")


def sample_region(region, seed, count):
    """Deterministic sample of ``count`` points of the region.

    Identical ``(seed, count)`` always yields the identical array. Every
    returned point satisfies ``contains(region, p, 0)``.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    return sample_region_rng(region, np.random.default_rng(seed), count)


def sample_region_rng(region, rng, count):
    """Like :func:`sample_region` but drawing from a caller-owned generator.

    Regions made of several pieces (two-dimensional parts plus boundary
    segments) pick each point's piece uniformly at random, so the
    lower-dimensional pieces are exercised as well; plain rejection sampling
    would hit them with probability zero.
    """
    pieces = _piece_samplers(region)
    if len(pieces) == 1:
        choice = np.zeros(count, dtype=np.intp)
    else:
        choice = rng.integers(0, len(pieces), size=count)
    out = np.empty((count, 2), dtype=float)
    for k, draw in enumerate(pieces):
        mask = choice == k
        n = int(mask.sum())
        if n:
            out[mask] = draw(rng, n)
    return out


def _area_sampler(region, box):
    # rejection sampling from an axis-aligned box; the acceptance predicate is
    # the region's own membership test at tol=0, which makes the sampler's
    # postcondition hold exactly
    xlo, xhi, ylo, yhi = (float(v) for v in box)

    def draw(rng, n):
        out = np.empty((n, 2), dtype=float)
        filled = 0
        budget = 1000 * n
        attempts = 0
        while filled < n:
            m = min(max(4 * (n - filled), 256), budget - attempts)
            if m <= 0:
                raise RuntimeError(
                    f"rejection budget exhausted while sampling {region.tag}; "
                    "the region looks degenerate")
            cand = rng.random((m, 2))
            cand[:, 0] = xlo + (xhi - xlo) * cand[:, 0]
            cand[:, 1] = ylo + (yhi - ylo) * cand[:, 1]
            attempts += m
            good = cand[contains(region, cand, 0.0)]
            take = min(len(good), n - filled)
            out[filled:filled + take] = good[:take]
            filled += take
        return out

    return draw


def _segment_x_sampler(x0, x1):
    def draw(rng, n):
        out = np.zeros((n, 2), dtype=float)
        out[:, 0] = x0 + (x1 - x0) * rng.random(n)
        return out

    return draw


def _antenna_sampler(sign):
    # slanted antenna of the folded strip; y is derived from x with the very
    # expression the membership test uses, so tol=0 membership holds exactly
    def draw(rng, n):
        x = -1.0 - rng.random(n)
        y = sign * (np.abs(x) - 1.0)
        return np.stack([x, y], axis=-1)

    return draw


def _point_sampler(point):
    point = np.asarray(point, dtype=float)

    def draw(rng, n):
        return np.tile(point, (n, 1))

    return draw


def _piece_samplers(region):
    tag = region.tag
    if tag == "Xminus":
        return [_segment_x_sampler(-3.0, -1.0)]
    if tag == "Xplus":
        return [_segment_x_sampler(1.0, 3.0)]
    if tag == "Xzero":
        return [_area_sampler(region, (-1.0, 1.0, 0.0, 1.0 / 32.0))]
    if tag == "X":
        return [_segment_x_sampler(-3.0, -1.0),
                _area_sampler(region, (-1.0, 1.0, 0.0, 1.0 / 32.0)),
                _segment_x_sampler(1.0, 3.0)]
    if tag == "X1":
        return [_area_sampler(region, (-1.0, 1.0, -1.0, 1.0)), _antenna_sampler(+1.0)]
    if tag == "X2":
        return [_area_sampler(region, (-1.0, 1.0, -1.0, 1.0)), _antenna_sampler(-1.0)]
    if tag == "Y1":
        return [_area_sampler(region, (-1.0, 1.0, -1.0, 1.0)),
                _area_sampler(region, (-2.0, 0.0, 0.0, 1.0))]
    if tag == "Y2":
        return [_area_sampler(region, (-1.0, 1.0, -1.0, 1.0)),
                _area_sampler(region, (-2.0, 0.0, -1.0, 0.0))]
    if tag == "ball":
        if region.radius == 0.0:
            return [_point_sampler(region.center)]
        ex = region.radius / float(norm(region.norm, (1.0, 0.0)))
        ey = region.radius / float(norm(region.norm, (0.0, 1.0)))
        cx, cy = region.center
        return [_area_sampler(region, (cx - ex, cx + ex, cy - ey, cy + ey))]
    raise ValueError(f"unknown region tag {tag!r}")
