"""The space of strictly increasing normalized functions under the L1 metric.

Elements are piecewise-linear, strictly increasing functions on [0,1] with
f(0)=0 and f(1)=1. On this class the graph inversion f -> f^-1 is an exact
coordinate swap and the L1 distance has a closed form per segment, so the two
interpolation schemes of interest are exact:

* vertical: pointwise affine combination (1-t) f + t g,
* horizontal: invert, combine affinely, invert back (the graphs slide
  horizontally into each other).

Both are consistent conical geodesic selections for the L1 distance, and they
differ: averaging the square root function with the identity vertically or
horizontally gives visibly different curves.

The property engine works on *packed batches*: an ``(n, 2, K)`` float array
whose rows ``[:, 0]`` and ``[:, 1]`` hold the ``xs`` and ``vs`` breakpoints of
n functions, each row padded by repeating its ``(1, 1)`` endpoint. The batch
kernels (:func:`random_monotone_batch`, :func:`vertical_batch`,
:func:`horizontal_batch`, :func:`l1_distance_batch`) run vectorized over rows
and never build a :class:`MonotoneFn` per row. They perform the same float
operations in the same order as the per-function functions, which stay as
the reference: a kernel's row and the per-function result agree bit for bit.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True, eq=False)
class MonotoneFn:
    """Strictly increasing piecewise-linear function on [0,1], 0 -> 0, 1 -> 1.

    Values between breakpoints interpolate linearly. Instances are immutable;
    the breakpoint arrays are stored read-only.
    """

    xs: np.ndarray
    vs: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        vs = np.asarray(self.vs, dtype=float)
        if xs.ndim != 1 or xs.shape != vs.shape or len(xs) < 2:
            raise ValueError("breakpoints must be two equal-length 1-d arrays")
        if xs[0] != 0.0 or vs[0] != 0.0 or xs[-1] != 1.0 or vs[-1] != 1.0:
            raise ValueError("breakpoints must start at (0,0) and end at (1,1)")
        if not (np.diff(xs) > 0).all() or not (np.diff(vs) > 0).all():
            raise ValueError("breakpoints must be strictly increasing in both coordinates")
        xs = xs.copy()
        vs = vs.copy()
        xs.setflags(write=False)
        vs.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "vs", vs)

    def __call__(self, x):
        return eval_fn(self, x)


def identity_fn():
    return MonotoneFn(np.array([0.0, 1.0]), np.array([0.0, 1.0]))


def from_breakpoints(pairs):
    pairs = np.asarray(pairs, dtype=float)
    return MonotoneFn(pairs[:, 0], pairs[:, 1])


def sqrt_approx(n=256):
    """Piecewise-linear square root on the graded mesh ``x_i = (i/n)^2``.

    The graded mesh puts the inverse (the squaring function) on a uniform
    mesh, so the function and its inverse are both well resolved near 0 where
    the square root has unbounded slope.
    """
    i = np.arange(n + 1) / n
    return MonotoneFn(i * i, i)


def eval_fn(f, x):
    """Evaluate at ``x`` in [0,1] (scalar or array) by linear interpolation."""
    return np.interp(x, f.xs, f.vs)


def l1_distance(f, g):
    """Exact L1 distance between two piecewise-linear functions.

    On the merged breakpoint grid the difference is linear per segment, so
    each segment integrates in closed form, solving the crossing point
    exactly where the difference changes sign.
    """
    xs = np.union1d(f.xs, g.xs)
    h = np.interp(xs, f.xs, f.vs) - np.interp(xs, g.xs, g.vs)
    w = np.diff(xs)
    ha, hb = h[:-1], h[1:]
    mean_abs = 0.5 * np.abs(ha + hb)
    cross = (ha * hb) < 0.0
    if cross.any():
        num = ha[cross] * ha[cross] + hb[cross] * hb[cross]
        mean_abs[cross] = num / (2.0 * np.abs(ha[cross] - hb[cross]))
    return float(np.dot(mean_abs, w))


def invert(f):
    """Exact inverse within the piecewise-linear class (coordinate swap)."""
    return MonotoneFn(f.vs, f.xs)


def _combine(f, g, t):
    xs = np.union1d(f.xs, g.xs)
    vs = (1.0 - t) * np.interp(xs, f.xs, f.vs) + t * np.interp(xs, g.xs, g.vs)
    # the exact endpoint values can round off by one ulp; pin them
    vs[0] = 0.0
    vs[-1] = 1.0
    return MonotoneFn(xs, vs)


def vertical_bicombing(f, g, t):
    """Pointwise affine interpolation ``(1-t) f + t g``."""
    if t == 0.0:
        return f
    if t == 1.0:
        return g
    return _combine(f, g, t)


def horizontal_bicombing(f, g, t):
    """Horizontal interpolation: slide the graphs into each other sideways.

    Equals inversion, vertical interpolation of the inverses, and inversion
    back; exact on the piecewise-linear class.
    """
    if t == 0.0:
        return f
    if t == 1.0:
        return g
    return invert(_combine(invert(f), invert(g), t))


def sqrt_identity_interpolant(x, t):
    """Closed form of the horizontal interpolation from sqrt to the identity:
    ``x -> (-t + sqrt(4 (1-t) x + t^2)) / (2 (1-t))``."""
    x = np.asarray(x, dtype=float)
    if t == 1.0:
        return x.copy()
    if t == 0.0:
        return np.sqrt(x)
    return (-t + np.sqrt(4.0 * (1.0 - t) * x + t * t)) / (2.0 * (1.0 - t))


def random_monotone_fn(rng, max_interior=6):
    """Random strictly increasing piecewise-linear function on [0,1]."""
    while True:
        k = int(rng.integers(0, max_interior + 1))
        xs = np.concatenate([[0.0], np.sort(rng.random(k)), [1.0]])
        vs = np.concatenate([[0.0], np.sort(rng.random(k)), [1.0]])
        if (np.diff(xs) > 1e-9).all() and (np.diff(vs) > 1e-9).all():
            return MonotoneFn(xs, vs)


def to_text(f):
    """Two-column text serialization: one "x v" line per breakpoint."""
    buf = io.StringIO()
    for x, v in zip(f.xs, f.vs):
        buf.write(f"{float(x)!r} {float(v)!r}\n")
    return buf.getvalue()


def from_text(text):
    rows = [line.split() for line in text.strip().splitlines() if line.strip()]
    pairs = np.array([[float(a), float(b)] for a, b in rows])
    return MonotoneFn(pairs[:, 0], pairs[:, 1])


def pack(fns):
    """Packed batch ``(n, 2, K)`` of the given functions, ``K`` the longest."""
    width = max(len(f.xs) for f in fns)
    out = np.ones((len(fns), 2, width))
    for row, f in zip(out, fns):
        row[0, :len(f.xs)] = f.xs
        row[1, :len(f.vs)] = f.vs
    return out


def unpack(point):
    """The function held by one packed row ``(2, K)``, validated."""
    xs, vs = np.asarray(point, dtype=float)
    m = int(_lengths(xs))
    return MonotoneFn(xs[:m], vs[:m])


def _lengths(xs):
    # breakpoints per row: xs reaches 1.0 first at the last genuine breakpoint
    return np.argmax(xs == 1.0, axis=-1) + 1


def _merge(a, b):
    """Row-wise ``np.union1d`` of two padded breakpoint arrays, padded with 1.0,
    with the interpolation index of each grid point into ``a`` and into ``b``.

    The index into ``a`` is the last one with ``a[j] <= x``. One stable sort
    of each concatenated row gives both: ``a`` entries come first among equal
    values, so at the last copy of a value the number of ``a`` entries so far
    is the number at or below it, and the rest of the position counts ``b``.
    This needs O(rows K) memory, where a broadcast comparison needs O(rows K^2).
    """
    ka = a.shape[1]
    both = np.concatenate([a, b], axis=1)
    order = np.argsort(both, axis=1, kind="stable")
    values = np.take_along_axis(both, order, axis=1)
    last = np.ones(values.shape, dtype=bool)
    last[:, :-1] = values[:, 1:] != values[:, :-1]
    col = np.cumsum(last, axis=1) - 1
    rows, pos = np.nonzero(last)
    cols = col[rows, pos]
    upto_a = np.cumsum(order < ka, axis=1)[rows, pos]
    shape = (len(both), int(col[:, -1].max()) + 1)
    grid = np.ones(shape)
    grid[rows, cols] = values[rows, pos]
    # padding columns hold x = 1.0, whose index is the last (padded) one
    ja = np.full(shape, ka - 1)
    ja[rows, cols] = upto_a - 1
    jb = np.full(shape, b.shape[1] - 1)
    jb[rows, cols] = pos - upto_a
    return grid, ja, jb


def _interp(x, j, xp, fp):
    """Row-wise ``np.interp(x, xp, fp)`` given the index ``j`` of the last
    ``xp <= x`` (from :func:`_merge`).

    Reproduces numpy's formula bit for bit: the value is ``fp[j]`` on a
    breakpoint and otherwise ``(fp[j+1]-fp[j])/(xp[j+1]-xp[j])*(x-xp[j]) + fp[j]``.
    """
    j1 = np.minimum(j + 1, xp.shape[1] - 1)
    xj, x1 = np.take_along_axis(xp, j, axis=1), np.take_along_axis(xp, j1, axis=1)
    fj, f1 = np.take_along_axis(fp, j, axis=1), np.take_along_axis(fp, j1, axis=1)
    # on a breakpoint j1 may equal j; np.where discards that 0/0
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = (f1 - fj) / (x1 - xj) * (x - xj) + fj
    return np.where(xj == x, fj, inner)


#: Rows per block in the batch kernels. Their temporaries take O(rows K)
#: memory, so working through a batch in blocks bounds what they hold at once.
_BLOCK_ROWS = 1024


def _blocks(n):
    return [slice(i, i + _BLOCK_ROWS) for i in range(0, n, _BLOCK_ROWS)]


def vertical_batch(F, G, t):
    """:func:`vertical_bicombing` row by row on packed batches; ``t`` is a
    scalar or an ``(n,)`` array.

    Rows at ``t == 0`` and ``t == 1`` are copies of ``F`` and ``G``; any other
    row whose values fail to increase strictly raises ``ValueError``, as the
    :class:`MonotoneFn` constructor would.
    """
    F = np.asarray(F, dtype=float)
    G = np.asarray(G, dtype=float)
    t = np.broadcast_to(np.asarray(t, dtype=float), (len(F),))
    parts = [_combine_block(F[b], G[b], t[b]) for b in _blocks(len(F))]
    out = np.ones((len(F), 2, max(part.shape[2] for part in parts)))
    for b, part in zip(_blocks(len(F)), parts):
        out[b, :, :part.shape[2]] = part
    return out


def _combine_block(F, G, t):
    xs, jf, jg = _merge(F[:, 0], G[:, 0])
    tc = t[:, None]
    vs = ((1.0 - tc) * _interp(xs, jf, F[:, 0], F[:, 1])
          + tc * _interp(xs, jg, G[:, 0], G[:, 1]))
    # the exact endpoint values can round off by one ulp; pin them
    vs[:, 0] = 0.0
    vs[xs == 1.0] = 1.0
    out = np.stack([xs, vs], axis=1)
    for ends, src in ((t == 0.0, F), (t == 1.0, G)):
        if ends.any():
            w = min(src.shape[2], out.shape[2])
            out[ends] = 1.0
            out[ends, :, :w] = src[ends, :, :w]
    flat = (np.diff(out[:, 1], axis=1) <= 0.0) & (out[:, 0, :-1] < 1.0)
    if flat.any():
        raise ValueError("breakpoints must be strictly increasing in both coordinates")
    return out


def horizontal_batch(F, G, t):
    """:func:`horizontal_bicombing` over packed batches: swap the coordinates,
    combine vertically, swap back."""
    F = np.asarray(F, dtype=float)[:, ::-1]
    G = np.asarray(G, dtype=float)[:, ::-1]
    return vertical_batch(F, G, t)[:, ::-1]


def l1_distance_batch(F, G):
    """:func:`l1_distance` row by row on packed batches, as an ``(n,)`` array.

    Everything but the final sum is vectorized. The sum stays ``np.dot`` on
    each row's exact-length slice: the BLAS summation order depends on the
    length, so a padded or batched sum would change the last bits.
    """
    F = np.asarray(F, dtype=float)
    G = np.asarray(G, dtype=float)
    return np.concatenate([_l1_block(F[b], G[b]) for b in _blocks(len(F))])


def _l1_block(F, G):
    xs, jf, jg = _merge(F[:, 0], G[:, 0])
    h = _interp(xs, jf, F[:, 0], F[:, 1]) - _interp(xs, jg, G[:, 0], G[:, 1])
    w = np.diff(xs, axis=1)
    ha, hb = h[:, :-1], h[:, 1:]
    mean_abs = 0.5 * np.abs(ha + hb)
    cross = (ha * hb) < 0.0
    if cross.any():
        ca, cb = ha[cross], hb[cross]
        mean_abs[cross] = (ca * ca + cb * cb) / (2.0 * np.abs(ca - cb))
    segments = (_lengths(xs) - 1).tolist()
    return np.array([float(np.dot(a[:m], b[:m])) for a, b, m in zip(mean_abs, w, segments)])


def _spread(sorted_draws):
    # the gap test of random_monotone_fn on [0, *draws, 1], in plain floats
    prev = 0.0
    for x in sorted_draws:
        if not x - prev > 1e-9:
            return False
        prev = x
    return 1.0 - prev > 1e-9


def random_monotone_batch(rng, count):
    """``count`` draws of :func:`random_monotone_fn` (at its default
    ``max_interior``) as a packed batch.

    Makes the same generator calls in the same order, so it yields the same
    functions and leaves ``rng`` in the same state.
    """
    max_interior = 6
    width = max_interior + 2
    xrows, vrows, longest = [], [], 0
    for _ in range(count):
        while True:
            k = int(rng.integers(0, max_interior + 1))
            xs = sorted(rng.random(k).tolist())
            vs = sorted(rng.random(k).tolist())
            if _spread(xs) and _spread(vs):
                break
        pad = [1.0] * (width - 1 - k)
        xrows.append([0.0, *xs, *pad])
        vrows.append([0.0, *vs, *pad])
        longest = max(longest, k + 2)
    return np.stack([np.array(xrows), np.array(vrows)], axis=1)[:, :, :longest]


@dataclass(frozen=True, eq=False)
class FunctionBicombing:
    """Adapter exposing a function-space interpolation to the property engine.

    Batches are packed ``(n, 2, K)`` arrays (see the module docstring) and a
    single function is one packed row ``(2, K)``; ``combine`` is a batch
    kernel such as :func:`vertical_batch`. Distances are L1. The sampler
    draws random piecewise-linear functions.
    """

    name: str
    combine: Callable

    def eval(self, F, G, t):
        return self.combine(F, G, t)

    def __call__(self, F, G, t):
        return self.eval(F, G, t)

    def path(self, F, G):
        return lambda t: self.eval(F, G, t)

    def dist(self, F, G):
        return l1_distance_batch(F, G)

    def sample(self, rng, count):
        return random_monotone_batch(rng, count)


def vertical_fn_bicombing():
    return FunctionBicombing("funcspace_vertical", vertical_batch)


def horizontal_fn_bicombing():
    return FunctionBicombing("funcspace_horizontal", horizontal_batch)
