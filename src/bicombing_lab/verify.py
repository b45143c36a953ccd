"""Sampling-based verification of bicombing properties.

Each check draws a deterministic sample of endpoint tuples from the
bicombing's domain, scans a parameter grid and reports the worst violation of
the property's defining inequality. Failures come back as reports carrying a
counterexample witness, never as exceptions; an evaluation that raises (a
selection rejecting a point) makes the check raise. Checks are falsification
at a fixed tolerance, not proof.

Each inequality is written once, as a property ``make(b, points)`` (``_conical``
and its siblings) that does the parameter-free work on a batch of point rows
and returns the violation as a function of the parameters. The scan calls it
with scalar grid values on the whole sample; refinement and shrinking call it
with one column per parameter on the witness tuple repeated to ``m`` rows.
Refinement scores a stretch of its coordinate-ascent schedule per batch,
shrinking the ladder of midpoints the next :data:`_LADDER` bisection steps of
a point can visit; both replay their acceptance rules over the batch in
order, so the witnesses are those of trying one candidate at a time.

The module also hosts the rigidity probes: ``mt_set`` computes the metric
in-between set of a point pair in closed form from the face of the unit
sphere its direction lies in (a point for an extreme direction, a segment
for a flat face), ``check_local_linearity`` tests that a bicombing is affine
on a ball whose double sits inside the domain, and ``delta_thresholds``
evaluates the five polynomial bounds that close the convexity case analysis.

Expected outcomes live in one claims table, :data:`ROWS`: per built-in
bicombing a builder and the verdict expected of each property. Entries
``(row, properties, cap)`` say which of them to run; :data:`MATRIX` is the
acceptance matrix and the CLI's suites are further entry lists.

Aggregation is a max-reduction over samples in which a non-finite violation
(an evaluation that broke down) outranks every finite one, so reports are
pure functions of (bicombing, config) and identical inputs reproduce
identical reports.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from . import funcspace, spaces
from .bicombings import (DELTA_MAX, linear, sigma_delta, sigma_delta_bicombing,
                         sigma_tilde_bicombing, sigma_X1_bicombing, tau_X1_bicombing)
from .midpoint import MidpointConfig, reversibilize


@dataclass(frozen=True)
class SampleConfig:
    """How much to sample: tuple count, parameter grid size, seed, tolerance."""

    seed: int = 42
    tuples: int = 1000
    t_grid: int = 33
    tol: float = 1e-9

    def __post_init__(self):
        _require_count("seed", self.seed, 0)
        _require_count("tuples", self.tuples, 1)
        _require_count("t_grid", self.t_grid, 3)
        _require_tol(self.tol)


def _require_count(name, value, least):
    # bool is an int subclass, but True is not a count
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


def _require_tol(tol):
    # an infinite tol would pass every check and put Infinity in the reports
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one property check.

    ``passed`` holds exactly when ``worst_violation <= tol``; the witness is
    present exactly on failure and records the offending tuple, the parameter
    values and the violation attained there.
    """

    property: str
    bicombing: str
    passed: bool
    worst_violation: float
    witness: dict | None
    samples_evaluated: int
    seed: int
    tol: float

    def to_dict(self):
        return asdict(self)

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)


def _ser_point(p):
    p = np.asarray(p, dtype=float)
    if p.ndim == 2:
        # one packed row of a function-space batch
        f = funcspace.unpack(p)
        return {"breakpoints": np.column_stack([f.xs, f.vs]).tolist()}
    return p.ravel().tolist()


def _rows(points, m):
    """The points of one witness tuple, each repeated to ``m`` rows."""
    return [np.repeat(np.asarray(p, dtype=float)[None], m, axis=0) for p in points]


def _grid(cfg):
    return np.linspace(0.0, 1.0, cfg.t_grid).tolist()


def _draw(sample, cfg, count):
    """``count`` batches of ``cfg.tuples`` points from the seeded stream, and
    the stream for the draws that follow."""
    rng = np.random.default_rng(cfg.seed)
    return rng, [sample(rng, cfg.tuples) for _ in range(count)]


def _memo(fn):
    """``fn`` remembering its values at scalar arguments: a scan asks for the
    same parameter many times, refinement for a new array at every call."""
    seen = {}

    def at(t):
        if np.ndim(t):
            return fn(t)
        t = float(t)
        if t not in seen:
            seen[t] = fn(t)
        return seen[t]

    return at


def _argworst(v):
    """Row of the largest violation; a non-finite entry (the evaluation broke
    down there) outranks every finite one."""
    finite = np.isfinite(v)
    return int(np.argmax(v)) if finite.all() else int(np.argmin(finite))


def _outranks(v, worst):
    """Whether violation ``v`` replaces ``worst`` (``None`` before the first)
    as a scan's worst: non-finite beats finite, the first non-finite stays."""
    if worst is None:
        return True
    if not math.isfinite(worst):
        return False
    return not math.isfinite(v) or v > worst


def _scan(f, cands, found=(None, 0, ())):
    """``(worst, row, params)`` of the violation ``f(*params)`` over the
    candidate parameter tuples, continuing from ``found``: :func:`_argworst`
    picks the row of a candidate, :func:`_outranks` decides between them."""
    worst, row, at = found
    for params in cands:
        v = np.atleast_1d(f(*params))
        k = _argworst(v)
        if _outranks(float(v[k]), worst):
            worst, row, at = float(v[k]), k, params
    return worst, row, at


def _check(prop, b, cfg, make, points, names, param_names, cands):
    """Report on the property ``make`` scanned on ``points`` over the
    candidate parameter tuples, whose entries are scalars or per-row arrays;
    refinement and shrinking reuse ``make`` on the witness row."""
    worst, k, params = _scan(make(b, points), cands)
    params = [v[k] if np.ndim(v) else v for v in params]
    return _finish(prop, cfg, b, worst, cfg.tuples * len(cands), [p[k] for p in points],
                   names, params, param_names, make)


def _refine_params(viol, params, bounds, tol):
    """Deterministic local maximization of a violation over its parameters.

    Coordinate steps with halving, stopping once a full sweep gains less than
    tol/10 at the smallest step. Used only to sharpen failing witnesses.

    ``viol`` maps an ``(m, k)`` array of parameter rows to ``(m,)``
    violations. Each call evaluates, from the current point, every candidate
    the schedule would try if none of them improved: the rest of the current
    sweep, then each later sweep of the halving ladder. Replaying the rules
    over the batch in order finds the first improving candidate; the schedule
    moves there and the next batch starts from it. Every candidate before it
    was built from exactly that point and step, so the result is the one of
    trying one candidate at a time.
    """
    params = [float(v) for v in params]
    n = 2 * len(params)
    best = None
    # the schedule's position: step, sweep count, next candidate of the
    # sweep (coordinate j // 2, sign + then -) and the sweep's gain so far
    step, sweeps, j, gained = 1.0 / 16.0, 1, 0, 0.0
    while True:
        plan = []
        s, sw, jj, g = step, sweeps, j, gained
        while True:
            if jj == n:
                if g < tol / 10.0:
                    s *= 0.5
                if not (s >= 1e-6 and sw < 200):
                    break
                sw, jj, g = sw + 1, 0, 0.0
            k = jj // 2
            cand = list(params)
            cand[k] = min(max(cand[k] + (-s if jj % 2 else s), bounds[k][0]), bounds[k][1])
            jj += 1
            plan.append((cand, s, sw, jj))
        batch = [cand for cand, *_ in plan]
        if best is None:
            batch.insert(0, params)
        elif not batch:
            return best, tuple(params)
        vals = viol(np.array(batch, dtype=float))
        if best is None:
            best, vals = vals[0], vals[1:]
        for (cand, s, sw, jj), v in zip(plan, vals):
            if v > best:
                gained = (gained if sw == sweeps else 0.0) + (v - best)
                best, params = v, cand
                step, sweeps, j = s, sw, jj
                break
        else:
            return best, tuple(params)


#: Bisection steps of one shrinking point scored per batch, a divisor of its
#: 12 steps: the ``2**_LADDER - 1`` midpoints those steps can visit. Deeper
#: ladders score rows the bisection never visits (depth 12 would be 4095).
_LADDER = 4


def _ladder(good, hi):
    """The midpoints the next :data:`_LADDER` bisection steps from
    ``(good, hi)`` can visit, as a heap: node ``i`` is bisected at
    ``mids[i]``, its child ``2i + 1`` follows a rejection (``hi = mids[i]``)
    and ``2i + 2`` an acceptance (``good = mids[i]``)."""
    spans = [(good, hi)]
    for i in range(2 ** (_LADDER - 1) - 1):
        g, h = spans[i]
        mid = 0.5 * (g + h)
        spans += [(g, mid), (mid, h)]
    return [0.5 * (g + h) for g, h in spans]


def _shrink_points(viol, pts, prm, domain, ref, tol):
    """Contract witness points toward their centroid while the violation stays
    within tol/10 of the refined maximum and above tol, so the smaller
    counterexample still fails.

    Each point is bisected in 12 steps. ``viol`` is the batched violation
    (see :func:`_violation`) and ``prm`` the witness parameters as one row.
    One batch scores the ladder of the next :data:`_LADDER` steps (see
    :func:`_ladder`), and the acceptance rule is replayed over it in order;
    since the violation is row-wise, the steps are those of scoring one
    midpoint at a time. A witness is a tuple of points of the space, so the
    domain test is the feasibility rule: a row whose moved point leaves
    ``domain`` scores ``-inf`` without being evaluated, and the rows inside
    go into one batch, which must not raise.
    """
    pts = [np.array(p, dtype=float) for p in pts]
    centroid = np.mean(np.stack(pts), axis=0)
    floor = ref - tol / 10.0
    for k in range(len(pts)):
        good, hi = 0.0, 1.0
        for _ in range(12 // _LADDER):
            mids = _ladder(good, hi)
            moved = pts[k] + np.array(mids)[:, None] * (centroid - pts[k])
            inside = np.flatnonzero(spaces.contains(domain, moved, spaces.DEFAULT_TOL))
            vals = np.full(len(mids), -math.inf)
            if len(inside):
                rows = _rows(pts, len(inside))
                rows[k] = moved[inside]
                vals[inside] = viol(rows, np.repeat(prm, len(inside), axis=0))
            i = 0
            for _ in range(_LADDER):
                v = vals[i]
                if v >= floor and v > tol:
                    good, i = mids[i], 2 * i + 2
                else:
                    hi, i = mids[i], 2 * i + 1
        pts[k] = pts[k] + good * (centroid - pts[k])
    return pts


def _violation(make, b, points, params):
    """The property ``make`` as a batched violation: ``points`` hold ``m``
    rows each, ``params`` is ``(m, k)`` with one column per parameter."""
    return make(b, points)(*params.T)


def _finish(prop, cfg, b, worst, samples, pts, names, params, param_names, make=None):
    """Assemble a report; on failure refine the witness parameters, shrink the
    witness points and re-evaluate the violation they attain.

    ``make`` is the property (see :func:`_violation`); without it the witness
    is reported as scanned. An evaluation that raises makes the check raise
    in every phase, as in the scan: refinement moves only the parameters, and
    shrinking evaluates only rows whose points pass the domain test.
    """
    if worst <= cfg.tol:
        return PropertyReport(prop, b.name, True, float(worst), None, int(samples),
                              cfg.seed, cfg.tol)
    params = [float(v) for v in params]
    at = worst
    if make is not None and math.isfinite(worst):
        viol = functools.partial(_violation, make, b)
        if params:
            bounds = [(0.0, 1.0)] * len(params)
            refined, tuned = _refine_params(lambda prm: viol(_rows(pts, len(prm)), prm),
                                            params, bounds, cfg.tol)
            params = list(tuned)
            worst = max(worst, refined)
        prm = np.array([params], dtype=float)
        # shrinking moves points toward their centroid, which only vector
        # points support; packed function rows are replayed as they are
        if pts and np.ndim(pts[0]) == 1:
            pts = _shrink_points(viol, pts, prm, b.domain, worst, cfg.tol)
        at = viol(_rows(pts, 1), prm)[0]
    witness = {name: _ser_point(p) for name, p in zip(names, pts)}
    witness.update({name: float(v) for name, v in zip(param_names, params)})
    witness["violation"] = float(at)
    return PropertyReport(prop, b.name, False, float(worst), witness, int(samples),
                          cfg.seed, cfg.tol)


def _geodesic(b, points):
    """Constant speed: ``|d(path(s), path(t)) - |t - s| d(p, q)|``. The
    prepared path is also ``f.path``, for the endpoint identities."""
    p, q = points
    path, d = _memo(b.path(p, q)), b.dist(p, q)

    def f(s, t):
        return np.abs(b.dist(path(s), path(t)) - np.abs(t - s) * d)

    f.path = path
    return f


def check_geodesic(b, cfg):
    """Endpoint identities plus constant speed along the parameter grid."""
    _, (P, Q) = _draw(b.sample, cfg, 2)
    f = _geodesic(b, [P, Q])
    # the endpoint identities are another inequality: scanned first, their
    # witness is {p, q, t} and there is nothing to refine over
    ends = _scan(lambda t: b.dist(f.path(t), Q if t else P), [(0.0,), (1.0,)])
    grid = _grid(cfg)
    pairs = [(s, t) for i, s in enumerate(grid) for t in grid[i + 1:]]
    worst, k, params = _scan(f, pairs, ends)
    samples = cfg.tuples * (len(pairs) + 2)
    if len(params) == 1:
        return _finish("geodesic", cfg, b, worst, samples, [P[k], Q[k]], ("p", "q"),
                       params, ("t",))
    return _finish("geodesic", cfg, b, worst, samples, [P[k], Q[k]], ("p", "q"),
                   params, ("s", "t"), _geodesic)


def _conical(b, points):
    """``d(path(t), path2(t)) - ((1 - t) d(p, p2) + t d(q, q2))``."""
    p, q, p2, q2 = points
    path, path2 = b.path(p, q), b.path(p2, q2)
    dp, dq = b.dist(p, p2), b.dist(q, q2)
    return lambda t: b.dist(path(t), path2(t)) - ((1.0 - t) * dp + t * dq)


def check_conical(b, cfg):
    """Gap between two selected geodesics never exceeds the endpoint mix."""
    _, points = _draw(b.sample, cfg, 4)
    return _check("conical", b, cfg, _conical, points, ("p", "q", "p2", "q2"), ("t",),
                  [(t,) for t in _grid(cfg)])


def _convex(b, points):
    """Midpoint convexity of the gap ``g(t) = d(path(t), path2(t))``:
    ``2 g(t) - g(t - tau) - g(t + tau)``, ``-inf`` (infeasible) where the
    stencil leaves [0, 1] or ``tau <= 0``."""
    p, q, p2, q2 = points
    path, path2 = b.path(p, q), b.path(p2, q2)
    gap = _memo(lambda t: b.dist(path(t), path2(t)))

    def f(t, tau):
        ok = (t - tau >= 0.0) & (t + tau <= 1.0) & (tau > 0.0)
        # an infeasible row is evaluated at its clipped stencil and dropped
        mid, lo, hi = gap(t), gap(np.maximum(t - tau, 0.0)), gap(np.minimum(t + tau, 1.0))
        return np.where(ok, 2.0 * mid - lo - hi, -math.inf)

    return f


def check_convex(b, cfg):
    """Two-sided midpoint criterion for convexity of the gap function, at
    steps ``tau`` 1/64 and 1/128 around each interior grid value ``t`` whose
    stencil fits in [0, 1]; the grid value nearest 1/2 always does."""
    _, points = _draw(b.sample, cfg, 4)
    cands = [(t, tau) for t in _grid(cfg)[1:-1] for tau in (1.0 / 64.0, 1.0 / 128.0)
             if t - tau >= 0.0 and t + tau <= 1.0]
    return _check("convex", b, cfg, _convex, points, ("p", "q", "p2", "q2"), ("t", "tau"),
                  cands)


def _defects(b, P, Q, s1, s2, u):
    # the selection between the points at s1 and s2 of the geodesic P -> Q,
    # taken at u, against that geodesic at the matching parameter
    path = b.path(P, Q)
    sub = b.eval(path(s1), path(s2), u)
    return np.atleast_1d(np.asarray(b.dist(sub, path((1.0 - u) * s1 + u * s2)), dtype=float))


def _consistent(b, points):
    """The reparametrization defect, for parameters ``s1``, ``s2`` in either
    order."""
    return lambda a1, a2, u: _defects(b, *points, np.minimum(a1, a2), np.maximum(a1, a2), u)


def check_consistent(b, cfg):
    """Reparametrization identity: the selection between two points of a
    selected geodesic reproduces the corresponding stretch of that geodesic."""
    rng, points = _draw(b.sample, cfg, 2)
    s = np.sort(rng.random((cfg.tuples, 2)), axis=1)
    return _check("consistent", b, cfg, _consistent, points, ("p", "q"), ("s1", "s2", "u"),
                  [(s[:, 0], s[:, 1], rng.random(cfg.tuples))])


def consistency_defect(b, p, q, s1, s2, u):
    """Reparametrization defect of one tuple, as a plain number.

    Points are what the bicombing's batches hold per row: ``(2,)`` planar
    points, or packed ``(2, K)`` rows for a function-space bicombing.
    """
    P, Q = _rows([p, q], 1)
    return float(_defects(b, P, Q, *np.array([[s1], [s2], [u]], dtype=float))[0])


def _reversible(b, points):
    """``d(path_pq(t), path_qp(1 - t))``."""
    p, q = points
    forward, backward = b.path(p, q), b.path(q, p)
    return lambda t: b.dist(forward(t), backward(1.0 - t))


def check_reversible(b, cfg):
    """Forward and backward traversals agree at mirrored parameters."""
    _, points = _draw(b.sample, cfg, 2)
    return _check("reversible", b, cfg, _reversible, points, ("p", "q"), ("t",),
                  [(t,) for t in _grid(cfg)])


def _midpoint(b, points):
    """``d(sigma(p, q, 1/2), sigma(q, p, 1/2))``, a function of no parameter."""
    p, q = points
    return lambda: b.dist(b.eval(p, q, 0.5), b.eval(q, p, 0.5))


def check_midpoint_property(b, cfg):
    """Both orientations agree at the half-way parameter."""
    _, points = _draw(b.sample, cfg, 2)
    return _check("midpoint_property", b, cfg, _midpoint, points, ("p", "q"), (), [()])


def _linear(b, points):
    """``d(path(t), (1 - t) p + t q)``."""
    p, q = points
    path = b.path(p, q)
    return lambda t: b.dist(path(t), linear(p, q, t))


def check_local_linearity(b, center, r, cfg):
    """Selection restricted to a ball is affine, given the doubled ball fits.

    Raises ``ValueError`` when a sampled boundary point of the doubled ball
    leaves the domain (the precondition is checked, not assumed).
    """
    center = np.asarray(center, dtype=float)
    r = float(r)
    if r < 0:
        raise ValueError("radius must be >= 0")
    if r > 0:
        angles = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        U = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        boundary = center + 2.0 * r * U / np.asarray(spaces.norm(b.space, U))[:, None]
        ok = np.atleast_1d(spaces.contains(b.domain, boundary, spaces.DEFAULT_TOL))
        if not ok.all():
            bad = boundary[~ok][0]
            raise ValueError(
                f"ball of radius {2 * r:g} around {tuple(center)} leaves "
                f"{b.domain.tag} near {tuple(bad)}")
    ballreg = spaces.Region.ball((float(center[0]), float(center[1])), r, b.space)
    _, points = _draw(functools.partial(spaces.sample_region_rng, ballreg), cfg, 2)
    report = _check("linear", b, cfg, _linear, points, ("p", "q"), ("t",),
                    [(t,) for t in _grid(cfg)])
    if report.witness is not None:
        report.witness["center"] = _ser_point(center)
        report.witness["radius"] = r
    return report



@dataclass(frozen=True)
class MtCluster:
    """The sampled metric in-between set: points along it, the one of least
    residual and that residual."""

    points: np.ndarray
    representative: np.ndarray
    residual: float


def _mt_point(point, name):
    point = np.asarray(point, dtype=float)
    if point.shape != (2,) or not np.isfinite(point).all():
        raise ValueError(f"{name} must be one finite point of shape (2,)")
    return point


def mt_set(space, p, q, t, resolution=501, tol=1e-6):
    """Metric in-between set ``M_t(p, q)`` of the points at distance ``t d``
    from ``p`` and ``(1 - t) d`` from ``q``, ``d = dist(p, q)``, in closed
    form ``(p + t d F) & (q - (1 - t) d F)``, ``F = spaces.face(space, q - p)``:
    a point for an extreme direction of the unit ball, a segment otherwise.

    Returns one :class:`MtCluster` in a list (the set is convex). Its points
    run from end to end, both included, at most one cell apart of a
    ``resolution``-point grid over the bounding box of the two balls.
    ``tol`` is a postcondition: ``RuntimeError`` if a point's residual,
    computed with :func:`spaces.dist`, exceeds ``tol`` plus 8 ulps of the
    largest coordinate of ``p`` and ``q`` (the rounding of the points and
    distances themselves, up to 4 ulps). ``ValueError`` unless ``p``, ``q``
    are finite ``(2,)`` points and ``0 <= t <= 1``.
    """
    p = _mt_point(p, "p")
    q = _mt_point(q, "q")
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t!r}")
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    if not tol > 0:
        raise ValueError("tol must be positive")
    d = float(spaces.dist(space, p, q))
    if d == 0.0:
        return [MtCluster(points=p[None, :].copy(), representative=p.copy(), residual=0.0)]
    r1, r2 = t * d, (1.0 - t) * d
    f_minus, f_plus = spaces.face(space, q - p)
    a = np.maximum(p + r1 * f_minus, q - r2 * f_plus)
    b = np.minimum(p + r1 * f_plus, q - r2 * f_minus)

    # half-widths of the unit ball along the axes give the balls' bounding box
    ext = 1.0 / spaces.norm(space, np.eye(2))
    box = np.maximum(p + r1 * ext, q + r2 * ext) - np.minimum(p - r1 * ext, q - r2 * ext)
    cell = float(np.max(box)) / (resolution - 1)
    s = np.linspace(0.0, 1.0, math.ceil(float(np.hypot(*(b - a))) / cell) + 1)
    points = (1.0 - s)[:, None] * a + s[:, None] * b

    resid = np.maximum(np.abs(spaces.dist(space, points, p) - r1),
                       np.abs(spaces.dist(space, points, q) - r2))
    limit = tol + 8.0 * float(np.spacing(max(np.max(np.abs(p)), np.max(np.abs(q)))))
    if not (resid <= limit).all():
        raise RuntimeError(f"in-between set of {p.tolist()}, {q.tolist()} at t={t!r}: "
                           f"residual {float(np.max(resid))!r} exceeds tol {tol!r} "
                           f"(with rounding, {limit!r})")
    k = int(np.argmin(resid))
    return [MtCluster(points=points, representative=points[k].copy(),
                      residual=float(resid[k]))]


def _threshold_rows(d):
    # plain arithmetic on d, so a symbolic d yields the same five expressions
    return [
        ("antenna_pair", (4.0 - 144.0 * d - 640.0 * d * d) / (1.0 - 4.0 * d)),
        ("antenna_vs_ramp", 3.0 - 96.0 * d - 576.0 * d * d),
        ("antenna_vs_interior_flat", 31.0 / 8.0 - 96.0 * d - 576.0 * d * d),
        ("antenna_vs_interior_steep", 255.0 / 64.0 - 96.0 * d - 576.0 * d * d),
        ("reversed_antenna_pair", 4.0 - 33.0 * d),
    ]


def delta_thresholds(delta):
    """The five polynomial bounds that close the convexity case analysis.

    Each is positive for small bulge parameters; the returned triples carry a
    label, the value at ``delta`` and the positivity flag.
    """
    if not 0.0 <= delta < 0.25:
        raise ValueError("delta must lie in [0, 1/4)")
    return [(label, value, value > 0.0) for label, value in _threshold_rows(float(delta))]


#: The axis pair used in the worked convexity computation: the full
#: antenna-to-antenna geodesic against the short axis geodesic inside it.
CONVEXITY_PAIR = ((-3.0, 0.0), (3.0, 0.0), (-2.0, 0.0), (2.0, 0.0))


def convexity_pair_gap_squared(delta, tau):
    """Squared Euclidean gap between the two geodesics of
    :data:`CONVEXITY_PAIR`, evaluated symmetrically about the middle.

    ``tau`` is scaled so the long geodesic moves ``3 tau`` in x (its
    parameter moves ``tau/2``) and the short one ``2 tau``. Returns the gaps
    on the two sides ``(minus, plus)``.
    """
    p, q, p2, q2 = CONVEXITY_PAIR
    out = []
    for side in (-1.0, 1.0):
        t = 0.5 + side * tau / 2.0
        a = sigma_delta(delta, p, q, t)
        c = sigma_delta(delta, p2, q2, t)
        gap = a - c
        out.append(float(gap[0] * gap[0] + gap[1] * gap[1]))
    return tuple(out)


def convexity_pair_model(delta, tau):
    """Closed form of :func:`convexity_pair_gap_squared`:
    ``4 d^2 + (1 - 72 d^2) tau^2 + 324 d^2 tau^4``, never below ``4 d^2``."""
    return 4.0 * delta * delta + (1.0 - 72.0 * delta * delta) * tau * tau \
        + 324.0 * delta * delta * tau ** 4


CHECKERS = {
    "geodesic": check_geodesic,
    "conical": check_conical,
    "convex": check_convex,
    "consistent": check_consistent,
    "reversible": check_reversible,
    "midpoint_property": check_midpoint_property,
}

@dataclass(frozen=True)
class Row:
    """One row of the claims table: ``build(delta)`` makes the bicombing at
    bulge parameter ``delta``, ``expected`` holds the verdict of each property
    for a bulge in (0, 1/64], and ``zero_bulge`` the verdicts that differ at 0."""

    build: Callable
    expected: dict
    zero_bulge: dict = field(default_factory=dict)


#: The claims table, one row per built-in bicombing. The builders look their
#: constructors up when called, so a wrapped module function is the one used.
ROWS = {
    # claim B: a convex bicombing that is not consistent; without a bulge it is
    # the piecewise-linear selection, which is consistent
    "sigma_delta": Row(lambda d: sigma_delta_bicombing(d),
                       {"geodesic": True, "conical": True, "convex": True,
                        "reversible": True, "midpoint_property": True,
                        "consistent": False},
                       {"consistent": True}),
    # claim B: flattening one orientation keeps convexity but breaks reversibility
    "sigma_tilde": Row(lambda d: sigma_tilde_bicombing(d),
                       {"geodesic": True, "convex": True, "reversible": False,
                        "consistent": False},
                       {"reversible": True, "consistent": True}),
    # claim B at delta 0: the piecewise-linear selection is consistent
    "sigma_zero": Row(lambda d: sigma_delta_bicombing(0.0),
                      {"consistent": True}),
    # claim A: a conical bicombing on a non-convex set need not be reversible
    "sigma_X1": Row(lambda d: sigma_X1_bicombing(),
                    {"geodesic": True, "conical": True, "reversible": False,
                     "midpoint_property": False}),
    # claim A: the midpoint property does not give reversibility either
    "tau_X1": Row(lambda d: tau_X1_bicombing(),
                  {"geodesic": True, "conical": True, "midpoint_property": True,
                   "reversible": False}),
    # claim D: without interior points (L1 monotone functions) a consistent
    # conical bicombing is not unique; these are two of them
    "funcspace_vertical": Row(lambda d: funcspace.vertical_fn_bicombing(),
                              {"consistent": True}),
    "funcspace_horizontal": Row(lambda d: funcspace.horizontal_fn_bicombing(),
                                {"consistent": True}),
    # claim A: midpoint iteration makes a conical bicombing reversible; each
    # evaluation is ~70 base evaluations deep, so it only runs capped
    "reversibilized_sigma_tilde": Row(
        lambda d: reversibilize(sigma_tilde_bicombing(d), MidpointConfig(tol=1e-10)),
        {"reversible": True, "geodesic": True, "conical": True}),
}


def _expected(entries, delta=DELTA_MAX):
    """What claims-table entries ``(row, properties, cap)`` expect at bulge
    parameter ``delta``, as ``{row: {property: passed}}`` in entry order."""
    out = {}
    for row, props, _ in entries:
        r = ROWS[row]
        verdicts = {**r.expected, **(r.zero_bulge if delta == 0.0 else {})}
        out.setdefault(row, {}).update((prop, verdicts[prop]) for prop in props)
    return out


def _run_entries(entries, cfg, delta=DELTA_MAX):
    """Run claims-table entries in order, each at ``cfg`` with at most ``cap``
    tuples (``None``: no cap), building each row's bicombing once; returns
    ``{row: {property: PropertyReport}}``. Private, so that ``perfbench``'s
    tracer (it wraps public functions) sees each check as the caller's call."""
    built, reports = {}, {}
    for row, props, cap in entries:
        if row not in built:
            built[row] = ROWS[row].build(delta)
        run = cfg if cap is None else replace(cfg, tuples=min(cfg.tuples, cap))
        for prop in props:
            reports.setdefault(row, {})[prop] = CHECKERS[prop](built[row], run)
    return reports


#: The acceptance matrix as claims-table entries: every property of these
#: rows at the full sample size.
MATRIX = [(row, tuple(ROWS[row].expected), None)
          for row in ("sigma_delta", "sigma_tilde", "sigma_zero", "sigma_X1", "tau_X1",
                      "funcspace_vertical", "funcspace_horizontal")]

#: Expected outcome of every matrix entry for any bulge parameter in (0, 1/64].
EXPECTED_MATRIX = _expected(MATRIX)


def builtin_bicombings(delta=DELTA_MAX):
    """The bicombings the expected matrix talks about, keyed by matrix row."""
    return {row: ROWS[row].build(delta) for row in EXPECTED_MATRIX}


def run_matrix(cfg, delta=DELTA_MAX):
    """Run every matrix check; returns ``{row: {property: PropertyReport}}``."""
    return _run_entries(MATRIX, cfg, delta)


def matrix_deviations(reports, delta=DELTA_MAX):
    """Entries of the observed matrix that differ from the expected one at
    bulge parameter ``delta``."""
    devs = []
    for row, props in _expected(MATRIX, delta).items():
        for prop, want in props.items():
            got = reports[row][prop].passed
            if got != want:
                devs.append((row, prop, want, got))
    return devs
