"""Sampling-based verification of bicombing properties.

Each check draws a deterministic sample of endpoint tuples from the
bicombing's domain, scans a parameter grid and reports the worst violation of
the property's defining inequality. Failures come back as reports carrying a
counterexample witness, never as exceptions; checks are falsification at a
fixed tolerance, not proof.

The module also hosts the rigidity probes: ``mt_set`` computes the metric
in-between set of a point pair in closed form from the face of the unit
sphere its direction lies in (a point for an extreme direction, a segment
for a flat face), ``check_local_linearity`` tests that a bicombing is affine
on a ball whose double sits inside the domain, and ``delta_thresholds``
evaluates the five polynomial bounds that close the convexity case analysis.

Aggregation is a max-reduction over samples in which a non-finite violation
(an evaluation that broke down) outranks every finite one, so reports are
pure functions of (bicombing, config) and identical inputs reproduce
identical reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import funcspace, spaces
from .bicombings import (DELTA_MAX, linear, sigma_delta, sigma_delta_bicombing,
                         sigma_tilde_bicombing, sigma_X1_bicombing, tau_X1_bicombing)

PROPERTIES = ("geodesic", "conical", "convex", "consistent", "reversible",
              "midpoint_property", "linear")


@dataclass(frozen=True)
class SampleConfig:
    """How much to sample: tuple count, parameter grid size, seed, tolerance."""

    seed: int = 42
    tuples: int = 1000
    t_grid: int = 33
    tol: float = 1e-9

    def __post_init__(self):
        if self.tuples < 1:
            raise ValueError("tuples must be >= 1")
        if self.t_grid < 3:
            raise ValueError("t_grid must be >= 3")
        if not self.tol > 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one property check.

    ``passed`` holds exactly when ``worst_violation <= tol``; the witness is
    present exactly on failure and records the offending tuple, the parameter
    values and the violation attained there.
    """

    property: str
    passed: bool
    worst_violation: float
    witness: dict | None
    samples_evaluated: int
    seed: int
    tol: float
    bicombing: str = ""

    def to_dict(self):
        return {
            "property": self.property,
            "bicombing": self.bicombing,
            "passed": self.passed,
            "worst_violation": self.worst_violation,
            "witness": self.witness,
            "samples_evaluated": self.samples_evaluated,
            "seed": self.seed,
            "tol": self.tol,
        }

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent)


def _ser_point(p):
    p = np.asarray(p, dtype=float)
    if p.ndim == 2:
        # one packed row of a function-space batch
        f = funcspace.unpack(p)
        return {"breakpoints": np.column_stack([f.xs, f.vs]).tolist()}
    return p.ravel().tolist()


def _single(point):
    return np.asarray(point, dtype=float)[None]


def _eval1(b, p, q, t):
    return b.eval(_single(p), _single(q), float(t))[0]


def _dist1(b, p, q):
    return float(np.atleast_1d(b.dist(_single(p), _single(q)))[0])


def _grid(cfg):
    return np.linspace(0.0, 1.0, cfg.t_grid)


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


def _refine_params(viol, params, bounds, tol):
    """Deterministic local maximization of a violation over its parameters.

    Coordinate steps with halving, stopping once a full sweep gains less than
    tol/10 at the smallest step. Used only to sharpen failing witnesses.
    """
    params = [float(v) for v in params]
    best = viol(*params)
    step = 1.0 / 16.0
    sweeps = 0
    while step >= 1e-6 and sweeps < 200:
        sweeps += 1
        gained = 0.0
        for k in range(len(params)):
            for sign in (1.0, -1.0):
                cand = list(params)
                cand[k] = min(max(cand[k] + sign * step, bounds[k][0]), bounds[k][1])
                v = viol(*cand)
                if v > best:
                    gained += v - best
                    best = v
                    params = cand
        if gained < tol / 10.0:
            step *= 0.5
    return best, tuple(params)


def _shrink_points(viol_pts, pts, ref, tol):
    """Contract witness points toward their centroid while the violation stays
    within tol/10 of the refined maximum; yields a smaller counterexample."""
    pts = [np.array(p, dtype=float) for p in pts]
    centroid = np.mean(np.stack(pts), axis=0)
    floor = ref - tol / 10.0
    for k in range(len(pts)):
        good, hi = 0.0, 1.0
        for _ in range(12):
            mid = 0.5 * (good + hi)
            cand = [p.copy() for p in pts]
            cand[k] = pts[k] + mid * (centroid - pts[k])
            if viol_pts(cand) >= floor:
                good = mid
            else:
                hi = mid
        pts[k] = pts[k] + good * (centroid - pts[k])
    return pts, viol_pts(pts)


def _guard(fn):
    def wrapped(pts, params):
        try:
            return fn(pts, params)
        except ValueError:
            return -math.inf

    return wrapped


def _finish(prop, cfg, bicombing, worst, samples, pts, names, params, param_names,
            viol_full=None):
    """Assemble a report; on failure refine the witness parameters, shrink the
    witness points and re-evaluate the violation they attain.

    ``viol_full(points, params)`` recomputes the violation of one tuple; it
    may raise ``ValueError`` for infeasible candidates (treated as rejected).
    """
    if worst <= cfg.tol:
        return PropertyReport(prop, True, float(worst), None, int(samples),
                              cfg.seed, cfg.tol, bicombing)
    params = [float(v) for v in params]
    at = worst
    if viol_full is not None and math.isfinite(worst):
        viol = _guard(viol_full)
        if params:
            bounds = [(0.0, 1.0)] * len(params)
            refined, tuned = _refine_params(lambda *ps: viol(pts, list(ps)),
                                            params, bounds, cfg.tol)
            params = list(tuned)
            worst = max(worst, refined)
        # shrinking moves points toward their centroid, which only vector
        # points support; packed function rows are replayed as they are
        if pts and np.ndim(pts[0]) == 1:
            pts, at = _shrink_points(lambda cand: viol(cand, params), pts,
                                     worst, cfg.tol)
        else:
            at = viol(pts, params)
    witness = {name: _ser_point(p) for name, p in zip(names, pts)}
    witness.update({name: float(v) for name, v in zip(param_names, params)})
    witness["violation"] = float(at)
    return PropertyReport(prop, False, float(worst), witness, int(samples),
                          cfg.seed, cfg.tol, bicombing)


def check_geodesic(b, cfg):
    """Endpoint identities plus constant speed along the parameter grid."""
    rng = np.random.default_rng(cfg.seed)
    P = b.sample(rng, cfg.tuples)
    Q = b.sample(rng, cfg.tuples)
    grid = _grid(cfg)
    d = np.atleast_1d(np.asarray(b.dist(P, Q), dtype=float))
    evals = [b.eval(P, Q, float(t)) for t in grid]

    worst, k_at, s_at, t_at = None, 0, 0.0, 1.0

    def note(v, s, t):
        nonlocal worst, k_at, s_at, t_at
        k = _argworst(v)
        if _outranks(float(v[k]), worst):
            worst, k_at, s_at, t_at = float(v[k]), k, float(s), float(t)

    note(np.atleast_1d(b.dist(evals[0], P)), 0.0, 0.0)
    note(np.atleast_1d(b.dist(evals[-1], Q)), 1.0, 1.0)
    m = len(grid)
    for i in range(m):
        for j in range(i + 1, m):
            gap = np.abs(np.atleast_1d(b.dist(evals[i], evals[j])) - (grid[j] - grid[i]) * d)
            note(gap, grid[i], grid[j])
    samples = cfg.tuples * (m * (m - 1) // 2 + 2)

    pw, qw = P[k_at], Q[k_at]
    if s_at == t_at:
        # endpoint identity violation; there is nothing to refine over
        return _finish("geodesic", cfg, b.name, worst, samples, [pw, qw],
                       ("p", "q"), [s_at], ("t",))

    def viol_full(pts, params):
        a, c = pts
        s, t = params
        lhs = _dist1(b, _eval1(b, a, c, s), _eval1(b, a, c, t))
        return abs(lhs - abs(t - s) * _dist1(b, a, c))

    return _finish("geodesic", cfg, b.name, worst, samples, [pw, qw], ("p", "q"),
                   [s_at, t_at], ("s", "t"), viol_full)


def check_conical(b, cfg):
    """Gap between two selected geodesics never exceeds the endpoint mix."""
    rng = np.random.default_rng(cfg.seed)
    P = b.sample(rng, cfg.tuples)
    Q = b.sample(rng, cfg.tuples)
    P2 = b.sample(rng, cfg.tuples)
    Q2 = b.sample(rng, cfg.tuples)
    grid = _grid(cfg)
    dp = np.atleast_1d(np.asarray(b.dist(P, P2), dtype=float))
    dq = np.atleast_1d(np.asarray(b.dist(Q, Q2), dtype=float))

    worst, k_at, t_at = None, 0, 0.5
    for t in grid:
        lhs = np.atleast_1d(b.dist(b.eval(P, Q, float(t)), b.eval(P2, Q2, float(t))))
        v = lhs - ((1.0 - t) * dp + t * dq)
        k = _argworst(v)
        if _outranks(float(v[k]), worst):
            worst, k_at, t_at = float(v[k]), k, float(t)
    samples = cfg.tuples * len(grid)

    pts = [P[k_at], Q[k_at], P2[k_at], Q2[k_at]]

    def viol_full(points, params):
        p, q, p2, q2 = points
        (t,) = params
        lhs = _dist1(b, _eval1(b, p, q, t), _eval1(b, p2, q2, t))
        return lhs - ((1.0 - t) * _dist1(b, p, p2) + t * _dist1(b, q, q2))

    return _finish("conical", cfg, b.name, worst, samples, pts,
                   ("p", "q", "p2", "q2"), [t_at], ("t",), viol_full)


def check_convex(b, cfg, tau_steps=(1.0 / 64.0, 1.0 / 128.0)):
    """Two-sided midpoint criterion for convexity of the gap function."""
    for tau in tau_steps:
        if not 0.0 < tau < 0.5:
            raise ValueError("tau steps must lie in (0, 1/2)")
    rng = np.random.default_rng(cfg.seed)
    P = b.sample(rng, cfg.tuples)
    Q = b.sample(rng, cfg.tuples)
    P2 = b.sample(rng, cfg.tuples)
    Q2 = b.sample(rng, cfg.tuples)
    grid = _grid(cfg)

    triples = []
    needed = set()
    for t in grid[1:-1]:
        for tau in tau_steps:
            lo, hi = float(t - tau), float(t + tau)
            if lo >= 0.0 and hi <= 1.0:
                triples.append((float(t), float(tau)))
                needed.update((float(t), lo, hi))
    fvals = {}
    for t in sorted(needed):
        fvals[t] = np.atleast_1d(b.dist(b.eval(P, Q, t), b.eval(P2, Q2, t)))

    worst, k_at, t_at, tau_at = None, 0, 0.5, tau_steps[0]
    for t, tau in triples:
        v = 2.0 * fvals[t] - fvals[t - tau] - fvals[t + tau]
        k = _argworst(v)
        if _outranks(float(v[k]), worst):
            worst, k_at, t_at, tau_at = float(v[k]), k, t, tau
    samples = cfg.tuples * len(triples)

    pts = [P[k_at], Q[k_at], P2[k_at], Q2[k_at]]

    def viol_full(points, params):
        p, q, p2, q2 = points
        t, tau = params
        if t - tau < 0.0 or t + tau > 1.0 or tau <= 0.0:
            return -math.inf

        def gap(tt):
            return _dist1(b, _eval1(b, p, q, tt), _eval1(b, p2, q2, tt))

        return 2.0 * gap(t) - gap(t - tau) - gap(t + tau)

    return _finish("convex", cfg, b.name, worst, samples, pts,
                   ("p", "q", "p2", "q2"), [t_at, tau_at], ("t", "tau"), viol_full)


def check_consistent(b, cfg):
    """Reparametrization identity: the selection between two points of a
    selected geodesic reproduces the corresponding stretch of that geodesic."""
    rng = np.random.default_rng(cfg.seed)
    P = b.sample(rng, cfg.tuples)
    Q = b.sample(rng, cfg.tuples)
    s = np.sort(rng.random((cfg.tuples, 2)), axis=1)
    s1, s2 = s[:, 0], s[:, 1]
    u = rng.random(cfg.tuples)

    A = b.eval(P, Q, s1)
    B = b.eval(P, Q, s2)
    lhs = b.eval(A, B, u)
    rhs = b.eval(P, Q, (1.0 - u) * s1 + u * s2)
    v = np.atleast_1d(np.asarray(b.dist(lhs, rhs), dtype=float))
    k = _argworst(v)
    worst = float(v[k])
    samples = cfg.tuples

    pts = [P[k], Q[k]]
    params = [float(s1[k]), float(s2[k]), float(u[k])]

    def viol_full(points, prm):
        a1, a2, uu = prm
        if a1 > a2:
            a1, a2 = a2, a1
        p, q = points
        ga = _eval1(b, p, q, a1)
        gb = _eval1(b, p, q, a2)
        sub = _eval1(b, ga, gb, uu)
        ref = _eval1(b, p, q, (1.0 - uu) * a1 + uu * a2)
        return _dist1(b, sub, ref)

    return _finish("consistent", cfg, b.name, worst, samples, pts, ("p", "q"),
                   params, ("s1", "s2", "u"), viol_full)


def consistency_defect(b, p, q, s1, s2, u):
    """Reparametrization defect of one tuple, as a plain number.

    Points are what the bicombing's batches hold per row: ``(2,)`` planar
    points, or packed ``(2, K)`` rows for a function-space bicombing.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    ga = _eval1(b, p, q, s1)
    gb = _eval1(b, p, q, s2)
    sub = _eval1(b, ga, gb, u)
    ref = _eval1(b, p, q, (1.0 - u) * s1 + u * s2)
    return _dist1(b, sub, ref)


def check_reversible(b, cfg):
    """Forward and backward traversals agree at mirrored parameters."""
    rng = np.random.default_rng(cfg.seed)
    P = b.sample(rng, cfg.tuples)
    Q = b.sample(rng, cfg.tuples)
    grid = _grid(cfg)

    worst, k_at, t_at = None, 0, 0.5
    for t in grid:
        v = np.atleast_1d(b.dist(b.eval(P, Q, float(t)), b.eval(Q, P, float(1.0 - t))))
        k = _argworst(v)
        if _outranks(float(v[k]), worst):
            worst, k_at, t_at = float(v[k]), k, float(t)
    samples = cfg.tuples * len(grid)

    pts = [P[k_at], Q[k_at]]

    def viol_full(points, params):
        p, q = points
        (t,) = params
        return _dist1(b, _eval1(b, p, q, t), _eval1(b, q, p, 1.0 - t))

    return _finish("reversible", cfg, b.name, worst, samples, pts, ("p", "q"),
                   [t_at], ("t",), viol_full)


def check_midpoint_property(b, cfg):
    """Both orientations agree at the half-way parameter."""
    rng = np.random.default_rng(cfg.seed)
    P = b.sample(rng, cfg.tuples)
    Q = b.sample(rng, cfg.tuples)
    v = np.atleast_1d(b.dist(b.eval(P, Q, 0.5), b.eval(Q, P, 0.5)))
    k = _argworst(v)
    worst = float(v[k])
    pts = [P[k], Q[k]]

    def viol_full(points, params):
        p, q = points
        return _dist1(b, _eval1(b, p, q, 0.5), _eval1(b, q, p, 0.5))

    return _finish("midpoint_property", cfg, b.name, worst, cfg.tuples, pts,
                   ("p", "q"), [], (), viol_full)


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
    rng = np.random.default_rng(cfg.seed)
    P = spaces.sample_region_rng(ballreg, rng, cfg.tuples)
    Q = spaces.sample_region_rng(ballreg, rng, cfg.tuples)
    grid = _grid(cfg)

    worst, k_at, t_at = None, 0, 0.5
    for t in grid:
        v = np.atleast_1d(b.dist(b.eval(P, Q, float(t)), linear(P, Q, float(t))))
        k = _argworst(v)
        if _outranks(float(v[k]), worst):
            worst, k_at, t_at = float(v[k]), k, float(t)
    samples = cfg.tuples * len(grid)

    pts = [P[k_at], Q[k_at]]

    def viol_full(points, params):
        p, q = points
        (t,) = params
        return _dist1(b, _eval1(b, p, q, t), linear(p, q, t))

    report = _finish("linear", cfg, b.name, worst, samples, pts, ("p", "q"),
                     [t_at], ("t",), viol_full)
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
    ``tol`` is a postcondition: ``RuntimeError`` if a point's absolute
    residual, computed with :func:`spaces.dist`, exceeds it. ``ValueError``
    unless ``p``, ``q`` are finite ``(2,)`` points and ``0 <= t <= 1``.
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
    if not (resid <= tol).all():
        raise RuntimeError(f"in-between set of {p.tolist()}, {q.tolist()} at t={t!r}: "
                           f"residual {float(np.max(resid))!r} exceeds tol {tol!r}")
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

#: Which properties the full matrix computes per built-in bicombing.
MATRIX_CHECKS = {
    "sigma_delta": ("geodesic", "conical", "convex", "reversible",
                    "midpoint_property", "consistent"),
    "sigma_tilde": ("geodesic", "convex", "reversible", "consistent"),
    "sigma_zero": ("consistent",),
    "sigma_X1": ("geodesic", "conical", "reversible", "midpoint_property"),
    "tau_X1": ("geodesic", "conical", "midpoint_property", "reversible"),
    "funcspace_vertical": ("consistent",),
    "funcspace_horizontal": ("consistent",),
}

#: Expected outcome of every matrix entry for any bulge parameter in
#: (0, 1/64]; the zero-bulge row is listed separately.
EXPECTED_MATRIX = {
    "sigma_delta": {"geodesic": True, "conical": True, "convex": True,
                    "reversible": True, "midpoint_property": True,
                    "consistent": False},
    "sigma_tilde": {"geodesic": True, "convex": True, "reversible": False,
                    "consistent": False},
    "sigma_zero": {"consistent": True},
    "sigma_X1": {"geodesic": True, "conical": True, "reversible": False,
                 "midpoint_property": False},
    "tau_X1": {"geodesic": True, "conical": True, "midpoint_property": True,
               "reversible": False},
    "funcspace_vertical": {"consistent": True},
    "funcspace_horizontal": {"consistent": True},
}


def builtin_bicombings(delta=DELTA_MAX):
    """The bicombings the expected matrix talks about, keyed by matrix row."""
    return {
        "sigma_delta": sigma_delta_bicombing(delta),
        "sigma_tilde": sigma_tilde_bicombing(delta),
        "sigma_zero": sigma_delta_bicombing(0.0, name="sigma_delta[0]"),
        "sigma_X1": sigma_X1_bicombing(),
        "tau_X1": tau_X1_bicombing(),
        "funcspace_vertical": funcspace.vertical_fn_bicombing(),
        "funcspace_horizontal": funcspace.horizontal_fn_bicombing(),
    }


def run_matrix(cfg, delta=DELTA_MAX):
    """Run every matrix check; returns ``{row: {property: PropertyReport}}``."""
    built = builtin_bicombings(delta)
    return {row: {prop: CHECKERS[prop](built[row], cfg) for prop in props}
            for row, props in MATRIX_CHECKS.items()}


def matrix_deviations(reports, expected=None):
    """Entries of the observed matrix that differ from the expected one."""
    expected = EXPECTED_MATRIX if expected is None else expected
    devs = []
    for row, props in expected.items():
        for prop, want in props.items():
            got = reports[row][prop].passed
            if got != want:
                devs.append((row, prop, want, got))
    return devs
