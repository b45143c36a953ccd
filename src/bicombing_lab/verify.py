"""Sampling-based verification of bicombing properties.

Each check draws a deterministic sample of endpoint tuples from the
bicombing's domain, scans a parameter grid and reports the worst violation of
the property's defining inequality. Failures come back as reports carrying a
counterexample witness, never as exceptions; checks are falsification at a
fixed tolerance, not proof.

The module also hosts the rigidity probes: ``mt_set`` enumerates the metric
in-between set of a point pair on a grid (singleton versus segment is what
distinguishes extreme directions of the unit ball), ``check_local_linearity``
tests that a bicombing is affine on a ball whose double sits inside the
domain, and ``delta_thresholds`` evaluates the five polynomial bounds that
close the convexity case analysis of the bulged bicombing.

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
    """One connected component of the sampled metric in-between set."""

    points: np.ndarray
    representative: np.ndarray
    residual: float


def _mt_residual(space, p, q, r1, r2, Z):
    return np.maximum(np.abs(np.atleast_1d(spaces.dist(space, Z, p)) - r1),
                      np.abs(np.atleast_1d(spaces.dist(space, Z, q)) - r2))


_DIRS = np.array([(1, 0), (-1, 0), (0, 1), (0, -1),
                  (1, 1), (1, -1), (-1, 1), (-1, -1)], dtype=float)


def _pattern_descend(space, p, q, r1, r2, Z, g, step0, floor):
    # deterministic 8-direction descent on the max residual with halving steps
    step = np.broadcast_to(np.asarray(step0, dtype=float), (len(Z),)).copy()
    for _ in range(400):
        if not (step > floor).any():
            break
        moved = np.zeros(len(Z), dtype=bool)
        for d in _DIRS:
            cand = Z + step[:, None] * d
            gc = _mt_residual(space, p, q, r1, r2, cand)
            better = gc < g
            if better.any():
                Z[better] = cand[better]
                g[better] = gc[better]
                moved |= better
        step[~moved] *= 0.5
    return Z, g


def _valley_direction(space, p, q, r1, r2, Z, eps=1e-6):
    # least-sensitive direction of the signed residual pair, from a centered
    # finite-difference Jacobian; where the two spheres meet tangentially this
    # is the tangent the axis-aligned descent cannot follow
    J = np.empty((len(Z), 2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = eps
        f1p = np.atleast_1d(spaces.dist(space, Z + e, p))
        f1m = np.atleast_1d(spaces.dist(space, Z - e, p))
        f2p = np.atleast_1d(spaces.dist(space, Z + e, q))
        f2m = np.atleast_1d(spaces.dist(space, Z - e, q))
        J[:, 0, j] = (f1p - f1m) / (2.0 * eps)
        J[:, 1, j] = (f2p - f2m) / (2.0 * eps)
    # smallest eigenvector of the 2x2 Gram matrix, in closed form
    a = J[:, 0, 0] ** 2 + J[:, 1, 0] ** 2
    c = J[:, 0, 1] ** 2 + J[:, 1, 1] ** 2
    bb = J[:, 0, 0] * J[:, 0, 1] + J[:, 1, 0] * J[:, 1, 1]
    lam = 0.5 * (a + c) - np.sqrt(0.25 * (a - c) ** 2 + bb * bb)
    v = np.stack([bb, lam - a], axis=-1)
    alt = np.stack([lam - c, bb], axis=-1)
    use_alt = np.linalg.norm(alt, axis=1) > np.linalg.norm(v, axis=1)
    v[use_alt] = alt[use_alt]
    nrm = np.linalg.norm(v, axis=1)
    fallback = nrm < 1e-30
    v[fallback] = (1.0, 0.0)
    nrm[fallback] = 1.0
    return v / nrm[:, None]


def _valley_bisection(space, p, q, r1, r2, Z, g, span):
    # 1-d bisection of the residual along the valley direction; exact ties
    # shrink symmetrically, so flat directions (genuine segments in the
    # in-between set) do not drift
    v = _valley_direction(space, p, q, r1, r2, Z)
    lo = np.full(len(Z), -float(span))
    hi = np.full(len(Z), float(span))
    for _ in range(80):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        g1 = _mt_residual(space, p, q, r1, r2, Z + m1[:, None] * v)
        g2 = _mt_residual(space, p, q, r1, r2, Z + m2[:, None] * v)
        left = g1 < g2
        hi[left] = m2[left]
        right = g2 < g1
        lo[right] = m1[right]
        tie = ~(left | right)
        lo[tie] = m1[tie]
        hi[tie] = m2[tie]
    s = 0.5 * (lo + hi)
    cand = Z + s[:, None] * v
    gc = _mt_residual(space, p, q, r1, r2, cand)
    better = gc < g
    Z[better] = cand[better]
    g[better] = gc[better]
    return Z, g


def _refine_points(space, p, q, r1, r2, Z0, step0, span, floor):
    Z = Z0.copy()
    g = _mt_residual(space, p, q, r1, r2, Z)
    Z, g = _pattern_descend(space, p, q, r1, r2, Z, g, step0, floor)
    for _ in range(6):
        Z, g = _valley_bisection(space, p, q, r1, r2, Z, g, span)
        # fix the transversal error the tangential move introduced; the step
        # starts at the residual scale so the walk can actually cover it
        Z, g = _pattern_descend(space, p, q, r1, r2, Z, g,
                                np.maximum(4.0 * g, 64.0 * floor), floor)
    return Z, g


def _merge_close_clusters(points, labels, n_clusters, threshold):
    if n_clusters <= 1:
        return labels
    parent = list(range(n_clusters))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    groups = [points[labels == c] for c in range(n_clusters)]
    for a in range(n_clusters):
        for b in range(a + 1, n_clusters):
            diff = groups[a][:, None, :] - groups[b][None, :, :]
            gap = np.sqrt(np.min(np.sum(diff * diff, axis=-1)))
            if gap <= threshold:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    return np.array([find(int(c)) for c in labels])


def mt_set(space, p, q, t, resolution=501, tol=1e-6):
    """Grid scan of the set of points at parameter-``t`` distances from both
    ``p`` and ``q``, refined and clustered.

    Returns a list of :class:`MtCluster`, one per connected component of the
    selected grid cells (8-neighbor adjacency); each cluster carries all its
    refined points and a residual-minimizing representative. A singleton
    answer detects an extreme direction of the unit ball, a spread-out
    cluster a flat spot.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    if not tol > 0:
        raise ValueError("tol must be positive")
    d = float(spaces.dist(space, p, q))
    if d == 0.0:
        return [MtCluster(points=p[None, :].copy(), representative=p.copy(), residual=0.0)]
    r1, r2 = t * d, (1.0 - t) * d
    ex = 1.0 / float(spaces.norm(space, (1.0, 0.0)))
    ey = 1.0 / float(spaces.norm(space, (0.0, 1.0)))
    lo = np.minimum(p - [r1 * ex, r1 * ey], q - [r2 * ex, r2 * ey])
    hi = np.maximum(p + [r1 * ex, r1 * ey], q + [r2 * ex, r2 * ey])
    gx = np.linspace(lo[0], hi[0], resolution)
    gy = np.linspace(lo[1], hi[1], resolution)
    h = max(gx[1] - gx[0], gy[1] - gy[0])
    band = max(tol, 2.0 * h)

    sel_i = []
    sel_j = []
    chunk = max(1, 2_000_000 // resolution)
    for i0 in range(0, resolution, chunk):
        ys = gy[i0:i0 + chunk]
        XX, YY = np.meshgrid(gx, ys, indexing="xy")
        Z = np.stack([XX.ravel(), YY.ravel()], axis=-1)
        res = _mt_residual(space, p, q, r1, r2, Z)
        hits = np.flatnonzero(res <= band)
        if hits.size:
            sel_i.append(i0 + hits // resolution)
            sel_j.append(hits % resolution)
    if not sel_i:
        return []
    I = np.concatenate(sel_i)
    J = np.concatenate(sel_j)

    index = {(int(i), int(j)): k for k, (i, j) in enumerate(zip(I, J))}
    labels = np.full(len(I), -1, dtype=int)
    n_clusters = 0
    for start in range(len(I)):
        if labels[start] != -1:
            continue
        stack = [start]
        labels[start] = n_clusters
        while stack:
            k = stack.pop()
            ci, cj = int(I[k]), int(J[k])
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    nb = index.get((ci + di, cj + dj))
                    if nb is not None and labels[nb] == -1:
                        labels[nb] = n_clusters
                        stack.append(nb)
        n_clusters += 1

    pts0 = np.stack([gx[J], gy[I]], axis=-1)
    span = 0.5 * float(max(hi[0] - lo[0], hi[1] - lo[1]))
    refined, resid = _refine_points(space, p, q, r1, r2, pts0, h, span,
                                    max(tol / 1000.0, 1e-12))

    # grid connectivity can split one component where the selected strip gets
    # thinner than a cell; merge clusters whose refined points reconnect
    labels = _merge_close_clusters(refined, labels, n_clusters, 2.0 * h)

    clusters = []
    for c in sorted(set(int(v) for v in labels)):
        member = labels == c
        pts = refined[member]
        rr = resid[member]
        k = int(np.argmin(rr))
        clusters.append(MtCluster(points=pts, representative=pts[k].copy(),
                                  residual=float(rr[k])))
    return clusters


def delta_thresholds(delta):
    """The five polynomial bounds that close the convexity case analysis.

    Each is positive for small bulge parameters; the returned triples carry a
    label, the value at ``delta`` and the positivity flag.
    """
    if not 0.0 <= delta < 0.25:
        raise ValueError("delta must lie in [0, 1/4)")
    d = float(delta)
    rows = [
        ("antenna_pair", (4.0 - 144.0 * d - 640.0 * d * d) / (1.0 - 4.0 * d)),
        ("antenna_vs_ramp", 3.0 - 96.0 * d - 576.0 * d * d),
        ("antenna_vs_interior_flat", 31.0 / 8.0 - 96.0 * d - 576.0 * d * d),
        ("antenna_vs_interior_steep", 255.0 / 64.0 - 96.0 * d - 576.0 * d * d),
        ("reversed_antenna_pair", 4.0 - 33.0 * d),
    ]
    return [(label, value, value > 0.0) for label, value in rows]


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
    d = float(delta)
    return 4.0 * d * d + (1.0 - 72.0 * d * d) * tau * tau \
        + 324.0 * d * d * tau ** 4


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
