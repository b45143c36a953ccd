"""Batched witness refinement against the one-candidate-at-a-time schedule.

``verify._refine_params`` evaluates a whole stretch of its coordinate-ascent
schedule in one batch and replays the acceptance rules over it. The
sequential loop it replaced is kept here as the reference: both must return
the same ``(best, params)`` bit for bit. The batches are only exact because
every checker's violation is row-wise, so a batch must also equal the stack
of its 1-row calls; a row outside the domain makes the whole batch raise.
"""

import functools
import math

import numpy as np
import pytest

from bicombing_lab import verify
from bicombing_lab.bicombings import linear_bicombing


def sequential_refine(viol, params, bounds, tol):
    """The reference schedule: one ``viol(params) -> float`` call per
    candidate. Returns ``(best, params, candidates tried)``."""
    params = [float(v) for v in params]
    best = viol(params)
    tried = 0
    step = 1.0 / 16.0
    sweeps = 0
    while step >= 1e-6 and sweeps < 200:
        sweeps += 1
        gained = 0.0
        for k in range(len(params)):
            for sign in (1.0, -1.0):
                cand = list(params)
                cand[k] = min(max(cand[k] + sign * step, bounds[k][0]), bounds[k][1])
                v = viol(cand)
                tried += 1
                if v > best:
                    gained += v - best
                    best = v
                    params = cand
        if gained < tol / 10.0:
            step *= 0.5
    return best, tuple(params), tried


def batched_refine(viol, params, bounds, tol):
    """``verify._refine_params`` on the row-wise lift of ``viol``; also the
    number of batches it evaluated."""
    calls = []

    def batch(rows):
        calls.append(len(rows))
        return np.array([viol([float(x) for x in row]) for row in rows])

    best, tuned = verify._refine_params(batch, params, bounds, tol)
    return best, tuned, len(calls)


def bumpy(rng, k):
    """A seeded violation with several local maxima, a band of ``-inf``
    (infeasible) and a band of NaN (broken down) in the first coordinate."""
    centers = rng.random((4, k))
    heights = rng.random(4)
    widths = 0.05 + 0.3 * rng.random(4)
    lo = rng.random() * 0.8

    def viol(params):
        x = np.array(params)
        if lo < x[0] < lo + 0.05:
            return -math.inf
        if lo + 0.1 < x[0] < lo + 0.12:
            return math.nan
        r2 = ((x - centers) ** 2).sum(axis=1) / widths ** 2
        return float(np.max(heights * np.exp(-r2)) + 1e-3 * math.sin(40.0 * x.sum()))

    return viol


def same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("tol", [1e-9, 1e-2])
def test_batched_refinement_matches_the_sequential_schedule(k, seed, tol):
    rng = np.random.default_rng(1000 * k + seed)
    viol = bumpy(rng, k)
    start = rng.random(k)
    if seed % 4 == 0:
        start[0] = 1.0  # first step is clamped at the upper bound
    if seed % 4 == 1:
        start[-1] = 0.0  # and here at the lower one
    bounds = [(0.0, 1.0)] * k
    best, params, tried = sequential_refine(viol, start, bounds, tol)
    got_best, got_params, calls = batched_refine(viol, start, bounds, tol)
    assert same(got_best, best) and got_params == params
    assert calls <= tried


def _broken_down(params):
    x, y = params
    if x < 0.05:
        return -math.inf
    if math.isnan(y) or 0.4 < y < 0.45:
        return math.nan
    return -(x - 0.7) ** 2 - (y - 0.2) ** 2


def _terraces(params):
    # flat almost everywhere: only a strict gain may move the point
    return math.floor(2.5 * params[0]) - abs(math.floor(3.0 * params[1]) - 1)


# a NaN start accepts nothing (nothing compares above NaN), a start in the
# -inf band accepts the first finite candidate, a terrace is left only uphill
@pytest.mark.parametrize("viol, start", [(_broken_down, (0.3, math.nan)),
                                         (_broken_down, (0.02, 0.5)),
                                         (_terraces, (0.38, 0.9)),
                                         (_terraces, (1.0, 0.5))])
def test_batched_refinement_on_broken_down_and_flat_violations(viol, start):
    bounds = [(0.0, 1.0)] * 2
    best, params, tried = sequential_refine(viol, start, bounds, 1e-9)
    got_best, got_params, calls = batched_refine(viol, start, bounds, 1e-9)
    assert same(got_best, best)
    assert all(same(a, b) for a, b in zip(got_params, params))
    assert calls <= tried


def test_batched_refinement_hits_the_sweep_cap():
    # an increasing violation gains at every sweep, so the step never halves
    # and the schedule runs into its 200-sweep cap: 200 steps of 1/16
    def viol(params):
        return sum(params)

    bounds = [(0.0, 100.0)] * 2
    best, params, tried = sequential_refine(viol, (0.0, 3.0), bounds, 1e-9)
    assert params == (12.5, 15.5) and tried == 200 * 4
    got_best, got_params, calls = batched_refine(viol, (0.0, 3.0), bounds, 1e-9)
    assert (got_best, got_params) == (best, params)
    assert calls <= tried


# every checker's batched violation: (function, points per tuple, parameters)
VIOLATIONS = {
    "geodesic": (functools.partial(verify._violation, verify._geodesic), 2, 2),
    "conical": (functools.partial(verify._violation, verify._conical), 4, 1),
    "convex": (functools.partial(verify._violation, verify._convex), 4, 2),
    "consistent": (functools.partial(verify._violation, verify._consistent), 2, 3),
    "reversible": (functools.partial(verify._violation, verify._reversible), 2, 1),
    "midpoint_property": (functools.partial(verify._violation, verify._midpoint), 2, 0),
    "linear": (functools.partial(verify._violation, verify._linear), 2, 1),
}


def _bicombings():
    built = verify.builtin_bicombings()
    built["linear_hybrid"] = linear_bicombing("hybrid")
    return built


BUILT = _bicombings()


# local linearity compares with the planar affine path, so no function space
@pytest.mark.parametrize("row, prop", [(row, prop) for prop in VIOLATIONS for row in BUILT
                                       if not (prop == "linear" and row.startswith("funcspace"))])
def test_a_batch_equals_its_one_row_calls(row, prop):
    b = BUILT[row]
    fn, npts, k = VIOLATIONS[prop]
    rng = np.random.default_rng(7)
    m = 9 if row.startswith("funcspace") else 24
    points = [b.sample(rng, m) for _ in range(npts)]
    params = rng.random((m, k))
    if prop == "convex":
        params[:, 1] *= 0.4  # some stencils fit in [0, 1], some do not
        params[0] = (0.5, 0.0)
    got = fn(b, points, params)
    rows = [fn(b, [p[i:i + 1] for p in points], params[i:i + 1]) for i in range(m)]
    assert all(r.shape == (1,) for r in rows)
    assert np.array_equal(got, np.concatenate(rows))
    assert np.isfinite(got[got != -math.inf]).all()
    if prop == "convex":
        t, tau = params.T
        infeasible = (t - tau < 0.0) | (t + tau > 1.0) | (tau <= 0.0)
        assert infeasible.any() and (got[infeasible] == -math.inf).all()
    else:
        assert np.isfinite(got).all()


# one row outside the domain of a selection that validates its endpoints makes
# the whole batch raise, so refinement meeting such a row fails its check
@pytest.mark.parametrize("prop", VIOLATIONS)
def test_a_row_outside_the_domain_makes_the_batch_raise(prop):
    b = BUILT["tau_X1"]
    fn, npts, k = VIOLATIONS[prop]
    rng = np.random.default_rng(7)
    points = [b.sample(rng, 24) for _ in range(npts)]
    params = rng.random((24, k))
    points[0][3] = (0.0, 5.0)
    with pytest.raises(ValueError, match="endpoint .* lies outside X1"):
        fn(b, points, params)
    keep = np.arange(24) != 3
    assert fn(b, [p[keep] for p in points], params[keep]).shape == (23,)


def test_consistency_defect_is_the_one_row_batch():
    b = BUILT["sigma_delta"]
    rng = np.random.default_rng(3)
    P, Q = b.sample(rng, 5), b.sample(rng, 5)
    prm = rng.random((5, 3))
    batch = VIOLATIONS["consistent"][0](b, [P, Q], prm)
    for i in range(5):
        a1, a2, u = prm[i]
        assert verify.consistency_defect(b, P[i], Q[i], min(a1, a2), max(a1, a2), u) == batch[i]
