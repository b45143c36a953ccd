"""Batched witness refinement against the one-candidate-at-a-time schedule.

``verify._refine_params`` evaluates a whole stretch of its coordinate-ascent
schedule in one batch and replays the acceptance rules over it. The
sequential loop it replaced is kept here as the reference: both must return
the same ``(best, params)`` bit for bit. The batches are only exact because
every checker's violation is row-wise, so a batch must also equal the stack
of its 1-row calls; a row outside the domain makes the whole batch raise.
Row-wise is also what lets refinement prepare the witness once, on the
largest batch the schedule can plan, and pad every batch to that size.
"""

import dataclasses
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
        assert len(rows) <= verify._refine_rows(len(params))
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


# the largest batches: the first, the start row and a sweep at _STEP with its
# 15 halvings (32 k + 1 rows), and the one after a gain on the first
# candidate of a sweep at _STEP: the rest of that sweep, a repeat at _STEP
# and the 15 halvings (34 k - 1 rows)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_no_planned_batch_exceeds_the_prepared_rows(k):
    R = verify._refine_rows(k)
    assert R == 34 * k + 1
    params, bounds, tol = [0.5] * k, [(0.0, 1.0)] * k, 1e-9
    start = verify._plan(params, bounds, tol, verify._STEP, 1, 0, 0.0)
    assert 1 + len(start) == 32 * k + 1
    sizes = [len(verify._plan(params, bounds, tol, verify._STEP, 1, j, gained))
             for j in range(1, 2 * k + 1) for gained in (0.0, tol / 10.0, 1.0)]
    assert max(sizes) == 34 * k - 1 <= R
    # the padded violation refuses a batch the schedule cannot plan
    viol = verify._padded(lambda t: t, R)
    assert np.array_equal(viol(np.full((R, 1), 0.25)), np.full(R, 0.25))
    with pytest.raises(RuntimeError, match=f"refinement batch of {R + 1} rows"):
        viol(np.zeros((R + 1, 1)))


def _counting(b, log):
    """``b`` whose ``prepare`` logs the rows of each endpoint batch."""
    def prepare(p, q):
        log.append(len(np.atleast_2d(p)))
        return b.prepare(p, q)

    return dataclasses.replace(b, prepare=prepare)


# failing checks: (row, check, property, parameter names, paths it prepares)
FAILING = {
    "reversible": ("sigma_X1", verify.check_reversible, verify._reversible, ("t",), 2),
    "consistent": ("sigma_delta", verify.check_consistent, verify._consistent,
                   ("s1", "s2", "u"), 1),
}
FAILING_CFG = verify.SampleConfig(seed=3, tuples=200, t_grid=9)


@pytest.mark.parametrize("prop", FAILING)
def test_refinement_prepares_the_witness_once(monkeypatch, prop):
    row, check, _, names, paths = FAILING[prop]
    log, batches, inside = [], [], []
    real = verify._refine_params

    def refine(viol, params, bounds, tol):
        def counted(prm):
            batches.append(len(prm))
            return viol(prm)

        before = len(log)
        out = real(counted, params, bounds, tol)
        inside.append(len(log) - before)
        return out

    monkeypatch.setattr(verify, "_refine_params", refine)
    rep = check(_counting(BUILT[row], log), FAILING_CFG)
    assert not rep.passed
    R = verify._refine_rows(len(names))
    assert len(batches) >= 2 and max(batches) <= R
    # prepared once, before the first batch, and never inside refinement
    assert inside == [0] and log.count(R) == paths


@pytest.mark.parametrize("prop", FAILING)
def test_padded_refinement_matches_the_sequential_schedule(prop):
    row, check, make, names, _ = FAILING[prop]
    b = BUILT[row]
    rep = check(b, FAILING_CFG)
    pts = [np.array(rep.witness[n]) for n in ("p", "q")]
    # start a little away from the refined parameters, so the schedule moves
    start = [round(rep.witness[n], 1) for n in names]
    bounds = [(0.0, 1.0)] * len(start)
    R = verify._refine_rows(len(start))
    one = functools.partial(verify._violation, make, b)
    best, params, _ = sequential_refine(
        lambda prm: float(one(verify._rows(pts, 1), np.array([prm]))[0]), start, bounds, 1e-9)
    got = verify._refine_params(verify._padded(make(b, verify._rows(pts, R)), R),
                                start, bounds, 1e-9)
    assert params != tuple(start) and got == (best, params)


# exact defects recorded while the consistent property still prepared its
# path at every evaluation; the last two tuples are the witnesses of
# check_consistent at seed 5, 300 tuples, t_grid 9
@pytest.mark.parametrize("row, args, want", [
    ("sigma_delta", ((-3.0, 0.0), (3.0, 0.0), 1 / 6, 5 / 6, 0.5), 0.02209708691207961),
    ("sigma_delta", ((3.0, 0.0), (-3.0, 0.0), 0.25, 0.5, 0.5), 0.0041432037960149265),
    ("sigma_tilde", ((-2.5, 0.0), (2.75, 0.0), 0.125, 0.875, 0.625), 0.008549909688919964),
    ("sigma_tilde", ((3.0, 0.0), (-3.0, 0.0), 0.25, 0.5, 0.5), 0.0),
    ("sigma_delta", ((2.8415041907779397, 0.0), (-2.8270544630879986, 0.0),
                     0.2886698467384696, 0.9636558817412272, 0.3149768901060528),
     0.018435142796136325),
    ("sigma_tilde", ((-2.1646926949170116, 0.0), (2.8334076623915125, 0.0),
                     0.04467582702636719, 0.6691618172286741, 0.6219954694609925),
     0.011027555171201452),
])
def test_consistency_defect_values_are_pinned(row, args, want):
    assert verify.consistency_defect(BUILT[row], *args) == want
