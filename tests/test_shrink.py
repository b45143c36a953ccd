"""Batched witness shrinking against the one-midpoint-at-a-time bisection.

``verify._shrink_points`` scores the midpoints the next ``_LADDER`` bisection
steps of a point can visit in one batch and replays the acceptance rule over
them. The sequential bisection it replaced is kept here as the reference:
both must shrink a witness to the same points bit for bit. In both, a step
whose moved point leaves the domain scores ``-inf`` without being evaluated,
so a witness stays a tuple of points of the space, and every other step is
evaluated.
"""

import functools
import math

import numpy as np
import pytest

from bicombing_lab import spaces, verify
from bicombing_lab.bicombings import (Bicombing, linear, sigma_delta_bicombing,
                                      tau_X1_bicombing)
from bicombing_lab.verify import CHECKERS, SampleConfig


def sequential_shrink(viol_pts, pts, ref, tol):
    """The reference bisection: 12 steps per point, one
    ``viol_pts(points) -> float`` call per step. Returns ``(points,
    violation)``."""
    pts = [np.array(p, dtype=float) for p in pts]
    centroid = np.mean(np.stack(pts), axis=0)
    floor = ref - tol / 10.0
    for k in range(len(pts)):
        good, hi = 0.0, 1.0
        for _ in range(12):
            mid = 0.5 * (good + hi)
            cand = [p.copy() for p in pts]
            cand[k] = pts[k] + mid * (centroid - pts[k])
            v = viol_pts(cand)
            if v >= floor and v > tol:
                good = mid
            else:
                hi = mid
        pts[k] = pts[k] + good * (centroid - pts[k])
    return pts, viol_pts(pts)


def reference(viol, pts, prm, domain, ref, tol):
    """:func:`sequential_shrink` in the signature of ``verify._shrink_points``:
    a step with a point outside ``domain`` scores ``-inf`` without a call,
    any other step is a 1-row call."""
    def score(cand):
        if not all(inside(domain, p) for p in cand):
            return -math.inf
        return viol(verify._rows(cand, 1), prm)[0]

    return sequential_shrink(score, pts, ref, tol)[0]


def inside(domain, point):
    return bool(np.all(spaces.contains(domain, np.asarray(point), spaces.DEFAULT_TOL)))


def points(report):
    """The witness points of a planar report."""
    return [v for v in report.witness.values() if isinstance(v, list)]


class Calls:
    """A batched violation that records each call's row count, whether every
    moved point lay in ``domain`` and what it raised."""

    def __init__(self, viol, domain):
        self.viol, self.domain, self.log = viol, domain, []

    def __call__(self, points, params):
        within = all(inside(self.domain, p) for p in points)
        try:
            out = self.viol(points, params)
        except ValueError as exc:
            self.log.append((len(params), within, str(exc)))
            raise
        self.log.append((len(params), within, None))
        return out


def both(viol, pts, prm, domain, ref, tol):
    """The batched and the reference shrink of one witness, and the calls the
    batched one made."""
    calls = Calls(viol, domain)
    got = verify._shrink_points(calls, pts, prm, domain, ref, tol)
    want = reference(viol, pts, prm, domain, ref, tol)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    return got, calls.log


BUILT = verify.builtin_bicombings()
FAILURES = [(row, prop) for row, props in verify.EXPECTED_MATRIX.items()
            for prop, want in props.items() if not want]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("row, prop", FAILURES)
def test_expected_failures_shrink_as_the_sequential_bisection(monkeypatch, row, prop, seed):
    cfg = SampleConfig(seed=seed, tuples=200)
    got = CHECKERS[prop](BUILT[row], cfg)
    assert not got.passed
    # the built-ins validate their endpoints, and their witnesses lie in X or X1
    assert all(inside(BUILT[row].domain, p) for p in points(got))
    monkeypatch.setattr(verify, "_shrink_points", reference)
    want = CHECKERS[prop](BUILT[row], cfg)
    assert got.to_json() == want.to_json()


# the affine selection never validates its endpoints, so only the domain test
# keeps a ladder row that leaves the non-convex X1 out of the witness
LINEAR_X1 = Bicombing("linear_X1", "linf", spaces.Region("X1"), linear)


def spy(monkeypatch, domain):
    """Record every batched violation the checks make, see :class:`Calls`."""
    calls = Calls(None, domain)
    violation = verify._violation

    def recorded(make, b, points, params):
        calls.viol = functools.partial(violation, make, b)
        return calls(points, params)

    monkeypatch.setattr(verify, "_violation", recorded)
    return calls.log


# at tol 1e-30 these fail on rounding; the affine selection is exactly
# reversible and has the midpoint property. The centroid of a witness can lie
# outside the non-convex X1, so shrinking must refuse the moves toward it.
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("prop", ["geodesic", "conical", "convex", "consistent"])
def test_witnesses_of_a_selection_that_does_not_validate_stay_in_the_domain(
        monkeypatch, prop, seed):
    cfg = SampleConfig(seed=seed, tuples=200, t_grid=9, tol=1e-30)
    log = spy(monkeypatch, LINEAR_X1.domain)
    got = CHECKERS[prop](LINEAR_X1, cfg)
    assert not got.passed
    assert log and all(within for _, within, _ in log)
    assert all(raised is None for *_, raised in log)
    assert all(inside(LINEAR_X1.domain, p) for p in points(got))
    monkeypatch.setattr(verify, "_shrink_points", reference)
    want = CHECKERS[prop](LINEAR_X1, cfg)
    assert got.to_json() == want.to_json()


def consistent_sigma_delta():
    b = sigma_delta_bicombing()
    viol = functools.partial(verify._violation, verify._consistent, b)
    pts = [np.array([2.5, 0.0]), np.array([-2.9, 0.0])]
    prm = np.array([[0.19, 0.67, 0.57]])
    ref = viol(verify._rows(pts, 1), prm)[0]
    assert ref > 1e-3
    # a loose tol lets the first point move a little
    return b, viol, pts, prm, 1e-2


def tau_X1_antenna_edge():
    # on the lower tolerance edge of the antenna of X1 the averaged midpoint
    # of tau_X1 rounds up to DEFAULT_TOL out of X1, which its domain test
    # allows for, so no ladder row raises
    b = tau_X1_bicombing()
    reversible = functools.partial(verify._violation, verify._reversible, b)

    def viol(points, params):
        # tau_X1 is exactly reversible along the antenna; the spread of the
        # points gives shrinking a violation to keep
        return reversible(points, params) + spaces.dist("linf", *points)

    pts = [np.array([x, abs(x) - 1.0 - spaces.DEFAULT_TOL]) for x in (-1.95, -1.4)]
    prm = np.array([[0.25]])
    return b, viol, pts, prm, viol(verify._rows(pts, 1), prm)[0] / 4


# the axis of X is convex, so every ladder row stays in the domain there; on
# the antenna edge of X1 rounding puts some of them outside, which are dropped
@pytest.mark.parametrize("case, whole", [(consistent_sigma_delta, True),
                                         (tau_X1_antenna_edge, False)])
def test_a_ladder_that_never_raises_costs_three_batches_per_point(case, whole):
    b, viol, pts, prm, tol = case()
    ref = viol(verify._rows(pts, 1), prm)[0]
    got, log = both(viol, pts, prm, b.domain, ref, tol)
    ladder = 2 ** verify._LADDER - 1
    assert len(log) == 3 * len(pts)
    assert all(within and raised is None for _, within, raised in log)
    assert all(n == ladder if whole else 0 < n <= ladder for n, *_ in log)
    assert not np.array_equal(got[0], pts[0])
