import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicombing_lab import spaces
from bicombing_lab.bicombings import (_fold, _pi, fold_f, linear,
                                      sigma_delta, sigma_delta_bicombing,
                                      sigma_tilde_bicombing, sigma_tilde_delta,
                                      sigma_X1, sigma_X1_bicombing, tau_X1,
                                      tau_X1_bicombing)
from bicombing_lab.spaces import Region, contains, dist, sample_region_rng

DELTA = 1.0 / 64.0

ALL_BICOMBINGS = [
    sigma_delta_bicombing(DELTA),
    sigma_tilde_bicombing(DELTA),
    sigma_delta_bicombing(0.0),
    sigma_X1_bicombing(),
    tau_X1_bicombing(),
]


def test_linear_examples():
    assert np.array_equal(linear((0.0, 0.0), (2.0, 2.0), 0.5), [1.0, 1.0])
    p, q = np.array([0.3, -0.7]), np.array([1.1, 0.2])
    assert np.array_equal(linear(p, q, 0.0), p)
    assert np.allclose(linear((-3, 0), (3, 0), 1 / 3), [-1.0, 0.0], atol=1e-15)


@settings(max_examples=100, deadline=None)
@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5))
def test_linear_endpoints_hypothesis(px, py, qx, qy):
    p, q = np.array([px, py]), np.array([qx, qy])
    assert np.array_equal(linear(p, q, 0.0), p)
    assert np.array_equal(linear(p, q, 1.0), q)


def test_sigma_delta_examples():
    out = sigma_delta(DELTA, (-3, 0), (3, 0), 0.5)
    assert np.allclose(out, [0.0, 2 * DELTA], atol=1e-15)
    out = sigma_delta(DELTA, (-2, 0), (2, 0), 0.5)
    assert np.array_equal(out, [0.0, 0.0])
    out = sigma_delta(DELTA, (-2, 0), (0, 1 / 32), 0.75)
    assert np.allclose(out, [-0.5, 1 / 64], atol=1e-15)


def test_sigma_delta_rejects_bad_inputs():
    with pytest.raises(ValueError):
        sigma_delta(0.02, (-3, 0), (3, 0), 0.5)  # delta above 1/64
    with pytest.raises(ValueError):
        sigma_delta(DELTA, (-3, 1.0), (3, 0), 0.5)  # endpoint off the space


def test_sigma_delta_reversible_bit_for_bit():
    rng = np.random.default_rng(2)
    P = sample_region_rng(Region("X"), np.random.default_rng(21), 400)
    Q = sample_region_rng(Region("X"), np.random.default_rng(22), 400)
    for t in np.linspace(0.0, 1.0, 33):  # dyadic grid
        a = sigma_delta(DELTA, P, Q, float(t))
        b = sigma_delta(DELTA, Q, P, float(1.0 - t))
        assert np.array_equal(a, b)


def test_sigma_delta_stays_in_X():
    P = sample_region_rng(Region("X"), np.random.default_rng(31), 300)
    Q = sample_region_rng(Region("X"), np.random.default_rng(32), 300)
    for t in np.linspace(0, 1, 17):
        pts = sigma_delta(DELTA, P, Q, float(t))
        assert np.all(contains(Region("X"), pts, spaces.DEFAULT_TOL))


def test_sigma_delta_chord_slope_bound():
    # chords climbing out of an antenna tip have slope at most 1/16
    rng = np.random.default_rng(8)
    P = sample_region_rng(Region("Xminus"), np.random.default_rng(41), 500)
    Q = sample_region_rng(Region("Xzero"), np.random.default_rng(42), 500)
    slope = Q[:, 1] / (Q[:, 0] + 1.0)
    assert np.all(slope <= 1.0 / 16.0 + 1e-12)
    R = sample_region_rng(Region("Xplus"), np.random.default_rng(43), 500)
    slope = Q[:, 1] / (Q[:, 0] - 1.0)
    assert np.all(np.abs(slope) <= 1.0 / 16.0 + 1e-12)


def test_sigma_tilde_examples_and_reversal_witness():
    flat = sigma_tilde_delta(DELTA, (3, 0), (-3, 0), 0.5)
    assert np.array_equal(flat, [0.0, 0.0])
    bow = sigma_tilde_delta(DELTA, (-3, 0), (3, 0), 0.5)
    assert np.allclose(bow, [0.0, 2 * DELTA], atol=1e-15)
    q = sigma_tilde_delta(DELTA, (0.25, 0.004), (-2.5, 0.0), 1.0)
    assert np.allclose(q, [-2.5, 0.0], atol=1e-15)
    gap = dist("hybrid", bow, flat)
    assert gap == pytest.approx(math.sqrt(2.0) * DELTA, rel=1e-12)
    assert gap >= 1e-3


def test_sigma_tilde_zero_delta_is_reversible():
    P = sample_region_rng(Region("X"), np.random.default_rng(51), 300)
    Q = sample_region_rng(Region("X"), np.random.default_rng(52), 300)
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        a = sigma_tilde_delta(0.0, P, Q, t)
        b = sigma_tilde_delta(0.0, Q, P, 1.0 - t)
        assert np.max(np.abs(a - b)) <= 1e-15


def test_endpoint_identities_all_bicombings():
    for b in ALL_BICOMBINGS:
        rng = np.random.default_rng(6)
        P = b.sample(rng, 1000)
        Q = b.sample(rng, 1000)
        assert np.max(np.abs(b.eval(P, Q, 0.0) - P)) <= 1e-12, b.name
        assert np.max(np.abs(b.eval(P, Q, 1.0) - Q)) <= 1e-12, b.name


def test_constant_speed_all_bicombings():
    grid = np.linspace(0.0, 1.0, 33)
    for b in ALL_BICOMBINGS:
        rng = np.random.default_rng(13)
        P = b.sample(rng, 200)
        Q = b.sample(rng, 200)
        d = b.dist(P, Q)
        evals = [b.eval(P, Q, float(t)) for t in grid]
        for i in range(len(grid)):
            for j in range(i + 1, len(grid)):
                got = b.dist(evals[i], evals[j])
                assert np.max(np.abs(got - (grid[j] - grid[i]) * d)) <= 1e-9, b.name


def test_fold_f_examples():
    assert np.array_equal(fold_f((0.0, -1.0), "forward"), [0.0, -1.0])
    assert np.array_equal(fold_f((-2.0, -1.0), "forward"), [-2.0, 1.0])
    assert np.array_equal(fold_f((-2.0, 1.0), "inverse"), [-2.0, -1.0])
    with pytest.raises(ValueError):
        fold_f((0.0, -1.0), "sideways")
    with pytest.raises(ValueError):
        fold_f((-2.0, 1.0), "forward")  # (-2, 1) is not in X2


def test_fold_f_preserves_linf_distance_on_X2():
    P = sample_region_rng(Region("X2"), np.random.default_rng(61), 500)
    Q = sample_region_rng(Region("X2"), np.random.default_rng(62), 500)
    before = dist("linf", P, Q)
    after = dist("linf", fold_f(P, "forward"), fold_f(Q, "forward"))
    assert np.max(np.abs(before - after)) <= 1e-12


def test_fold_f_round_trip():
    P = sample_region_rng(Region("X1"), np.random.default_rng(63), 300)
    back = fold_f(fold_f(P, "inverse"), "forward")
    assert np.array_equal(P, back)


def _pi_inputs(seed, n):
    """The points ``_X1Path`` retracts: affine points between two ``X1``
    points, then between the same two points folded."""
    rng = np.random.default_rng(seed)
    P = sample_region_rng(Region("X1"), rng, n)
    Q = sample_region_rng(Region("X1"), rng, n)
    t = rng.random(n)
    return np.concatenate([linear(P, Q, t), linear(_fold(P), _fold(Q), t)])


def test_pi_examples():
    rows = np.array([[-1.0, 1.0], [-1.5, 1.0], [-0.5, -0.25], [-1.5, -0.75]])
    want = [[-1.0, 0.0], [-1.5, 0.5], [-0.5, -0.25], [-1.5, -0.5]]
    assert np.array_equal(_pi(rows), want)


def test_pi_idempotent_and_fixes_strips():
    once = _pi(_pi_inputs(71, 400))
    assert np.array_equal(_pi(once), once)
    X12 = np.concatenate([sample_region_rng(Region("X1"), np.random.default_rng(73), 200),
                          sample_region_rng(Region("X2"), np.random.default_rng(74), 200)])
    assert np.max(np.abs(_pi(X12) - X12)) <= 1e-15


def test_pi_is_1_lipschitz():
    # reversing one batch pairs unfolded points with folded ones
    P = _pi_inputs(81, 5000)
    Q = _pi_inputs(83, 5000)[::-1]
    lhs = dist("linf", _pi(P), _pi(Q))
    rhs = dist("linf", P, Q)
    assert np.all(lhs <= rhs + 1e-12)


def test_sigma_X1_examples():
    assert np.array_equal(sigma_X1((-2, 1), (0, 0), 0.75), [-0.5, 0.25])
    assert np.array_equal(sigma_X1((0, 0), (-2, 1), 0.25), [-0.5, -0.25])
    for t in (0.0, 0.3, 1.0):
        assert np.array_equal(sigma_X1((0, 0), (0, 0), t), [0.0, 0.0])
    # the two lines above are the reversal witness: same fraction of the way,
    # different points
    gap = dist("linf", sigma_X1((-2, 1), (0, 0), 0.75), sigma_X1((0, 0), (-2, 1), 0.25))
    assert gap == 0.5


def test_sigma_X1_stays_in_X1():
    P = sample_region_rng(Region("X1"), np.random.default_rng(91), 400)
    Q = sample_region_rng(Region("X1"), np.random.default_rng(92), 400)
    for t in np.linspace(0, 1, 9):
        pts = sigma_X1(P, Q, float(t))
        assert np.all(contains(Region("X1"), pts, spaces.DEFAULT_TOL))


def test_sigma_X1_rejects_outside_domain():
    with pytest.raises(ValueError):
        sigma_X1((1.5, 0.0), (0.0, 0.0), 0.5)


def test_sigma_X1_branches_agree_on_vertical_ties():
    # ties p_x == q_x take the first branch; both branches give the same
    # path there, so the choice is invisible
    rng = np.random.default_rng(17)
    x = rng.uniform(-1.0, 1.0, 200)
    span = 1.0 - np.abs(x)
    y1 = rng.uniform(-span, span)
    y2 = rng.uniform(-span, span)
    P = np.stack([x, y1], axis=-1)
    Q = np.stack([x, y2], axis=-1)
    for t in (0.2, 0.5, 0.9):
        first = _pi(linear(P, Q, t))
        second = _fold(_pi(linear(_fold(P), _fold(Q), t)))
        assert np.array_equal(first, second)
        assert np.array_equal(sigma_X1(P, Q, t), first)


def test_tau_X1_golden_witness():
    fwd = tau_X1((-1.5, 0.5), (0.0, 0.5), 5.0 / 12.0)
    assert np.max(np.abs(fwd - np.array([-0.875, 0.125]))) <= 1e-12
    bwd = tau_X1((0.0, 0.5), (-1.5, 0.5), 7.0 / 12.0)
    assert np.max(np.abs(bwd - np.array([-0.875, 1.0 / 48.0]))) <= 1e-12
    gap = dist("linf", fwd, bwd)
    assert gap == pytest.approx(5.0 / 48.0, abs=1e-12)


def test_tau_X1_trivial_and_midpoint_agreement():
    p = np.array([0.2, -0.3])
    for t in (0.0, 0.4, 1.0):
        assert np.array_equal(tau_X1(p, p, t), p)
    P = sample_region_rng(Region("X1"), np.random.default_rng(101), 300)
    Q = sample_region_rng(Region("X1"), np.random.default_rng(102), 300)
    a = tau_X1(P, Q, 0.5)
    b = tau_X1(Q, P, 0.5)
    assert np.array_equal(a, b)  # exact by construction
