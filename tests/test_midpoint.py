import dataclasses
import hashlib
import math

import numpy as np
import pytest

from bicombing_lab.bicombings import (Bicombing, linear_bicombing,
                                      sigma_tilde_bicombing, sigma_X1_bicombing)
from bicombing_lab.midpoint import (ConvergenceError, MidpointConfig, midpoint,
                                    midpoint_iteration, reversibilize)
from bicombing_lab.spaces import Region, dist
from bicombing_lab.verify import SampleConfig, check_reversible

CFG = MidpointConfig(tol=1e-10)


def test_config_validation():
    # at tol=inf no halving ran, and midpoint returned the endpoint (0.5, 0)
    # of the pair (0.5, 0), (-0.5, 0) as its metric midpoint
    for tol in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            MidpointConfig(tol=tol)


def test_midpoint_linear_one_step():
    lb = linear_bicombing()
    mid, gaps = midpoint_iteration(lb, (0.0, 0.0), (2.0, 0.0), CFG)
    assert np.array_equal(mid, [1.0, 0.0])
    assert gaps[0, 0] == 2.0 and gaps[0, 1] == 0.0 and np.isnan(gaps[0, 2])


def test_midpoint_equal_points():
    lb = linear_bicombing()
    p = (0.3, -0.4)
    assert np.array_equal(midpoint(lb, p, p, CFG), p)


def test_midpoint_half_distance_on_folded_strip():
    sx = sigma_X1_bicombing()
    x, y = np.array([-2.0, 1.0]), np.array([0.0, 0.0])
    z = midpoint(sx, x, y, CFG)
    assert abs(dist("linf", x, z) - 1.0) <= 1e-9
    assert abs(dist("linf", y, z) - 1.0) <= 1e-9


def test_midpoint_symmetry_and_contraction():
    sx = sigma_X1_bicombing()
    rng = np.random.default_rng(3)
    X = sx.sample(rng, 400)
    Y = sx.sample(rng, 400)
    mxy, gaps = midpoint_iteration(sx, X, Y, CFG)
    myx, _ = midpoint_iteration(sx, Y, X, CFG)
    assert np.max(dist("linf", mxy, myx)) <= 2 * CFG.tol
    n = np.arange(gaps.shape[1])
    bound = 0.5 ** n[None, :] * gaps[:, :1] * (1 + 1e-9)
    valid = ~np.isnan(gaps)
    assert np.all(gaps[valid] <= bound[valid])


def test_midpoint_averaging_bound():
    sx = sigma_X1_bicombing()
    rng = np.random.default_rng(4)
    X, Y = sx.sample(rng, 1000), sx.sample(rng, 1000)
    X2, Y2 = sx.sample(rng, 1000), sx.sample(rng, 1000)
    m1 = midpoint(sx, X, Y, CFG)
    m2 = midpoint(sx, X2, Y2, CFG)
    lhs = dist("linf", m1, m2)
    rhs = 0.5 * dist("linf", X, X2) + 0.5 * dist("linf", Y, Y2)
    assert np.all(lhs <= rhs + 2 * CFG.tol)


def test_midpoint_non_contracting_base_raises():
    # a fake selection that swaps the endpoints at the half parameter keeps
    # the gap constant, so the iteration must give up loudly
    def swap_eval(p, q, t):
        return np.array(np.atleast_2d(np.asarray(q, dtype=float)), copy=True)

    fake = Bicombing("swap", "euclid", Region.ball((0, 0), 8.0, "euclid"), swap_eval)
    with pytest.raises(ConvergenceError, match="after 64 halvings"):
        midpoint(fake, np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]), CFG)


def test_midpoint_iteration_leaves_the_callers_points_alone():
    sx = sigma_X1_bicombing()
    rng = np.random.default_rng(7)
    X, Y = sx.sample(rng, 50), sx.sample(rng, 50)
    X0, Y0 = X.copy(), Y.copy()
    mids, _ = midpoint_iteration(sx, X, Y, CFG)
    assert np.array_equal(X, X0) and np.array_equal(Y, Y0)
    # one point against a batch broadcasts, and stays unsqueezed
    one, _ = midpoint_iteration(sx, X0[0], Y0[:1], CFG)
    assert one.shape == (1, 2) and np.array_equal(one[0], mids[0])


def test_midpoint_iteration_gaps_are_pinned():
    # digest of the midpoints and the whole gap history, recorded before
    # midpoint() stopped keeping the history; midpoint() gives the same bits
    sx = sigma_X1_bicombing()
    rng = np.random.default_rng(11)
    X, Y = sx.sample(rng, 300), sx.sample(rng, 300)
    mids, gaps = midpoint_iteration(sx, X, Y, CFG)
    assert gaps.shape == (300, 65) and np.sum(~np.isnan(gaps)) == 715
    assert hashlib.sha256(mids.tobytes() + gaps.tobytes()).hexdigest() == (
        "369eb81008c8b38802f320b471e320392ad17f9630f02fa74b20f4dd6cfa2e45")
    assert np.array_equal(midpoint(sx, X, Y, CFG), mids)


# a base that prepares and one that has only eval
@pytest.mark.parametrize("base", [sigma_tilde_bicombing(1.0 / 64.0), linear_bicombing("hybrid")],
                         ids=["sigma_tilde", "linear"])
def test_reversibilized_path_equals_eval(base):
    rev = reversibilize(base, CFG)
    rng = np.random.default_rng(8)
    P, Q = base.sample(rng, 40), base.sample(rng, 40)
    T = rng.random(40)
    # (p, q, t, shape of the result): single points, a 1-row batch with a
    # per-row t, and a batch with scalar and per-row t
    cases = [(P[0], Q[0], 0.3, (2,)), (P[0], Q[0], 1.0, (2,)), (P[:1], Q[:1], T[:1], (1, 2)),
             (P, Q, 0.0, (40, 2)), (P, Q, 0.625, (40, 2)), (P, Q, T, (40, 2))]
    for p, q, t, shape in cases:
        got = rev.path(p, q)(t)
        assert got.shape == shape
        assert np.array_equal(got, rev.eval(p, q, t))


def test_reversibilized_scan_prepares_the_base_twice():
    base = sigma_tilde_bicombing(1.0 / 64.0)
    log = []

    def prepare(p, q):
        log.append((p, q))
        return base.prepare(p, q)

    rev = reversibilize(dataclasses.replace(base, prepare=prepare), CFG)
    rng = np.random.default_rng(9)
    P, Q = base.sample(rng, 50), base.sample(rng, 50)
    path = rev.path(P, Q)
    for t in np.linspace(0.0, 1.0, 33):
        path(t)
    # once per orientation, however many parameters; the halving steps use
    # the base's eval, whose endpoints move
    assert len(log) == 2
    assert log[0][0] is P and log[1][0] is Q


def test_reversibilize_linear_is_linear():
    lb = linear_bicombing()
    rev = reversibilize(lb, CFG)
    rng = np.random.default_rng(5)
    P, Q = lb.sample(rng, 200), lb.sample(rng, 200)
    for t in (0.0, 0.3, 0.5, 0.9):
        assert np.max(np.abs(rev.eval(P, Q, t) - lb.eval(P, Q, t))) <= CFG.tol


def test_reversibilize_fixes_sigma_tilde():
    base = sigma_tilde_bicombing(1.0 / 64.0)
    cfg = SampleConfig(seed=42, tuples=400, t_grid=33, tol=2e-10)
    assert not check_reversible(base, SampleConfig(seed=42, tuples=400)).passed
    rev = reversibilize(base, CFG)
    assert check_reversible(rev, cfg).passed


def test_reversibilize_witness_pair_on_folded_strip():
    rev = reversibilize(sigma_X1_bicombing(), CFG)
    a = rev.eval(np.array([-2.0, 1.0]), np.array([0.0, 0.0]), 0.75)
    b = rev.eval(np.array([0.0, 0.0]), np.array([-2.0, 1.0]), 0.25)
    assert dist("linf", a, b) <= 2 * CFG.tol


def test_reversibilize_idempotent_up_to_tolerance():
    base = sigma_tilde_bicombing(1.0 / 64.0)
    rev1 = reversibilize(base, CFG)
    # the second pass sees a base that is conical only up to 2*tol, so it
    # runs at a coarser tolerance
    cfg2 = MidpointConfig(tol=1e-8)
    rev2 = reversibilize(rev1, cfg2)
    rng = np.random.default_rng(6)
    P, Q = base.sample(rng, 30), base.sample(rng, 30)
    for t in (0.25, 0.5, 0.8):
        gap = dist("hybrid", rev1.eval(P, Q, t), rev2.eval(P, Q, t))
        assert np.max(gap) <= 4 * cfg2.tol
