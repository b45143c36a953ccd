"""Prepared paths: ``b.path(P, Q)(t)`` against 1-row ``b.eval`` calls.

A prepared path validates its endpoint batch and does the parameter-free
work once; every row it returns must equal, bit for bit, what ``eval`` gives
for that row alone, and the scans must validate once per endpoint batch
rather than once per parameter.
"""

import numpy as np
import pytest

from bicombing_lab import bicombings, spaces
from bicombing_lab.bicombings import (Bicombing, sigma_delta_bicombing,
                                      sigma_tilde_bicombing, sigma_X1_bicombing,
                                      tau_X1_bicombing)
from bicombing_lab.verify import SampleConfig, check_conical

DELTA = 1.0 / 64.0

# ties p_x == q_x in both orders, identical points, and every antenna pairing
X_ROWS = [((0.2, 0.01), (0.2, 0.02)), ((0.2, 0.02), (0.2, 0.01)),
          ((-2.0, 0.0), (-2.0, 0.0)), ((-1.0, 0.0), (1.0, 0.0)),
          ((-3.0, 0.0), (3.0, 0.0)), ((3.0, 0.0), (-3.0, 0.0)),
          ((-2.5, 0.0), (-1.5, 0.0)), ((2.5, 0.0), (1.5, 0.0)),
          ((-2.0, 0.0), (0.5, 0.02)), ((0.5, 0.02), (-2.0, 0.0)),
          ((-0.5, 0.02), (2.0, 0.0)), ((2.0, 0.0), (-0.5, 0.02))]
X1_ROWS = [((0.0, 0.5), (0.0, -0.5)), ((0.0, -0.5), (0.0, 0.5)),
           ((-1.5, 0.5), (-1.5, 0.5)), ((-1.5, 0.5), (0.0, 0.5)),
           ((0.0, 0.5), (-1.5, 0.5)), ((-2.0, 1.0), (1.0, 0.0)),
           ((1.0, 0.0), (-2.0, 1.0)), ((-1.0, 0.0), (-1.0, 0.0))]

PLANAR = [(sigma_delta_bicombing(DELTA), X_ROWS),
          (sigma_tilde_bicombing(DELTA), X_ROWS),
          (sigma_delta_bicombing(0.0), X_ROWS),
          (sigma_X1_bicombing(), X1_ROWS),
          (tau_X1_bicombing(), X1_ROWS)]
IDS = [b.name for b, _ in PLANAR]


def _batch(b, rows, count=200, seed=7):
    rng = np.random.default_rng(seed)
    P = np.concatenate([b.sample(rng, count), [p for p, _ in rows]])
    Q = np.concatenate([b.sample(rng, count), [q for _, q in rows]])
    return P, Q


def _one_by_one(b, P, Q, T):
    T = np.broadcast_to(np.asarray(T, dtype=float), (len(P),))
    return np.stack([b.eval(P[i], Q[i], float(T[i])) for i in range(len(P))])


@pytest.mark.parametrize("b, rows", PLANAR, ids=IDS)
def test_prepared_rows_equal_one_row_evaluations(b, rows):
    P, Q = _batch(b, rows)
    path = b.path(P, Q)
    rng = np.random.default_rng(11)
    for T in (0.0, 0.5, 1.0, 0.3, rng.random(len(P))):
        got = path(T)
        assert got.shape == P.shape
        assert np.array_equal(got, _one_by_one(b, P, Q, T))
        assert np.array_equal(got, b.eval(P, Q, T))


def test_sigma_delta_batches_reach_every_case():
    P, Q = _batch(sigma_tilde_bicombing(DELTA), X_ROWS)
    plain = bicombings._SigmaDeltaPath(DELTA, P, Q)
    tilde = bicombings._SigmaDeltaPath(DELTA, P, Q, tilde=True)
    for rows in (plain.bow, plain.climb, plain.descend, plain.inner, tilde.flat):
        assert rows.size > 0
    assert plain.swap is not None and plain.swap.any() and not plain.swap.all()
    assert plain.flat.size == 0
    # the flat rows are antenna-to-antenna rows that sigma_tilde straightens
    assert np.isin(tilde.flat, plain.bow).all() and np.array_equal(tilde.bow, plain.bow)


def test_tau_X1_parameter_array_mixing_both_halves():
    b = tau_X1_bicombing()
    P, Q = _batch(b, X1_ROWS)
    T = np.tile([0.0, 0.25, 0.5, 0.5 + 2.0 ** -40, 0.75, 1.0], len(P) // 6 + 1)[:len(P)]
    got = b.path(P, Q)(T)
    assert (T <= 0.5).any() and (T > 0.5).any()
    assert np.array_equal(got, _one_by_one(b, P, Q, T))


def test_single_points_squeeze_like_eval():
    for b, rows in PLANAR:
        p, q = (np.array(z) for z in rows[-1])
        out = b.path(p, q)(0.25)
        assert out.shape == (2,) and np.array_equal(out, b.eval(p, q, 0.25))
        assert b.path(p, q)(np.array([0.25])).shape == (1, 2)


def _message(fn):
    with pytest.raises(ValueError) as info:
        fn()
    return str(info.value)


@pytest.mark.parametrize("b, rows", PLANAR, ids=IDS)
def test_prepare_rejects_like_eval(b, rows):
    good = np.array([rows[0][0], rows[0][1]])
    for bad in ((5.0, 5.0), (np.nan, 0.0)):
        for P, Q in ((np.array([bad, good[1]]), good), (good, np.array([good[0], bad]))):
            message = _message(lambda: b.eval(P, Q, 0.5))
            assert "endpoint" in message and "lies outside" in message
            assert _message(lambda: b.path(P, Q)) == message


def test_tau_X1_keeps_the_escaped_midpoint_error(monkeypatch):
    # no pair of X1 is known to push the averaged midpoint out, so the third
    # membership test of a preparation (the one on M) is made to fail
    real = spaces.contains
    calls = []

    def reject_third(region, p, tol=spaces.DEFAULT_TOL):
        calls.append(region.tag)
        ok = real(region, p, tol)
        return ok & False if len(calls) % 3 == 0 else ok

    monkeypatch.setattr(spaces, "contains", reject_third)
    b = tau_X1_bicombing()
    p, q = (-1.5, 0.5), (0.0, 0.5)
    for fn in (lambda: b.eval(p, q, 0.25), lambda: b.path(p, q)):
        calls.clear()
        with pytest.raises(ValueError, match=r"averaged midpoint \(.*\) escaped X1"):
            fn()


def _contains_calls(monkeypatch, b, t_grid):
    real = spaces.contains
    count = [0]

    def counted(region, p, tol=spaces.DEFAULT_TOL):
        count[0] += 1
        return real(region, p, tol)

    monkeypatch.setattr(spaces, "contains", counted)
    rep = check_conical(b, SampleConfig(seed=42, tuples=50, t_grid=t_grid, tol=1e-9))
    monkeypatch.setattr(spaces, "contains", real)
    assert rep.passed
    return count[0]


@pytest.mark.parametrize("b", [b for b, _ in PLANAR], ids=IDS)
def test_scans_validate_once_per_endpoint_batch(monkeypatch, b):
    assert _contains_calls(monkeypatch, b, 9) == _contains_calls(monkeypatch, b, 33)


def test_eval_only_bicombings_route_every_evaluation_through_eval(monkeypatch):
    # a bicombing built from eval alone has no preparation: its path calls
    # eval at every parameter, so the count above would grow with t_grid
    base = sigma_delta_bicombing(DELTA)
    seen = []

    def recorded(p, q, t):
        seen.append(t)
        return base.eval(p, q, t)

    wrapped = Bicombing("recorded", base.space, base.domain, recorded)
    P, Q = _batch(base, X_ROWS, count=20)
    assert np.array_equal(wrapped.path(P, Q)(0.75), base.eval(P, Q, 0.75))
    assert seen == [0.75]
    assert (_contains_calls(monkeypatch, wrapped, 33)
            > _contains_calls(monkeypatch, wrapped, 9))
