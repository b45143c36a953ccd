"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is sized to finish within about a minute.
"""

import math
import time

import numpy as np

from bicombing_lab import funcspace as fs
from bicombing_lab.bicombings import (sigma_delta_bicombing, sigma_tilde_bicombing,
                                      sigma_X1_bicombing, tau_X1)
from bicombing_lab.midpoint import MidpointConfig, midpoint_iteration, reversibilize
from bicombing_lab.verify import (SampleConfig, check_consistent, check_reversible,
                                  consistency_defect, convexity_pair_gap_squared,
                                  convexity_pair_model, delta_thresholds,
                                  matrix_deviations, mt_set, run_matrix)

DELTA = 1.0 / 64.0


def _criterion(k, ok, detail=""):
    print(f"acceptance criterion {k}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {k} failed: {detail}"


def test_criterion_1_pass_fail_matrix():
    cfg = SampleConfig(seed=42, tuples=20000, t_grid=33, tol=1e-9)
    start = time.perf_counter()
    reports = run_matrix(cfg, delta=DELTA)
    elapsed = time.perf_counter() - start
    deviations = matrix_deviations(reports)
    _criterion(1, not deviations and elapsed < 60.0,
               f"deviations={deviations}, elapsed={elapsed:.1f}s")


def test_pass_fail_matrix_without_bulge():
    # at delta 0 sigma_delta is consistent and sigma_tilde reversible and
    # consistent (verify.ZERO_BULGE); the deviations must follow delta
    cfg = SampleConfig(seed=42, tuples=2000, t_grid=33, tol=1e-9)
    reports = run_matrix(cfg, delta=0.0)
    deviations = matrix_deviations(reports, delta=0.0)
    assert not deviations, deviations
    assert len(matrix_deviations(reports)) == 3


def test_criterion_2_golden_midpoint_witness():
    fwd = tau_X1((-1.5, 0.5), (0.0, 0.5), 5.0 / 12.0)
    bwd = tau_X1((0.0, 0.5), (-1.5, 0.5), 7.0 / 12.0)
    err = max(float(np.max(np.abs(fwd - np.array([-7 / 8, 1 / 8])))),
              float(np.max(np.abs(bwd - np.array([-7 / 8, 1 / 48])))))
    _criterion(2, err <= 1e-12, f"max coordinate error {err:.2e}")


def test_criterion_3_worked_gap_polynomial():
    worst = 0.0
    for tau in (0.01, 0.05, 0.1):
        model = convexity_pair_model(DELTA, tau)
        for side in convexity_pair_gap_squared(DELTA, tau):
            worst = max(worst, abs(side - model))
    _criterion(3, worst <= 1e-12, f"max |gap^2 - polynomial| = {worst:.2e}")


def test_criterion_4_consistency_gap():
    cfg = SampleConfig(seed=42, tuples=20000, t_grid=33, tol=1e-9)
    bulged = check_consistent(sigma_delta_bicombing(DELTA), cfg)
    defect = consistency_defect(sigma_delta_bicombing(DELTA),
                                (-3.0, 0.0), (3.0, 0.0), 1 / 6, 5 / 6, 0.5)
    flat = check_consistent(sigma_delta_bicombing(0.0), cfg)
    ok = ((not bulged.passed) and bulged.worst_violation >= 1e-3
          and defect >= 1e-3 and flat.passed)
    _criterion(4, ok, f"worst={bulged.worst_violation:.3e}, witness defect="
                      f"{defect:.3e}, zero-bulge passed={flat.passed}")


def test_criterion_5_midpoint_convergence_and_reversibilization():
    sx = sigma_X1_bicombing()
    rng = np.random.default_rng(42)
    P = sx.sample(rng, 1000)
    Q = sx.sample(rng, 1000)
    _, gaps = midpoint_iteration(sx, P, Q, MidpointConfig(tol=1e-10))
    n = np.arange(gaps.shape[1])
    bound = 0.5 ** n[None, :] * gaps[:, :1] * (1.0 + 1e-9)
    valid = ~np.isnan(gaps)
    contraction_ok = bool(np.all(gaps[valid] <= bound[valid]))

    fixed = reversibilize(sigma_tilde_bicombing(DELTA), MidpointConfig(tol=1e-10))
    rep = check_reversible(fixed, SampleConfig(seed=42, tuples=2000, t_grid=33,
                                               tol=2e-10))
    _criterion(5, contraction_ok and rep.passed,
               f"contraction={contraction_ok}, reversibilized worst="
               f"{rep.worst_violation:.2e}")


def test_criterion_6_rigidity_of_in_between_sets():
    ok = True
    detail = []
    for t in (0.25, 0.5, 0.75):
        clusters = mt_set("linf", (1.0, 1.0), (-1.0, -1.0), t,
                          resolution=2001, tol=1e-6)
        target = (1.0 - 2.0 * t) * np.array([1.0, 1.0])
        err = float(np.max(np.abs(clusters[0].representative - target))) \
            if clusters else math.inf
        ok &= len(clusters) == 1 and err <= 1e-6
        detail.append(f"t={t}: {len(clusters)} cluster(s), err={err:.1e}")

    seg = mt_set("linf", (1.0, 0.0), (-1.0, 0.0), 0.5, resolution=2001, tol=1e-6)
    seg_ok = (len(seg) == 1
              and float(np.max(np.abs(seg[0].points[:, 0]))) <= 1e-6
              and float(seg[0].points[:, 1].min()) <= -1.0 + 1e-6
              and float(seg[0].points[:, 1].max()) >= 1.0 - 1e-6)
    detail.append(f"segment spans y: {seg_ok}")
    _criterion(6, ok and seg_ok, "; ".join(detail))


def test_criterion_7_function_space():
    f = fs.sqrt_approx(256)
    g = fs.identity_fn()
    mid_h = fs.horizontal_bicombing(f, g, 0.5)
    xs = np.linspace(0.0, 1.0, 2001)
    closed_err = float(np.max(np.abs(
        fs.eval_fn(mid_h, xs) - fs.sqrt_identity_interpolant(xs, 0.5))))

    mid_v = fs.vertical_bicombing(f, g, 0.5)
    separation = fs.l1_distance(mid_v, mid_h)

    rng = np.random.default_rng(42)
    iso_err = 0.0
    for _ in range(1000):
        a = fs.random_monotone_fn(rng)
        b = fs.random_monotone_fn(rng)
        iso_err = max(iso_err, abs(
            fs.l1_distance(fs.invert(a), fs.invert(b)) - fs.l1_distance(a, b)))

    ok = closed_err <= 5e-4 and separation > 1e-2 and iso_err <= 1e-12
    _criterion(7, ok, f"closed-form err={closed_err:.2e}, vertical/horizontal "
                      f"L1={separation:.3f}, isometry err={iso_err:.2e}")


def test_criterion_8_threshold_polynomials():
    rows = delta_thresholds(DELTA)
    all_positive = all(positive for _, _, positive in rows)
    d = DELTA
    direct = [
        (4.0 - 144.0 * d - 640.0 * d * d) / (1.0 - 4.0 * d),
        3.0 - 96.0 * d - 576.0 * d * d,
        31.0 / 8.0 - 96.0 * d - 576.0 * d * d,
        255.0 / 64.0 - 96.0 * d - 576.0 * d * d,
        4.0 - 33.0 * d,
    ]
    match = max(abs(value - ref) for (_, value, _), ref in zip(rows, direct))
    ramp_negative = not delta_thresholds(0.03)[1][2]
    _criterion(8, all_positive and ramp_negative and match <= 1e-15,
               f"all positive at 1/64={all_positive}, ramp bound negative at "
               f"0.03={ramp_negative}, match={match:.1e}")
