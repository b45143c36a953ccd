import json
import math

import numpy as np
import pytest

from bicombing_lab.bicombings import (Bicombing, linear_bicombing,
                                      sigma_delta_bicombing, sigma_tilde_bicombing,
                                      sigma_X1, sigma_X1_bicombing, tau_X1,
                                      tau_X1_bicombing)
from bicombing_lab.funcspace import vertical_fn_bicombing
from bicombing_lab import spaces
from bicombing_lab.spaces import Region, dist, norm
from bicombing_lab.verify import (CHECKERS, SampleConfig, check_conical,
                                  check_consistent, check_convex, check_geodesic,
                                  check_local_linearity, check_midpoint_property,
                                  check_reversible, consistency_defect,
                                  convexity_pair_gap_squared, convexity_pair_model,
                                  delta_thresholds, mt_set)

DELTA = 1.0 / 64.0
CFG = SampleConfig(seed=42, tuples=1500, t_grid=33, tol=1e-9)


def test_sample_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(tuples=0)
    with pytest.raises(ValueError):
        SampleConfig(t_grid=2)
    with pytest.raises(ValueError):
        SampleConfig(tol=0.0)


@pytest.mark.parametrize("field, value", [("tol", math.inf), ("tol", math.nan),
                                          ("tuples", True), ("tuples", 2.5),
                                          ("t_grid", 3.5), ("t_grid", True),
                                          ("seed", True), ("seed", 2.5), ("seed", -1)])
def test_sample_config_rejects_non_finite_tol_and_non_integer_counts(field, value):
    with pytest.raises(ValueError):
        SampleConfig(**{field: value})
    assert SampleConfig(tuples=np.int64(5), t_grid=np.int32(3)).tuples == 5


def test_linear_passes_exactly():
    lb = linear_bicombing("linf")
    rep = check_geodesic(lb, CFG)
    assert rep.passed and rep.worst_violation <= 1e-12
    # the conical inequality is tight for parallel tuples, so rounding can
    # leave a few ulps of positive part
    rep = check_conical(lb, CFG)
    assert rep.passed and rep.worst_violation <= 1e-13


def _nan_every_7th_row():
    base = linear_bicombing()

    def broken(p, q, t):
        out = np.array(base.eval(p, q, t), dtype=float)
        out[::7] = np.nan
        return out

    return Bicombing("linear_nan7", base.space, base.domain, broken)


def test_non_finite_violations_fail_with_a_witness():
    # a NaN violation compares false against everything: unless the scan
    # ranks it explicitly, the check passes on whatever value it started from
    b = _nan_every_7th_row()
    cfg = SampleConfig(seed=42, tuples=500, t_grid=9, tol=1e-9)
    P = b.sample(np.random.default_rng(cfg.seed), cfg.tuples)
    for prop, checker in CHECKERS.items():
        rep = checker(b, cfg)
        assert not rep.passed, prop
        assert not math.isfinite(rep.worst_violation), prop
        assert rep.witness is not None and not math.isfinite(rep.witness["violation"]), prop
        row = np.flatnonzero((P == rep.witness["p"]).all(axis=1))
        assert len(row) == 1 and row[0] % 7 == 0, prop


def test_corrupted_bicombing_fails_geodesic_with_witness():
    base = sigma_delta_bicombing(DELTA)

    def doubled(p, q, t):
        out = np.array(np.atleast_2d(base.eval(p, q, t)), copy=True)
        out[:, 1] *= 2.0
        return out

    bad = Bicombing("sigma_delta_y_doubled", "hybrid", Region("X"), doubled)
    rep = check_geodesic(bad, CFG)
    assert not rep.passed
    assert rep.witness is not None
    assert rep.worst_violation > 1e-4


def test_sigma_delta_property_profile():
    b = sigma_delta_bicombing(DELTA)
    assert check_geodesic(b, CFG).passed
    assert check_conical(b, CFG).passed
    assert check_convex(b, CFG).passed
    rep = check_reversible(b, CFG)
    assert rep.passed and rep.worst_violation == 0.0
    assert check_midpoint_property(b, CFG).passed
    rep = check_consistent(b, CFG)
    assert not rep.passed and rep.worst_violation >= 1e-3


def test_sigma_zero_is_consistent():
    b = sigma_delta_bicombing(0.0)
    rep = check_consistent(b, CFG)
    assert rep.passed


def test_consistency_defect_at_derived_witness():
    b = sigma_delta_bicombing(DELTA)
    # the long antenna-to-antenna geodesic restricted to [1/6, 5/6] runs on
    # the bulge, while the selection between its endpoints runs on the axis
    defect = consistency_defect(b, (-3.0, 0.0), (3.0, 0.0), 1 / 6, 5 / 6, 0.5)
    assert defect == pytest.approx(math.sqrt(2.0) * DELTA, rel=1e-12)
    assert consistency_defect(sigma_delta_bicombing(0.0),
                              (-3.0, 0.0), (3.0, 0.0), 1 / 6, 5 / 6, 0.5) <= 1e-12


def test_sigma_tilde_profile():
    b = sigma_tilde_bicombing(DELTA)
    assert check_geodesic(b, CFG).passed
    assert check_convex(b, CFG).passed
    assert not check_reversible(b, CFG).passed
    assert not check_consistent(b, CFG).passed


def test_folded_strip_profiles():
    sx = sigma_X1_bicombing()
    assert check_conical(sx, CFG).passed
    rep = check_reversible(sx, CFG)
    assert not rep.passed and rep.worst_violation > 1e-3
    assert not check_midpoint_property(sx, CFG).passed

    tx = tau_X1_bicombing()
    assert check_conical(tx, CFG).passed
    rep = check_midpoint_property(tx, CFG)
    assert rep.passed and rep.worst_violation == 0.0
    assert not check_reversible(tx, CFG).passed


def test_direct_reversibility_witnesses():
    gap = dist("linf", sigma_X1((-2, 1), (0, 0), 0.75), sigma_X1((0, 0), (-2, 1), 0.25))
    assert gap == 0.5
    gap = dist("linf", tau_X1((-1.5, 0.5), (0, 0.5), 5 / 12),
               tau_X1((0, 0.5), (-1.5, 0.5), 7 / 12))
    assert gap == pytest.approx(5.0 / 48.0, abs=1e-12)


def test_funcspace_vertical_consistent():
    rep = check_consistent(vertical_fn_bicombing(),
                           SampleConfig(seed=42, tuples=400, t_grid=9, tol=1e-9))
    assert rep.passed


def test_implication_chain_on_reports():
    # consistent implies convex implies conical: no tested selection may pass
    # a stronger check and fail a weaker one at the same seed and tolerance
    cfg = SampleConfig(seed=42, tuples=800, t_grid=17, tol=1e-9)
    for b in (sigma_delta_bicombing(DELTA), sigma_delta_bicombing(0.0),
              sigma_tilde_bicombing(DELTA), sigma_X1_bicombing(), tau_X1_bicombing()):
        consistent = check_consistent(b, cfg).passed
        convex = check_convex(b, cfg).passed
        conical = check_conical(b, cfg).passed
        assert not (consistent and not convex), b.name
        assert not (convex and not conical), b.name


def test_reports_are_deterministic():
    b = sigma_tilde_bicombing(DELTA)
    r1 = check_reversible(b, CFG)
    r2 = check_reversible(b, CFG)
    assert r1.to_dict() == r2.to_dict()


def test_report_schema():
    b = sigma_delta_bicombing(DELTA)
    rep = check_consistent(b, SampleConfig(seed=1, tuples=500))
    data = json.loads(rep.to_json())
    assert set(data) == {"property", "bicombing", "passed", "worst_violation",
                         "witness", "samples_evaluated", "seed", "tol"}
    assert data["passed"] is False and data["witness"] is not None
    assert {"p", "q", "s1", "s2", "u", "violation"} <= set(data["witness"])
    ok = check_geodesic(b, SampleConfig(seed=1, tuples=200))
    assert ok.passed and ok.witness is None


def test_mt_set_euclid_always_singleton():
    rng = np.random.default_rng(12)
    for _ in range(20):
        p = rng.uniform(-1, 1, 2)
        q = rng.uniform(-1, 1, 2)
        if float(np.hypot(*(p - q))) < 0.4:
            continue
        t = float(rng.uniform(0.15, 0.85))
        clusters = mt_set("euclid", p, q, t, resolution=401, tol=1e-6)
        assert len(clusters) == 1
        target = (1 - t) * p + t * q
        assert float(np.max(np.abs(clusters[0].representative - target))) <= 1e-3


def test_mt_set_linf_corner_direction_pins_the_point():
    clusters = mt_set("linf", (1, 1), (-1, -1), 0.25, resolution=801, tol=1e-6)
    assert len(clusters) == 1
    assert np.max(np.abs(clusters[0].representative - np.array([0.5, 0.5]))) <= 1e-6


def test_mt_set_linf_flat_direction_spreads_out():
    clusters = mt_set("linf", (1, 0), (-1, 0), 0.5, resolution=801, tol=1e-6)
    assert len(clusters) == 1
    pts = clusters[0].points
    assert float(np.max(np.abs(pts[:, 0]))) <= 1e-6
    assert pts[:, 1].min() <= -1 + 1e-6 and pts[:, 1].max() >= 1 - 1e-6


def test_mt_set_degenerate_pair():
    clusters = mt_set("linf", (0.25, 0.5), (0.25, 0.5), 0.7)
    assert len(clusters) == 1
    assert np.array_equal(clusters[0].representative, [0.25, 0.5])


@pytest.mark.parametrize("p, q, t", [
    ((math.nan, 0.0), (1.0, 0.0), 0.5),
    ((0.0, 0.0), (math.inf, 0.0), 0.5),
    ((0.0, 0.0), (1.0, 0.0), math.nan),
    ((0.0, 0.0), (1.0, 0.0), 1.5),
    ((0.0, 0.0), (1.0, 0.0), -0.25),
    ((0.0, 0.0, 0.0), (1.0, 0.0), 0.5),
    ((0.0, 0.0), ((1.0, 0.0), (2.0, 0.0)), 0.5),
], ids=["p_nan", "q_inf", "t_nan", "t_above_1", "t_below_0", "p_shape_3",
        "q_batch"])
def test_mt_set_rejects_bad_input(p, q, t):
    # each of these used to come back as [], a false "no in-between set"
    with pytest.raises(ValueError):
        mt_set("linf", p, q, t)


def _segment_distance(Z, a, b):
    ab = b - a
    length2 = float(ab @ ab)
    s = np.zeros(len(Z)) if length2 == 0.0 else np.clip((Z - a) @ ab / length2, 0.0, 1.0)
    return np.hypot(*(Z - (a + s[:, None] * ab)).T)


def _brute_force_scan(space, p, q, t, resolution):
    """Residual of every point of a grid over the bounding box of the two
    balls, and the grid spacing."""
    d = float(dist(space, p, q))
    r1, r2 = t * d, (1.0 - t) * d
    ext = np.array([1.0 / float(norm(space, (1.0, 0.0))), 1.0 / float(norm(space, (0.0, 1.0)))])
    lo = np.minimum(p - r1 * ext, q - r2 * ext)
    hi = np.maximum(p + r1 * ext, q + r2 * ext)
    X, Y = np.meshgrid(np.linspace(lo[0], hi[0], resolution),
                       np.linspace(lo[1], hi[1], resolution))
    Z = np.stack([X.ravel(), Y.ravel()], axis=-1)
    resid = np.maximum(np.abs(dist(space, Z, p) - r1), np.abs(dist(space, Z, q) - r2))
    return Z, resid, float(np.max(hi - lo)) / (resolution - 1)


@pytest.mark.parametrize("space", ["euclid", "linf", "hybrid"])
def test_mt_set_agrees_with_a_brute_force_grid_scan(space):
    """The residual is 1-Lipschitz in the Euclidean metric for all three
    norms, so every point of M_t has a grid point within one cell whose
    residual is below one cell: both returned ends must be reached by such
    grid points. Conversely grid points of near-zero residual must lie near
    the returned segment. Where the unit sphere is flat the residual grows
    at least half as fast as the distance from M_t (slowest past the end of
    a hybrid edge, where the ball turns onto its arc), so the band is half a
    cell; where it is curved the residual's sublevel sets spread
    tangentially like sqrt(residual * d), so there the band is cell^2 / d."""
    rng = np.random.default_rng(2024)
    resolution = 161
    segments = 0
    for _ in range(12):
        p = rng.uniform(-1.0, 1.0, 2)
        q = rng.uniform(-1.0, 1.0, 2)
        t = float(rng.uniform(0.1, 0.9))
        (cluster,) = mt_set(space, p, q, t, resolution=resolution, tol=1e-9)
        a, b = cluster.points[0], cluster.points[-1]
        Z, resid, cell = _brute_force_scan(space, p, q, t, resolution)
        dx, dy = np.abs(q - p)
        flat = space == "linf" or (space == "hybrid" and dx > dy)
        band = 0.5 * cell if flat else cell * cell / float(dist(space, p, q))
        near_zero = Z[resid <= band]
        assert not flat or len(near_zero) > 0
        assert np.all(_segment_distance(near_zero, a, b) <= 2.0 * cell)
        reached = Z[resid <= cell]
        for end in (a, b):
            assert float(np.min(np.hypot(*(reached - end).T))) <= 2.0 * cell
        segments += float(np.hypot(*(b - a))) > 2.0 * cell
    # the Euclidean sets are points; the two norms with flat faces give real
    # segments in this sample, so the check above is not only about points
    assert (segments == 0) == (space == "euclid")


def _mt_ends(space, p, q, t):
    (cluster,) = mt_set(space, p, q, t, resolution=401, tol=1e-12)
    pts = cluster.points
    return pts.min(axis=0), pts.max(axis=0), cluster


def test_mt_set_linf_both_edge_orientations():
    # |dx| > |dy|: the edge x = +1, a vertical segment
    lo, hi, _ = _mt_ends("linf", (0.0, 0.0), (2.0, 0.5), 0.5)
    assert np.array_equal(lo, [1.0, -0.5]) and np.array_equal(hi, [1.0, 1.0])
    # |dy| > |dx|: the edge y = -1, a horizontal segment
    lo, hi, _ = _mt_ends("linf", (0.0, 0.0), (0.5, -2.0), 0.25)
    assert np.array_equal(lo, [-0.5, -0.5]) and np.array_equal(hi, [0.5, -0.5])


def test_mt_set_hybrid_edge_corner_and_arc():
    # flat edge x = 1 (|dx| > |dy|): the segment x = 1, 0 <= y <= 1
    lo, hi, _ = _mt_ends("hybrid", (0.0, 0.0), (2.0, 1.0), 0.5)
    assert np.array_equal(lo, [1.0, 0.0]) and np.array_equal(hi, [1.0, 1.0])
    # corner |dx| == |dy| and arc |dy| > |dx|: extreme directions, one point
    for p, q, t, target in [((-1.0, -1.0), (1.0, 1.0), 0.25, (-0.5, -0.5)),
                            ((0.0, 0.0), (0.0, 2.0), 0.5, (0.0, 1.0)),
                            ((0.5, -1.0), (-0.5, 2.0), 0.75, (-0.25, 1.25))]:
        lo, hi, cluster = _mt_ends("hybrid", p, q, t)
        assert float(np.max(hi - lo)) <= 1e-15
        assert np.max(np.abs(cluster.representative - target)) <= 1e-15


def test_mt_set_far_from_the_origin_returns_the_exact_segment():
    # the residual here is float spacing near 1e12 (about 1.2e-4), far above
    # the absolute tol; the postcondition allows a few ulps of the coordinates
    (cluster,) = mt_set("linf", (1e12, 0.0), (1e12 + 3.0, 1.0), 0.3)
    pts = cluster.points
    # the edge x = 1e12 + 0.9, |y| <= 0.9, up to the rounding of the coordinates
    assert (np.abs(pts[:, 0] - (1e12 + 0.9)) <= 2 * np.spacing(1e12)).all()
    assert pts[0, 1] == pytest.approx(-0.9, abs=1e-12)
    assert pts[-1, 1] == pytest.approx(0.9, abs=1e-12)
    assert np.all(np.diff(pts[:, 1]) > 0)
    assert cluster.residual <= 1e-6 + 8 * np.spacing(1e12 + 3.0)


def test_mt_set_wrong_face_fails_loudly(monkeypatch):
    # a face that is too long gives points off the in-between set: the
    # postcondition turns that into an error, never into a false segment
    monkeypatch.setattr(spaces, "face", lambda space, v: (np.array([-1.0, -1.0]),
                                                         np.array([-1.0, 1.0])))
    with pytest.raises(RuntimeError):
        mt_set("euclid", (1.0, 0.0), (-1.0, 0.0), 0.5)


def test_local_linearity():
    cfg = SampleConfig(seed=42, tuples=800, t_grid=17, tol=1e-9)
    rep = check_local_linearity(sigma_delta_bicombing(DELTA), (0.0, 1 / 64), 1e-3, cfg)
    assert rep.passed
    rep = check_local_linearity(linear_bicombing("euclid"), (1.0, 1.0), 0.5, cfg)
    assert rep.passed and rep.worst_violation == 0.0
    rep = check_local_linearity(sigma_X1_bicombing(), (0.0, 0.0), 0.15, cfg)
    assert rep.passed


def test_local_linearity_precondition_is_checked():
    cfg = SampleConfig(seed=42, tuples=100)
    with pytest.raises(ValueError):
        check_local_linearity(sigma_delta_bicombing(DELTA), (0.0, 1 / 64), 0.2, cfg)


def test_delta_thresholds():
    rows = delta_thresholds(DELTA)
    assert [label for label, _, _ in rows] == [
        "antenna_pair", "antenna_vs_ramp", "antenna_vs_interior_flat",
        "antenna_vs_interior_steep", "reversed_antenna_pair"]
    assert all(positive for _, _, positive in rows)
    values = [value for _, value, _ in delta_thresholds(0.0)]
    assert values == [4.0, 3.0, 31.0 / 8.0, 255.0 / 64.0, 4.0]
    rows = delta_thresholds(0.03)
    assert rows[1][1] == pytest.approx(-0.3984, abs=1e-10)
    assert not rows[1][2]
    with pytest.raises(ValueError):
        delta_thresholds(0.25)


def test_convexity_pair_identity():
    for tau in (0.01, 0.05, 0.1):
        lo, hi = convexity_pair_gap_squared(DELTA, tau)
        model = convexity_pair_model(DELTA, tau)
        assert abs(lo - model) <= 1e-12 and abs(hi - model) <= 1e-12
        assert min(lo, hi) >= 4 * DELTA ** 2
