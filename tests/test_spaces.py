import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicombing_lab import spaces
from bicombing_lab.spaces import Region, contains, dist, norm, sample_region_rng
from bicombing_lab.verify import mt_set


def test_norm_examples():
    # hybrid equals |x| whenever |y| <= |x|
    assert norm("hybrid", (1.0, 0.5)) == 1.0
    for space in spaces.SPACES:
        assert norm(space, (0.0, 0.0)) == 0.0
    assert norm("hybrid", (0.0, 2.0)) == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_dist_examples():
    assert dist("hybrid", (-3.0, 0.0), (3.0, 0.0)) == 6.0
    assert dist("linf", (-2.0, 1.0), (0.0, 0.0)) == 2.0
    # hybrid distance of a vertical gap 2*delta is sqrt(2)*delta
    delta = 1.0 / 64.0
    assert dist("hybrid", (0.0, 2 * delta), (0.0, 0.0)) == pytest.approx(
        math.sqrt(2.0) * delta, rel=1e-15)


def test_unknown_space_rejected():
    with pytest.raises(ValueError):
        norm("l7", (1.0, 2.0))


def test_triangle_inequality_and_homogeneity_sampled():
    rng = np.random.default_rng(0)
    V = rng.uniform(-5, 5, (2000, 2))
    W = rng.uniform(-5, 5, (2000, 2))
    c = rng.uniform(-3, 3, 2000)
    for space in spaces.SPACES:
        lhs = norm(space, V + W)
        assert np.all(lhs <= norm(space, V) + norm(space, W) + 1e-12)
        scaled = norm(space, c[:, None] * V)
        assert np.max(np.abs(scaled - np.abs(c) * norm(space, V))) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(-100, 100), st.floats(-100, 100),
       st.floats(-100, 100), st.floats(-100, 100))
def test_triangle_inequality_hypothesis(vx, vy, wx, wy):
    for space in spaces.SPACES:
        assert norm(space, (vx + wx, vy + wy)) <= \
            norm(space, (vx, vy)) + norm(space, (wx, wy)) + 1e-9


def test_hybrid_norm_kink_is_exact_on_dyadic_grid():
    # |.| = |x| exactly when |y| <= |x|, checked on a dyadic lattice of 10^4+
    g = np.arange(-64, 65) / 32.0
    X, Y = np.meshgrid(g, g)
    pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
    n = norm("hybrid", pts)
    equal = n == np.abs(pts[:, 0])
    flat = np.abs(pts[:, 1]) <= np.abs(pts[:, 0])
    assert np.array_equal(equal, flat)


@pytest.mark.parametrize("v", [(0.0, 1e200), (1e200, 1e200), (-3e200, 5e200),
                               (0.0, 1e-170), (1e-170, -1e-170), (2e-170, 7e-170),
                               (0.0, 5e-324)])
def test_hybrid_norm_survives_overflow_and_underflow(v):
    # x*x + y*y overflows to inf or underflows below the smallest normal
    # float: the rows are rescaled, so the norm keeps the Euclidean norm's
    # ratio 1/sqrt(2) (|y| >= |x| here) instead of reading inf or 0
    got = float(norm("hybrid", v))
    want = float(norm("euclid", v)) / math.sqrt(2.0)
    assert 0.0 < got < math.inf
    assert got == pytest.approx(want, rel=1e-15 if abs(v[1]) > 1e-300 else 0.5)
    assert norm("hybrid", np.array([v, (1.0, 2.0), (0.0, 0.0)]))[0] == got


def test_hybrid_norm_rescaling_leaves_other_rows_alone():
    V = np.array([[1e200, 0.0], [0.0, 1e-170], [1.0, 2.0], [0.0, 0.0],
                  [3e-160, 1e-300], [math.inf, 1.0], [math.nan, 1.0]])
    got = norm("hybrid", V)
    assert got[0] == 1e200 and got[4] == 3e-160
    assert got[2] == max(1.0, math.sqrt(5.0 / 2.0)) and got[3] == 0.0
    assert got[5] == math.inf and math.isnan(got[6])


def test_mt_set_far_out_has_no_nan_conversion():
    # the norm read inf here, which became "cannot convert float NaN to
    # integer"; the absolute tol may still reject the answer this far out
    try:
        (cluster,) = mt_set("hybrid", (0.0, 0.0), (1e200, 0.0), 0.5)
    except RuntimeError as exc:
        assert "exceeds tol" in str(exc)
    else:
        assert np.isfinite(cluster.points).all()
    assert float(dist("hybrid", (0.0, 0.0), (1e200, 0.0))) == 1e200


def test_contains_examples():
    assert contains(Region("X"), (0.0, 1.0 / 32.0), 0.0)
    assert not contains(Region("X"), (2.0, 0.01), 0.0)
    assert contains(Region("X1"), (-0.5, -0.25), 0.0)


def test_contains_tolerance_relaxes_boundaries():
    p = (3.0 + 1e-10, 0.0)
    assert not contains(Region("X"), p, 0.0)
    assert contains(Region("X"), p, 1e-9)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
def test_contains_rejects_a_non_finite_or_negative_tol(tol):
    # a NaN tol would read (0, 0.01) as outside X, an infinite one (50, 50) as inside
    for p in ((0.0, 0.01), (50.0, 50.0)):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            contains(Region("X"), p, tol)


def test_contains_X_implies_bounds():
    pts = sample_region_rng(Region("X"), np.random.default_rng(3), 2000)
    assert np.all(contains(Region("X"), pts, 0.0))
    assert np.all(pts[:, 0] >= -3.0) and np.all(pts[:, 0] <= 3.0)
    assert np.all(pts[:, 1] >= 0.0)


def test_region_validation():
    with pytest.raises(ValueError):
        Region("nowhere")
    with pytest.raises(ValueError):
        Region("ball", center=(0, 0), radius=-1.0, norm="euclid")
    with pytest.raises(ValueError):
        Region("ball", center=(0, 0))  # missing norm/radius


def test_ball_membership():
    ball = Region.ball((1.0, 0.0), 2.0, "linf")
    assert contains(ball, (2.9, 1.9), 0.0)
    assert not contains(ball, (3.1, 0.0), 0.0)
    # hybrid balls extend sqrt(2) farther vertically than horizontally
    hull = Region.ball((0.0, 0.0), 1.0, "hybrid")
    assert contains(hull, (0.0, 1.4), 0.0)
    assert not contains(hull, (1.05, 0.0), 0.0)


def test_sample_region_postcondition_and_reproducibility():
    for tag in ("X", "Xzero", "X1", "X2"):
        region = Region(tag)
        pts = sample_region_rng(region, np.random.default_rng(11), 500)
        assert pts.shape == (500, 2)
        assert np.all(contains(region, pts, 0.0)), tag
        again = sample_region_rng(region, np.random.default_rng(11), 500)
        assert np.array_equal(pts, again)


def test_sample_segments():
    pts = sample_region_rng(Region("Xminus"), np.random.default_rng(1), 10)
    assert np.all(pts[:, 1] == 0.0)
    assert np.all((pts[:, 0] >= -3.0) & (pts[:, 0] <= -1.0))
    pts = sample_region_rng(Region("Xplus"), np.random.default_rng(1), 10)
    assert np.all(pts[:, 1] == 0.0)
    assert np.all((pts[:, 0] >= 1.0) & (pts[:, 0] <= 3.0))


def test_sample_X_covers_all_three_pieces():
    pts = sample_region_rng(Region("X"), np.random.default_rng(5), 600)
    left = pts[:, 0] <= -1.0
    right = pts[:, 0] >= 1.0
    middle = ~left & ~right
    assert left.sum() > 100 and right.sum() > 100 and middle.sum() > 100
    assert np.all(pts[left | right, 1] == 0.0)


def test_sample_X1_hits_the_antenna():
    pts = sample_region_rng(Region("X1"), np.random.default_rng(5), 400)
    on_antenna = pts[:, 0] < -1.0
    assert on_antenna.sum() > 100
    # antenna points satisfy y = |x| - 1 exactly
    a = pts[on_antenna]
    assert np.array_equal(a[:, 1], np.abs(a[:, 0]) - 1.0)


def test_sample_degenerate_ball():
    ball = Region.ball((0.0, 0.0), 0.0, "linf")
    pts = sample_region_rng(ball, np.random.default_rng(9), 7)
    assert np.array_equal(pts, np.zeros((7, 2)))


def test_sample_count_validation():
    with pytest.raises(ValueError):
        sample_region_rng(Region("X"), np.random.default_rng(0), 0)


def _face_directions():
    rng = np.random.default_rng(3)
    angles = rng.uniform(0.0, 2.0 * math.pi, 200)
    special = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (1.0, 1.0),
               (-1.0, 1.0), (-1.0, -1.0), (3.0, -3.0), (2.0, 1.0), (-0.5, 2.0)]
    return np.concatenate([np.stack([np.cos(angles), np.sin(angles)], axis=-1),
                           3.0 * np.array(special)])


def _is_extreme(space, u, eps=1e-3):
    # u is extreme in the unit ball when no direction w keeps both u + eps w
    # and u - eps w inside it
    angles = np.linspace(0.0, math.pi, 180, endpoint=False)
    W = eps * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    return bool(np.all(np.maximum(norm(space, u + W), norm(space, u - W)) > 1.0))


@pytest.mark.parametrize("space", spaces.SPACES)
def test_face_ends_contain_the_direction_and_are_the_minimal_face(space):
    for v in _face_directions():
        lo, hi = spaces.face(space, v)
        u = v / norm(space, v)
        assert norm(space, lo) == pytest.approx(1.0, abs=1e-15)
        assert norm(space, hi) == pytest.approx(1.0, abs=1e-15)
        # u lies on the segment [lo, hi]
        ab = hi - lo
        s = 0.0 if not ab.any() else float(np.clip((u - lo) @ ab / (ab @ ab), 0.0, 1.0))
        assert np.max(np.abs(lo + s * ab - u)) <= 1e-15
        point = np.array_equal(lo, hi)
        assert point == _is_extreme(space, u), (space, v)
        if not point:
            # a flat face: on the sphere throughout, and it ends where the
            # sphere stops being flat
            assert np.all(lo <= hi)
            assert norm(space, 0.5 * (lo + hi)) == 1.0
            assert norm(space, hi + 1e-3 * ab) > 1.0 and norm(space, lo - 1e-3 * ab) > 1.0


def test_face_examples_and_rejections():
    lo, hi = spaces.face("linf", (2.0, -0.5))
    assert np.array_equal(lo, [1.0, -1.0]) and np.array_equal(hi, [1.0, 1.0])
    lo, hi = spaces.face("linf", (0.5, -2.0))
    assert np.array_equal(lo, [-1.0, -1.0]) and np.array_equal(hi, [1.0, -1.0])
    lo, hi = spaces.face("linf", (-2.0, 2.0))
    assert np.array_equal(lo, [-1.0, 1.0]) and np.array_equal(hi, lo)
    lo, hi = spaces.face("hybrid", (-2.0, 1.0))
    assert np.array_equal(lo, [-1.0, -1.0]) and np.array_equal(hi, [-1.0, 1.0])
    lo, hi = spaces.face("hybrid", (0.0, 2.0))
    assert np.array_equal(lo, hi) and lo == pytest.approx([0.0, math.sqrt(2.0)], rel=1e-15)
    for bad in [(0.0, 0.0), (math.nan, 1.0), (math.inf, 0.0), (1.0, 0.0, 0.0),
                ((1.0, 0.0), (0.0, 1.0))]:
        with pytest.raises(ValueError):
            spaces.face("linf", bad)
    with pytest.raises(ValueError):
        spaces.face("l7", (1.0, 0.0))
