import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicombing_lab import funcspace as fs
from bicombing_lab.verify import (SampleConfig, check_conical, check_consistent,
                                  check_geodesic)


def _quad_l1(f, g, n=200001):
    # independent trapezoid-rule oracle for the L1 distance
    xs = np.linspace(0.0, 1.0, n)
    h = np.abs(fs.eval_fn(f, xs) - fs.eval_fn(g, xs))
    return float(np.sum((h[:-1] + h[1:]) * 0.5 * np.diff(xs)))


# Per-function oracles: the arithmetic of each batch kernel written out for
# one function at a time with numpy's own union1d and interp. The kernels must
# reproduce them bit for bit.

def _ref_l1(f, g):
    xs = np.union1d(f.xs, g.xs)
    h = np.interp(xs, f.xs, f.vs) - np.interp(xs, g.xs, g.vs)
    w = np.diff(xs)
    ha, hb = h[:-1], h[1:]
    mean_abs = 0.5 * np.abs(ha + hb)
    cross = (ha * hb) < 0.0
    if cross.any():
        num = ha[cross] * ha[cross] + hb[cross] * hb[cross]
        mean_abs[cross] = num / (2.0 * np.abs(ha[cross] - hb[cross]))
    return float(np.dot(mean_abs, w))


def _ref_combine(f, g, t):
    xs = np.union1d(f.xs, g.xs)
    vs = (1.0 - t) * np.interp(xs, f.xs, f.vs) + t * np.interp(xs, g.xs, g.vs)
    # the exact endpoint values can round off by one ulp; pin them
    vs[0] = 0.0
    vs[-1] = 1.0
    return fs.MonotoneFn(xs, vs)


def _ref_vertical(f, g, t):
    if t == 0.0:
        return f
    if t == 1.0:
        return g
    return _ref_combine(f, g, t)


def _ref_horizontal(f, g, t):
    if t == 0.0:
        return f
    if t == 1.0:
        return g
    return fs.invert(_ref_combine(fs.invert(f), fs.invert(g), t))


def _ref_random_fn(rng):
    while True:
        k = int(rng.integers(0, 7))
        xs = np.concatenate([[0.0], np.sort(rng.random(k)), [1.0]])
        vs = np.concatenate([[0.0], np.sort(rng.random(k)), [1.0]])
        if (np.diff(xs) > 1e-9).all() and (np.diff(vs) > 1e-9).all():
            return fs.MonotoneFn(xs, vs)


@st.composite
def monotone_fns(draw):
    k = draw(st.integers(0, 5))
    xs = draw(st.lists(st.floats(0.01, 0.99), min_size=k, max_size=k))
    vs = draw(st.lists(st.floats(0.01, 0.99), min_size=k, max_size=k))
    xs = sorted(set(round(v, 6) for v in xs))
    vs = sorted(set(round(v, 6) for v in vs))
    k = min(len(xs), len(vs))
    return fs.MonotoneFn(np.array([0.0] + xs[:k] + [1.0]),
                         np.array([0.0] + vs[:k] + [1.0]))


def test_validation():
    with pytest.raises(ValueError):
        fs.MonotoneFn(np.array([0.0, 0.5]), np.array([0.0, 1.0]))  # last x != 1
    with pytest.raises(ValueError):
        fs.MonotoneFn(np.array([0.0, 0.5, 0.5, 1.0]), np.array([0.0, 0.2, 0.4, 1.0]))


def test_eval_examples():
    ident = fs.identity_fn()
    assert fs.eval_fn(ident, 0.3) == 0.3
    assert fs.eval_fn(ident, 0.0) == 0.0
    f = fs.from_breakpoints([(0, 0), (0.5, 0.25), (1, 1)])
    assert fs.eval_fn(f, 0.5) == 0.25


def test_l1_distance_examples():
    f = fs.sqrt_approx(256)
    assert fs.l1_distance(f, f) == 0.0
    ident = fs.identity_fn()
    # integral of sqrt(x) - x is 1/6; the graded-mesh approximation is close
    val = fs.l1_distance(f, ident)
    assert val == pytest.approx(1.0 / 6.0, abs=1e-4)
    assert val == pytest.approx(_quad_l1(f, ident), abs=1e-8)
    # same for x - x^2 with the inverse of the graded square root
    g = fs.invert(f)  # uniform-mesh approximation of x^2
    val = fs.l1_distance(ident, g)
    assert val == pytest.approx(1.0 / 6.0, abs=1e-4)
    assert val == pytest.approx(_quad_l1(ident, g), abs=1e-8)


def test_l1_distance_crossing_segments():
    f = fs.from_breakpoints([(0, 0), (0.5, 0.8), (1, 1)])
    g = fs.identity_fn()
    assert fs.l1_distance(f, g) == pytest.approx(_quad_l1(f, g), abs=1e-8)


def test_invert_examples():
    ident = fs.identity_fn()
    assert np.array_equal(fs.invert(ident).xs, ident.xs)
    f = fs.from_breakpoints([(0, 0), (0.5, 0.25), (1, 1)])
    fi = fs.invert(f)
    assert np.array_equal(fi.xs, [0.0, 0.25, 1.0])
    assert np.array_equal(fi.vs, [0.0, 0.5, 1.0])


@settings(max_examples=100, deadline=None)
@given(monotone_fns())
def test_invert_is_an_involution(f):
    back = fs.invert(fs.invert(f))
    assert np.array_equal(back.xs, f.xs) and np.array_equal(back.vs, f.vs)


def test_inversion_is_an_isometry():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        f = fs.random_monotone_fn(rng)
        g = fs.random_monotone_fn(rng)
        worst = max(worst, abs(fs.l1_distance(fs.invert(f), fs.invert(g))
                               - fs.l1_distance(f, g)))
    assert worst <= 1e-12


def test_vertical_bicombing_examples():
    f = fs.identity_fn()
    g = fs.from_breakpoints([(0, 0), (0.5, 0.25), (1, 1)])
    assert fs.vertical_bicombing(f, g, 0.0) is f
    assert fs.vertical_bicombing(g, g, 1.0) is g
    mid = fs.vertical_bicombing(f, g, 0.5)
    assert np.array_equal(mid.xs, [0.0, 0.5, 1.0])
    assert np.array_equal(mid.vs, [0.0, 0.375, 1.0])


def test_horizontal_matches_closed_form():
    f = fs.sqrt_approx(256)
    g = fs.identity_fn()
    mid = fs.horizontal_bicombing(f, g, 0.5)
    xs = np.linspace(0.0, 1.0, 2001)
    err = np.abs(fs.eval_fn(mid, xs) - fs.sqrt_identity_interpolant(xs, 0.5))
    assert float(err.max()) <= 5e-4


def test_vertical_and_horizontal_are_distinct():
    f = fs.sqrt_approx(256)
    g = fs.identity_fn()
    v = fs.vertical_bicombing(f, g, 0.5)
    h = fs.horizontal_bicombing(f, g, 0.5)
    assert fs.l1_distance(v, h) > 10 * 5e-4


def test_outputs_stay_strictly_monotone():
    rng = np.random.default_rng(1)
    for _ in range(200):
        f = fs.random_monotone_fn(rng)
        g = fs.random_monotone_fn(rng)
        t = float(rng.random())
        for out in (fs.vertical_bicombing(f, g, t), fs.horizontal_bicombing(f, g, t)):
            assert np.all(np.diff(out.xs) > 0) and np.all(np.diff(out.vs) > 0)


def test_property_checks_for_both_interpolations():
    cfg = SampleConfig(seed=42, tuples=250, t_grid=9, tol=1e-9)
    for b in (fs.vertical_fn_bicombing(), fs.horizontal_fn_bicombing()):
        assert check_geodesic(b, cfg).passed, b.name
        assert check_conical(b, cfg).passed, b.name
        assert check_consistent(b, cfg).passed, b.name


def _coarse_fn(rng):
    # breakpoints on the 1/8 grid, so that pairs share many of them
    grid = np.arange(1, 8) / 8.0
    k = int(rng.integers(0, 7))
    xs = np.sort(rng.choice(grid, k, replace=False))
    vs = np.sort(rng.choice(grid, k, replace=False))
    return fs.MonotoneFn(np.r_[0.0, xs, 1.0], np.r_[0.0, vs, 1.0])


def _same(f, g):
    return np.array_equal(f.xs, g.xs) and np.array_equal(f.vs, g.vs)


@pytest.mark.parametrize("block_rows", [7, None])
def test_batch_kernels_match_the_per_function_reference(block_rows, monkeypatch):
    if block_rows is not None:
        # many blocks of different padded widths, stitched back together
        monkeypatch.setattr(fs, "_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(3)
    fns = ([fs.random_monotone_fn(rng) for _ in range(150)]
           + [_coarse_fn(rng) for _ in range(150)] + [fs.identity_fn(), fs.sqrt_approx(16)])
    gns = ([fs.random_monotone_fn(rng) for _ in range(150)]
           + [_coarse_fn(rng) for _ in range(150)] + [fs.identity_fn(), fs.sqrt_approx(16)])
    gns[::9] = fns[::9]  # identical pairs share every breakpoint
    F, G = fs.pack(fns), fs.pack(gns)
    t = rng.random(len(fns))
    t[::5] = 0.0
    t[1::5] = 1.0
    t[2::5] = 0.5
    assert np.array_equal(fs.l1_distance_batch(F, G),
                          [_ref_l1(f, g) for f, g in zip(fns, gns)])
    for kernel, reference in ((fs.vertical_batch, _ref_vertical),
                              (fs.horizontal_batch, _ref_horizontal)):
        out = kernel(F, G, t)
        refs = [reference(f, g, float(ti)) for f, g, ti in zip(fns, gns, t)]
        assert all(_same(fs.unpack(row), r) for row, r in zip(out, refs)), kernel.__name__
        assert np.array_equal(fs.l1_distance_batch(out, G),
                              [_ref_l1(r, g) for r, g in zip(refs, gns)])
        # a scalar parameter broadcasts over the rows
        half = kernel(F, G, 0.5)
        assert all(_same(fs.unpack(row), reference(f, g, 0.5))
                   for row, f, g in zip(half, fns, gns))


def test_batch_combine_rejects_what_the_reference_rejects():
    # breakpoints one ulp apart: for some t the combined values tie, which
    # the MonotoneFn constructor refuses
    x = 0.5
    y = float(np.nextafter(x, 1.0))
    f = fs.MonotoneFn([0.0, x, 1.0], [0.0, x, 1.0])
    g = fs.MonotoneFn([0.0, y, 1.0], [0.0, y, 1.0])
    F, G = fs.pack([fs.identity_fn(), f]), fs.pack([fs.identity_fn(), g])
    for kernel, reference in ((fs.vertical_batch, _ref_vertical),
                              (fs.horizontal_batch, _ref_horizontal)):
        rejected = 0
        for t in np.linspace(0.01, 0.99, 99):
            try:
                reference(f, g, float(t))
            except ValueError:
                rejected += 1
                with pytest.raises(ValueError):
                    kernel(F, G, float(t))
            else:
                kernel(F, G, float(t))
        assert 0 < rejected < 99, kernel.__name__


def test_batch_combine_rejects_a_nan_parameter():
    # NaN compares false with everything, so only a not-increasing test
    # catches the NaN values it makes; the per-function API raises as well
    F, G = fs.pack([fs.sqrt_approx(4)]), fs.pack([fs.identity_fn()])
    for kernel, per_function in ((fs.vertical_batch, fs.vertical_bicombing),
                                 (fs.horizontal_batch, fs.horizontal_bicombing)):
        with pytest.raises(ValueError):
            kernel(F, G, math.nan)
        with pytest.raises(ValueError):
            kernel(np.concatenate([F, F]), np.concatenate([G, G]), np.array([0.5, math.nan]))
        with pytest.raises(ValueError):
            per_function(fs.sqrt_approx(4), fs.identity_fn(), math.nan)


def test_batch_sampler_replays_the_per_function_stream():
    a = np.random.default_rng(5)
    b = np.random.default_rng(5)
    F = fs.random_monotone_batch(a, 400)
    assert all(_same(fs.unpack(row), _ref_random_fn(b)) for row in F)
    assert a.random() == b.random()
    # rows are padded by repeating the (1, 1) endpoint up to the longest row
    assert F.shape[2] == max(len(fs.unpack(row).xs) for row in F)
    assert np.all(F[:, :, -1] == 1.0)


@settings(max_examples=100, deadline=None)
@given(monotone_fns(), monotone_fns(),
       st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)))
def test_kernel_rows_equal_the_oracle(f, g, t):
    F, G = fs.pack([f]), fs.pack([g])
    assert fs.l1_distance_batch(F, G)[0] == _ref_l1(f, g)
    for kernel, reference in ((fs.vertical_batch, _ref_vertical),
                              (fs.horizontal_batch, _ref_horizontal)):
        try:
            want = reference(f, g, t)
        except ValueError:
            with pytest.raises(ValueError):
                kernel(F, G, t)
        else:
            assert _same(fs.unpack(kernel(F, G, t)[0]), want), kernel.__name__


def test_per_function_api_is_one_kernel_row():
    rng = np.random.default_rng(8)
    fns = [fs.random_monotone_fn(rng) for _ in range(40)] + [fs.sqrt_approx(256)]
    gns = [fs.random_monotone_fn(rng) for _ in range(40)] + [fs.identity_fn()]
    for f, g in zip(fns, gns):
        t = float(rng.random())
        assert fs.l1_distance(f, g) == _ref_l1(f, g)
        assert _same(fs.vertical_bicombing(f, g, t), _ref_vertical(f, g, t))
        assert _same(fs.horizontal_bicombing(f, g, t), _ref_horizontal(f, g, t))
    a = np.random.default_rng(9)
    b = np.random.default_rng(9)
    assert all(_same(fs.random_monotone_fn(a), _ref_random_fn(b)) for _ in range(200))
    assert a.random() == b.random()


def test_pack_round_trip_and_unpack_validates():
    fns = [fs.identity_fn(), fs.sqrt_approx(8)]
    F = fs.pack(fns)
    assert F.shape == (2, 2, 9)
    assert all(_same(fs.unpack(row), f) for row, f in zip(F, fns))
    with pytest.raises(ValueError):
        fs.unpack(np.array([[0.0, 0.5, 1.0], [0.0, 0.7, 0.6]]))


def test_consistent_check_reports_are_pinned():
    # worst_violation here is pure rounding residue, so these values pin the
    # exact float arithmetic of the batch kernels
    cfg = SampleConfig(seed=101, tuples=5000, t_grid=33, tol=1e-9)
    rep_v = check_consistent(fs.vertical_fn_bicombing(), cfg)
    rep_h = check_consistent(fs.horizontal_fn_bicombing(), cfg)
    assert rep_v.worst_violation == 1.575569023759817e-16
    assert rep_h.worst_violation == 1.2761210384355255e-16


def test_failing_function_space_check_reports_breakpoint_witnesses():
    # a tolerance below the rounding residue makes the check fail, which
    # drives witness refinement through one-row packed batches
    cfg = SampleConfig(seed=3, tuples=60, t_grid=5, tol=1e-30)
    rep = check_consistent(fs.horizontal_fn_bicombing(), cfg)
    assert not rep.passed
    assert rep.worst_violation == rep.witness["violation"] == 1.1484488159838638e-16
    witness = json.loads(rep.to_json())["witness"]
    for name in ("p", "q"):
        pairs = witness[name]["breakpoints"]
        assert pairs[0] == [0.0, 0.0] and pairs[-1] == [1.0, 1.0]
        fs.from_breakpoints(pairs)  # a valid function, padding stripped
