"""The property driver: one function per property serves the scan and the
witness refinement.

A property ``make(b, points)`` is a function of its parameters. The scans
call it with scalar parameters on the whole sample, refinement and shrinking
with ``(m,)`` columns on a witness repeated to ``m`` rows; both must give the
same bits. Its t-independent work, the prepared paths, happens once per
check however fine the parameter grid, and a scan evaluates each path at
most once per parameter value.
"""

import numpy as np
import pytest

from bicombing_lab import verify
from bicombing_lab.bicombings import (Bicombing, linear_bicombing, sigma_delta_bicombing,
                                      sigma_X1_bicombing)
from bicombing_lab.verify import SampleConfig

# every property: (make, points per tuple, parameter values to try); the
# second convex stencil leaves [0, 1], so it scores -inf on every row
PROPERTIES = {
    "geodesic": (verify._geodesic, 2, [(0.25, 0.75), (0.875, 0.125)]),
    "conical": (verify._conical, 4, [(0.0,), (0.375,), (1.0,)]),
    "convex": (verify._convex, 4, [(0.5, 1 / 64), (0.0625, 0.125)]),
    "consistent": (verify._consistent, 2, [(0.2, 0.7, 0.4), (0.7, 0.2, 1.0)]),
    "reversible": (verify._reversible, 2, [(0.0,), (0.375,)]),
    "midpoint_property": (verify._midpoint, 2, [()]),
    "linear": (verify._linear, 2, [(0.375,), (1.0,)]),
}


def _bicombings():
    built = verify.builtin_bicombings()
    built["linear_hybrid"] = linear_bicombing("hybrid")
    return built


BUILT = _bicombings()


# local linearity compares with the planar affine path, so no function space
@pytest.mark.parametrize("row, prop", [(row, prop) for prop in PROPERTIES for row in BUILT
                                       if not (prop == "linear" and row.startswith("funcspace"))])
def test_scalar_parameters_equal_broadcast_columns(row, prop):
    b = BUILT[row]
    make, npts, values = PROPERTIES[prop]
    rng = np.random.default_rng(5)
    n = 9 if row.startswith("funcspace") else 40
    points = [b.sample(rng, n) for _ in range(npts)]
    f = make(b, points)
    for params in values:
        scalar = np.atleast_1d(f(*params))
        columns = f(*(np.full(n, v) for v in params))
        assert scalar.shape == columns.shape == (n,)
        assert np.array_equal(scalar, columns)
        # a second scalar call is served by the scan's memo, unchanged
        assert np.array_equal(np.atleast_1d(f(*params)), scalar)


def _path_calls(monkeypatch, check, t_grid):
    """How many paths a passing check prepares; also that it evaluates each
    of them at most once per scalar parameter."""
    real = Bicombing.path
    seen = []

    def counted(self, p, q):
        at = real(self, p, q)
        params = []
        seen.append(params)

        def evaluated(t):
            if np.ndim(t) == 0:
                params.append(float(t))
            return at(t)

        return evaluated

    monkeypatch.setattr(Bicombing, "path", counted)
    rep = check(SampleConfig(seed=42, tuples=50, t_grid=t_grid, tol=1e-9))
    monkeypatch.setattr(Bicombing, "path", real)
    assert rep.passed
    assert all(len(params) == len(set(params)) for params in seen)
    return len(seen)


SD = sigma_delta_bicombing(1 / 64)
SIGMA_ZERO = sigma_delta_bicombing(0.0)

# passing checks, so no refinement runs, and the prepared paths each makes
PATHS = {
    "geodesic": (lambda cfg: verify.check_geodesic(SD, cfg), 1),
    "conical": (lambda cfg: verify.check_conical(SD, cfg), 2),
    "convex": (lambda cfg: verify.check_convex(SD, cfg), 2),
    "consistent": (lambda cfg: verify.check_consistent(SIGMA_ZERO, cfg), 1),
    "reversible": (lambda cfg: verify.check_reversible(SD, cfg), 2),
    "midpoint_property": (lambda cfg: verify.check_midpoint_property(SD, cfg), 0),
    "linear": (lambda cfg: verify.check_local_linearity(sigma_X1_bicombing(), (0.0, 0.0),
                                                        0.15, cfg), 1),
}


@pytest.mark.parametrize("prop", list(PATHS))
def test_each_check_prepares_its_paths_once(monkeypatch, prop):
    check, want = PATHS[prop]
    assert _path_calls(monkeypatch, check, 9) == want
    assert _path_calls(monkeypatch, check, 33) == want
