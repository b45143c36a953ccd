"""The planar rows of the expected matrix at seed 42 and 2000 tuples, pinned.

Speed-ups of the selections and of the scans must not move a single report:
``worst_violation``, the verdict and the refined and shrunk witness of every
planar entry of ``EXPECTED_MATRIX`` are compared exactly with the values
recorded before the prepared-path kernels replaced the per-call ones.
"""

import pytest

from bicombing_lab.verify import CHECKERS, SampleConfig, builtin_bicombings

CFG = SampleConfig(seed=42, tuples=2000, t_grid=33, tol=1e-9)

PINNED = {
    "sigma_delta.geodesic": (8.881784197001252e-16, True, None),
    "sigma_delta.conical": (1.7763568394002505e-15, True, None),
    "sigma_delta.convex": (2.6645352591003757e-15, True, None),
    "sigma_delta.reversible": (0.0, True, None),
    "sigma_delta.midpoint_property": (0.0, True, None),
    "sigma_delta.consistent": (0.01697931986769631, False, {
        "p": [2.547225246083182, 0.0],
        "q": [-2.9895673578702113, 0.0],
        "s1": 0.1870963135203071,
        "s2": 0.6693765926140859,
        "u": 0.5659739332057888,
        "violation": 0.01697931986769631,
    }),
    "sigma_tilde.geodesic": (8.881784197001252e-16, True, None),
    "sigma_tilde.convex": (3.552713678800501e-15, True, None),
    "sigma_tilde.reversible": (0.020699775878357227, False, {
        "p": [2.9230664850822747, 0.0],
        "q": [-2.9504633571875094, 0.0],
        "t": 0.4976673126220703,
        "violation": 0.020699775878357227,
    }),
    "sigma_tilde.consistent": (0.013430300899170192, False, {
        "p": [-2.598875057356892, 0.0],
        "q": [2.616697018063209, 0.0],
        "s1": 0.1089736490597597,
        "s2": 0.7755322909213239,
        "u": 0.5840707731398851,
        "violation": 0.013430300899170192,
    }),
    "sigma_zero.consistent": (8.881784197001252e-16, True, None),
    "sigma_X1.geodesic": (4.996003610813204e-16, True, None),
    "sigma_X1.conical": (8.881784197001252e-16, True, None),
    "sigma_X1.reversible": (0.9356395732405329, False, {
        "p": [-1.997297276487744, 0.9972972764877439],
        "q": [0.8086214064376815, -0.04629191978909919],
        "t": 0.5309123992919922,
        "violation": 0.9356395732405329,
    }),
    "sigma_X1.midpoint_property": (0.9063756616535261, False, {
        "p": [0.8439286684064184, 0.014647959186139037],
        "q": [-1.9375530067528923, 0.9375530067528923],
        "violation": 0.9063756616535261,
    }),
    "tau_X1.geodesic": (5.551115123125783e-16, True, None),
    "tau_X1.conical": (8.881784197001252e-16, True, None),
    "tau_X1.midpoint_property": (0.0, True, None),
    "tau_X1.reversible": (0.4113777291176978, False, {
        "p": [0.8600066947094347, -0.00413629442222474],
        "q": [-1.6632728333076843, 0.6632728333076843],
        "t": 0.6550559997558594,
        "violation": 0.4113777291176978,
    }),
}


@pytest.fixture(scope="module")
def built():
    return builtin_bicombings()


@pytest.mark.parametrize("entry", list(PINNED))
def test_planar_scan_values_are_pinned(built, entry):
    row, prop = entry.split(".")
    rep = CHECKERS[prop](built[row], CFG)
    worst, passed, witness = PINNED[entry]
    assert (rep.worst_violation, rep.passed, rep.witness) == (worst, passed, witness)
