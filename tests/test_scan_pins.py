"""The planar rows of the expected matrix at seed 42 and 2000 tuples, pinned.

Speed-ups of the selections and of the scans must not move a single report:
``worst_violation``, the verdict and the refined and shrunk witness of every
planar entry of ``EXPECTED_MATRIX`` are compared exactly with the values
recorded before the prepared-path kernels replaced the per-call ones.

The six expected failures are also pinned at 200 tuples and two engine
seeds, where refinement and shrinking do most of the work; those witnesses
were recorded before refinement evaluated its candidates in batches.
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


REFINED = {
    ("sigma_delta.consistent", 7): (0.011311168063765085, {
        "p": [2.1371834508570218, 0.0], "q": [-2.8865866151961583, 0.0],
        "s1": 0.14698795329652448, "s2": 0.6587535838776322, "u": 0.5440508965448336,
        "violation": 0.011311168063765085}),
    ("sigma_tilde.reversible", 7): (0.019272711838575617, {
        "p": [2.836137011897052, 0.0], "q": [-2.908229737916103, 0.0],
        "t": 0.4937248229980469, "violation": 0.019272711838575617}),
    ("sigma_tilde.consistent", 7): (0.015585567172070795, {
        "p": [-2.4980015066704837, 0.0], "q": [2.912643003539218, 0.0],
        "s1": 0.27286228290833703, "s2": 0.7864994452549268, "u": 0.36761438870539176,
        "violation": 0.015585567172070795}),
    ("sigma_X1.reversible", 7): (0.9414752167772202, {
        "p": [0.9607895017611789, 0.031045338212541962],
        "q": [-1.9191883770087435, 0.9191883770087435],
        "t": 0.5121231079101562, "violation": 0.9414752167772202}),
    ("sigma_X1.midpoint_property", 7): (0.9191883770087435, {
        "p": [0.8911806614295817, 0.05251168607407125],
        "q": [-1.9191883770087435, 0.9191883770087435],
        "violation": 0.9191883770087435}),
    ("tau_X1.reversible", 7): (0.3963423818947577, {
        "p": [0.9607895017611789, 0.031045338212541962],
        "q": [-1.9191883770087435, 0.9191883770087435],
        "t": 0.6077976226806641, "violation": 0.3963423818947577}),
    ("sigma_delta.consistent", 1604): (0.017036563441096764, {
        "p": [-2.7459924318752553, 0.0], "q": [2.7959812689066927, 0.0],
        "s1": 0.1014233161552125, "s2": 0.7366424974113867, "u": 0.6203638391852094,
        "violation": 0.017036563441096764}),
    ("sigma_tilde.reversible", 1604): (0.020337119297499852, {
        "p": [2.905227667734877, 0.0], "q": [-2.93547824781174, 0.0],
        "t": 0.4974098205566406, "violation": 0.020337119297499852}),
    ("sigma_tilde.consistent", 1604): (0.017036563441096764, {
        "p": [-2.7459924318752553, 0.0], "q": [2.7959812689066927, 0.0],
        "s1": 0.1014233161552125, "s2": 0.7366424974113867, "u": 0.6203638391852094,
        "violation": 0.017036563441096764}),
    ("sigma_X1.reversible", 1604): (0.7769378228539627, {
        "p": [0.7758975945344571, -0.11313805311439395],
        "q": [-1.729188316330347, 0.729188316330347],
        "t": 0.5327415466308594, "violation": 0.7769378228539627}),
    ("sigma_X1.midpoint_property", 1604): (0.729188316330347, {
        "p": [0.4682661948359716, -0.009698071710413314],
        "q": [-1.729188316330347, 0.729188316330347],
        "violation": 0.729188316330347}),
    ("tau_X1.reversible", 1604): (0.3536059848632642, {
        "p": [0.7758975945344571, -0.11313805311439395],
        "q": [-1.729188316330347, 0.729188316330347],
        "t": 0.6212329864501953, "violation": 0.3536059848632642}),
}


@pytest.mark.parametrize("entry, seed", list(REFINED))
def test_refined_witnesses_are_pinned(built, entry, seed):
    row, prop = entry.split(".")
    cfg = SampleConfig(seed=seed, tuples=200, t_grid=33, tol=1e-9)
    rep = CHECKERS[prop](built[row], cfg)
    worst, witness = REFINED[entry, seed]
    assert (rep.worst_violation, rep.passed, rep.witness) == (worst, False, witness)
