"""The planar rows of the expected matrix at seed 42 and 2000 tuples, pinned.

Speed-ups of the selections and of the scans must not move a single report:
``worst_violation``, the verdict and the refined and shrunk witness of every
planar entry of ``EXPECTED_MATRIX`` are compared exactly with the values
recorded before the prepared-path kernels replaced the per-call ones.

The six expected failures are also pinned at 200 tuples and two engine
seeds, where refinement and shrinking do most of the work; those witnesses
were recorded before refinement evaluated its candidates in batches.

Every checker is also forced to fail (tol 1e-30) on the planar bicombings,
on the two local-linearity cases of the ``rigidity`` suite and on a planted
endpoint defect; those reports were recorded before one driver served both
the scans and the refinement.
"""

import numpy as np
import pytest

from bicombing_lab.bicombings import (Bicombing, linear_bicombing, sigma_delta_bicombing,
                                      sigma_X1_bicombing)
from bicombing_lab.verify import (CHECKERS, SampleConfig, builtin_bicombings,
                                  check_geodesic, check_local_linearity)

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


FORCED_CFG = SampleConfig(seed=3, tuples=300, t_grid=9, tol=1e-30)

FORCED = {
    "sigma_delta.geodesic": (8.881784197001252e-16, {
        "p": [2.0107409041347117, 0.0],
        "q": [-2.666191175533417, 0.0],
        "s": 0.0,
        "t": 0.875,
        "violation": 8.881784197001252e-16,
    }),
    "sigma_delta.conical": (8.881784197001252e-16, {
        "p": [-1.6995433784557388, 0.0],
        "q": [-0.6834771339754373, 0.0],
        "p2": [2.015969514849751, 0.0],
        "q2": [-1.5989707187973494, 0.0],
        "t": 0.0,
        "violation": 8.881784197001252e-16,
    }),
    "sigma_delta.convex": (1.7763568394002505e-15, {
        "p": [1.888385265992336, 0.0],
        "q": [1.1552071169061622, 0.0],
        "p2": [-2.3229181745042857, 0.0],
        "q2": [-1.7556974505822611, 0.0],
        "t": 0.125,
        "tau": 0.0078125,
        "violation": 1.7763568394002505e-15,
    }),
    "sigma_delta.consistent": (0.017144639209848912, {
        "p": [2.948931632887576, 0.0],
        "q": [-2.6028239698366114, 0.0],
        "s1": 0.03145027160644531,
        "s2": 0.7226601416328484,
        "u": 0.7229653818963125,
        "violation": 0.017144639209848912,
    }),
    "sigma_delta.reversible": (0.0, None),
    "sigma_delta.midpoint_property": (0.0, None),
    "sigma_tilde.geodesic": (8.881784197001252e-16, {
        "p": [2.5990796631544346, 0.0],
        "q": [-2.7469241600902565, 0.0],
        "s": 0.125,
        "t": 0.75,
        "violation": 8.881784197001252e-16,
    }),
    "sigma_tilde.conical": (8.881784197001252e-16, {
        "p": [2.366298115695836, 0.0],
        "q": [0.1140832252225692, 0.011709431957122807],
        "p2": [-2.266779678383296, 0.0],
        "q2": [2.7289327017934757, 0.0],
        "t": 0.0,
        "violation": 8.881784197001252e-16,
    }),
    "sigma_tilde.convex": (1.7763568394002505e-15, {
        "p": [1.888385265992336, 0.0],
        "q": [1.1552071169061622, 0.0],
        "p2": [-2.3229181745042857, 0.0],
        "q2": [-1.7556974505822611, 0.0],
        "t": 0.125,
        "tau": 0.0078125,
        "violation": 1.7763568394002505e-15,
    }),
    "sigma_tilde.consistent": (0.015799465271003954, {
        "p": [-2.8714993567039158, 0.0],
        "q": [2.5585049994267095, 0.0],
        "s1": 0.04651723102333882,
        "s2": 0.764359410701582,
        "u": 0.671880063190903,
        "violation": 0.015799465271003954,
    }),
    "sigma_tilde.reversible": (0.019665255932051512, {
        "p": [2.965338143394372, 0.0],
        "q": [-2.814557642031506, 0.0],
        "t": 0.5130443572998047,
        "violation": 0.019665255932051512,
    }),
    "sigma_tilde.midpoint_property": (0.01955348471601853, {
        "p": [2.965338143394372, 0.0],
        "q": [-2.814557642031506, 0.0],
        "violation": 0.01955348471601853,
    }),
    "sigma_X1.geodesic": (4.440892098500626e-16, {
        "p": [0.7949815471783396, 0.016937734922843922],
        "q": [-1.9260518527134844, 0.9260518527134844],
        "s": 0.0,
        "t": 0.75,
        "violation": 4.440892098500626e-16,
    }),
    "sigma_X1.conical": (8.881784197001252e-16, {
        "p": [0.47620519180888343, -0.09764434664136767],
        "q": [-0.7627816136501495, -0.22982815718037486],
        "p2": [-1.86647499378445, 0.86647499378445],
        "q2": [-1.1035037923048083, 0.10350379230480833],
        "t": 0.12499618530273438,
        "violation": 8.881784197001252e-16,
    }),
    "sigma_X1.convex": (0.27862731294085297, {
        "p": [0.21920812475703721, 0.12206149457264237],
        "q": [-1.4161881093342132, 0.41618810933421324],
        "p2": [-1.6657186474236974, 0.6657186474236974],
        "q2": [-0.350070430731638, -0.14901760325960445],
        "t": 0.6265525817871094,
        "tau": 0.0703125,
        "violation": 0.27862731294085297,
    }),
    "sigma_X1.consistent": (0.34582898910800264, {
        "p": [0.7354096334163627, -0.013840114194311637],
        "q": [-1.5987661846704517, 0.5987661846704517],
        "s1": 0.07308586524972027,
        "s2": 0.7434778642841808,
        "u": 0.7707043126601748,
        "violation": 0.34582898910800264,
    }),
    "sigma_X1.reversible": (0.9118873767383299, {
        "p": [0.8086685020790345, 0.012364838489349106],
        "q": [-1.9260518527134844, 0.9260518527134844],
        "t": 0.4923534393310547,
        "violation": 0.9118873767383299,
    }),
    "sigma_X1.midpoint_property": (0.8826166493655501, {
        "p": [0.8086685020790345, 0.012364838489349106],
        "q": [-1.9260518527134844, 0.9260518527134844],
        "violation": 0.8826166493655501,
    }),
    "tau_X1.geodesic": (4.440892098500626e-16, {
        "p": [0.8080008457424153, 0.01258790660805617],
        "q": [-1.9260518527134844, 0.9260518527134844],
        "s": 0.0,
        "t": 0.75,
        "violation": 4.440892098500626e-16,
    }),
    "tau_X1.conical": (4.440892098500626e-16, {
        "p": [0.4749450902524464, -0.09739212894878149],
        "q": [-0.7639852977516921, -0.2206768744987986],
        "p2": [-1.86647499378445, 0.86647499378445],
        "q2": [-1.1035037923048083, 0.10350379230480833],
        "t": 0.125,
        "violation": 4.440892098500626e-16,
    }),
    "tau_X1.convex": (0.11940444908159487, {
        "p": [0.7880437132144282, -0.197749200222481],
        "q": [-1.6992888943627487, 0.6992888943627487],
        "p2": [-1.333963803201829, 0.33396380320182906],
        "q2": [-0.10962474439841374, 0.3468898821940823],
        "t": 0.578948974609375,
        "tau": 0.07421875,
        "violation": 0.11940444908159492,
    }),
    "tau_X1.consistent": (0.19818755097595264, {
        "p": [0.8215004560897645, -0.0023730993139721157],
        "q": [-1.4913960490173426, 0.4913960490173426],
        "s1": 0.4863010014865091,
        "s2": 0.933020401375213,
        "u": 0.48191037649296664,
        "violation": 0.19818755097595264,
    }),
    "tau_X1.reversible": (0.4059139320127948, {
        "p": [0.9320811697257325, 0.033479160743308034],
        "q": [-1.8195566316633887, 0.8195566316633887],
        "t": 0.6238212585449219,
        "violation": 0.4059139320127948,
    }),
    "tau_X1.midpoint_property": (0.0, None),
    "linear_hybrid.geodesic": (3.552713678800501e-15, {
        "p": [6.055682954660062, -8.998472958454299],
        "q": [-1.5632664757339025, 10.176599608299362],
        "s": 0.0,
        "t": 0.75,
        "violation": 3.552713678800501e-15,
    }),
    "linear_hybrid.conical": (1.7763568394002505e-15, {
        "p": [3.903117266480014, -2.5648137542265763],
        "q": [5.251856243379244, 4.30073662721909],
        "p2": [-0.7368461553310794, -5.4713413539837275],
        "q2": [-2.7801761424087177, 2.490057620581724],
        "t": 0.125,
        "violation": 1.7763568394002505e-15,
    }),
    "linear_hybrid.convex": (3.552713678800501e-15, {
        "p": [-4.68494131070398, 2.9436051978921203],
        "q": [3.366060090917495, 5.702966723976151],
        "p2": [6.692071998054035, -3.0538830349650725],
        "q2": [0.2232830450390948, 6.6588300892387835],
        "t": 0.125,
        "tau": 0.015625,
        "violation": 3.552713678800501e-15,
    }),
    "linear_hybrid.consistent": (1.7763568394002505e-15, {
        "p": [-7.608278472393867, 4.379752515685942],
        "q": [-0.8933198923879324, 6.178673025716218],
        "s1": 0.24741774950038997,
        "s2": 0.4503694609857366,
        "u": 0.29032326252467866,
        "violation": 1.7763568394002505e-15,
    }),
    "linear_hybrid.reversible": (0.0, None),
    "linear_hybrid.midpoint_property": (0.0, None),
    "sigma_delta.linear": (2.4559632301109196e-18, {
        "p": [0.000573939599879576, 0.016444999556123253],
        "q": [-0.00045671507416041, 0.01635574072550984],
        "t": 0.125,
        "violation": 2.4559632301109196e-18,
        "center": [0.0, 0.015625],
        "radius": 0.001,
    }),
    "sigma_X1.linear": (0.0, None),
    "lifted_end.geodesic": (0.000707106781186553, {
        "p": [-2.6770127083629767, 0.0],
        "q": [-0.27379329485826376, 0.0276621543936918],
        "t": 1.0,
        "violation": 0.000707106781186553,
    }),
}


def _lifted_end():
    """``sigma_delta`` whose end point ``t = 1`` is lifted off ``q``: only the
    endpoint identities of the geodesic scan see it."""
    base = sigma_delta_bicombing(1 / 64)

    def lifted(p, q, t):
        out = np.array(np.atleast_2d(base.eval(p, q, t)), copy=True)
        out[:, 1] += 1e-3 * (np.asarray(t, dtype=float) == 1.0)
        return out

    return Bicombing("lifted_end", base.space, base.domain, lifted)


def _forced(entry):
    row, prop = entry.split(".")
    if row == "lifted_end":
        return check_geodesic(_lifted_end(), FORCED_CFG)
    if prop == "linear":
        if row == "sigma_delta":
            return check_local_linearity(sigma_delta_bicombing(1 / 64), (0.0, 1 / 64), 1e-3,
                                         FORCED_CFG)
        return check_local_linearity(sigma_X1_bicombing(), (0.0, 0.0), 0.15, FORCED_CFG)
    b = linear_bicombing("hybrid") if row == "linear_hybrid" else builtin_bicombings()[row]
    return CHECKERS[prop](b, FORCED_CFG)


@pytest.mark.parametrize("entry", list(FORCED))
def test_forced_failures_are_pinned(entry):
    rep = _forced(entry)
    worst, witness = FORCED[entry]
    assert (rep.worst_violation, rep.passed, rep.witness) == (worst, witness is None, witness)
