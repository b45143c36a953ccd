import json
import re
from pathlib import Path

import pytest

from bicombing_lab import cli, verify
from bicombing_lab.bicombings import linear_bicombing
from bicombing_lab.cli import SuiteSpec, _funcspace_extras, export_figure, main, run_suite


def test_suite_spec_validation(tmp_path):
    with pytest.raises(ValueError):
        SuiteSpec(name="bogus")
    with pytest.raises(ValueError):
        SuiteSpec(name="thresholds", delta=0.5)
    with pytest.raises(ValueError):
        SuiteSpec(name="thresholds", tol=0.0)


@pytest.mark.parametrize("field, value", [("tol", float("inf")), ("tol", float("nan")),
                                          ("tuples", True), ("tuples", 2.5)])
def test_suite_spec_rejects_non_finite_tol_and_non_integer_tuples(field, value):
    with pytest.raises(ValueError):
        SuiteSpec(name="thresholds", **{field: value})


def test_run_with_infinite_tol_writes_nothing(tmp_path, capsys):
    # an infinite tol passed every check and wrote Infinity into the reports
    out = tmp_path / "reports"
    assert main(["run", "--suite", "counterexample_sigma_tilde", "--tuples", "50",
                 "--tol", "inf", "--out", str(out)]) != 0
    assert "tol" in capsys.readouterr().err
    assert not out.exists()


def test_thresholds_suite(tmp_path):
    spec = SuiteSpec(name="thresholds", out_dir=tmp_path)
    assert run_suite(spec) == 0
    summary = json.loads((tmp_path / "thresholds.summary.json").read_text())
    assert summary["deviations"] == []
    assert summary["observed"] == summary["expected"]
    assert (tmp_path / "thresholds.matrix.txt").exists()


def test_sigma_delta_suite_small(tmp_path):
    spec = SuiteSpec(name="counterexample_sigma_delta", tuples=400, out_dir=tmp_path)
    assert run_suite(spec) == 0
    report = json.loads(
        (tmp_path / "counterexample_sigma_delta.sigma_delta.consistent.json").read_text())
    assert report["passed"] is False
    assert report["witness"] is not None


def test_sigma_delta_suite_zero_delta(tmp_path):
    # at delta 0 the selection is the piecewise-linear one and consistency
    # is expected to hold, so the exit code stays 0
    spec = SuiteSpec(name="counterexample_sigma_delta", delta=0.0, tuples=400,
                     out_dir=tmp_path)
    assert run_suite(spec) == 0


def test_sigma_tilde_suite_zero_delta(tmp_path):
    # without a bulge sigma_tilde is also reversible and consistent, and the
    # suite expects both (`zero_bulge` in verify.ROWS)
    spec = SuiteSpec(name="counterexample_sigma_tilde", delta=0.0, tuples=400,
                     out_dir=tmp_path)
    assert run_suite(spec) == 0
    summary = json.loads((tmp_path / "counterexample_sigma_tilde.summary.json").read_text())
    assert summary["expected"]["sigma_tilde"] == {"geodesic": True, "convex": True,
                                                  "reversible": True, "consistent": True}


def test_tau_suite_golden_witness(tmp_path):
    spec = SuiteSpec(name="counterexample_tau_X1", tuples=400, out_dir=tmp_path)
    assert run_suite(spec) == 0
    summary = json.loads((tmp_path / "counterexample_tau_X1.summary.json").read_text())
    assert summary["observed"]["tau_X1"]["golden_witness"] is True
    assert summary["extras"]["golden_forward"] == [-0.875, 0.125]


def test_reversibilize_demo_suite(tmp_path):
    spec = SuiteSpec(name="reversibilize_demo", tuples=400, out_dir=tmp_path)
    assert run_suite(spec) == 0
    rep = json.loads(
        (tmp_path / "reversibilize_demo.reversibilized_sigma_tilde.reversible.json")
        .read_text())
    assert rep["passed"] is True


def test_all_suite_small(tmp_path):
    spec = SuiteSpec(name="all", tuples=300, out_dir=tmp_path)
    assert run_suite(spec) == 0
    summary = json.loads((tmp_path / "all.summary.json").read_text())
    assert summary["deviations"] == []
    assert summary["observed"]["sigma_delta"]["consistent"] is False
    assert summary["observed"]["sigma_zero"]["consistent"] is True


@pytest.mark.parametrize("seed, iso_err", [(42, 2.220446049250313e-16),
                                            (0, 1.6653345369377348e-16)])
def test_funcspace_extras_are_pinned(seed, iso_err):
    observed, files, extras = _funcspace_extras(SuiteSpec(name="funcspace_demo", seed=seed))
    expected = {"funcspace": {"distinct": True, "horizontal_closed_form": True,
                              "inversion_isometry": True}}
    assert observed == expected and files == []
    assert extras == {"vertical_vs_horizontal_l1": 0.015465624298529603,
                      "closed_form_max_error": 3.79802161260814e-06,
                      "inversion_isometry_max_error": iso_err}


def test_funcspace_suite_outputs_are_byte_stable(tmp_path):
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert run_suite(SuiteSpec(name="funcspace_demo", tuples=200, out_dir=out)) == 0
        outputs.append({path.name: [line for line in path.read_bytes().splitlines()
                                    if b'"elapsed_seconds"' not in line]
                        for path in sorted(out.iterdir())})
    assert len(outputs[0]) == 4
    assert outputs[0] == outputs[1]



SIGMA_DELTA = ("sigma_delta", ["geodesic", "conical", "convex", "reversible",
                               "midpoint_property", "consistent"])
SIGMA_TILDE = ("sigma_tilde", ["geodesic", "convex", "reversible", "consistent"])
SIGMA_X1 = ("sigma_X1", ["geodesic", "conical", "reversible", "midpoint_property"])
TAU_X1 = ("tau_X1", ["geodesic", "conical", "midpoint_property", "reversible",
                     "golden_witness"])
REVERSIBILIZED = ("reversibilized_sigma_tilde", ["reversible", "geodesic", "conical"])
FUNCSPACE_ROWS = [("funcspace_vertical", ["consistent"]),
                  ("funcspace_horizontal", ["consistent"])]
FUNCSPACE = ("funcspace", ["distinct", "horizontal_closed_form", "inversion_isometry"])
FUNCSPACE_EXTRAS = ["vertical_vs_horizontal_l1", "closed_form_max_error",
                    "inversion_isometry_max_error"]
RIGIDITY = ("rigidity", ["corner_singleton", "flat_segment", "euclid_affine",
                         "bulge_interior_linear", "folded_diamond_linear"])
THRESHOLDS = ("thresholds", ["antenna_pair", "antenna_vs_ramp", "antenna_vs_interior_flat",
                             "antenna_vs_interior_steep", "reversed_antenna_pair"])
GOLDEN = ["golden_forward", "golden_backward"]


def _files(*rows):
    return {f"{row}.{prop}.json" for row, props in rows for prop in props}


# suite -> (report files besides summary and matrix, rows and properties of
# `observed` and `expected` in order, keys of `extras` in order)
SUITE_SHAPES = {
    "counterexample_sigma_delta": (_files(SIGMA_DELTA), [SIGMA_DELTA], []),
    "counterexample_sigma_tilde": (_files(SIGMA_TILDE), [SIGMA_TILDE], []),
    "counterexample_X1": (_files(SIGMA_X1), [SIGMA_X1], ["reversal_witness"]),
    "counterexample_tau_X1": (_files(("tau_X1", TAU_X1[1][:4])), [TAU_X1], GOLDEN),
    "reversibilize_demo": (_files(("sigma_tilde", ["reversible"]), REVERSIBILIZED),
                           [("sigma_tilde", ["reversible"]), REVERSIBILIZED], []),
    "funcspace_demo": (_files(*FUNCSPACE_ROWS), FUNCSPACE_ROWS + [FUNCSPACE],
                       FUNCSPACE_EXTRAS),
    "rigidity": ({"sigma_delta.linear.json", "sigma_X1.linear.json"}, [RIGIDITY], []),
    "thresholds": (set(), [THRESHOLDS], ["values"]),
    "all": (_files(SIGMA_DELTA, SIGMA_TILDE, ("sigma_zero", ["consistent"]), SIGMA_X1,
                   ("tau_X1", TAU_X1[1][:4]), *FUNCSPACE_ROWS, REVERSIBILIZED)
            | {"sigma_delta.linear.json", "sigma_X1.linear.json"},
            [SIGMA_DELTA, SIGMA_TILDE, ("sigma_zero", ["consistent"]), SIGMA_X1, TAU_X1,
             *FUNCSPACE_ROWS, REVERSIBILIZED, FUNCSPACE, RIGIDITY, THRESHOLDS],
            GOLDEN + FUNCSPACE_EXTRAS + ["values"]),
}


@pytest.mark.parametrize("suite", sorted(SUITE_SHAPES))
def test_suite_output_structure_is_pinned(suite, tmp_path):
    # the summary bytes depend on these orders, so they are pinned as literals;
    # at 60 tuples some verdicts deviate, which does not change the structure
    files, rows, extras = SUITE_SHAPES[suite]
    run_suite(SuiteSpec(name=suite, tuples=60, out_dir=tmp_path))
    assert {p.name for p in tmp_path.iterdir()} == (
        {f"{suite}.{name}" for name in files | {"summary.json", "matrix.txt"}})
    summary = json.loads((tmp_path / f"{suite}.summary.json").read_text())
    for part in ("observed", "expected"):
        assert [(row, list(props)) for row, props in summary[part].items()] == rows
    assert list(summary["extras"]) == extras


def test_a_new_row_is_one_table_entry(monkeypatch, tmp_path):
    # a row and the suite entry that lists it are the only edits a new claim needs
    monkeypatch.setitem(verify.ROWS, "linear_linf",
                        verify.Row(lambda d: linear_bicombing("linf"), {"geodesic": True}))
    entries, probes = cli.SUITES["thresholds"]
    monkeypatch.setitem(cli.SUITES, "thresholds",
                        (entries + [("linear_linf", ("geodesic",), None)], probes))
    assert run_suite(SuiteSpec(name="thresholds", tuples=60, out_dir=tmp_path)) == 0
    summary = json.loads((tmp_path / "thresholds.summary.json").read_text())
    assert list(summary["observed"]) == ["linear_linf", "thresholds"]
    assert summary["observed"]["linear_linf"] == summary["expected"]["linear_linf"] == {
        "geodesic": True}
    report = json.loads((tmp_path / "thresholds.linear_linf.geodesic.json").read_text())
    assert report["passed"] is True
    assert "linear_linf" in (tmp_path / "thresholds.matrix.txt").read_text()


def test_suite_lists_agree_with_the_table(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    choices = re.search(r"--suite \{([^}]*)\}", capsys.readouterr().out).group(1)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"^Suites: (.*?)\.$", readme, re.M | re.S).group(1)
    assert choices.split(",") == re.findall(r"`(\w+)`", listed) == list(cli.SUITES)
    assert "all" in cli.SUITES


def test_deviation_names_the_property_and_exits_nonzero(tmp_path, capsys):
    # two tuples cannot witness the inconsistency, so the observed matrix
    # deviates from the expected one and the run must say so
    spec = SuiteSpec(name="counterexample_sigma_delta", tuples=2, seed=0,
                     out_dir=tmp_path)
    assert run_suite(spec) == 1
    captured = capsys.readouterr()
    assert "sigma_delta.consistent" in captured.err
    summary = json.loads(
        (tmp_path / "counterexample_sigma_delta.summary.json").read_text())
    assert summary["deviations"] == ["sigma_delta.consistent"]


def test_main_rejects_bad_delta(tmp_path, capsys):
    code = main(["run", "--suite", "counterexample_sigma_delta",
                 "--delta", "0.5", "--out", str(tmp_path)])
    assert code == 2
    assert "delta" in capsys.readouterr().err


def test_figure_export_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["figure", "--name", "midpoint_X1", "--out", str(a)]) == 0
    assert main(["figure", "--name", "midpoint_X1", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "series,t,x,y"
    assert sum(1 for ln in lines if ln.startswith("tau_pq,")) == 257
    assert sum(1 for ln in lines if ln.startswith("midpoint,")) == 1


def test_figure_space_X(tmp_path):
    out = tmp_path / "fig.csv"
    export_figure("space_X_with_geodesic", 1.0 / 64.0, out)
    lines = out.read_text().splitlines()
    series = {ln.split(",")[0] for ln in lines[1:]}
    assert series == {"boundary_axis", "boundary_parabola", "geodesic_pq"}
    # the geodesic peaks at height 2*delta
    ys = [float(ln.split(",")[3]) for ln in lines if ln.startswith("geodesic_pq,")]
    assert max(ys) == pytest.approx(1.0 / 32.0, abs=1e-12)


def test_figure_convexity_pair_has_distance_series(tmp_path):
    out = tmp_path / "fig.csv"
    export_figure("convexity_pair", 1.0 / 64.0, out)
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]
            if ln.startswith("distance,")]
    assert len(rows) == 257
    # the gap function dips to sqrt(2)*delta in the middle
    vals = [float(r[3]) for r in rows]
    assert min(vals) == pytest.approx(2 ** 0.5 / 64.0, rel=1e-9)


def test_unknown_figure_rejected(tmp_path):
    with pytest.raises(ValueError):
        export_figure("sideways", 0.0, tmp_path / "x.csv")
