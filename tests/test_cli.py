import json

import pytest

from bicombing_lab.cli import SuiteSpec, export_figure, main, run_suite


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
