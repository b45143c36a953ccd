"""Command line front end: verification campaigns and figure data export.

``bicombing-lab run --suite <name>`` executes a named campaign, writes one
JSON report per property check plus a summary, prints the pass/fail matrix
and exits 0 exactly when the observed matrix equals the expected one (so an
expected failure counts as success). ``bicombing-lab figure --name <figure>``
writes CSV polylines (columns ``series,t,x,y``) reproducing the package's
standard pictures; output is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import funcspace, spaces, verify
from .bicombings import (DELTA_MAX, _check_delta, fold_f, sigma_delta,
                         sigma_delta_bicombing, sigma_X1, sigma_X1_bicombing, tau_X1)

FIGURE_NAMES = ("space_X_with_geodesic", "convexity_pair", "folded_X1",
                "midpoint_X1")


@dataclass(frozen=True)
class SuiteSpec:
    """Parameters of one campaign run."""

    name: str
    delta: float = DELTA_MAX
    seed: int = 42
    tuples: int = 20000
    tol: float = 1e-9
    out_dir: Path = Path("reports")

    def __post_init__(self):
        if self.name not in SUITES:
            raise ValueError(f"unknown suite {self.name!r}")
        _check_delta(self.delta)
        _cfg(self)  # tuples and tol, checked as the engine checks them
        object.__setattr__(self, "out_dir", Path(self.out_dir))


def _cfg(spec):
    return verify.SampleConfig(seed=spec.seed, tuples=spec.tuples,
                               t_grid=33, tol=spec.tol)


# A probe returns ``(checks, files, extras)``: ``{row: {name: passed}}`` for
# checks that are expected to pass, ``(name, report)`` pairs to write, and
# values for the summary's extras.

def _reversal_witness(spec):
    witness = {
        "forward": sigma_X1((-2.0, 1.0), (0.0, 0.0), 0.75).tolist(),
        "backward": sigma_X1((0.0, 0.0), (-2.0, 1.0), 0.25).tolist(),
    }
    return {}, [], {"reversal_witness": witness}


def _tau_golden(spec):
    fwd = tau_X1((-1.5, 0.5), (0.0, 0.5), 5.0 / 12.0)
    bwd = tau_X1((0.0, 0.5), (-1.5, 0.5), 7.0 / 12.0)
    ok = (np.max(np.abs(fwd - np.array([-0.875, 0.125]))) <= 1e-12
          and np.max(np.abs(bwd - np.array([-0.875, 1.0 / 48.0]))) <= 1e-12)
    extras = {"golden_forward": fwd.tolist(), "golden_backward": bwd.tolist()}
    return {"tau_X1": {"golden_witness": bool(ok)}}, [], extras


def _funcspace_extras(spec):
    f = funcspace.sqrt_approx(256)
    g = funcspace.identity_fn()
    mid_v = funcspace.vertical_bicombing(f, g, 0.5)
    mid_h = funcspace.horizontal_bicombing(f, g, 0.5)
    separation = funcspace.l1_distance(mid_v, mid_h)
    xs = np.linspace(0.0, 1.0, 2001)
    closed_err = float(np.max(np.abs(
        funcspace.eval_fn(mid_h, xs) - funcspace.sqrt_identity_interpolant(xs, 0.5))))
    # 1000 pairs of consecutive draws; [:, ::-1] swaps xs and vs, which inverts
    draws = funcspace.random_monotone_batch(np.random.default_rng(spec.seed), 2000)
    A, B = draws[0::2], draws[1::2]
    iso_err = float(np.max(np.abs(
        funcspace.l1_distance_batch(A[:, ::-1], B[:, ::-1])
        - funcspace.l1_distance_batch(A, B))))

    checks = {"funcspace": {"distinct": separation > 1e-2,
                            "horizontal_closed_form": closed_err <= 5e-4,
                            "inversion_isometry": iso_err <= 1e-12}}
    extras = {"vertical_vs_horizontal_l1": separation,
              "closed_form_max_error": closed_err,
              "inversion_isometry_max_error": iso_err}
    return checks, [], extras


def _rigidity(spec):
    corner_ok = True
    for t in (0.25, 0.5, 0.75):
        clusters = verify.mt_set("linf", (1.0, 1.0), (-1.0, -1.0), t,
                                 resolution=2001, tol=1e-6)
        target = (1.0 - 2.0 * t) * np.array([1.0, 1.0])
        corner_ok &= (len(clusters) == 1 and
                      float(np.max(np.abs(clusters[0].representative - target))) <= 1e-6)

    seg = verify.mt_set("linf", (1.0, 0.0), (-1.0, 0.0), 0.5,
                        resolution=2001, tol=1e-6)
    seg_ok = (len(seg) == 1
              and float(np.max(np.abs(seg[0].points[:, 0]))) <= 1e-6
              and float(seg[0].points[:, 1].min()) <= -1.0 + 1e-6
              and float(seg[0].points[:, 1].max()) >= 1.0 - 1e-6)

    rng = np.random.default_rng(spec.seed)
    euclid_ok = True
    for _ in range(10):
        p = rng.uniform(-1.0, 1.0, 2)
        q = rng.uniform(-1.0, 1.0, 2)
        if float(np.hypot(*(p - q))) < 0.5:
            continue
        t = float(rng.uniform(0.2, 0.8))
        clusters = verify.mt_set("euclid", p, q, t, resolution=601, tol=1e-6)
        target = (1.0 - t) * p + t * q
        euclid_ok &= (len(clusters) == 1 and
                      float(np.max(np.abs(clusters[0].representative - target))) <= 1e-3)

    cfg = dataclasses.replace(_cfg(spec), tuples=min(spec.tuples, 2000))
    bulge = verify.check_local_linearity(sigma_delta_bicombing(spec.delta),
                                         (0.0, 1.0 / 64.0), 1e-3, cfg)
    folded = verify.check_local_linearity(sigma_X1_bicombing(),
                                          (0.0, 0.0), 0.15, cfg)

    checks = {"rigidity": {"corner_singleton": bool(corner_ok),
                           "flat_segment": bool(seg_ok),
                           "euclid_affine": bool(euclid_ok),
                           "bulge_interior_linear": bulge.passed,
                           "folded_diamond_linear": folded.passed}}
    files = [("sigma_delta.linear", bulge), ("sigma_X1.linear", folded)]
    return checks, files, {}


def _thresholds(spec):
    rows = verify.delta_thresholds(spec.delta)
    checks = {"thresholds": {label: positive for label, _, positive in rows}}
    extras = {"values": {label: value for label, value, _ in rows}}
    return checks, [], extras


def _row(row, cap=None):
    """The entry that checks every property of ``row``."""
    return row, tuple(verify.ROWS[row].expected), cap


_REVERSIBILIZED = [("reversibilized_sigma_tilde", ("reversible",), 2000),
                   ("reversibilized_sigma_tilde", ("geodesic", "conical"), 500)]

#: The suites of the claims table (rows in :data:`verify.ROWS`): each runs its
#: ``(row, properties, cap)`` entries in order, ``cap`` bounding the entry's
#: tuple count, then its probes; a later entry or probe adds to a row.
SUITES = {
    "counterexample_sigma_delta": ([_row("sigma_delta")], []),
    "counterexample_sigma_tilde": ([_row("sigma_tilde")], []),
    "counterexample_X1": ([_row("sigma_X1")], [_reversal_witness]),
    "counterexample_tau_X1": ([_row("tau_X1")], [_tau_golden]),
    "reversibilize_demo": ([("sigma_tilde", ("reversible",), 2000)] + _REVERSIBILIZED, []),
    "funcspace_demo": ([_row("funcspace_vertical", 3000), _row("funcspace_horizontal", 3000)],
                       [_funcspace_extras]),
    "rigidity": ([], [_rigidity]),
    "thresholds": ([], [_thresholds]),
    # the demos' own capped checks would only repeat the full-sample ones
    "all": (verify.MATRIX + _REVERSIBILIZED,
            [_tau_golden, _funcspace_extras, _rigidity, _thresholds]),
}


def run_suite(spec):
    """Execute a campaign, write its reports, print the matrix; 0 on match."""
    t0 = time.perf_counter()
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    entries, probes = SUITES[spec.name]
    reports = verify._run_entries(entries, _cfg(spec), spec.delta)
    observed = {row: {prop: rep.passed for prop, rep in props.items()}
                for row, props in reports.items()}
    expected = verify._expected(entries, spec.delta)
    files = [(f"{row}.{prop}", rep)
             for row, props in reports.items() for prop, rep in props.items()]
    extras = {}
    for probe in probes:
        checks, more_files, more_extras = probe(spec)
        for row, props in checks.items():
            observed.setdefault(row, {}).update(props)
            expected.setdefault(row, {}).update(dict.fromkeys(props, True))
        files += more_files
        extras.update(more_extras)

    for name, report in files:
        path = spec.out_dir / f"{spec.name}.{name}.json"
        path.write_text(report.to_json() + "\n")

    deviations = []
    lines = []
    for row in sorted(expected):
        for prop in expected[row]:
            want = expected[row][prop]
            got = observed[row][prop]
            mark = "ok" if got == want else "DEVIATION"
            lines.append(f"{row:28s} {prop:20s} observed={'pass' if got else 'fail'} "
                         f"expected={'pass' if want else 'fail'}  {mark}")
            if got != want:
                deviations.append(f"{row}.{prop}")
    matrix_text = "\n".join(lines) + "\n"
    print(matrix_text, end="")

    summary = {
        "suite": spec.name,
        "delta": spec.delta,
        "seed": spec.seed,
        "tuples": spec.tuples,
        "tol": spec.tol,
        "observed": observed,
        "expected": expected,
        "deviations": deviations,
        "extras": extras,
        "elapsed_seconds": time.perf_counter() - t0,
    }
    (spec.out_dir / f"{spec.name}.summary.json").write_text(
        json.dumps(summary, indent=2) + "\n")
    (spec.out_dir / f"{spec.name}.matrix.txt").write_text(matrix_text)

    if deviations:
        print(f"deviating properties: {', '.join(deviations)}", file=sys.stderr)
        return 1
    return 0


def _fmt(v):
    return repr(float(v))


def _polyline(points, n):
    pts = np.asarray(points, dtype=float)
    seg = np.sqrt(np.sum(np.diff(pts, axis=0) ** 2, axis=1))
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    s = np.linspace(0.0, cum[-1], n)
    return np.stack([np.interp(s, cum, pts[:, 0]), np.interp(s, cum, pts[:, 1])], axis=-1)


def _series_rows(rows, name, T, pts):
    for t, (x, y) in zip(T, pts):
        rows.append((name, t, x, y))


def _blob_boundary(rows, n):
    T = np.linspace(0.0, 1.0, n)
    xs = np.linspace(-3.0, 3.0, n)
    _series_rows(rows, "boundary_axis", T, np.stack([xs, np.zeros(n)], axis=-1))
    xp = np.linspace(-1.0, 1.0, n)
    _series_rows(rows, "boundary_parabola", T,
                 np.stack([xp, (1.0 - xp * xp) / 32.0], axis=-1))


def _strip_boundary(rows, n):
    T = np.linspace(0.0, 1.0, n)
    diamond = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (1.0, 0.0)]
    _series_rows(rows, "boundary_diamond", T, _polyline(diamond, n))
    _series_rows(rows, "boundary_antenna_upper", T,
                 _polyline([(-1.0, 0.0), (-2.0, 1.0)], n))
    _series_rows(rows, "boundary_antenna_lower", T,
                 _polyline([(-1.0, 0.0), (-2.0, -1.0)], n))


def export_figure(name, delta, out, samples=257):
    """Write CSV polylines for one figure; columns ``series,t,x,y``."""
    if name not in FIGURE_NAMES:
        raise ValueError(f"unknown figure {name!r}")
    _check_delta(delta)
    T = np.linspace(0.0, 1.0, samples)
    rows = []
    if name == "space_X_with_geodesic":
        _blob_boundary(rows, samples)
        pts = sigma_delta(delta, np.tile([-3.0, 0.0], (samples, 1)),
                          np.tile([3.0, 0.0], (samples, 1)), T)
        _series_rows(rows, "geodesic_pq", T, pts)
    elif name == "convexity_pair":
        _blob_boundary(rows, samples)
        p, q, p2, q2 = verify.CONVEXITY_PAIR
        a = sigma_delta(delta, np.tile(p, (samples, 1)), np.tile(q, (samples, 1)), T)
        c = sigma_delta(delta, np.tile(p2, (samples, 1)), np.tile(q2, (samples, 1)), T)
        _series_rows(rows, "geodesic_pq", T, a)
        _series_rows(rows, "geodesic_p2q2", T, c)
        gap = spaces.dist("hybrid", a, c)
        _series_rows(rows, "distance", T, np.stack([T, gap], axis=-1))
    elif name == "folded_X1":
        _strip_boundary(rows, samples)
        p, q = np.array([-2.0, 1.0]), np.array([0.0, 0.0])
        fwd = sigma_X1(np.tile(p, (samples, 1)), np.tile(q, (samples, 1)), T)
        bwd = sigma_X1(np.tile(q, (samples, 1)), np.tile(p, (samples, 1)), T)
        _series_rows(rows, "sigma_pq", T, fwd)
        _series_rows(rows, "sigma_qp", T, bwd)
        _series_rows(rows, "sigma_qp_unfolded", T, fold_f(bwd, "inverse"))
    else:  # midpoint_X1
        _strip_boundary(rows, samples)
        p, q = np.array([-1.5, 0.5]), np.array([0.0, 0.5])
        fwd = tau_X1(np.tile(p, (samples, 1)), np.tile(q, (samples, 1)), T)
        bwd = tau_X1(np.tile(q, (samples, 1)), np.tile(p, (samples, 1)), T)
        _series_rows(rows, "tau_pq", T, fwd)
        _series_rows(rows, "tau_qp", T, bwd)
        _series_rows(rows, "tau_qp_unfolded", T, fold_f(bwd, "inverse"))
        m = 0.5 * (sigma_X1(p, q, 0.5) + sigma_X1(q, p, 0.5))
        rows.append(("midpoint", 0.5, float(m[0]), float(m[1])))

    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = ["series,t,x,y"]
    lines.extend(f"{series},{_fmt(t)},{_fmt(x)},{_fmt(y)}"
                 for series, t, x, y in rows)
    out.write_text("\n".join(lines) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="bicombing-lab",
        description="verify geodesic bicombing properties and export figure data")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a verification campaign")
    runp.add_argument("--suite", required=True, choices=SUITES)
    runp.add_argument("--delta", type=float, default=DELTA_MAX)
    runp.add_argument("--seed", type=int, default=42)
    runp.add_argument("--tuples", type=int, default=20000)
    runp.add_argument("--tol", type=float, default=1e-9)
    runp.add_argument("--out", type=Path, default=Path("reports"))

    figp = sub.add_parser("figure", help="export CSV polylines for a figure")
    figp.add_argument("--name", required=True, choices=FIGURE_NAMES)
    figp.add_argument("--delta", type=float, default=DELTA_MAX)
    figp.add_argument("--out", type=Path, required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            spec = SuiteSpec(name=args.suite, delta=args.delta, seed=args.seed,
                             tuples=args.tuples, tol=args.tol, out_dir=args.out)
            return run_suite(spec)
        export_figure(args.name, args.delta, args.out)
        return 0
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
