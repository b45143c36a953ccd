"""The four benchmark workloads: their inputs, their operations and the
oracle that checks every operation's output.

A workload is built from its seed by ``build(pkg, seed, out_dir)``, which
returns the list of :class:`Op` that make one pass. ``pkg`` holds the
package modules to call, so the same function serves a fresh import (set-up
timing) and an instrumented one (traced run). An operation is one
user-visible call: a CLI suite, a property check or an ``mt_set`` probe.

Why each workload exists (see also ``BENCHMARK.json``):

* ``planar_matrix`` -- the four planar CLI suites at the CLI defaults
  (20000 tuples). Batched selection evaluation in ``bicombings`` and
  ``spaces`` is nearly all of the time; ``funcspace`` and ``mt_set`` are
  never touched.
* ``funcspace_matrix`` -- the two function-space ``consistent`` entries of
  the acceptance matrix, at 5000 tuples instead of the matrix's 20000 so
  that several passes fit in one run (the work is linear in the tuples).
  ``funcspace`` does nearly all of the work; no planar code runs.
* ``rigidity`` -- the ``rigidity`` and ``reversibilize_demo`` CLI suites
  plus 30 seeded ``mt_set`` probes at resolution 401, ten per norm, each
  checked against the exact in-between set.
  ``spaces.dist`` runs on grids of 10^5 to 4x10^6 points instead of
  20000-row batches; ``mt_set`` refinement and the midpoint iteration run
  only here.
* ``falsify_small`` -- the six expected-failing matrix entries at 200
  tuples over 25 seeds derived from the workload seed. Witness refinement
  and shrinking make 1-row selection calls, so per-call overhead and
  boundary validation dominate.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

#: Bulge parameter of the CLI defaults and of the acceptance matrix.
DELTA = 1.0 / 64.0
#: Engine tolerance of the CLI defaults and of the acceptance matrix.
TOL = 1e-9
#: Sentinel the property scans start from; it must never reach a report.
SCAN_SENTINEL = -1.0

PLANAR_SUITES = ("counterexample_sigma_delta", "counterexample_sigma_tilde",
                 "counterexample_X1", "counterexample_tau_X1")
RIGIDITY_SUITES = ("rigidity", "reversibilize_demo")
FUNCSPACE_ROWS = ("funcspace_vertical", "funcspace_horizontal")
FUNCSPACE_TUPLES = 5000
PROBES_PER_NORM = 10
PROBE_RESOLUTION = 401
PROBE_TOL = 1e-6
FALSIFY_SEEDS = 25
FALSIFY_TUPLES = 200


@dataclass
class Outcome:
    """What the oracle made of one operation's output."""

    error: str | None = None
    reports: list[str] = field(default_factory=list)
    samples: int = 0
    report_bytes: int = 0


@dataclass
class Op:
    """One timed call and the check of its result.

    ``prepare`` runs untimed before the call; ``check`` runs untimed after
    it and receives the call's return value.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]
    prepare: Callable[[], None] | None = None


def _report_error(rep, expected_pass=None):
    """Schema and sentinel checks shared by every property report (a dict)."""
    name = f"{rep['bicombing']}.{rep['property']}"
    worst = rep["worst_violation"]
    if not math.isfinite(worst) or worst == SCAN_SENTINEL:
        return f"{name}: worst_violation {worst!r} is non-finite or the scan sentinel"
    if rep["passed"] != (worst <= rep["tol"]):
        return f"{name}: passed={rep['passed']} disagrees with worst_violation {worst!r}"
    if expected_pass is not None and rep["passed"] != expected_pass:
        return f"{name}: verdict {rep['passed']}, expected {expected_pass}"
    if rep["passed"]:
        if rep["witness"] is not None:
            return f"{name}: passing report carries a witness"
        return None
    witness = rep["witness"]
    violation = None if witness is None else witness.get("violation")
    if violation is None or not math.isfinite(violation) or not violation > rep["tol"]:
        return f"{name}: failing report without a witness violation above tol"
    return None


def _cli_op(pkg, suite, seed, out_dir):
    out = out_dir / suite
    argv = ["run", "--suite", suite, "--seed", str(seed), "--out", str(out)]
    expected = pkg.verify.EXPECTED_MATRIX

    def prepare():
        shutil.rmtree(out, ignore_errors=True)

    def call():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = pkg.cli.main(argv)
        return code, stderr.getvalue()

    def check(result):
        code, stderr = result
        outcome = Outcome()
        if code != 0:
            outcome.error = f"{suite}: exit code {code}: {stderr.strip()}"
            return outcome
        files = sorted(out.glob(f"{suite}.*"))
        outcome.report_bytes = sum(f.stat().st_size for f in files)
        summary_path = out / f"{suite}.summary.json"
        summary = json.loads(summary_path.read_text())
        errors = []
        for row, props in summary["observed"].items():
            for prop, got in props.items():
                want = expected.get(row, {}).get(prop)
                if want is not None and got != want:
                    errors.append(f"{suite}: verdict {row}.{prop}={got}, expected {want}")
        for f in files:
            if f == summary_path or f.suffix != ".json":
                continue
            text = f.read_text()
            rep = json.loads(text)
            outcome.reports.append(text)
            outcome.samples += rep["samples_evaluated"]
            err = _report_error(rep)
            if err:
                errors.append(f"{suite}: {err}")
        summary.pop("elapsed_seconds")
        outcome.reports.append(json.dumps(summary, indent=2))
        outcome.error = "; ".join(errors) or None
        return outcome

    return Op(f"cli:{suite}", call, check, prepare)


def _check_op(pkg, row, prop, bicombing, cfg):
    checker = pkg.verify.CHECKERS[prop]
    want = pkg.verify.EXPECTED_MATRIX[row][prop]

    def call():
        return checker(bicombing, cfg)

    def check(report):
        return Outcome(error=_report_error(report.to_dict(), want),
                       reports=[report.to_json()],
                       samples=report.samples_evaluated)

    return Op(f"check:{row}.{prop}", call, check)


def exact_in_between(space, p, q, t):
    """Endpoints ``(a, b)`` of the exact in-between set ``M_t(p, q)``.

    In a normed plane ``M_t(p, q) = (p + t d F) & (q - (1 - t) d F)`` with
    ``d = |q - p|`` and ``F`` the minimal face of the unit sphere containing
    ``(q - p) / d``. The Euclidean sphere has only points as faces; the max
    norm has the edges ``x = +-1`` and ``y = +-1``; the hybrid norm
    ``max(|x|, sqrt((x^2 + y^2) / 2))`` has the edges ``x = +-1, |y| <= 1``
    and points elsewhere. A point face gives ``a == b == p + t (q - p)``.
    """
    delta = q - p
    ax, ay = abs(delta[0]), abs(delta[1])
    if space == "linf" and ay > ax:
        axis = 1
    elif space in ("linf", "hybrid") and ax > ay:
        axis = 0
    else:
        point = p + t * delta
        return point, point
    d = max(ax, ay)
    other = 1 - axis
    fixed = p[axis] + math.copysign(t * d, delta[axis])
    lo = max(p[other] - t * d, q[other] - (1.0 - t) * d)
    hi = min(p[other] + t * d, q[other] + (1.0 - t) * d)
    a, b = np.empty(2), np.empty(2)
    a[axis] = b[axis] = fixed
    a[other], b[other] = lo, hi
    return a, b


def _segment_distance(Z, a, b):
    ab = b - a
    length2 = float(ab @ ab)
    s = np.zeros(len(Z)) if length2 == 0.0 else np.clip((Z - a) @ ab / length2, 0.0, 1.0)
    return np.hypot(*(Z - (a + s[:, None] * ab)).T)


def _probe_cell(pkg, space, p, q, t):
    # grid spacing of a resolution-401 scan of the bounding box of the two
    # balls whose intersection holds M_t(p, q)
    spaces = pkg.spaces
    d = float(spaces.dist(space, p, q))
    ext = np.array([1.0 / float(spaces.norm(space, (1.0, 0.0))),
                    1.0 / float(spaces.norm(space, (0.0, 1.0)))])
    lo = np.minimum(p - t * d * ext, q - (1.0 - t) * d * ext)
    hi = np.maximum(p + t * d * ext, q + (1.0 - t) * d * ext)
    return float(np.max(hi - lo)) / (PROBE_RESOLUTION - 1)


def _probe_op(pkg, space, p, q, t):
    a, b = exact_in_between(space, p, q, t)
    cell = _probe_cell(pkg, space, p, q, t)
    mt_set = pkg.verify.mt_set

    def call():
        return mt_set(space, p, q, t, resolution=PROBE_RESOLUTION, tol=PROBE_TOL)

    def check(clusters):
        label = f"mt_set({space}, p={p.tolist()}, q={q.tolist()}, t={t!r})"
        if len(clusters) != 1:
            return Outcome(error=f"{label}: {len(clusters)} clusters, expected 1")
        c = clusters[0]
        if not c.residual <= PROBE_TOL:
            return Outcome(error=f"{label}: representative residual {c.residual!r} > {PROBE_TOL}")
        off = float(np.max(_segment_distance(c.points, a, b)))
        reach = max(float(np.min(np.hypot(*(c.points - e).T))) for e in (a, b))
        if off > cell or reach > 2.0 * cell:
            return Outcome(error=f"{label}: cluster misses the exact set "
                                 f"[{a.tolist()}, {b.tolist()}] (off {off:.2e}, "
                                 f"reach {reach:.2e}, cell {cell:.2e})")
        return Outcome()

    return Op(f"mt_set:{space}", call, check)


def _probes(seed):
    """``PROBES_PER_NORM`` random ``(space, p, q, t)`` per norm, interleaved.

    Lengths, directions and parameters are stratified so that every seed
    gives each norm the same spread of cases (an ``mt_set`` call costs more
    on a segment than on a point): the k-th probe of a norm has Euclidean
    length ``0.5 + 0.1 k``, a direction drawn from its own tenth of the
    half-turn and ``t`` from its own tenth of [0.2, 0.8], the strata paired
    at random; the midpoint of ``p`` and ``q`` is uniform in [-0.5, 0.5]^2.
    """
    rng = np.random.default_rng(seed)
    n = PROBES_PER_NORM
    per_norm = []
    for _ in range(3):
        angle = (rng.permutation(n) + rng.random(n)) * (math.pi / n)
        t = 0.2 + 0.6 * (rng.permutation(n) + rng.random(n)) / n
        centre = rng.uniform(-0.5, 0.5, (n, 2))
        half = 0.5 * (0.5 + 0.1 * np.arange(n))
        u = np.stack([np.cos(angle), np.sin(angle)], axis=-1)
        per_norm.append([(centre[k] - half[k] * u[k], centre[k] + half[k] * u[k],
                          float(t[k])) for k in range(n)])
    return [(space, *per_norm[j][k]) for k in range(n)
            for j, space in enumerate(("euclid", "linf", "hybrid"))]


def planar_matrix(pkg, seed, out_dir):
    return [_cli_op(pkg, suite, seed, out_dir) for suite in PLANAR_SUITES]


def funcspace_matrix(pkg, seed, out_dir):
    verify = pkg.verify
    cfg = verify.SampleConfig(seed=seed, tuples=FUNCSPACE_TUPLES, t_grid=33, tol=TOL)
    built = verify.builtin_bicombings(DELTA)
    return [_check_op(pkg, row, "consistent", built[row], cfg) for row in FUNCSPACE_ROWS]


def rigidity(pkg, seed, out_dir):
    ops = [_cli_op(pkg, suite, seed, out_dir) for suite in RIGIDITY_SUITES]
    ops.extend(_probe_op(pkg, *probe) for probe in _probes(seed))
    return ops


def falsify_small(pkg, seed, out_dir):
    verify = pkg.verify
    built = verify.builtin_bicombings(DELTA)
    failing = [(row, prop) for row, props in verify.EXPECTED_MATRIX.items()
               for prop, want in props.items() if not want]
    seeds = np.random.SeedSequence(seed).generate_state(FALSIFY_SEEDS)
    ops = []
    for s in seeds:
        cfg = verify.SampleConfig(seed=int(s), tuples=FALSIFY_TUPLES, t_grid=33, tol=TOL)
        ops.extend(_check_op(pkg, row, prop, built[row], cfg) for row, prop in failing)
    return ops


WORKLOADS = {
    "planar_matrix": planar_matrix,
    "funcspace_matrix": funcspace_matrix,
    "rigidity": rigidity,
    "falsify_small": falsify_small,
}
