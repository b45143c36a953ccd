"""Closed-loop benchmark of bicombing-lab.

One client calls the package's public entry points back to back: the CLI
(``cli.main(["run", ...])``), ``verify.check_*`` and ``verify.mt_set``.
A run builds the workload's inputs from ``--seed``, repeats whole passes
over its operations for about ``--seconds`` seconds, checks every
operation's output and prints, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload planar_matrix --seed 1 --seconds 28 --trace 0

``--trace 0`` reports the end-to-end metrics: each op's best time over the
passes, scaled to a reference machine speed measured by a fixed kernel timed
between the ops (see ``SpeedProbe``). ``--trace 1`` spends the
first half of the time untraced, then instruments every layer (see
``tracing.py``) and reports the per-layer metrics of the traced passes;
``trace.overhead_s`` is the difference of the two halves' pass times.
``--workload all`` runs every workload in its own process, one after the
other. The package is imported from ``src/`` next to this directory;
generated reports and span files go to ``.perfbench_out/``.
"""

import os

# single-threaded numerics; must be set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import PACKAGE, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
#: A percentile is a tail percentile when this many samples lie beyond it.
TAIL_BEYOND = 10
#: Seconds the reference kernel takes at the reference speed: about its
#: median on the 2-vCPU 2.0 GHz Xeon the baseline was measured on.
REFERENCE_KERNEL_S = 0.0033
#: Least time between two timings of the reference kernel.
PROBE_INTERVAL_S = 0.25

_ONE_ROW = np.array([[0.3, 0.4]])
_ROWS = np.linspace(0.0, 1.0, 40000).reshape(-1, 2)
_BUFFERS = np.empty((2, 20000))

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
                    "op_tail_s": "s", "samples_per_s": "1/s", "peak_rss_mb": "MB"}
#: Printed but left out of the JSON result: on ``falsify_small`` the slowest
#: checks are those whose witness refinement runs longest, which depends on
#: the seed, and ``op_tail_s`` spreads by about 0.3 across seeds.
UNGATED = ("op_tail_s",)


def per_layer_unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return {"bicombings.rows_per_call": "rows/call", "verify.scalar_share": "fraction",
            "cli.report_bytes": "B"}.get(name, "count")


class SetupError(RuntimeError):
    """The package cannot be imported from this checkout."""


def import_package():
    """Import the package from ``src/`` afresh, dropping any earlier import."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise SetupError(f"no {PACKAGE} package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise SetupError(f"{PACKAGE} was imported from {pkg.__file__}, not from {SRC}")
    importlib.import_module(PACKAGE + ".cli")
    return current_package()


def current_package():
    """The modules the workloads call, from the current import."""
    return types.SimpleNamespace(**{name: sys.modules[f"{PACKAGE}.{name}"]
                                    for name in ("cli", "verify", "spaces")})


def env_stamp():
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "loadavg": list(os.getloadavg())}


def reference_kernel():
    """Fixed work that tracks the machine's speed: the hybrid norm on one row
    (interpreter and dispatch bound) and on 20000 rows (array bound)."""
    t0 = time.perf_counter()
    x, y = _ONE_ROW[:, 0], _ONE_ROW[:, 1]
    for _ in range(150):
        np.maximum(np.abs(x), np.sqrt((x * x + y * y) / 2.0))
    # into fixed buffers: no allocation, hence no page faults to time
    x, y = _ROWS[:, 0], _ROWS[:, 1]
    a, b = _BUFFERS
    for _ in range(20):
        np.multiply(x, x, out=a)
        np.multiply(y, y, out=b)
        np.add(a, b, out=a)
        np.multiply(a, 0.5, out=a)
        np.sqrt(a, out=a)
        np.abs(x, out=b)
        np.maximum(a, b, out=a)
    return time.perf_counter() - t0


class SpeedProbe:
    """Times the reference kernel between ops, at most every
    ``PROBE_INTERVAL_S``; the machine's speed drifts by up to 2x over minutes,
    and the end-to-end times are scaled by :meth:`factor` to the reference
    speed."""

    def __init__(self):
        self.samples = []
        self._last = -math.inf

    def between_ops(self):
        if time.perf_counter() - self._last >= PROBE_INTERVAL_S:
            self.samples.append(reference_kernel())
            self._last = time.perf_counter()

    def factor(self):
        return REFERENCE_KERNEL_S / statistics.median(self.samples)


def run_pass(ops, first_op, tracer=None, probe=None):
    """Run every op once; returns the pass record."""
    record = {"times": [], "has_reports": [], "errors": [], "samples": 0,
              "report_bytes": 0}
    digest = hashlib.sha256()
    for k, op in enumerate(ops):
        if probe is not None:
            probe.between_ops()
        if op.prepare is not None:
            op.prepare()
        try:
            if tracer is None:
                t0 = time.perf_counter()
                result = op.call()
                seconds = time.perf_counter() - t0
            else:
                result, seconds = tracer.run_op(first_op + k, op.kind, op.call)
            outcome = op.check(result)
        except Exception as exc:  # a raising op is a failed op; keep measuring
            traceback.print_exc(file=sys.stderr)
            record["times"].append(float("nan"))
            record["has_reports"].append(False)
            record["errors"].append(f"{op.kind}: raised {type(exc).__name__}: {exc}")
            continue
        record["times"].append(seconds)
        record["has_reports"].append(bool(outcome.reports))
        if outcome.error is not None:
            record["errors"].append(outcome.error)
        record["samples"] += outcome.samples
        record["report_bytes"] += outcome.report_bytes
        for text in outcome.reports:
            digest.update(text.encode())
            digest.update(b"\n")
    record["fingerprint"] = digest.hexdigest()
    return record


def run_passes(budget, passes, setup, tracer=None, probe=None):
    """Append passes until one more would end further past ``budget`` seconds
    than stopping now ends before it; at least one pass.

    ``setup()`` returns ``(ops, seconds)``: the ops of the next pass and how
    long building them took, which the pass record keeps.
    """
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        ops, setup_seconds = setup()
        record = run_pass(ops, len(ops) * len(passes), tracer, probe)
        record["setup"] = setup_seconds
        passes.append(record)
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last / 2.0 > budget:
            return passes


def best_times(passes):
    """Each op's fastest time over the passes (NaN where it never ran)."""
    return [min((t for t in column if t == t), default=float("nan"))
            for column in zip(*(p["times"] for p in passes))]


def tail(times):
    """Highest percentile with ``TAIL_BEYOND`` samples beyond it, as
    ``(value, percentile)``; the maximum when there are too few samples."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n


def end_to_end(passes, speed):
    """End-to-end metrics, times scaled by ``speed``, and the raw values."""
    best = best_times(passes)
    ran = [t for t in best if t == t]
    tail_value, tail_pct = tail(ran)
    first = passes[0]
    reported = [t for t, has in zip(best, first["has_reports"]) if has and t == t]
    raw = {
        "setup_s": statistics.median(p["setup"] for p in passes),
        "wall_s": sum(ran),
        "op_p50_s": statistics.median(ran),
        "op_tail_s": tail_value,
        "samples_per_s": first["samples"] / sum(reported) if reported else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    scale = {"s": speed, "1/s": 1.0 / speed}
    metrics = {name: value * scale.get(END_TO_END_UNITS[name], 1.0)
               for name, value in raw.items()}
    note = f"p{tail_pct:.1f} of the n={len(ran)} ops' best times"
    if tail_pct == 100.0:
        note += f" (max: fewer than {2 * TAIL_BEYOND + 1} ops)"
    return metrics, raw, note


def run_workload(args):
    build = WORKLOADS[args.workload]
    out_dir = OUT / args.workload
    env = env_stamp()
    print(f"# env python={env['python']} numpy={env['numpy']} nproc={env['nproc']} "
          f"loadavg={','.join(f'{v:.2f}' for v in env['loadavg'])} "
          "threads=1 (OMP/OPENBLAS/MKL)")

    first_op = []

    def fresh_setup():
        t0 = time.perf_counter()
        ops = build(import_package(), args.seed, out_dir)
        t1 = time.perf_counter()
        first_op.append(t1)
        return ops, t1 - t0

    passes = []
    if args.trace:
        run_passes(args.seconds / 2.0, passes, fresh_setup)
        untraced = len(passes)
        tracer = Tracer()
        tracer.install()
        ops = build(current_package(), args.seed, out_dir)
        tracer.enabled = True
        run_passes(args.seconds - (time.perf_counter() - first_op[0]), passes,
                   lambda: (ops, 0.0), tracer)
        tracer.enabled = False
    else:
        probe = SpeedProbe()
        run_passes(args.seconds, passes, fresh_setup, probe=probe)

    errors = [e for p in passes for e in p["errors"]]
    attempted = sum(len(p["times"]) for p in passes)
    fingerprints = {p["fingerprint"] for p in passes}
    correct = not errors and len(fingerprints) == 1
    print(f"# workload={args.workload} seed={args.seed} passes={len(passes)} "
          f"ops={attempted} ({len(passes[0]['times'])} per pass)")

    if args.trace:
        traced = passes[untraced:]
        metrics = tracer.layer_metrics(len(traced))
        metrics["cli.report_bytes"] = statistics.median(p["report_bytes"] for p in traced)
        metrics["trace.overhead_s"] = (sum(best_times(traced))
                                       - sum(best_times(passes[:untraced])))
        span_file = OUT / f"trace_{args.workload}.npz"
        tracer.save(span_file, env)
        op_s = metrics["trace.op_s"]
        print(f"# {len(traced)} traced pass(es) after {untraced} untraced; "
              f"values per traced pass; spans in {span_file.relative_to(ROOT)}")
        for layer in ("spaces", "bicombings", "funcspace", "midpoint", "verify", "cli"):
            share = metrics[f"{layer}.self_s"] / op_s if op_s else 0.0
            calls = tracer.counters[f"{layer}.calls"] / len(traced)
            print(f"#   {layer:11s} calls={calls:12.0f} "
                  f"self_s={metrics[f'{layer}.self_s']:9.4f} share_of_op_time={share:6.1%}")
        units = per_layer_unit
    else:
        speed = probe.factor()
        metrics, raw, tail_note = end_to_end(passes, speed)
        units = END_TO_END_UNITS.get
        print(f"# times are each op's best over the {len(passes)} passes; setup_s is the "
              f"median of the set-ups (fresh import + inputs) before each pass; "
              f"process start to first op {first_op[0] - START:.4f} s")
        print(f"# op_tail_s: {tail_note}")
        print(f"# speed factor {speed:.4f}: reference kernel median "
              f"{statistics.median(probe.samples):.6f} s over {len(probe.samples)} timings "
              f"(reference {REFERENCE_KERNEL_S} s); raw values: "
              + ", ".join(f"{name}={value!r}" for name, value in raw.items()))
    for name, value in metrics.items():
        print(f"{name} {value!r} {units(name)}")
    print(f"error_rate {len(errors) / attempted!r} ({len(errors)}/{attempted} ops failed)")
    print(f"# fingerprint sha256={sorted(fingerprints)[0]}"
          + ("" if len(fingerprints) == 1 else f" DIFFERS between passes: {sorted(fingerprints)}"))
    for err in errors:
        print(f"# FAILED {err}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(errors),
                      "metrics": {name: {"value": value, "unit": units(name)}
                                  for name, value in metrics.items() if name not in UNGATED}}))
    return 0


def run_all(args):
    """Each workload in its own process (``peak_rss_mb`` is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        return (run_all if args.workload == "all" else run_workload)(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
