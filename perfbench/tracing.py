"""Spans and per-layer counters for the traced benchmark run.

The package is instrumented from outside: :meth:`Tracer.install` replaces
every public function of the layers ``spaces``, ``bicombings``,
``funcspace``, ``midpoint``, ``verify`` and ``cli`` with a wrapper, in every
package namespace that binds it and in ``verify.CHECKERS``. Nothing under
``src/`` changes. Three things make this work:

* ``bicombing_lab.midpoint`` is the function that ``__init__`` re-exports,
  so the modules are taken from ``sys.modules``;
* ``sigma_*_bicombing`` and ``FunctionBicombing`` bind the selection or
  combine function when the bicombing is built, so the wrappers must be in
  place before any bicombing is built;
* ``cli`` and ``run_matrix`` dispatch through ``verify.CHECKERS``, so the
  entries of that dict are wrapped too.

A call from one layer into another (or from the benchmark into a layer) is
a *boundary call* and gets a span: name, start, end, parent span and op id.
Calls inside a layer only bump counters, so a layer's self time is the
time in its spans minus the time in the spans they caused, and a
function's span time includes the same-layer helpers it calls. Spans stay
in memory and are written once by :meth:`Tracer.save`.

Counter definitions behind the per-layer metrics:

* ``<layer>.calls`` / ``<layer>.rows`` -- boundary calls into the layer and
  the point rows they carry (largest leading dimension of the point
  arguments, or the sample count).
* ``spaces.<fn>.self_s`` -- time in the boundary spans of that function.
* *selection calls* -- ``linear``, ``sigma_delta``, ``sigma_tilde_delta``,
  ``sigma_X1``, ``tau_X1`` and ``pushforward``. One made while another is
  running is a *re-entry*, except ``linear``, which validates nothing and
  serves the others as a helper; an outermost one with a single row is
  *scalar*.
* ``bicombings.validate_s`` -- time in ``spaces.contains`` spans under a
  selection call.
* ``verify.scalar_share`` -- time in scalar selection calls made under a
  check, over the time in checks.
* ``midpoint.halvings`` -- gap columns of ``midpoint_iteration``'s result
  that hold a number, less the initial column.
* ``verify.mt_set.points`` -- points in the clusters ``mt_set`` returns.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

PACKAGE = "bicombing_lab"
LAYERS = ("spaces", "bicombings", "funcspace", "midpoint", "verify", "cli")

#: Selection evaluators and the position of their ``p`` argument.
SELECTIONS = {"linear": 0, "sigma_delta": 1, "sigma_tilde_delta": 1,
              "sigma_X1": 0, "tau_X1": 0, "pushforward": 2}
#: Other row-carrying functions: positions of point arguments, or ``None``
#: for a sample count in the third argument.
ROW_ARGS = {
    ("spaces", "norm"): (1,), ("spaces", "dist"): (1, 2),
    ("spaces", "contains"): (1,), ("spaces", "sample_region"): None,
    ("spaces", "sample_region_rng"): None, ("bicombings", "fold_s"): (0,),
    ("bicombings", "fold_f"): (0,), ("bicombings", "retraction_pi"): (0,),
}
FUNCSPACE_COMBINES = ("vertical_bicombing", "horizontal_bicombing")


def _rows(x):
    shape = getattr(x, "shape", None)
    if shape is None:
        shape = np.shape(x)
    return shape[0] if len(shape) >= 2 else 1


def _selection_rows(p_at):
    def rows(args):
        if len(args) < p_at + 3:
            return 1
        t = args[p_at + 2]
        return max(_rows(args[p_at]), _rows(args[p_at + 1]),
                   int(np.size(t)) if np.ndim(t) else 1)
    return rows


def _point_rows(positions):
    def rows(args):
        return max((_rows(args[i]) for i in positions if i < len(args)), default=1)
    return rows


def _count_rows(args):
    return int(args[2]) if len(args) > 2 else 1


class Tracer:
    """Records spans and counters while ``enabled``; see the module docstring."""

    def __init__(self):
        self.enabled = False
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters = defaultdict(float)
        # frames of the open spans: [span id, layer, time in child spans]
        self._stack = []
        self._op = -1
        self._selection_depth = 0
        self._check_depth = 0

    # -- spans -------------------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid, layer, start):
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self._op)
        self.span_start.append(start)
        self.span_end.append(start)
        frame = [sid, layer, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame, end):
        self._stack.pop()
        sid = frame[0]
        self.span_end[sid] = end
        duration = end - self.span_start[sid]
        if self._stack:
            self._stack[-1][2] += duration
        return duration, duration - frame[2]

    def run_op(self, op_id, kind, call):
        """Run ``call()`` inside an op span; returns ``(result, seconds)``."""
        self._op = op_id
        start = time.perf_counter()
        frame = self._open(self._name_id(f"op:{kind}"), "bench", start)
        try:
            result = call()
        finally:
            end = time.perf_counter()
            self._close(frame, end)
            self.counters["trace.op_s"] += end - start
            self._op = -1
        return result, end - start

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, layer, name, fn):
        tracer = self
        clock = time.perf_counter
        counters = self.counters
        nid = self._name_id(f"{layer}.{name}")
        selection = layer == "bicombings" and name in SELECTIONS
        check = layer == "verify" and name.startswith("check_")
        contains = layer == "spaces" and name == "contains"
        if selection:
            rows_of = _selection_rows(SELECTIONS[name])
        elif (layer, name) in ROW_ARGS:
            positions = ROW_ARGS[(layer, name)]
            rows_of = _count_rows if positions is None else _point_rows(positions)
        else:
            rows_of = None
        on_result = {("midpoint", "midpoint_iteration"): self._on_halvings,
                     ("verify", "mt_set"): self._on_mt_set}.get((layer, name))
        if check:
            on_result = self._on_check
        reentrant = selection and name != "linear"
        fn_calls = f"{layer}.{name}.calls"
        fn_rows = f"{layer}.{name}.rows"
        fn_self = f"{layer}.{name}.self_s"
        layer_calls, layer_rows, layer_self = (f"{layer}.calls", f"{layer}.rows",
                                               f"{layer}.self_s")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            counters[fn_calls] += 1
            rows = rows_of(args) if rows_of is not None else 0
            nested = selection and tracer._selection_depth > 0
            if nested and reentrant:
                counters["bicombings.reentry_calls"] += 1
            if stack and stack[-1][1] == layer:
                # same-layer call: counted, no span
                if selection:
                    tracer._selection_depth += 1
                try:
                    result = fn(*args, **kwargs)
                finally:
                    if selection:
                        tracer._selection_depth -= 1
                if on_result is not None:
                    on_result(result)
                return result
            counters[layer_calls] += 1
            counters[layer_rows] += rows
            counters[fn_rows] += rows
            if selection:
                tracer._selection_depth += 1
            if check:
                tracer._check_depth += 1
            frame = tracer._open(nid, layer, clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                duration, self_time = tracer._close(frame, clock())
                if selection:
                    tracer._selection_depth -= 1
                if check:
                    tracer._check_depth -= 1
            counters[layer_self] += self_time
            counters[fn_self] += self_time
            if selection and not nested and rows == 1:
                counters["bicombings.scalar_calls"] += 1
                counters["bicombings.scalar_s"] += duration
                if tracer._check_depth > 0:
                    counters["verify.scalar_in_check_s"] += duration
            if contains and tracer._selection_depth > 0:
                counters["bicombings.validate_s"] += duration
            if check:
                counters["verify.check_s"] += duration
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _on_check(self, report):
        self.counters["verify.checks"] += 1
        self.counters["verify.samples"] += report.samples_evaluated

    def _on_halvings(self, result):
        gaps = result[1]
        self.counters["midpoint.halvings"] += max(
            int(np.count_nonzero(~np.isnan(gaps).all(axis=0))) - 1, 0)

    def _on_mt_set(self, clusters):
        self.counters["verify.mt_set.points"] += sum(len(c.points) for c in clusters)

    def install(self):
        """Wrap the public functions of every layer of the imported package."""
        modules = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(layer, name, obj)
        namespaces = [m for name, m in sys.modules.items()
                      if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for mod in namespaces:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrapped:
                            obj[key] = wrapped[value]

    # -- results -----------------------------------------------------------

    def layer_metrics(self, passes):
        """Per-layer metrics per traced pass (``passes`` traced passes)."""
        c = self.counters
        per = 1.0 / passes

        def ratio(num, den):
            return c[num] / c[den] if c[den] else 0.0

        return {
            "spaces.calls": c["spaces.calls"] * per,
            "spaces.rows": c["spaces.rows"] * per,
            "spaces.self_s": c["spaces.self_s"] * per,
            "spaces.rows_per_s": ratio("spaces.rows", "spaces.self_s"),
            "spaces.dist.rows": c["spaces.dist.rows"] * per,
            "spaces.dist.self_s": c["spaces.dist.self_s"] * per,
            "spaces.contains.calls": c["spaces.contains.calls"] * per,
            "spaces.contains.self_s": c["spaces.contains.self_s"] * per,
            "spaces.sample.self_s": (c["spaces.sample_region.self_s"]
                                     + c["spaces.sample_region_rng.self_s"]) * per,
            "bicombings.calls": c["bicombings.calls"] * per,
            "bicombings.rows": c["bicombings.rows"] * per,
            "bicombings.self_s": c["bicombings.self_s"] * per,
            "bicombings.rows_per_call": ratio("bicombings.rows", "bicombings.calls"),
            "bicombings.scalar_calls": c["bicombings.scalar_calls"] * per,
            "bicombings.scalar_s": c["bicombings.scalar_s"] * per,
            "bicombings.validate_s": c["bicombings.validate_s"] * per,
            "bicombings.reentry_calls": c["bicombings.reentry_calls"] * per,
            "funcspace.calls": c["funcspace.calls"] * per,
            "funcspace.self_s": c["funcspace.self_s"] * per,
            "funcspace.combine_calls": sum(c[f"funcspace.{n}.calls"]
                                           for n in FUNCSPACE_COMBINES) * per,
            "funcspace.invert_calls": c["funcspace.invert.calls"] * per,
            "funcspace.l1_calls": c["funcspace.l1_distance.calls"] * per,
            "funcspace.sample_s": c["funcspace.random_monotone_fn.self_s"] * per,
            "midpoint.calls": c["midpoint.calls"] * per,
            "midpoint.halvings": c["midpoint.halvings"] * per,
            "midpoint.self_s": c["midpoint.self_s"] * per,
            "verify.checks": c["verify.checks"] * per,
            "verify.samples": c["verify.samples"] * per,
            "verify.self_s": c["verify.self_s"] * per,
            "verify.scalar_share": ratio("verify.scalar_in_check_s", "verify.check_s"),
            "verify.mt_set.calls": c["verify.mt_set.calls"] * per,
            "verify.mt_set.self_s": c["verify.mt_set.self_s"] * per,
            "verify.mt_set.points": c["verify.mt_set.points"] * per,
            "cli.suites": c["cli.run_suite.calls"] * per,
            "cli.self_s": c["cli.self_s"] * per,
            "trace.op_s": c["trace.op_s"] * per,
            "trace.spans": len(self.span_name) * per,
        }

    def save(self, path, env):
        """Write every span and the environment stamp to ``path`` (npz)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name=np.asarray(self.span_name),
                 parent=np.asarray(self.span_parent), op=np.asarray(self.span_op),
                 start=np.asarray(self.span_start), end=np.asarray(self.span_end),
                 env=np.array(repr(env)))
