"""Span tracing of the cfsgauge modules, installed from outside the package.

``install`` wraps every public function and method of the cfsgauge modules
in a span recorder.  The wrapper replaces the function in every namespace
that holds it, not only where it is defined: ``cli.opnorm``,
``wave_charts._krein.sqrt_near_identity`` (the krein module itself),
``perturbation.sqrt_near_identity`` and the task table ``cli.TASK_RUNNERS``
all reach the same wrapper, so no call into a layer escapes the trace.  The
returned ``restore`` puts every original back, so later untraced runs
measure unwrapped code.

Spans are kept in flat arrays (name, start, end, parent span, op id) and
reduced after the traced phase.  A span's self time is its duration minus
the durations of its direct children; a layer's self time is the sum over
the spans of that module.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from array import array
from contextlib import contextmanager

import numpy as np

#: the measured layers, one per cfsgauge module that does work
LAYERS = ("dirac_box", "correlation", "krein", "manifold", "wave_charts",
          "closed_chain", "perturbation", "randoms", "cli")
#: private helpers wrapped anyway, because a metric needs their span
PRIVATE_SPANS = {"cli": ("_write_kernel_csv",)}
#: methods with a leading underscore that are still entry points
DUNDER_SPANS = ("__post_init__", "__call__")
#: an opnorm input counts as dense when both sides exceed this
DENSE_SIDE = 16

#: cfsgauge.errors types counted when they leave a span
ERROR_TYPES = ("SingularGram", "OutOfConvergenceRadius", "NotSymmetric",
               "NotRegular", "SignatureLost", "TooFarFromBase",
               "InvalidSignature", "NotInvertible", "OutOfChartDomain",
               "EmptyCutoff", "MasslessNormalization", "TooFewModes",
               "DegenerateChain", "BranchCut", "NotDiagonalKernel",
               "ConfigError", "TaskError")

_CLI_TASKS = {"dim-count": "cli.task_dim_count", "charts": "cli.task_charts",
              "gauge": "cli.task_gauge", "spectral": "cli.task_spectral",
              "perturb": "cli.task_perturb"}

#: every per-layer metric, with its unit; values are per timed op unless
#: the unit says otherwise.  "B/op-computed" bytes follow from array shapes.
PER_LAYER = (
    ("dirac_box.self_s", "s/op"),
    ("dirac_box.momentum_modes.calls", "count/op"),
    ("dirac_box.wave_value_matrix.calls", "count/op"),
    ("dirac_box.wave_value_matrix.self_s", "s/op"),
    ("dirac_box.kernel_mode_sum.calls", "count/op"),
    ("dirac_box.kernel_mode_sum.self_s", "s/op"),
    ("dirac_box.spinor_solves", "count/op"),
    ("dirac_box.spinor_useful_ratio", "ratio"),
    ("dirac_box.wave_bytes", "B/op-computed"),
    ("correlation.self_s", "s/op"),
    ("correlation.split_by_image.calls", "count/op"),
    ("correlation.split_by_image.self_s", "s/op"),
    ("correlation.dense_bytes", "B/op-computed"),
    ("krein.opnorm.dense_calls", "count/op"),
    ("krein.self_s", "s/op"),
    ("krein.opnorm.calls", "count/op"),
    ("krein.opnorm.self_s", "s/op"),
    ("krein.sqrt_near_identity.calls", "count/op"),
    ("krein.sqrt.eig", "count/op"),
    ("krein.sqrt.series", "count/op"),
    ("krein.binomial_sqrt_series.calls", "count/op"),
    ("krein.polar_decompose.calls", "count/op"),
    ("krein.KreinSpace.constructions", "count/op"),
    ("manifold.self_s", "s/op"),
    ("manifold.chart_forward.calls", "count/op"),
    ("manifold.chart_forward.self_s", "s/op"),
    ("manifold.chart_inverse.calls", "count/op"),
    ("manifold.chart_inverse.self_s", "s/op"),
    ("manifold.chart_jacobian_rank.self_s", "s/op"),
    ("wave_charts.self_s", "s/op"),
    ("wave_charts.symmetric_wave_chart.calls", "count/op"),
    ("wave_charts.symmetric_wave_chart.self_s", "s/op"),
    ("wave_charts.build_gauge.self_s", "s/op"),
    ("wave_charts.charts_coincide_check.self_s", "s/op"),
    ("closed_chain.self_s", "s/op"),
    ("closed_chain.calls", "count/op"),
    ("perturbation.self_s", "s/op"),
    ("perturbation.perturbed_symmetric_gauge.calls", "count/op"),
    ("randoms.self_s", "s/op"),
    *((f"cli.task.{task}.s", "s/op") for task in _CLI_TASKS),
    ("cli.parse.s", "s/op"),
    ("cli.write.self_s", "s/op"),
    ("cli.write.bytes", "B/op"),
    *((f"errors.{name}.count", "count/op") for name in ERROR_TYPES),
    ("errors.other.count", "count/op"),
    ("trace.overhead_s", "s"),
)


class Recorder:
    """Spans and counters of one traced phase."""

    def __init__(self):
        from cfsgauge.errors import CfsGaugeError
        self.error_base = CfsGaugeError
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.errors: dict[str, int] = {}
        self.momenta: set = set()
        self.sqrt_routes = {"eig": 0, "series": 0}
        self.wave_bytes = 0
        self.dense_bytes = 0
        self.opnorm_dense = 0

    def name_index(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def op_span(self, op_id: int):
        """Root span of one benchmark op; every span inside shares its id."""
        self.op_id = op_id
        idx = self._open(self.name_index("bench.op"))
        try:
            yield
        finally:
            self._close(idx)

    def note_error(self, exc: BaseException) -> None:
        # one exception crossing several spans is counted once
        if getattr(exc, "_perfbench_counted", False):
            return
        exc._perfbench_counted = True
        name = type(exc).__name__
        key = name if name in ERROR_TYPES else "other"
        self.errors[key] = self.errors.get(key, 0) + 1

    def wrap(self, name: str, fn, observe=None):
        nid = self.name_index(name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = rec._open(nid)
            try:
                result = fn(*args, **kwargs)
            except rec.error_base as exc:
                rec.note_error(exc)
                raise
            finally:
                rec._close(idx)
            if observe is not None:
                observe(rec, args, kwargs, result)
            return result

        traced.__perfbench_original__ = fn
        return traced

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        covered = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        self_s = np.bincount(nid, weights=dur - covered, minlength=k)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(self_s[i])}
                for i, name in enumerate(self.names)}

    def save_spans(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))


# --- observers: counters taken from arguments and results ---------------


def _see_spinor(rec, args, kwargs, result):
    mode = args[0] if args else kwargs["mode"]
    rec.momenta.add((rec.op_id, mode.n_vec))


def _see_waves(rec, args, kwargs, result):
    rec.wave_bytes += result.nbytes


def _see_split(rec, args, kwargs, result):
    f = result.operator.shape[0]
    rec.dense_bytes += 16 * f * f


def _see_built(rec, args, kwargs, result):
    f = result.shape[0]
    rec.dense_bytes += 16 * f * f


def _see_opnorm(rec, args, kwargs, result):
    shape = np.shape(args[0] if args else kwargs["a"])
    if len(shape) == 2 and min(shape) > DENSE_SIDE:
        rec.opnorm_dense += 1


def _see_sqrt(rec, args, kwargs, result):
    rec.sqrt_routes[result.method] = rec.sqrt_routes.get(result.method, 0) + 1


_OBSERVERS = {
    "dirac_box.sea_spinors": _see_spinor,
    "dirac_box.chi_spinors": _see_spinor,
    "dirac_box.wave_value_matrix": _see_waves,
    "correlation.split_by_image": _see_split,
    "correlation.local_correlation": _see_built,
    "krein.opnorm": _see_opnorm,
    "krein.sqrt_near_identity": _see_sqrt,
}


# --- installing and removing the wrappers --------------------------------


def _modules() -> dict:
    return {name: importlib.import_module(f"cfsgauge.{name}")
            for name in LAYERS + ("errors",)}


def _layer_of(obj, modules) -> str | None:
    owner = getattr(obj, "__module__", None)
    for name, module in modules.items():
        if owner == module.__name__:
            return name
    return None


def _is_entry(name: str, layer: str) -> bool:
    return not name.startswith("_") or name in PRIVATE_SPANS.get(layer, ())


def install(rec: Recorder):
    """Wrap every public cfsgauge function and method; return ``restore``."""
    import cfsgauge

    modules = _modules()
    namespaces = [cfsgauge] + list(modules.values())
    wrappers: dict[int, object] = {}
    undo: list[tuple] = []

    def wrapper_for(fn, layer: str, qualname: str):
        if id(fn) not in wrappers:
            name = f"{layer}.{qualname}"
            wrappers[id(fn)] = rec.wrap(name, fn, _OBSERVERS.get(name))
        return wrappers[id(fn)]

    # functions, wherever a module namespace refers to them
    for namespace in namespaces:
        for attr, value in list(vars(namespace).items()):
            if not isinstance(value, types.FunctionType):
                continue
            layer = _layer_of(value, modules)
            if layer is None or not _is_entry(value.__name__, layer):
                continue
            setattr(namespace, attr, wrapper_for(value, layer, value.__qualname__))
            undo.append((namespace, attr, value))

    # tables of functions, such as cli.TASK_RUNNERS
    for module in modules.values():
        for value in vars(module).values():
            if not isinstance(value, dict):
                continue
            for key, item in list(value.items()):
                if isinstance(item, types.FunctionType) and id(item) in wrappers:
                    value[key] = wrappers[id(item)]
                    undo.append((value, key, item))

    # methods of the classes the modules define
    for layer, module in modules.items():
        for cls in list(vars(module).values()):
            if (not isinstance(cls, type) or cls.__module__ != module.__name__
                    or issubclass(cls, BaseException)):
                continue
            for attr, member in list(vars(cls).items()):
                if not (_is_entry(attr, layer) or attr in DUNDER_SPANS):
                    continue
                qualname = f"{cls.__qualname__}.{attr}"
                if isinstance(member, types.FunctionType):
                    new = wrapper_for(member, layer, qualname)
                elif isinstance(member, (classmethod, staticmethod)):
                    new = type(member)(wrapper_for(member.__func__, layer,
                                                   qualname))
                else:
                    continue
                setattr(cls, attr, new)
                undo.append((cls, attr, member))

    _assert_complete(namespaces, modules)

    def restore():
        for target, key, original in reversed(undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        _assert_restored(namespaces)

    return restore


def _assert_complete(namespaces, modules) -> None:
    for namespace in namespaces:
        for attr, value in vars(namespace).items():
            if (isinstance(value, types.FunctionType)
                    and not hasattr(value, "__perfbench_original__")
                    and _layer_of(value, modules) is not None
                    and _is_entry(value.__name__, _layer_of(value, modules))):
                raise RuntimeError(f"{namespace.__name__}.{attr} escaped the trace")


def _assert_restored(namespaces) -> None:
    for namespace in namespaces:
        for attr, value in vars(namespace).items():
            if hasattr(value, "__perfbench_original__"):
                raise RuntimeError(f"{namespace.__name__}.{attr} still wrapped")


# --- per-layer metrics ----------------------------------------------------


def layer_metrics(rec: Recorder, n_ops: int, written_bytes: int,
                  overhead_s: float) -> dict:
    """Reduce the spans of ``n_ops`` traced ops to the PER_LAYER values."""
    spans = rec.summary()

    def span(name, field):
        return spans.get(name, {}).get(field, 0) / n_ops

    def layer_total(layer, field):
        prefix = layer + "."
        return sum(v[field] for k, v in spans.items()
                   if k.startswith(prefix)) / n_ops

    solves = (spans.get("dirac_box.sea_spinors", {}).get("calls", 0)
              + spans.get("dirac_box.chi_spinors", {}).get("calls", 0))
    values = {
        "dirac_box.spinor_solves": solves / n_ops,
        "dirac_box.spinor_useful_ratio": len(rec.momenta) / solves if solves else 0.0,
        "dirac_box.wave_bytes": rec.wave_bytes / n_ops,
        "correlation.dense_bytes": rec.dense_bytes / n_ops,
        "krein.opnorm.dense_calls": rec.opnorm_dense / n_ops,
        "krein.sqrt.eig": rec.sqrt_routes.get("eig", 0) / n_ops,
        "krein.sqrt.series": rec.sqrt_routes.get("series", 0) / n_ops,
        "krein.KreinSpace.constructions": span("krein.KreinSpace.__post_init__",
                                               "calls"),
        "closed_chain.calls": layer_total("closed_chain", "calls"),
        "cli.parse.s": span("cli.load_config", "total_s"),
        "cli.write.self_s": (span("cli.run_experiment", "self_s")
                             + span("cli._write_kernel_csv", "self_s")),
        "cli.write.bytes": written_bytes / n_ops,
        "trace.overhead_s": overhead_s,
    }
    for task, span_name in _CLI_TASKS.items():
        values[f"cli.task.{task}.s"] = span(span_name, "total_s")
    for name in ERROR_TYPES + ("other",):
        values[f"errors.{name}.count"] = rec.errors.get(name, 0) / n_ops

    for name, _ in PER_LAYER:
        if name in values:
            continue
        if name.endswith(".self_s") and name.count(".") == 1:
            values[name] = layer_total(name.split(".")[0], "self_s")
        elif name.endswith(".calls"):
            values[name] = span(name[:-len(".calls")], "calls")
        elif name.endswith(".self_s"):
            values[name] = span(name[:-len(".self_s")], "self_s")
        else:
            raise KeyError(name)
    return values
