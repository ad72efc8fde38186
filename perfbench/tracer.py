"""Span tracer that wraps orthojac's public functions from outside the package.

``Tracer.install()`` replaces every traced function at every binding site
(modules bind each other's functions with ``from .x import y``, so
``svd_values`` lives in ``linalg``, ``verify`` and ``cli``), and every
traced method on its class.  Each call records a span (name, start, end,
parent) in flat in-memory arrays; ``uninstall()`` puts every original
back.  Span times are process CPU seconds, the clock the end-to-end
throughput uses.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array

import numpy as np

PACKAGE = "orthojac"

# module -> public functions traced at every binding site
FUNCTIONS = {
    "linalg": ("svd_values", "householder_qr", "frobenius_defect"),
    "layers": ("layer_from_json",),
    "verify": ("spectrum_probe", "stack_jacobian", "orthogonality_defect",
               "partial_isometry_defect", "check_dynamical_isometry", "density_gap"),
    "train": ("make_network", "adam_step", "evaluate", "softmax_cross_entropy_batch",
              "train"),
    "data": ("synthetic_blobs", "train_val_split", "batches"),
    "serial": ("save_arrays",),
    "cli": ("cmd_verify", "cmd_spectrum", "cmd_density", "cmd_train"),
}

LAYER_CLASSES = ("CaseILayer", "CaseIILayer", "GatedLayer", "ComposedLayer",
                 "PartitionedLayer", "LimitLayer")
LAYER_METHODS = ("forward", "forward_batch", "jacobian", "vjp", "vjp_batch",
                 "kink_distance")
# module -> class -> methods traced on the class
METHODS = {
    "layers": {cls: LAYER_METHODS for cls in LAYER_CLASSES},
    "pwl": {"PwlScalar": ("value", "deriv", "distance_to_breakpoint")},
    "rng": {"SplitMix64": ("gaussian", "uniform", "ball", "permutation",
                           "gaussian_matrix")},
    "train": {"Network": ("forward_cache", "backward_batch")},
}

# per-layer metrics reported from a traced run, in BENCHMARK.json order
CALL_METRICS = (
    ["linalg.svd_values", "linalg.householder_qr", "linalg.frobenius_defect"]
    + [f"layers.{m}" for m in ("forward", "forward_batch", "jacobian", "vjp_batch",
                                "kink_distance")]
    + [f"pwl.PwlScalar.{m}" for m in METHODS["pwl"]["PwlScalar"]]
    + [f"verify.{f}" for f in FUNCTIONS["verify"]]
    + [f"rng.SplitMix64.{m}" for m in METHODS["rng"]["SplitMix64"]]
    + [f"train.{f}" for f in ("make_network", "adam_step", "evaluate",
                              "softmax_cross_entropy_batch")]
    + ["train.Network.forward_cache", "train.Network.backward_batch"]
    + [f"data.{f}" for f in FUNCTIONS["data"]]
    + ["serial.save_arrays"]
)
SELF_ONLY_METRICS = (
    [f"layers.{cls}" for cls in LAYER_CLASSES]
    + ["layers.layer_from_json"]
    + [f"cli.{f}" for f in FUNCTIONS["cli"]]
)
COUNTERS = ("layers.rows", "layers.near_kink", "pwl.elements", "rng.ball.points",
            "serial.bytes", "cli.bytes_written")
DERIVED = ("linalg.svd_values.p50_ms", "linalg.svd_values.p99_ms",
           "verify.probe_yield", "verify.probe_ms.p50", "verify.probe_ms.p99",
           "train.step_ms.p50", "train.step_ms.p99", "trace.overhead")


def metric_units() -> dict:
    """Every per-layer metric name mapped to (unit, better)."""
    units = {}
    for name in CALL_METRICS:
        units[f"{name}.calls"] = ("count", "lower")
        units[f"{name}.self_s"] = ("s", "lower")
    for name in SELF_ONLY_METRICS:
        units[f"{name}.self_s"] = ("s", "lower")
    for name in COUNTERS:
        units[name] = ("bytes", "lower") if "bytes" in name else ("count", "lower")
    for name in DERIVED:
        units[name] = ("ms", "lower")
    units["verify.probe_yield"] = ("ratio", "higher")
    units["trace.overhead"] = ("ratio", "higher")
    return units


def _package_modules() -> dict:
    return {name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}


def bindings() -> dict:
    """Every attribute of every orthojac module and of the classes they define.

    Keys are ``(owner qualname, attribute)``; values the bound objects.  A
    traced run must leave this mapping unchanged.
    """
    out = {}
    for mod_name, mod in _package_modules().items():
        for attr, value in vars(mod).items():
            out[(mod_name, attr)] = value
            if inspect.isclass(value) and value.__module__ == mod_name:
                for cls_attr, cls_value in vars(value).items():
                    out[(f"{mod_name}.{attr}", cls_attr)] = cls_value
    return out


def changed_bindings(before: dict, after: dict) -> list:
    """Names whose bound object differs between two ``bindings()`` snapshots."""
    return sorted(f"{owner}.{attr}" for owner, attr in before.keys() | after.keys()
                  if before.get((owner, attr)) is not after.get((owner, attr)))


class Tracer:
    """Records nested spans of the traced functions in flat arrays."""

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self.counters = {name: 0 for name in COUNTERS}
        self._stack: list[int] = []
        # the object whose method each open span runs (None for functions)
        self._owners: list = []
        self._patches: list[tuple] = []
        self._layer_ids: set[int] = set()

    # -- recording ---------------------------------------------------------

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int, owner=None) -> int:
        index = len(self.span_start)
        stack = self._stack
        self.span_name.append(name_id)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_end.append(0.0)
        stack.append(index)
        self._owners.append(owner)
        self.span_start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.span_end[index] = self.clock()
        self._stack.pop()
        self._owners.pop()

    def _wrap(self, name: str, fn, on_enter=None, on_error=None, method=False):
        tracer = self
        owners = self._owners
        name_id = self.intern(name)
        calls = self.calls
        errors = self.errors
        calls.setdefault(name, 0)
        errors.setdefault(name, 0)

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the generator's own work is timed
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[name] += 1
                inner = fn(*args, **kwargs)
                while True:
                    index = tracer.open(name_id)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(index)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            owner = args[0] if method else None
            # a method called by another method of the same object (ball ->
            # self.gaussian, jacobian -> self.kink_distance) is that method's work
            if owner is not None and owners and owners[-1] is owner:
                return fn(*args, **kwargs)
            calls[name] += 1
            if on_enter is not None:
                on_enter(args)
            index = tracer.open(name_id, owner)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                errors[name] += 1
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                tracer.close(index)

        return wrapper

    # -- counters recorded at the traced boundaries --------------------------

    def _in_layer(self, depth: int) -> bool:
        """Whether the span ``depth`` levels down the stack is a layer method."""
        stack = self._stack
        return len(stack) >= depth and self.span_name[stack[-depth]] in self._layer_ids

    def _hooks(self, name: str, near_kink_error):
        """(on_enter, on_error) that update the counters for one traced method."""
        counters = self.counters
        method = name.rsplit(".", 1)[1]
        if name.startswith("layers."):
            batched = method in ("forward_batch", "vjp_batch")

            # rows and kink rejections count once, at the outermost layer call
            def on_enter(args):
                if not self._in_layer(1):
                    counters["layers.rows"] += len(args[1]) if batched else 1

            def on_error(exc):
                # the failing span is still open on top of the stack
                if isinstance(exc, near_kink_error) and not self._in_layer(2):
                    counters["layers.near_kink"] += 1

            return on_enter, (on_error if method == "jacobian" else None)
        if name.startswith("pwl."):
            def on_enter(args):
                counters["pwl.elements"] += int(np.size(args[1]))

            return on_enter, None
        if name == "rng.SplitMix64.ball":
            def on_enter(args):
                counters["rng.ball.points"] += int(args[1])

            return on_enter, None
        return None, None

    # -- install / uninstall -----------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every traced function and method at every binding site."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        from orthojac.errors import NearKinkError

        modules = _package_modules()
        for mod_short, names in FUNCTIONS.items():
            source = modules[f"{PACKAGE}.{mod_short}"]
            for fname in names:
                original = getattr(source, fname)
                if fname == "save_arrays":
                    wrapped = self._wrap_save_arrays(original)
                else:
                    wrapped = self._wrap(f"{mod_short}.{fname}", original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, attr, wrapped)
        for mod_short, classes in METHODS.items():
            source = modules[f"{PACKAGE}.{mod_short}"]
            for cls_name, methods in classes.items():
                cls = getattr(source, cls_name)
                for method in methods:
                    original = vars(cls)[method]
                    name = f"{mod_short}.{cls_name}.{method}"
                    if mod_short == "layers":
                        self._layer_ids.add(self.intern(name))
                    wrapped = self._wrap(name, original,
                                         *self._hooks(name, NearKinkError), method=True)
                    # aliases such as PwlScalar.__call__ = value share the wrapper
                    for attr, value in list(vars(cls).items()):
                        if value is original:
                            self._replace(cls, attr, wrapped)

    def _wrap_save_arrays(self, original):
        counters = self.counters
        traced = self._wrap("serial.save_arrays", original)

        @functools.wraps(original)
        def wrapper(path, *args, **kwargs):
            traced(path, *args, **kwargs)
            counters["serial.bytes"] += os.path.getsize(path)

        return wrapper

    def uninstall(self) -> None:
        """Restore every original binding, most recent patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        """(name id, parent, start, end) of every recorded span as numpy copies."""
        return (np.array(self.span_name, dtype=np.int64),
                np.array(self.span_parent, dtype=np.int64),
                np.array(self.span_start, dtype=np.float64),
                np.array(self.span_end, dtype=np.float64))

    def write(self, path: str) -> None:
        """Write every span as ``name<TAB>start<TAB>end<TAB>parent`` lines."""
        names, parents, starts, ends = self.arrays()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for i in range(len(names)):
                fh.write(f"{self.names[names[i]]}\t{starts[i]!r}\t{ends[i]!r}"
                         f"\t{parents[i]}\n")


def self_times(parents: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Children of one span run one after another inside it (one thread), so
    their summed duration is the part of the parent interval they cover.
    """
    durations = ends - starts
    has_parent = parents >= 0
    covered = np.bincount(parents[has_parent], weights=durations[has_parent],
                          minlength=len(durations))
    return durations - covered


def _percentile_ms(values: list, q: float) -> float:
    return float(np.percentile(values, q)) * 1000.0 if len(values) else 0.0


def _sibling_intervals(names, parents, starts, ends, id_of, first: str, last: str):
    """Intervals from each ``first`` span to the close of the following ``last``.

    ``first`` and ``last`` spans are matched among siblings (same parent) in
    start order; with ``first == last`` an interval runs from one ``first``
    span to just before the next, or to the last sibling's end.
    """
    first_id, last_id = id_of.get(first), id_of.get(last)
    if first_id is None or last_id is None:
        return []
    parents_of_first = set(parents[names == first_id].tolist())
    out = []
    for parent in parents_of_first:
        sib = np.flatnonzero(parents == parent)
        sib = sib[np.argsort(starts[sib], kind="stable")]
        open_at = None
        for i in sib:
            if first == last and names[i] == first_id:
                if open_at is not None:
                    out.append(starts[i] - open_at)
                open_at = starts[i]
            elif names[i] == first_id:
                open_at = starts[i]
            elif names[i] == last_id and open_at is not None:
                out.append(ends[i] - open_at)
                open_at = None
        if first == last and open_at is not None:
            out.append(float(np.max(ends[sib])) - open_at)
    return out


def per_layer_metrics(tracer: Tracer, invocations: int) -> dict:
    """Aggregate the recorded spans into the per-layer metric table.

    Counts, self times and counters are means per traced invocation, so
    they do not grow with the number of invocations that fit in a run.
    """
    names, parents, starts, ends = tracer.arrays()
    own = self_times(parents, starts, ends)
    by_name = np.bincount(names, weights=own, minlength=len(tracer.names))
    self_s = {name: float(by_name[i]) for i, name in enumerate(tracer.names)}
    id_of = {name: i for i, name in enumerate(tracer.names)}

    metrics = {}
    for name in CALL_METRICS:
        if name.startswith("layers."):
            method = name.split(".", 1)[1]
            members = [f"layers.{cls}.{method}" for cls in LAYER_CLASSES]
        else:
            members = [name]
        metrics[f"{name}.calls"] = sum(tracer.calls.get(m, 0) for m in members)
        metrics[f"{name}.self_s"] = sum(self_s.get(m, 0.0) for m in members)
    for name in SELF_ONLY_METRICS:
        metrics[f"{name}.self_s"] = sum(
            value for n, value in self_s.items()
            if n == name or n.startswith(name + "."))
    metrics.update(tracer.counters)
    metrics = {name: value / invocations for name, value in metrics.items()}

    svd = id_of.get("linalg.svd_values")
    svd_ms = (ends - starts)[names == svd].tolist() if svd is not None else []
    metrics["linalg.svd_values.p50_ms"] = _percentile_ms(svd_ms, 50)
    metrics["linalg.svd_values.p99_ms"] = _percentile_ms(svd_ms, 99)

    # every probe of verify and spectrum goes through one stack_jacobian call
    attempted = tracer.calls.get("verify.stack_jacobian", 0)
    returned = attempted - tracer.errors.get("verify.stack_jacobian", 0)
    metrics["verify.probe_yield"] = returned / attempted if attempted else 0.0
    probe = _sibling_intervals(names, parents, starts, ends, id_of,
                               "verify.stack_jacobian", "verify.stack_jacobian")
    metrics["verify.probe_ms.p50"] = _percentile_ms(probe, 50)
    metrics["verify.probe_ms.p99"] = _percentile_ms(probe, 99)
    steps = _sibling_intervals(names, parents, starts, ends, id_of,
                               "train.Network.forward_cache", "train.adam_step")
    metrics["train.step_ms.p50"] = _percentile_ms(steps, 50)
    metrics["train.step_ms.p99"] = _percentile_ms(steps, 99)
    return metrics
