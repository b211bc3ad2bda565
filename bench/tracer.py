"""Outside-in layer trace for the qfftsim benchmark.

The tracer never edits ``qfftsim``'s source. It replaces, for the duration of
a traced pass, every binding through which one module calls a public
function of another: ``from .linalg import permanent`` copies the function
into ``qfftsim.models``, so the wrapper goes into ``qfftsim.models``'s
namespace, not into ``qfftsim.linalg``'s. Calls a module makes to its own
functions are therefore not spans; every span is a layer boundary. The
caller namespaces are the package's modules plus any namespaces the
benchmark passes in (its own workload module, whose calls into the package
become the outermost spans).

A span is ``(id, name, layer, start, end, busy, parent, op, failed, counts)``
with times from ``time.perf_counter``. ``busy`` is the time the function's
own code ran: ``end - start`` for a plain call. A generator such as
``fourier.enumerate_outputs`` runs only while its consumer pulls the next
item, so its span opens at the first pull, closes when the generator is
exhausted or closed, and its ``busy`` sums the resumptions alone. Self time
is ``busy`` minus the ``busy`` of the span's children.

Spans stay in memory; :meth:`Tracer.write` writes them out as JSON lines.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from types import ModuleType

#: The package's layers, named after its modules.
LAYERS = ("cli", "fourier", "linalg", "circuit", "models", "certify", "reconstruct", "layout")

#: Non-qfftsim callables that stand for a layer's own work, keyed by the
#: module that binds them. Powell's loop in ``scipy.optimize.minimize`` is
#: the reconstruction layer's inner loop, and its result carries ``nfev``.
FOREIGN = {"reconstruct": ("minimize",)}

# Span tuple fields, by index.
ID, NAME, LAYER, START, END, BUSY, PARENT, OP, FAILED, COUNTS = range(10)


def _argument(func, args, kwargs, name):
    bound = inspect.signature(func).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _permanent_counts(func, args, kwargs, result):
    n = args[0].shape[0]
    return {"terms": n * ((1 << n) - 1)}


def _distribution_counts(func, args, kwargs, result):
    return {"outcomes": len(result.probabilities)}


def _curve_counts(func, args, kwargs, result):
    return {"trials": _argument(func, args, kwargs, "trials")}


def _minimize_counts(func, args, kwargs, result):
    return {"nfev": int(result.nfev), "fun": float(result.fun)}


def _fit_counts(func, args, kwargs, result):
    return {"restarts": _argument(func, args, kwargs, "restarts")}


def _main_counts(func, args, kwargs, result):
    return {"exit": int(result)}


#: Work counters taken at the boundary: span name -> f(func, args, kwargs, result).
COUNTERS = {
    "linalg.permanent": _permanent_counts,
    "models.fock_distribution": _distribution_counts,
    "models.distinguishable_distribution": _distribution_counts,
    "models.mean_field_distribution": _distribution_counts,
    "certify.violation_curve": _curve_counts,
    "reconstruct.minimize": _minimize_counts,
    "reconstruct.fit_phases": _fit_counts,
    "cli.main": _main_counts,
}


class Tracer:
    """Collects spans for one traced pass; install, run ops, then restore."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = None
        self._stack = [None]
        self._next_id = 0
        self._saved: list[tuple[dict, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def span(self, name, layer):
        """Context manager recording one span, for the benchmark's own op roots."""
        return _Span(self, name, layer)

    def _wrap(self, func, name, layer):
        counter = COUNTERS.get(name)
        if inspect.isgeneratorfunction(func):
            return self._wrap_generator(func, name, layer)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter()
            failed = True
            result = None
            try:
                result = func(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                counts = counter(func, args, kwargs, result) if counter and not failed else None
                if name == "cli.main" and counts and counts["exit"] != 0:
                    failed = True
                self.spans.append(
                    (sid, name, layer, start, end, end - start, parent, self.op, failed, counts)
                )

        wrapper.span_name = name
        return wrapper

    def _wrap_generator(self, func, name, layer):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            inner = func(*args, **kwargs)
            sid, parent = None, self._stack[-1]
            start = end = None
            busy = 0.0
            failed = False
            try:
                while True:
                    t0 = time.perf_counter()
                    if start is None:
                        start = t0
                        sid = self._next_id
                        self._next_id += 1
                    self._stack.append(sid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    except BaseException:
                        failed = True
                        raise
                    finally:
                        self._stack.pop()
                        end = time.perf_counter()
                        busy += end - t0
                    yield item
            finally:
                if sid is not None:
                    self.spans.append(
                        (sid, name, layer, start, end, busy, parent, self.op, failed, None)
                    )

        wrapper.span_name = name
        return wrapper

    # -- bindings ------------------------------------------------------

    def install(self, package: ModuleType, callers=()):
        """Wrap every cross-module binding of a public layer function.

        ``package`` is the imported ``qfftsim`` package; ``callers`` are extra
        namespaces (modules) whose bindings into the package are wrapped too.
        """
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = _layer_modules(package)
        targets = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    targets[id(obj)] = (obj, f"{layer}.{attr}", layer)
        wrappers = {}
        for namespace in [package, *modules.values(), *callers]:
            table = vars(namespace)
            own = namespace.__name__
            for attr, obj in list(table.items()):
                entry = targets.get(id(obj))
                if entry is None or obj.__module__ == own:
                    continue
                func, name, layer = entry
                if id(func) not in wrappers:
                    wrappers[id(func)] = self._wrap(func, name, layer)
                self._saved.append((table, attr, obj))
                table[attr] = wrappers[id(func)]
        for layer, attrs in FOREIGN.items():
            table = vars(modules[layer])
            for attr in attrs:
                obj = table[attr]
                self._saved.append((table, attr, obj))
                table[attr] = self._wrap(obj, f"{layer}.{attr}", layer)

    def restore(self):
        """Put every wrapped binding back; safe to call more than once."""
        while self._saved:
            table, attr, obj = self._saved.pop()
            table[attr] = obj

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- output --------------------------------------------------------

    def write(self, path):
        """Write the spans as JSON lines, oldest first."""
        keys = ("id", "name", "layer", "start", "end", "busy", "parent", "op", "failed", "counts")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def shares_by_kind(spans, kinds) -> dict[str, dict[str, float]]:
    """Per op kind, each layer's share of the op roots' time (self time over op time).

    ``kinds[op]`` names the kind of op number ``op``.
    """
    own = self_times(spans)
    layer_time: dict[str, dict[str, float]] = {}
    op_time: dict[str, float] = {}
    for s in spans:
        kind = kinds[s[OP]]
        if s[LAYER] == "bench":
            op_time[kind] = op_time.get(kind, 0.0) + s[BUSY]
        else:
            by_layer = layer_time.setdefault(kind, {})
            by_layer[s[LAYER]] = by_layer.get(s[LAYER], 0.0) + own[s[ID]]
    return {
        kind: {layer: t / op_time[kind] for layer, t in sorted(layer_time.get(kind, {}).items())}
        for kind in op_time
    }


def _layer_modules(package):
    # ``qfftsim.certify`` is the re-exported function, not the module.
    return {layer: sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS}


def leftover_wrappers(package, callers=()) -> list[str]:
    """Names of bindings that still hold a tracer wrapper."""
    namespaces = [package, *_layer_modules(package).values(), *callers]
    return [
        f"{ns.__name__}.{attr}"
        for ns in namespaces
        for attr, obj in vars(ns).items()
        if hasattr(obj, "span_name")
    ]


class _Span:
    def __init__(self, tracer, name, layer):
        self.tracer = tracer
        self.name = name
        self.layer = layer

    def __enter__(self):
        self.sid, self.parent = self.tracer._open()
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = time.perf_counter()
        self.tracer._stack.pop()
        self.tracer.spans.append(
            (self.sid, self.name, self.layer, self.start, end, end - self.start,
             self.parent, self.tracer.op, exc_type is not None, None)
        )
        return False


def self_times(spans) -> dict:
    """Span id -> busy time minus the busy time of its direct children."""
    own = {s[ID]: s[BUSY] for s in spans}
    for s in spans:
        if s[PARENT] is not None and s[PARENT] in own:
            own[s[PARENT]] -= s[BUSY]
    return own


def layer_metrics(spans, n_ops: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, per op unless the name says otherwise."""
    own = self_times(spans)
    per_op = 1.0 / n_ops
    self_ms = dict.fromkeys(LAYERS, 0.0)
    failed = dict.fromkeys(LAYERS, 0)
    calls = {}
    busy = {}
    sums = {}
    fits = []
    minimize_by_parent = {}
    for s in spans:
        layer, name = s[LAYER], s[NAME]
        if layer in self_ms:
            self_ms[layer] += own[s[ID]]
            failed[layer] += s[FAILED]
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + s[BUSY]
        counts = s[COUNTS] or {}
        for key, value in counts.items():
            if key != "fun":
                sums[(name, key)] = sums.get((name, key), 0) + value
        if name == "reconstruct.fit_phases" and counts:
            fits.append((s[ID], counts["restarts"]))
        elif name == "reconstruct.minimize" and counts:
            minimize_by_parent.setdefault(s[PARENT], []).append(counts["fun"])

    def rate(num, den):
        return num / den if den else 0.0

    op_busy = sum(s[BUSY] for s in spans if s[LAYER] == "bench")
    in_basin = total_restarts = 0
    for sid, restarts in fits:
        funs = minimize_by_parent.get(sid, [])[:restarts]
        if funs:
            best = min(funs)
            in_basin += sum(1 for f in funs if f - best <= 1e-6 * max(abs(best), 1e-300))
            total_restarts += len(funs)

    metrics = {
        "linalg.permanent.calls": calls.get("linalg.permanent", 0) * per_op,
        "linalg.permanent.self_ms": 1e3 * busy.get("linalg.permanent", 0.0) * per_op,
        "linalg.permanent.terms_per_s": rate(
            sums.get(("linalg.permanent", "terms"), 0), busy.get("linalg.permanent", 0.0)
        ),
        "linalg.permanent.share": rate(busy.get("linalg.permanent", 0.0), op_busy),
        "models.outcomes": sum(v for (n, k), v in sums.items() if k == "outcomes") * per_op,
        "fourier.calls": sum(c for n, c in calls.items() if n.startswith("fourier.")) * per_op,
        "certify.curve_calls": calls.get("certify.violation_curve", 0) * per_op,
        "certify.trials_per_s": rate(
            sums.get(("certify.violation_curve", "trials"), 0), busy.get("certify.violation_curve", 0.0)
        ),
        "certify.violation_curve.share": rate(busy.get("certify.violation_curve", 0.0), op_busy),
        "circuit.compositions": calls.get("circuit.circuit_to_unitary", 0) * per_op,
        "circuit.us_per_composition": 1e6 * rate(
            busy.get("circuit.circuit_to_unitary", 0.0), calls.get("circuit.circuit_to_unitary", 0)
        ),
        "reconstruct.objective_evals": sums.get(("reconstruct.minimize", "nfev"), 0) * per_op,
        "reconstruct.best_basin_ratio": rate(in_basin, total_restarts),
        "trace.spans": len(spans) * per_op,
    }
    for layer in LAYERS:
        if layer == "layout":
            continue
        metrics[f"{layer}.self_ms"] = 1e3 * self_ms[layer] * per_op
        metrics[f"{layer}.failed"] = failed[layer]
    return metrics
