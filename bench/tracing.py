"""Per-layer tracing of oscsync, installed from outside the package.

``install`` rebinds every ``oscsync.*`` module attribute that refers to one
of the traced public functions (including copies made by
``from .spectral import spectrum`` and the package-level re-exports) to a
wrapper that records a span, and gives each oscsync module a private view
of numpy whose ``linalg`` counts the eigen/SVD kernels the module calls by
name.  LAPACK work that numpy does internally (the SVD inside
``norm(., 2)``, ``matrix_rank``) is not counted.

A span is (name, start, end, parent span, instance id).  Spans live in
memory as flat arrays and are written once, by ``write_spans``, when the
run ends.  Self time is a span's duration minus the durations of its
direct child spans; kernel calls are counters, not spans, so they stay
inside the self time of the function that made them.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
import types
from array import array

# Public functions recorded as spans, by module.
TRACED = {
    "exactlin": ("null_space", "strictly_feasible", "matvec"),
    "structural": (
        "is_sss",
        "verify_witness",
        "witness_to_laplacians",
        "construct_synchronizing_weights",
        "falsify_by_sampling",
    ),
    "spectral": ("spectrum", "lhp_free", "eigenvector_obstruction"),
    "laplacians": ("laplacian", "generic_laplacian", "sample_laplacian"),
    "dynamics": ("simulate", "check_controllability"),
    "topology": ("classify", "path_sss", "cycle_sss"),
    "graphs": ("reduce", "components"),
    "fileio": ("parse_interconnection", "parse_document", "parse_witness", "write_document"),
    "cli": ("main",),
}
# Spans whose self time is reported as ``<name>.self_s``.
SELF_TIME = (
    "structural.is_sss",
    "structural.construct_synchronizing_weights",
    "structural.falsify_by_sampling",
    "cli.main",
)
KERNELS = ("eig", "eigvals", "eigvalsh", "eigh", "svd")
INSTANCE = "bench.instance"

_IS_SSS = "structural.is_sss"
_SIMPLEX = "exactlin.strictly_feasible"


def traced_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def layer_metric_names() -> list[str]:
    """Every per-layer metric ``Tracer.layer_metrics`` reports, in order."""
    names = []
    for name in traced_names():
        names += [f"{name}.calls", f"{name}.busy_s"]
        if name in SELF_TIME:
            names.append(f"{name}.self_s")
    names += [
        "exactlin.strictly_feasible.feasible_ratio",
        "structural.is_sss.refuted_patterns",
        "structural.is_sss.witnesses",
        "structural.is_sss.simplex_share",
        "dynamics.simulate.samples",
    ]
    names += [f"numpy.linalg.{k}.calls" for k in KERNELS]
    names.append("numpy.linalg.busy_s")
    return names


class Tracer:
    """Span recorder.  Wrappers pass straight through while ``recording``
    is false, so set-up and output checks leave no trace."""

    def __init__(self) -> None:
        self.recording = False
        self.instance = -1
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self._span_name = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._span_parent = array("l")
        self._span_instance = array("l")
        self._stack: list[int] = []
        self._child_time: list[float] = []
        self.calls: list[int] = []
        self.busy: list[float] = []
        self.self_time: list[float] = []
        self.counters: dict[str, float] = {}
        self.kernel_calls = dict.fromkeys(KERNELS, 0)
        self.kernel_busy = 0.0
        self._restore: list[tuple[object, str, object]] = []
        self.originals: set[int] = set()
        self.t0 = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.busy.append(0.0)
            self.self_time.append(0.0)
        return idx

    def _enter(self, idx: int) -> int:
        sid = len(self._span_start)
        self._span_name.append(idx)
        self._span_parent.append(self._stack[-1] if self._stack else -1)
        self._span_instance.append(self.instance)
        self._span_end.append(0.0)
        self._stack.append(sid)
        self._child_time.append(0.0)
        self._span_start.append(time.perf_counter())
        return sid

    def _exit(self, idx: int, sid: int) -> None:
        end = time.perf_counter()
        self._span_end[sid] = end
        duration = end - self._span_start[sid]
        self._stack.pop()
        children = self._child_time.pop()
        if self._child_time:
            self._child_time[-1] += duration
        self.calls[idx] += 1
        self.busy[idx] += duration
        self.self_time[idx] += duration - children

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` (when recording)."""
        if not self.recording:
            return fn(*args, **kwargs)
        idx = self._name_id(name)
        sid = self._enter(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(idx, sid)

    def run_instance(self, instance: int, fn, *args):
        """Run one benchmark instance as a root span."""
        self.instance = instance
        return self.span(INSTANCE, fn, *args)

    # -- installation ------------------------------------------------------

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = tracer._name_id(name)
            sid = tracer._enter(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx, sid)
            if observe is not None:
                observe(tracer, result)
            return result

        return wrapper

    def _wrap_kernel(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def kernel(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.kernel_busy += time.perf_counter() - start
                tracer.kernel_calls[name] += 1

        return kernel

    def install(self) -> "Tracer":
        """Rebind the traced functions in every loaded oscsync module."""
        import numpy

        import oscsync  # noqa: F401  (loads every submodule)

        wrappers: dict[int, object] = {}
        for mod, fns in TRACED.items():
            module = sys.modules[f"oscsync.{mod}"]
            for fn in fns:
                original = getattr(module, fn)
                wrappers[id(original)] = self._wrap(f"{mod}.{fn}", original)
                self.originals.add(id(original))

        linalg_view = types.ModuleType("numpy.linalg")
        linalg_view.__dict__.update(vars(numpy.linalg))
        for k in KERNELS:
            kernel = getattr(numpy.linalg, k)
            wrappers[id(kernel)] = self._wrap_kernel(k, kernel)
            setattr(linalg_view, k, wrappers[id(kernel)])
            self.originals.add(id(kernel))
        numpy_view = types.ModuleType("numpy")
        numpy_view.__dict__.update(vars(numpy))
        numpy_view.linalg = linalg_view
        wrappers[id(numpy)] = numpy_view
        wrappers[id(numpy.linalg)] = linalg_view

        for module in oscsync_modules():
            for attr, value in list(vars(module).items()):
                replacement = wrappers.get(id(value))
                if replacement is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, replacement)
        return self

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def unwrapped_bindings(self) -> list[str]:
        """``module.attr`` names that still reach an untraced original,
        directly or through the module's numpy view."""
        found = []
        for module in oscsync_modules():
            for attr, value in vars(module).items():
                where = f"{module.__name__}.{attr}"
                if id(value) in self.originals:
                    found.append(where)
                if not isinstance(value, types.ModuleType) or value.__name__.startswith("oscsync"):
                    continue
                for prefix, namespace in (("", value), ("linalg.", getattr(value, "linalg", None))):
                    for k in KERNELS:
                        if id(getattr(namespace, k, None)) in self.originals:
                            found.append(f"{where}.{prefix}{k}")
        return found

    # -- results -----------------------------------------------------------

    def _get(self, name: str, table: list) -> float:
        idx = self._index.get(name)
        return 0 if idx is None else table[idx]

    def simplex_calls_under_is_sss(self) -> int:
        """strictly_feasible spans with an is_sss ancestor."""
        simplex = self._index.get(_SIMPLEX)
        target = self._index.get(_IS_SSS)
        if simplex is None or target is None:
            return 0
        names, parents = self._span_name, self._span_parent
        total = 0
        for sid in range(len(names)):
            if names[sid] != simplex:
                continue
            p = parents[sid]
            while p >= 0 and names[p] != target:
                p = parents[p]
            total += p >= 0
        return total

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, per pass over the corpus."""
        out: dict[str, float] = {}
        for name in traced_names():
            out[f"{name}.calls"] = self._get(name, self.calls) / passes
            out[f"{name}.busy_s"] = self._get(name, self.busy) / passes
            if name in SELF_TIME:
                out[f"{name}.self_s"] = self._get(name, self.self_time) / passes
        simplex_calls = self._get(_SIMPLEX, self.calls)
        out["exactlin.strictly_feasible.feasible_ratio"] = (
            self.counters.get("feasible", 0) / simplex_calls if simplex_calls else 0.0
        )
        refuted = self.counters.get("refuted_patterns", 0)
        witnesses = self.counters.get("witnesses", 0)
        out["structural.is_sss.refuted_patterns"] = refuted / passes
        out["structural.is_sss.witnesses"] = witnesses / passes
        patterns = refuted + witnesses
        out["structural.is_sss.simplex_share"] = (
            self.simplex_calls_under_is_sss() / patterns if patterns else 0.0
        )
        out["dynamics.simulate.samples"] = self.counters.get("samples", 0) / passes
        for k in KERNELS:
            out[f"numpy.linalg.{k}.calls"] = self.kernel_calls[k] / passes
        out["numpy.linalg.busy_s"] = self.kernel_busy / passes
        return out

    def span_count(self) -> int:
        return len(self._span_start)

    def write_spans(self, path, meta: dict) -> None:
        """Write every span as one JSON line, after a header line."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write(json.dumps({**meta, "names": self.names}) + "\n")
            for sid in range(len(self._span_start)):
                out.write(
                    json.dumps(
                        [
                            sid,
                            self.names[self._span_name[sid]],
                            round(self._span_start[sid] - self.t0, 9),
                            round(self._span_end[sid] - self.t0, 9),
                            self._span_parent[sid],
                            self._span_instance[sid],
                        ]
                    )
                    + "\n"
                )


def oscsync_modules() -> list[types.ModuleType]:
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "oscsync" or name.startswith("oscsync."))
    ]


def _observe_is_sss(tracer: Tracer, verdict) -> None:
    tracer.count("refuted_patterns", verdict.refuted_patterns)
    tracer.count("witnesses", verdict.witness is not None)


def _observe_simplex(tracer: Tracer, y) -> None:
    tracer.count("feasible", y is not None)


def _observe_simulate(tracer: Tracer, trace) -> None:
    tracer.count("samples", len(trace.times))


_OBSERVERS = {
    _IS_SSS: _observe_is_sss,
    _SIMPLEX: _observe_simplex,
    "dynamics.simulate": _observe_simulate,
}
