"""Tracing of supercalc from the outside.

`install` wraps the public functions and methods of every supercalc module
in timing wrappers.  Nothing inside the library changes: the wrappers are
patched onto the modules and classes after import.  Each wrapped call is a
span with a parent (the nearest enclosing wrapped call).  A span's self time
is its duration minus the time covered by its child spans, and self time is
summed per layer (roughly one layer per module, with a few hot functions
split out as layers of their own).

Calls into the kernel layers (scalar and polynomial arithmetic) run millions
of times per workload, so they are counted and timed in aggregate only; the
spans of every other layer are recorded individually, up to `SPAN_CAP`, and
written out by `Tracer.dump`.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import time
from collections import Counter, defaultdict

MODULES = (
    "scalars",
    "graded_poly",
    "grassmann",
    "polynomials",
    "berezin",
    "quadrature",
    "analytic",
    "forms",
    "metric",
    "matrices",
    "fock",
    "clifford",
    "exactmat",
    "exprlang",
    "randomgen",
    "suites",
    "cli",
)

# layers whose individual calls are aggregated instead of recorded as spans
KERNEL_LAYERS = frozenset({"scalars", "graded_poly", "grassmann", "polynomials"})

ARITHMETIC = frozenset(
    {
        "__add__",
        "__radd__",
        "__sub__",
        "__rsub__",
        "__mul__",
        "__rmul__",
        "__truediv__",
        "__rtruediv__",
        "__neg__",
        "__pow__",
        "__call__",
    }
)

# zero tests run inside the innermost accumulation loops; their cost stays
# with the caller so that the tracer does not double the kernels' run time
SKIPPED = frozenset({"is_zero"})

SPAN_CAP = 50_000

# counters that depend only on the inputs, so they repeat exactly for a seed
EXACT_COUNTERS = (
    "scalars.crat_ops",
    "graded_poly.mul_calls",
    "graded_poly.term_pairs",
    "graded_poly.result_terms",
    "grassmann.mul_calls",
    "grassmann.term_pairs",
    "forms.operator_calls",
    "forms.operator_builds",
    "exactmat.matmul_calls",
    "exactmat.scalar_mults",
    "exactmat.useful_mults",
)


def layer_of(module: str, qualname: str) -> str:
    if module == "forms" and qualname == "Operator.__call__":
        return "forms.operator"
    if module == "forms" and qualname == "commutator_table":
        return "forms.commutator_table"
    if module == "clifford" and qualname == "matrix_of":
        return "clifford.matrix_of"
    return module


class Tracer:
    """Span recorder; one per process."""

    def __init__(self):
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.suite_wall_ns: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.span_names: list[str] = []
        self.dropped_spans = 0
        self.gc_pause_ns = 0
        self.gc_collections = 0
        self._gc_started = 0
        self._next_id = 0
        # one frame per open span: [child time in ns, id of nearest recorded span]
        self._stack: list[list[int]] = [[0, -1]]

    # -- wrappers ------------------------------------------------------------

    def wrap(self, module: str, qualname: str, fn, after=None):
        """Return a wrapper that times `fn` as a span of its layer.

        `after(args, result)` updates the exact counters of the call.
        """
        layer = layer_of(module, qualname)
        name = f"{module}.{qualname}"
        name_id = len(self.span_names)
        self.span_names.append(name)
        record = layer not in KERNEL_LAYERS
        suite = qualname[4:] if module == "suites" and qualname.startswith("run_") else None
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        spans = self.spans
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if record:
                sid = tracer._next_id
                tracer._next_id = sid + 1
            else:
                sid = parent[1]
            frame = [0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[0] += dt
                self_ns[layer] += dt - frame[0]
                calls[name] += 1
                if record:
                    if len(spans) < SPAN_CAP:
                        spans.append((sid, parent[1], name_id, t0, dt))
                    else:
                        tracer.dropped_spans += 1
                if suite is not None:
                    tracer.suite_wall_ns[suite] += dt
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- counters ------------------------------------------------------------

    def _count_crat(self, args, result):
        self.counters["scalars.crat_ops"] += 1

    def _count_poly_mul(self, prefix: str):
        counters = self.counters

        def after(args, result):
            a, b = args
            counters[f"{prefix}.mul_calls"] += 1
            if type(b) is type(a):
                counters[f"{prefix}.term_pairs"] += len(a.terms) * len(b.terms)
            else:
                counters[f"{prefix}.term_pairs"] += len(a.terms)
            if type(result) is type(a):
                counters[f"{prefix}.result_terms"] += len(result.terms)

        return after

    def _count_operator_call(self, args, result):
        self.counters["forms.operator_calls"] += 1

    def _count_operator_build(self, args, result):
        self.counters["forms.operator_builds"] += 1

    def _count_matmul(self, args, result):
        # products executed: the kernel skips zero left factors only
        a, b = args
        cols = len(b[0]) if b else 0
        row_nnz = [sum(1 for x in row if not x.is_zero()) for row in b]
        executed = useful = 0
        for row in a:
            for k, x in enumerate(row):
                if not x.is_zero():
                    executed += cols
                    useful += row_nnz[k]
        self.counters["exactmat.matmul_calls"] += 1
        self.counters["exactmat.scalar_mults"] += executed
        self.counters["exactmat.useful_mults"] += useful

    def _after_hook(self, module: str, qualname: str):
        if module == "scalars" and qualname.startswith("CRat."):
            return self._count_crat
        if module == "graded_poly" and qualname == "GradedPoly.__mul__":
            return self._count_poly_mul("graded_poly")
        if module == "grassmann" and qualname == "Supernumber.__mul__":
            return self._count_poly_mul("grassmann")
        if module == "forms" and qualname == "Operator.__call__":
            return self._count_operator_call
        if module == "forms" and qualname.startswith("op_"):
            return self._count_operator_build
        if module == "exactmat" and qualname == "matmul":
            return self._count_matmul
        return None

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method of supercalc."""
        package = importlib.import_module("supercalc")
        modules = {m: importlib.import_module(f"supercalc.{m}") for m in MODULES}
        replaced: dict[int, object] = {}
        for short, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if name.startswith("_") or name in SKIPPED:
                        continue
                    replaced[id(obj)] = self.wrap(short, name, obj, self._after_hook(short, name))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(short, obj)
        # rebind every module-level reference, including re-exports and
        # names imported into other modules with `from ... import`
        for mod in [package, *modules.values()]:
            for name, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    setattr(mod, name, wrapper)
        gc.callbacks.append(self._on_gc)

    def _install_class(self, short: str, cls) -> None:
        done: dict[int, object] = {}
        for attr, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn) or attr in SKIPPED:
                continue
            if attr.startswith("_") and attr not in ARITHMETIC:
                continue
            wrapper = done.get(id(fn))
            if wrapper is None:
                qualname = f"{cls.__name__}.{fn.__name__}"
                wrapper = self.wrap(short, qualname, fn, self._after_hook(short, qualname))
                done[id(fn)] = wrapper
            setattr(cls, attr, wrapper)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_started = time.perf_counter_ns()
        elif self._gc_started:
            self.gc_pause_ns += time.perf_counter_ns() - self._gc_started
            self.gc_collections += 1
            self._gc_started = 0

    # -- results -------------------------------------------------------------

    def exact_counts(self) -> dict[str, int]:
        return {k: self.counters[k] for k in EXACT_COUNTERS}

    def summary(self) -> dict:
        return {
            "self_s": {k: v / 1e9 for k, v in sorted(self.self_ns.items())},
            "suite_wall_s": {k: v / 1e9 for k, v in sorted(self.suite_wall_ns.items())},
            "counts": self.exact_counts(),
            "calls": dict(sorted(self.calls.items())),
            "gc_pause_s": self.gc_pause_ns / 1e9,
            "gc_collections": self.gc_collections,
            "spans_recorded": len(self.spans),
            "spans_dropped": self.dropped_spans,
        }

    def dump(self) -> dict:
        """Summary plus the recorded spans as (id, parent id, index into
        ``span_names``, start ns, duration ns)."""
        out = self.summary()
        out["span_names"] = self.span_names
        out["spans"] = self.spans
        return out
