"""Layer spans for the traced benchmark run.

The package has no tracing of its own, so ``Tracer.install`` wraps each
layer's public functions from outside, at every name they are bound
under in the package (``surgery.cells`` is the same object as
``core.cells``), plus ``Dissection`` construction, the series product
and the result cache methods.  Each call becomes a span (name, start,
end, parent, op id) kept in memory; self time is a span's duration
minus the time its child spans cover.  Everything is single-threaded,
so there is no waiting time to report.
"""
from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

# layer -> public names wrapped in it ("Class.method" for methods)
LAYERS = {
    "cli": ["main", "build_parser"],
    "cache": ["ResultCache.get", "ResultCache.put", "ResultCache.get_payload"],
    "core": ["Dissection", "parse_dissection", "cells", "quiddity", "dihedral_transform",
             "dihedral_orbit", "cell_size_profile", "is_ell_periodic", "is_size_restricted"],
    "enumeration": ["enumerate_dissections", "count_dissections", "count_quiddities",
                    "quiddity_classes"],
    "formulas": ["catalan", "kirkman_cayley", "fuss", "ell_periodic_count", "tri_quad_count",
                 "quiddity_count_3periodic"],
    "series": ["BivariateSeries.__mul__", "solve_named", "solve_fixed_point", "compose_q",
               "geometric_sum", "lagrange_invert"],
    "surgery": ["find_surgeries", "apply_surgery", "opening_moves",
                "canonicalize_maximally_open", "surgery_class", "class_export"],
    "contfrac": ["eval_regular", "eval_hj", "regular_to_hj", "strip_triangulation"],
    "modular": ["elementary_product", "classify_monodromy", "verify_monodromy_correspondence"],
    "verification": ["run_all"],
}
# span names that differ from "<layer>.<name>"
SHORT = {"BivariateSeries.__mul__": "mul", "ResultCache.get": "get",
         "ResultCache.put": "put", "ResultCache.get_payload": "get_payload"}

# functions reported one by one; every layer is also reported as a whole
REPORTED = [
    "cli.main", "cli.build_parser", "cache.get", "cache.put", "cache.get_payload",
    "core.Dissection", "core.parse_dissection", "core.cells", "core.quiddity",
    "enumeration.enumerate_dissections", "enumeration.count_dissections",
    "enumeration.count_quiddities", "enumeration.quiddity_classes",
    "series.mul", "series.solve_named",
    "surgery.find_surgeries", "surgery.apply_surgery", "surgery.opening_moves",
    "surgery.canonicalize_maximally_open", "surgery.surgery_class",
]
WHOLE_LAYER_CALLS = ["formulas", "contfrac", "modular", "verification"]


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for fn in REPORTED:
        out += [(f"{fn}.calls", "count", "lower"), (f"{fn}.self_s", "s", "lower")]
    for layer in LAYERS:
        out.append((f"{layer}.self_s", "s", "lower"))
        if layer in WHOLE_LAYER_CALLS:
            out.append((f"{layer}.calls", "count", "lower"))
        out.append((f"{layer}.errors", "count", "lower"))
    out += [
        ("enumeration.enumerate_dissections.yielded", "count", "higher"),
        ("cache.hits", "count", "higher"),
        ("cache.misses", "count", "lower"),
        ("cache.hit_ratio", "ratio", "higher"),
        ("surgery.moves_applied", "count", "higher"),
        ("surgery.class_states", "count", "higher"),
        ("core.cells.per_dissection", "ratio", "lower"),
        ("surgery.cells_per_state", "ratio", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return out


class Tracer:
    """Spans and counters of one traced session."""

    def __init__(self, keep_spans: bool):
        self.keep_spans = keep_spans
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # open spans: [name id, span id, start, child time, layer]
        self._stack: list[list] = []
        self._next_span = 0
        self._last_error: object = None
        self.op_id = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        # kept spans, column by column
        self.span_id = array("i")
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    # -- spans

    def _enter(self, name: str) -> None:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        frame = [nid, self._next_span, 0.0, 0.0, name.split(".", 1)[0]]
        self._next_span += 1
        self._stack.append(frame)
        frame[2] = time.perf_counter()

    def _exit(self, error: BaseException | None = None) -> None:
        end = time.perf_counter()
        nid, span_id, start, child, layer = self._stack.pop()
        duration = end - start
        name = self.names[nid]
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][3] += duration
        if error is not None and error is not self._last_error:
            self.errors[layer] += 1  # counted once, where it was raised
            self._last_error = error
        if self.keep_spans:
            self.span_id.append(span_id)
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1][1] if self._stack else -1)
            self.span_op.append(self.op_id)
            self.span_start.append(start)
            self.span_end.append(end)

    def parent_layer(self) -> str | None:
        return self._stack[-1][4] if self._stack else None

    def inside(self, layer: str) -> bool:
        return any(frame[4] == layer for frame in self._stack)

    def wrap(self, name: str, fn):
        tracer = self
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = tracer.parent_layer() != layer
            computed = []
            if name == "cache.get_payload":
                compute = args[4]  # (self, family, command, filename, compute, ...)

                def counted_compute():
                    computed.append(True)
                    return compute()

                args = args[:4] + (counted_compute,) + args[5:]
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(exc)
                raise
            tracer._exit()
            tracer._count(name, outer, result, bool(computed))
            return result

        return traced

    def _count(self, name: str, outer: bool, result, computed: bool) -> None:
        c = self.counters
        if name == "cache.get" and outer:
            c["cache.hits" if result is not None else "cache.misses"] += 1
        elif name == "cache.get_payload" and outer:
            c["cache.misses" if computed else "cache.hits"] += 1
        elif name == "surgery.apply_surgery":
            c["surgery.moves_applied"] += 1
        elif name == "surgery.surgery_class":
            c["surgery.class_states"] += len(result)
        elif name == "core.cells" and self.inside("surgery"):
            c["surgery.cells"] += 1
        if outer and name.startswith("surgery."):
            c["surgery.entries"] += 1

    def wrap_generator(self, name: str, fn):
        """Calls count generator creations; each ``next()`` is a span."""
        tracer = self

        class TracedIterator:
            def __init__(self, inner):
                self.inner = inner

            def __iter__(self):
                return self

            def __next__(self):
                tracer._enter(name)
                try:
                    item = next(self.inner)
                except StopIteration:
                    tracer._exit()
                    raise
                except BaseException as exc:
                    tracer._exit(exc)
                    raise
                tracer._exit()
                tracer.counters[name + ".yielded"] += 1
                return item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.counters[name + ".created"] += 1
            return TracedIterator(fn(*args, **kwargs))

        return traced

    # -- installing

    def install(self, package_modules: dict[str, object]) -> None:
        """Wrap every listed function of the freshly imported package.
        ``package_modules`` maps module names to module objects."""
        replace: dict[int, object] = {}
        for layer, names in LAYERS.items():
            module = package_modules[f"quiddity.{layer}"]
            for qual in names:
                span = f"{layer}.{SHORT.get(qual, qual)}"
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, attr, self.wrap(span, getattr(cls, attr)))
                elif qual == "Dissection":
                    cls = module.Dissection
                    cls.__init__ = self.wrap(span, cls.__init__)
                else:
                    fn = getattr(module, qual)
                    wrapper = self.wrap_generator(span, fn) if qual == "enumerate_dissections" \
                        else self.wrap(span, fn)
                    replace[id(fn)] = (fn, wrapper)
        for module in package_modules.values():
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    # -- results

    def rollup(self) -> dict[str, float]:
        """Per-layer metrics of this session (``trace.overhead_s`` is
        filled in by the caller)."""
        c = self.counters
        out: dict[str, float] = {}
        for fn in REPORTED:
            out[f"{fn}.calls"] = self.calls.get(fn, 0)
            out[f"{fn}.self_s"] = self.self_s.get(fn, 0.0)
        out["enumeration.enumerate_dissections.calls"] = c["enumeration.enumerate_dissections.created"]
        for layer in LAYERS:
            prefix = layer + "."
            out[f"{layer}.self_s"] = sum(v for k, v in self.self_s.items() if k.startswith(prefix))
            if layer in WHOLE_LAYER_CALLS:
                out[f"{layer}.calls"] = sum(v for k, v in self.calls.items() if k.startswith(prefix))
            out[f"{layer}.errors"] = self.errors.get(layer, 0)
        lookups = c["cache.hits"] + c["cache.misses"]
        out["enumeration.enumerate_dissections.yielded"] = c["enumeration.enumerate_dissections.yielded"]
        out["cache.hits"] = c["cache.hits"]
        out["cache.misses"] = c["cache.misses"]
        out["cache.hit_ratio"] = c["cache.hits"] / lookups if lookups else 0.0
        out["surgery.moves_applied"] = c["surgery.moves_applied"]
        out["surgery.class_states"] = c["surgery.class_states"]
        built = self.calls.get("core.Dissection", 0)
        out["core.cells.per_dissection"] = self.calls.get("core.cells", 0) / built if built else 0.0
        states = c["surgery.entries"] + c["surgery.moves_applied"]
        out["surgery.cells_per_state"] = c["surgery.cells"] / states if states else 0.0
        return out

    def write_spans(self, path: Path) -> None:
        """One CSV line per span, in the order spans ended; ``parent``
        is the enclosing span's id, -1 at the top of an op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as handle:
            handle.write("span,parent,op,name,start_s,end_s\n")
            names = self.names
            for k in range(len(self.span_name)):
                handle.write(f"{self.span_id[k]},{self.span_parent[k]},{self.span_op[k]},"
                             f"{names[self.span_name[k]]},{self.span_start[k]:.9f},"
                             f"{self.span_end[k]:.9f}\n")


def package_modules() -> dict[str, object]:
    return {name: mod for name, mod in sys.modules.items()
            if name == "quiddity" or name.startswith("quiddity.")}
