"""Per-layer tracing of matchpoly from outside the package.

:meth:`Tracer.install` wraps the functions listed in :data:`LAYERS` and
rebinds every module attribute that refers to one of them, so re-exported
names (``bpm.dualize``, ``matchcov.allowed_edges``, ``cli.default_threads``)
are traced too.  The ``verify`` claim registry holds its runners directly,
so its entries are replaced with wrapped copies.  Nothing under ``src/`` is
modified; :meth:`Tracer.uninstall` restores every binding.

Functions of a ``span`` layer record one span per call (name, start, end,
parent, thread).  Hot scalar functions (``agg`` layers) keep only a call
count and times, which keeps tracing cost and memory bounded.  Both kinds
sit on a per-thread stack, so every call knows how much of its time its
traced children took; self time is duration minus that.  Chunks run by
``_kernels.map_chunks`` on pool threads become spans whose parent is the
``map_chunks`` span.
"""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import resource
import sys
import threading
import time

# layer -> (kind, module, functions).  Kernel layers report self time as
# ``.s`` (a kernel calling another kernel is not counted twice); the other
# layers report the inclusive time of their outermost calls, plus
# ``.self_s`` where that is the quantity of interest.
LAYERS = {
    "kernels.mc_filter": ("span", "_kernels", ("mc_flags_for_range", "mc_flags_for_masks")),
    "kernels.chi": ("span", "_kernels", ("chi_values", "chi_table", "component_counts")),
    "kernels.transform": ("span", "_kernels",
                          ("mobius_transform", "zeta_transform", "superset_sum_transform")),
    "kernels.supergraph": ("span", "_kernels", ("supergraph_masks",)),
    "kernels.popcount": ("span", "_kernels", ("popcount_array",)),
    "kernels.truth_table": ("span", "_kernels", ("truth_table",)),
    "kernels.pool": ("span", "_kernels", ("map_chunks",)),
    "polyalg.dualize": ("span", "polyalg", ("dualize",)),
    "polyalg.evaluate_all": ("span", "polyalg", ("evaluate_all",)),
    "polyalg.to_fourier": ("span", "polyalg", ("to_fourier",)),
    "polyalg.interpolate": ("span", "polyalg", ("interpolate",)),
    "polyalg.render": ("span", "polyalg", ("to_text", "to_json_dict")),
    "bpm.primal": ("span", "bpm", ("primal_polynomial",)),
    "bpm.dual_coefficient": ("span", "bpm", ("dual_coefficient",)),
    "bpm.canonical_form": ("agg", "bpm", ("canonical_form",)),
    "bpm.classify_total_order": ("agg", "bpm", ("classify_total_order",)),
    "matchcov.is_matching_covered": ("agg", "matchcov", ("is_matching_covered",)),
    "bitgraph.scalar": ("agg", "bitgraph", ("has_perfect_matching", "allowed_edges",
                                            "union_of_perfect_matchings",
                                            "connected_components")),
    "mclattice.build_lattice": ("span", "mclattice", ("build_lattice",)),
    "mclattice.umbrella": ("agg", "mclattice", ("umbrella",)),
    "cli": ("span", "cli", ("main", "default_threads")),
}
CHUNK_LAYER = "kernels.pool.chunk"

# The claims ``verify --n 4`` and ``verify --n 3`` run; one layer each.
CLAIMS = ("thm1", "appendix_b", "thm2_strict", "thm2_nonordered", "dual_count",
          "lattice", "fourier", "parity", "probability", "dual_spot",
          "implication_chain", "appendix_a", "bounds", "counting", "hvc_witness")


def _transform_bytes(a, r):
    # one pass per variable reads both halves and writes one: 1.5 x nbytes
    return {"bytes_computed": 3 * a["values"].nbytes * a["nvars"] // 2}


# function name -> (counter names, counters(bound arguments, result))
COUNTERS = {
    # mc_flags_for_range delegates to mc_flags_for_masks, so count only here
    "mc_flags_for_masks": (("masks", "hits"),
                           lambda a, r: {"masks": len(a["masks"]), "hits": int(r.sum())}),
    "chi_values": (("masks",), lambda a, r: {"masks": len(a["masks"])}),
    "mobius_transform": (("bytes_computed",), _transform_bytes),
    "zeta_transform": (("bytes_computed",), _transform_bytes),
    "superset_sum_transform": (("bytes_computed",), _transform_bytes),
    "supergraph_masks": (("masks",), lambda a, r: {"masks": a["hi"] - a["lo"]}),
    "popcount_array": (("elements",), lambda a, r: {"elements": a["arr"].size}),
    "to_text": (("terms",), lambda a, r: {"terms": len(a["p"])}),
    "to_json_dict": (("terms",), lambda a, r: {"terms": len(a["p"])}),
}


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class _Layer:
    __slots__ = ("calls", "incl_s", "self_s", "counters")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.counters: dict[str, float] = {}


class Tracer:
    """Spans and per-layer totals for one traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, name, start, end, parent, thread)
        self.layers: dict[str, _Layer] = {}
        self.pool_capacity_s = 0.0     # map_chunks wall x threads
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []

    # -- bookkeeping --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _enter(self, layer: str, record: bool, parent: int | None = None) -> list:
        stack = self._stack()
        if parent is None and record:
            parent = next((f[1] for f in reversed(stack) if f[1]), None)
        outer = not any(f[0] == layer for f in stack)
        frame = [layer, next(self._ids) if record else 0, parent, outer, 0.0,
                 time.perf_counter()]
        stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str, counters: dict | None = None) -> float:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        layer, span_id, parent, outer, child_s, start = frame
        dur = end - start
        if stack:
            stack[-1][4] += dur
        with self._lock:
            st = self.layers.get(layer)
            if st is None:
                st = self.layers[layer] = _Layer()
            st.calls += 1
            st.self_s += dur - child_s
            if outer:
                st.incl_s += dur
            for k, v in (counters or {}).items():
                st.counters[k] = st.counters.get(k, 0) + v
        if span_id:
            self.spans.append((span_id, name, start, end, parent, threading.get_ident()))
        return dur

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, layer: str, kind: str, name: str, fn):
        qual = f"{layer}:{name}"
        if name == "map_chunks":
            return self._wrap_map_chunks(layer, qual, fn)
        record = kind == "span"
        counter = COUNTERS.get(name, ((), None))[1]
        sig = inspect.signature(fn) if counter else None
        tracer = self

        if name == "dualize":
            def wrapper(*args, **kwargs):
                frame = tracer._enter(layer, record)
                rss0 = _maxrss_mib()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(frame, qual, {"rss_rise_mib": _maxrss_mib() - rss0})
            return wrapper

        if counter is None:
            def wrapper(*args, **kwargs):
                frame = tracer._enter(layer, record)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(frame, qual)
            return wrapper

        def wrapper(*args, **kwargs):
            frame = tracer._enter(layer, record)
            counters = None
            try:
                result = fn(*args, **kwargs)
                b = sig.bind(*args, **kwargs)
                b.apply_defaults()
                counters = counter(b.arguments, result)
                return result
            finally:
                tracer._exit(frame, qual, counters)
        return wrapper

    def _wrap_map_chunks(self, layer: str, qual: str, fn):
        """Trace each chunk as a span on its pool thread, parented to the
        ``map_chunks`` span, and book the pool's capacity (wall x threads)."""
        sig = inspect.signature(fn)
        kernels = sys.modules["matchpoly._kernels"]
        tracer = self

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = dict(bound.arguments)
            frame = tracer._enter(layer, True)
            inner = a["fn"]

            def chunk(lo, hi):
                f = tracer._enter(CHUNK_LAYER, True, parent=frame[1])
                try:
                    return inner(lo, hi)
                finally:
                    tracer._exit(f, CHUNK_LAYER)
            a["fn"] = chunk
            threads = a["threads"] if a["threads"] is not None else kernels.default_threads()
            try:
                return fn(**a)
            finally:
                dur = tracer._exit(frame, qual)
                with tracer._lock:
                    tracer.pool_capacity_s += dur * max(1, threads)
        return wrapper

    def install(self) -> None:
        """Wrap every listed function wherever matchpoly binds it."""
        import matchpoly.cli  # noqa: F401  (imports every module)
        from matchpoly import verify

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "matchpoly" or name.startswith("matchpoly."))]
        wrapped: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for layer, (kind, module, names) in LAYERS.items():
            mod = sys.modules[f"matchpoly.{module}"]
            for name in names:
                fn = getattr(mod, name)
                wrapped[id(fn)] = (fn, self._wrap(layer, kind, name, fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for name, claim in list(verify.CLAIMS.items()):
            runner = self._wrap(f"verify.{name}", "span", claim.name, claim.runner)
            self._restore.append((verify.CLAIMS, name, claim))
            verify.CLAIMS[name] = dataclasses.replace(claim, runner=runner)

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._restore):
            if isinstance(target, dict):
                target[attr] = value
            else:
                setattr(target, attr, value)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass; layers never called read 0."""
        def layer(name):
            return self.layers.get(name) or _Layer()

        out: dict[str, float] = {}
        for name in LAYERS:
            st = layer(name)
            out[f"{name}.s"] = st.self_s if name.startswith("kernels.") else st.incl_s
            out[f"{name}.self_s"] = st.self_s
            out[f"{name}.calls"] = st.calls
            for fn in LAYERS[name][2]:
                for k in COUNTERS.get(fn, ((), None))[0]:
                    out[f"{name}.{k}"] = st.counters.get(k, 0)
        out["polyalg.dualize.rss_rise_mib"] = layer("polyalg.dualize").counters.get(
            "rss_rise_mib", 0.0)
        for claim in CLAIMS:
            out[f"verify.{claim}.s"] = layer(f"verify.{claim}").incl_s
        mc = layer("kernels.mc_filter").counters
        masks = mc.get("masks", 0)
        out["kernels.mc_filter.hit_ratio"] = mc.get("hits", 0) / masks if masks else 0.0
        chunk_s = layer(CHUNK_LAYER).incl_s
        out["kernels.pool.busy_ratio"] = (chunk_s / self.pool_capacity_s
                                          if self.pool_capacity_s else 0.0)
        return out

    def span_records(self) -> list[dict]:
        return [{"id": i, "name": n, "start": s, "end": e, "parent": p, "thread": t}
                for i, n, s, e, p, t in self.spans]


class CountingStream:
    """Counts ``write`` calls on its way to the real stream."""

    def __init__(self, stream):
        self._stream = stream
        self.writes = 0

    def write(self, s):
        self.writes += 1
        return self._stream.write(s)

    def __getattr__(self, name):
        return getattr(self._stream, name)
