"""Per-layer tracing from outside the program.

Every public function of each ctq module is replaced, in every module that
binds it (``from .measures import h_q`` binds a second name), by a wrapper
that records a span: name id, start, end and the index of the span that was
open when it was called.  Classes are left alone so ``isinstance`` checks
keep working.  Spans live in flat arrays and are written out when the run
ends; a layer's self time is the time its spans cover minus the time their
child spans cover.

``numpy.linalg`` factorizations are counted and timed while a ctq span is
open but are not spans, so their time stays in the self time of the layer
that asked for them.

No timing is taken under ``tracemalloc``: the traced run keeps the first
``monogamy_check`` call per state shape, and :meth:`Tracer.alloc_peak_mb`
replays those calls afterwards, untimed, under ``tracemalloc``.
"""

from __future__ import annotations

import inspect
import sys
import time
import tracemalloc
from array import array

import numpy as np

LAYERS = ("cli", "states", "qlinalg", "measures", "bounds", "closedform", "monogamy", "acceptance")
# acceptance is traced so its own work is not charged to cli, but it is the
# harness of the accept workload, not a layer of the library
REPORTED = LAYERS[:-1]
LINALG = ("svd", "eigh", "eigvalsh", "eigvals")
ENVELOPE = {"ctq_isotropic": "_iso_hull", "ctq_werner": "_werner_hull"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name_of_span = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.linalg_calls = 0
        self.linalg_s = 0.0
        self.envelope: list[tuple[bool, float]] = []
        self.monogamy_calls: dict[tuple, tuple] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- installing wrappers ------------------------------------------------

    def install(self) -> None:
        import ctq

        modules = [ctq] + [sys.modules[f"ctq.{layer}"] for layer in LAYERS]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"ctq.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not inspect.isclass(obj)
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}", mod)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])
        for attr in LINALG:
            self._patch(np.linalg, attr, self._wrap_linalg(getattr(np.linalg, attr)))

    def uninstall(self) -> None:
        for mod, attr, old in reversed(self._restore):
            setattr(mod, attr, old)
        self._restore.clear()

    def _patch(self, mod, attr, new) -> None:
        self._restore.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def _wrap(self, fn, name: str, mod):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, start, end, parent, name_of_span = (
            self.stack, self.start, self.end, self.parent, self.name_of_span,
        )
        clock = time.perf_counter

        def span(*args, **kwargs):
            idx = len(start)
            name_of_span.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        if name == "monogamy.monogamy_check":
            return self._keeping_monogamy_calls(span, fn)
        if name.startswith("closedform.") and name.split(".")[1] in ENVELOPE:
            return self._with_envelope_latency(span, getattr(mod, ENVELOPE[name.split(".")[1]]))
        return span

    def _keeping_monogamy_calls(self, span, fn):
        """Keep the first call per state shape, for :meth:`alloc_peak_mb`."""

        def call(psi, *args, **kwargs):
            self.monogamy_calls.setdefault(psi.dims, (fn, psi, args, kwargs))
            return span(psi, *args, **kwargs)

        return call

    def _with_envelope_latency(self, span, hull_cache):
        """Time each envelope lookup; a call is cold (builds a hull) when the
        hull cache records a miss during it."""

        def call(*args, **kwargs):
            misses = hull_cache.cache_info().misses
            t0 = time.perf_counter()
            out = span(*args, **kwargs)
            dt = time.perf_counter() - t0
            self.envelope.append((hull_cache.cache_info().misses > misses, dt))
            return out

        return call

    def _wrap_linalg(self, fn):
        def call(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.linalg_s += time.perf_counter() - t0
                self.linalg_calls += 1

        return call

    # -- results ------------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """name -> (value, unit); counts and times are per round.

        A layer's calls are its entries from outside it: spans whose parent
        span belongs to another layer, or to none.
        """
        names = np.array(self.name_of_span, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        child = np.zeros(dur.size)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        layer_of_name = np.array([LAYERS.index(s.split(".")[0]) for s in self.names] + [-1])
        layer = layer_of_name[names]
        parent_layer = np.where(has_parent, layer[parent], -1)
        entry = layer != parent_layer
        out = {}
        for name in REPORTED:
            mine = layer == LAYERS.index(name)
            out[f"{name}.calls"] = (int(np.sum(entry & mine)) / rounds, "count")
            out[f"{name}.self_s"] = (float(np.sum(self_time[mine])) / rounds, "s")
        oracle = names == self.name_id.get("closedform.oracle_min_schmidt", -1)
        out["closedform.oracle_calls"] = (int(np.sum(oracle)) / rounds, "count")
        out["closedform.oracle_s"] = (float(np.sum(dur[oracle])) / rounds, "s")
        cold = [dt for c, dt in self.envelope if c]
        warm = [dt for c, dt in self.envelope if not c]
        out["closedform.envelope_cold_ms"] = (float(np.median(cold)) * 1e3 if cold else 0.0, "ms")
        out["closedform.envelope_warm_us"] = (float(np.median(warm)) * 1e6 if warm else 0.0, "us")
        out["linalg.calls"] = (self.linalg_calls / rounds, "count")
        out["linalg.s"] = (self.linalg_s / rounds, "s")
        return out

    def alloc_peak_mb(self) -> float:
        """The highest ``tracemalloc`` peak of the kept ``monogamy_check``
        calls, each replayed once, unwrapped and untimed."""
        peak = 0
        for fn, psi, args, kwargs in self.monogamy_calls.values():
            tracemalloc.start()
            try:
                fn(psi, *args, **kwargs)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peak / 2**20

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.name_of_span, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int32),
        )
