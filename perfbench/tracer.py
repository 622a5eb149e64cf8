"""Span tracer that wraps sigmatau's public functions from outside the package.

Each public function of a layer module is replaced, in every sigmatau
namespace that binds it by name, with a wrapper that records one span: the
function's name, start, end and parent span. Spans live in flat arrays in
memory and leave the process once, through ``dump``. ``summarize`` turns
dumps into per-function call counts and self times (span minus the part
covered by child spans).

Besides spans it records three counts at the same boundaries:

* hits and misses of the ``lru_cache`` behind the generic HNF decider and the
  adjugate decider, as ``cache_info()`` deltas;
* codewords the minimum-distance walk enumerates, and the largest share of
  its budget one call used;
* compiled kernel calls that overflowed and fell back to pure Python.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

# The package's modules, used as the layer names.
LAYERS = (
    "cli",
    "rings",
    "algebra",
    "derivations",
    "intlinalg",
    "conjecture",
    "codes",
    "_backend",
    "_pykernels",
)

# Pure twins that _backend dispatches to. Leaving them unwrapped keeps the
# kernel's time in _backend.<function>.self_s, whichever backend ran.
_DISPATCHED = {("_pykernels", "det_bareiss"), ("_pykernels", "derivation_failure"), ("_pykernels", "min_weight_gf2")}

_CACHES = {
    "derivations.generic_hnf_cache": ("derivations", "_generic_hnf"),
    "derivations.adjugate_cache": ("derivations", "_adjugate_det_A"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.kind = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counters = {"codes.codewords_enumerated": 0, "codes.budget_used_max": 0.0, "_backend.overflow_fallbacks": 0}
        self._caches = {}
        self._cache_base = {}

    def install(self, package) -> None:
        """Wrap every public layer function and rebind it in every sigmatau namespace."""
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or (layer, attr) in _DISPATCHED:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        for name, (layer, attr) in _CACHES.items():
            fn = getattr(modules[layer], attr)
            self._caches[name] = fn
            self._cache_base[name] = fn.cache_info()
        backend = modules["_backend"]
        if backend._kernels is not None:
            backend._kernels = _OverflowCounter(backend._kernels, self.counters)
        self._budget_default = modules["codes"].DEFAULT_BUDGET

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        kind, start, end, parent, stack = self.kind, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter
        before = self._count_codewords if name == "codes.min_distance" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            idx = len(kind)
            kind.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _count_codewords(self, code, budget=None, jobs=1):
        # a code whose distance is already cached enumerates nothing
        if code.k < 1 or getattr(code, "_d", None) is not None:
            return
        total = code.q ** code.k
        budget = self._budget_default if budget is None else budget
        self.counters["codes.codewords_enumerated"] += total - 1
        self.counters["codes.budget_used_max"] = max(self.counters["codes.budget_used_max"], total / budget)

    def dump(self) -> dict:
        """Everything recorded so far, as plain JSON-ready data."""
        counters = dict(self.counters)
        for name, fn in self._caches.items():
            now, base = fn.cache_info(), self._cache_base[name]
            counters[f"{name}.hits"] = now.hits - base.hits
            counters[f"{name}.misses"] = now.misses - base.misses
        spans = [[k, s, e, p] for k, s, e, p in zip(self.kind, self.start, self.end, self.parent)]
        return {"names": self.names, "spans": spans, "counters": counters}


class _OverflowCounter:
    """Stands in for the compiled kernel module and counts OverflowError fallbacks."""

    def __init__(self, kernels, counters):
        self._kernels = kernels
        self._counters = counters

    def __getattr__(self, attr):
        fn = getattr(self._kernels, attr)
        counters = self._counters

        def counted(*args):
            try:
                return fn(*args)
            except OverflowError:
                counters["_backend.overflow_fallbacks"] += 1
                raise

        return counted


def summarize(dumps) -> dict:
    """Merge dumps into {"calls": {...}, "self_s": {...}, "counters": {...}}."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, float] = {}
    for d in dumps:
        spans = d["spans"]
        covered = [0.0] * len(spans)
        for _, s, e, p in spans:
            if p >= 0:
                covered[p] += e - s
        for (k, s, e, _), child in zip(spans, covered):
            name = d["names"][k]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (e - s) - child
        for name, v in d["counters"].items():
            if name.endswith("_max"):
                counters[name] = max(counters.get(name, 0), v)
            else:
                counters[name] = counters.get(name, 0) + v
    return {"calls": calls, "self_s": self_s, "counters": counters}
