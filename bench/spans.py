"""In-memory span tracing of tsettopos layers, installed from outside.

A traced run wraps the public functions listed in ``LAYERS`` in every
``tsettopos.*`` module namespace that binds them: ``from .sheaves import
hom_presheaf`` copies the name into ``topos``, so patching the defining
module alone would miss calls made from ``topos``.  Each call records a
span (name, start, end, parent) in memory; self time is a span's
duration minus the durations of its direct children.  Leaving the
``with`` block restores every original binding, so untraced runs in the
same process pay nothing.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

PACKAGE = "tsettopos"

# module -> traced functions; per-layer metrics are named
# <module>.<function>.calls / .self_s / .total_s
LAYERS: dict[str, tuple[str, ...]] = {
    "pools": ("all_poset_specs", "algebra_pool", "tset_pool", "sheaf_pool"),
    "heyting": ("build_algebra",),
    "sites": ("territory_topology", "closed_sieves"),
    "sheaves": ("hom_presheaf", "product_presheaf", "is_sheaf",
                "tset_to_presheaf", "sheafify", "find_presheaf_iso"),
    "tset": ("hom_set", "atoms", "satisfies_postulate",
             "singleton_completion"),
    "topos": ("exponential", "transpose", "check_adjunction",
              "check_adjunction_natural", "product_universal_presheaf",
              "pullback_presheaf", "pullback_universal_presheaf",
              "check_classifier", "mediators", "sg_check"),
    "fileio": ("read_doc", "algebra_from_dict", "tset_from_dict",
               "presheaf_from_dict", "save_structure"),
    "cli": ("run_command",),
    "suites": ("run_suite", "generate_instance_pool"),
}

FUNCTIONS = tuple(f"{m}.{f}" for m, fs in LAYERS.items() for f in fs)

# traced function -> counter summing the lengths of its results
COUNTERS: dict[str, str] = {
    "pools.all_poset_specs": "pools.all_poset_specs.classes",
    "pools.algebra_pool": "pools.algebra_pool.classes",
    "pools.tset_pool": "pools.tset_pool.classes",
    "pools.sheaf_pool": "pools.sheaf_pool.classes",
    "tset.hom_set": "tset.hom_set.maps",
}
# share metric -> counter divided by the calls of the function it names
SHARES: dict[str, str] = {
    "sheaves.hom_presheaf.repeat_share": "sheaves.hom_presheaf.repeats",
    "sheaves.is_sheaf.ok_share": "sheaves.is_sheaf.ok",
    "sheaves.find_presheaf_iso.found_share": "sheaves.find_presheaf_iso.found",
}


def _package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if n == PACKAGE or n.startswith(PACKAGE + ".")]


class Tracer:
    """Context manager that traces ``LAYERS`` while it is active.

    ``begin_request`` marks request boundaries (the scope of the
    hom_presheaf repeat count); ``collect`` folds the spans recorded so
    far into totals and clears them, so memory stays bounded by one
    pass.
    """

    def __init__(self):
        self._spans: list[list] = []      # [name, start, end, parent]
        self._stack: list[int] = []
        self._bound: list[tuple[object, str, object]] = []
        self._request = 0
        self._pairs: list[tuple[int, object, object]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.spanned_s = 0.0              # time inside top-level spans

    def __enter__(self) -> "Tracer":
        modules = _package_modules()
        for layer, names in LAYERS.items():
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    if vars(mod).get(fname) is original:
                        setattr(mod, fname, wrapper)
                        self._bound.append((mod, fname, original))
        return self

    def __exit__(self, *exc) -> None:
        for mod, fname, original in reversed(self._bound):
            setattr(mod, fname, original)
        self._bound.clear()

    def begin_request(self) -> None:
        self._request += 1

    def _wrap(self, name: str, fn):
        spans, stack, clock = self._spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)
        counts, pairs = self.counts, self._pairs

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counts[counter] += len(result)
            elif name == "sheaves.hom_presheaf":
                # keep the pair alive; repeats are counted in collect()
                pairs.append((self._request, args[0], args[1]))
            elif name == "sheaves.is_sheaf":
                counts["sheaves.is_sheaf.ok"] += result.ok
            elif name == "sheaves.find_presheaf_iso":
                counts["sheaves.find_presheaf_iso.found"] += result is not None
            return result

        traced.__wrapped__ = fn
        return traced

    def collect(self) -> None:
        spans = self._spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                self.spanned_s += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            self.calls[name] += 1
            self.self_s[name] += end - start - child[i]
            # total time counts only the outermost span of a recursion
            up = parent
            while up >= 0 and spans[up][0] != name:
                up = spans[up][3]
            if up < 0:
                self.total_s[name] += end - start
        spans.clear()
        seen: set[tuple] = set()
        for request, source, target in self._pairs:
            key = (request, source, target)
            if key in seen:
                self.counts["sheaves.hom_presheaf.repeats"] += 1
            seen.add(key)
        self._pairs.clear()

    def metrics(self, passes: int, verdict_s: float) -> dict[str, tuple]:
        """Per-pass layer metrics, as {name: (value, unit)}.

        ``verdict_s`` is the mean traced pass time; the time not inside
        any span is reported as ``unattributed.self_s``, so module self
        times plus that remainder add up to it.
        """
        out: dict[str, tuple] = {}
        for name in FUNCTIONS:
            out[f"{name}.calls"] = (self.calls[name] / passes, "count")
            out[f"{name}.self_s"] = (self.self_s[name] / passes, "s")
            out[f"{name}.total_s"] = (self.total_s[name] / passes, "s")
        for counter in COUNTERS.values():
            out[counter] = (self.counts[counter] / passes, "count")
        for name, counter in SHARES.items():
            calls = self.calls[name.rsplit(".", 1)[0]]
            out[name] = (self.counts[counter] / calls if calls else 0.0,
                         "share")
        for layer, names in LAYERS.items():
            out[f"{layer}.self_s"] = (sum(
                self.self_s[f"{layer}.{f}"] for f in names) / passes, "s")
        out["unattributed.self_s"] = (
            verdict_s - self.spanned_s / passes, "s")
        return out
