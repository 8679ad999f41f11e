"""Per-layer spans installed from outside the program.

A traced op child calls :func:`install`, which wraps each layer's entry
points and rebinds the wrapper in every ``heckealg`` module that bound the
original object (``from .modmat import _howell_rows`` copies the binding,
so patching the defining module alone would miss most calls).  A name the
program no longer defines is reported as absent and the op still runs.

Each span adds its inclusive time to its parent's child time, so a span's
self time is its inclusive time minus that of the spans it caused.  The
``cli`` span wraps ``main`` and is the root: the self times of all spans
add up to the time spent in ``main``.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# (span, module, attribute); an attribute "Class.method" is patched on the class.
SPANS = (
    ("modmat.howell", "heckealg.modmat", "_howell_rows"),
    ("modmat.span_contains", "heckealg.modmat", "_span_contains_rows"),
    ("subgroups.enumerate", "heckealg.subgroups", "enumerate_subgroups"),
    ("subgroups.type_of", "heckealg.subgroups", "type_of"),
    ("subgroups.type_of_rows", "heckealg.subgroups", "_type_of_rows"),
    ("subgroups.quotient_type", "heckealg.subgroups", "quotient_type"),
    ("subgroups.intersect", "heckealg.subgroups", "intersect"),
    ("subgroups.m_count", "heckealg.subgroups", "m_count"),
    ("omega.a_coeff", "heckealg.omega", "a_coeff"),
    ("omega.b_coeff", "heckealg.omega", "b_coeff"),
    ("omega.transversal", "heckealg.omega", "_transversal_bins"),
    ("hecke.c_coeff", "heckealg.hecke", "c_coeff"),
    ("hecke.hall_table", "heckealg.hecke", "_hall_table"),
    ("hecke.multiply", "heckealg.hecke", "multiply"),
    ("hecke.decompose", "heckealg.hecke", "decompose_in_generators"),
    ("cache.load", "heckealg.cache", "CacheStore.load"),
    ("cache.flush", "heckealg.cache", "CacheStore.flush"),
    ("cli", "heckealg.cli", "main"),
)
GENERATORS = {"subgroups.enumerate"}


class Tracer:
    """Counts and self times of one op, in nanoseconds."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.extra: Counter[str] = Counter()
        self.absent: list[str] = []
        self.lru = None  # the original _type_of_rows, for cache_info()
        self._child_ns: list[int] = []

    def _enter(self) -> int:
        self._child_ns.append(0)
        return time.perf_counter_ns()

    def _leave(self, name: str, t0: int) -> None:
        dt = time.perf_counter_ns() - t0
        child = self._child_ns.pop()
        self.self_ns[name] += dt - child
        if self._child_ns:
            self._child_ns[-1] += dt

    def wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if hook is not None:
                args, after = hook(self, args)
            t0 = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name, t0)
            if hook is not None:
                after(result)
            return result

        return wrapper

    def wrap_generator(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            gen = fn(*args, **kwargs)
            try:
                while True:
                    t0 = self._enter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._leave(name, t0)
                    self.extra[name + ".yielded"] += 1
                    yield item
            finally:
                gen.close()

        return wrapper

    def snapshot(self) -> dict:
        if self.lru is not None:
            info = self.lru.cache_info()
            self.extra["subgroups.type_of_rows.hits"] = info.hits
            self.extra["subgroups.type_of_rows.misses"] = info.misses
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "extra": dict(self.extra),
            "absent": self.absent,
        }


def _howell_hook(tracer: Tracer, args):
    rows = list(args[0])
    tracer.extra["modmat.howell.rows_in"] += len(rows)
    return (rows,) + tuple(args[1:]), _nothing


def _enumerate_count_hook(tracer: Tracer, args):
    before = tracer.calls["subgroups.enumerate"]

    def after(_result):
        if tracer.calls["subgroups.enumerate"] > before:
            tracer.extra["hecke.hall_table.sweeps"] += 1

    return args, after


def _transversal_hook(tracer: Tracer, args):
    def after(bins):
        tracer.extra["omega.transversal.cosets"] += sum(bins.values())

    return args, after


def _load_hook(tracer: Tracer, args):
    def after(loaded):
        tracer.extra["cache.lines_loaded"] += len(loaded)

    return args, after


def _flush_hook(tracer: Tracer, args):
    def after(appended):
        tracer.extra["cache.lines_appended"] += appended

    return args, after


def _nothing(_result) -> None:
    pass


_HOOKS = {
    "modmat.howell": _howell_hook,
    "hecke.hall_table": _enumerate_count_hook,
    "omega.transversal": _transversal_hook,
    "cache.load": _load_hook,
    "cache.flush": _flush_hook,
}


def _resolve(module: str, attribute: str):
    """(owner, name, object) for a dotted attribute, or None if it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, name, None)
    return None if obj is None else (owner, name, obj)


def install(tracer: Tracer, spans=SPANS) -> None:
    """Wrap every span's entry point in this process; record absent ones."""
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "heckealg" or k.startswith("heckealg."))]
    for name, module, attribute in spans:
        found = _resolve(module, attribute)
        if found is None:
            tracer.absent.append(name)
            continue
        owner, attr, original = found
        if name == "subgroups.type_of_rows" and hasattr(original, "cache_info"):
            tracer.lru = original
        make = tracer.wrap_generator if name in GENERATORS else tracer.wrap
        wrapper = make(name, original)
        if "." in attribute:
            setattr(owner, attr, wrapper)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
