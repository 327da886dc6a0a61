"""Per-layer accounting for a traced benchmark pass, from outside the program.

install() replaces every public callable of each modfol module (a layer)
with a timing wrapper: module-level functions wherever a `from .x import f`
bound them, and public methods plus __init__ on the classes themselves.
Properties and other dunder methods stay unwrapped.

The Tracer keeps one stack of active wrapped calls and charges every
interval between two wrapper events to the layer on top of the stack, so

* <layer>.calls   counts every wrapped call into the layer (nested ones too),
* <layer>.busy_s  is the time at least one call of the layer is active,
* <layer>.self_s  is busy time minus time spent in nested calls to other
                  layers (the per-layer self times sum to the traced wall).

The same depth bookkeeping gives busy time and call counts for single
callables and for named groups of them, from which layer_metrics() derives
the counters listed in BENCHMARK.json.
"""

import functools
import os
import sys
import types
from collections import defaultdict
from time import perf_counter

LAYERS = ("congruence", "modsym", "hecke", "eigen", "polys", "numfield",
          "linalg", "foliation", "periods", "iet", "pipeline", "cache",
          "cli")

# callables whose calls and busy time are also accounted under a group key
GROUPS = {
    "numfield.nf_rref": "numfield.elim",
    "numfield.nf_kernel": "numfield.elim",
    "numfield.nf_solve": "numfield.elim",
}


class Tracer:
    """Call counts, busy time and self time, keyed by layer and callable."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self._depth = defaultdict(int)
        self._since = {}
        self._stack = []
        self._last = 0.0
        self.cuspidal_pairs = set()
        self.series_terms = 0
        self.cache_hits = 0
        self.bytes_written = 0

    def enter(self, keys):
        now = perf_counter()
        stack = self._stack
        if stack:
            self.self_s[stack[-1][0]] += now - self._last
        self._last = now
        stack.append(keys)
        depth = self._depth
        for key in keys:
            self.calls[key] += 1
            if depth[key] == 0:
                self._since[key] = now
            depth[key] += 1

    def leave(self):
        now = perf_counter()
        keys = self._stack.pop()
        self.self_s[keys[0]] += now - self._last
        self._last = now
        depth = self._depth
        for key in keys:
            depth[key] -= 1
            if depth[key] == 0:
                self.busy[key] += now - self._since[key]

    # -- observers: read arguments or results of a few callables ---------------

    def _cuspidal(self, args, kwargs, result):
        space, p = args[0], args[1] if len(args) > 1 else kwargs["p"]
        self.cuspidal_pairs.add((space.N, int(p)))

    def _series(self, args, kwargs, result):
        self.series_terms += int(args[2] if len(args) > 2 else kwargs["terms"])

    def _load(self, args, kwargs, result):
        if result is not None:
            self.cache_hits += 1

    def _store(self, args, kwargs, result):
        self.bytes_written += os.path.getsize(result)

    def observer(self, name):
        return {
            "hecke.cuspidal_hecke_matrix": self._cuspidal,
            "periods.ensure_series": self._series,
            "cache.load": self._load,
            "cache.store": self._store,
        }.get(name)


def _wrap(tracer, fn, layer, name):
    keys = (layer, name) + ((GROUPS[name],) if name in GROUPS else ())
    enter, leave = tracer.enter, tracer.leave
    observe = tracer.observer(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        enter(keys)
        try:
            result = fn(*args, **kwargs)
        finally:
            leave()
        if observe is not None:
            observe(args, kwargs, result)
        return result

    return traced


def _wrap_class(tracer, cls, layer):
    for attr, value in list(vars(cls).items()):
        if attr.startswith("_") and attr != "__init__":
            continue
        name = "%s.%s.%s" % (layer, cls.__name__, attr)
        if isinstance(value, types.FunctionType):
            setattr(cls, attr, _wrap(tracer, value, layer, name))
        elif isinstance(value, (staticmethod, classmethod)):
            setattr(cls, attr, type(value)(
                _wrap(tracer, value.__func__, layer, name)))


def install(tracer):
    """Wrap the public callables of every layer module."""
    modules = [mod for key, mod in sorted(sys.modules.items())
               if key == "modfol" or key.startswith("modfol.")]
    wrapped = {}
    for layer in LAYERS:
        mod = sys.modules["modfol." + layer]
        for attr, value in list(vars(mod).items()):
            if attr.startswith("_") or \
                    getattr(value, "__module__", None) != mod.__name__:
                continue
            if isinstance(value, types.FunctionType):
                wrapped[id(value)] = (value, _wrap(
                    tracer, value, layer, "%s.%s" % (layer, attr)))
            elif isinstance(value, type):
                _wrap_class(tracer, value, layer)
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer metrics as {name: (value, unit)}; ratios are 0 on a 0 base."""
    calls, busy = tracer.calls, tracer.busy
    out = {}
    for layer in LAYERS:
        out[layer + ".calls"] = (calls[layer], "count")
        out[layer + ".busy_s"] = (busy[layer], "s")
        out[layer + ".self_s"] = (tracer.self_s[layer], "s")
    counted = {
        "modsym.space_builds": "modsym.ModularSymbolSpace.__init__",
        "modsym.express_cuspidal_calls":
            "modsym.ModularSymbolSpace.express_cuspidal",
        "modsym.path_calls": "modsym.ModularSymbolSpace.path",
        "linalg.solve_general_calls": "linalg.QMatrix.solve_general",
        "linalg.rref_calls": "linalg.QMatrix.rref",
        "congruence.p1_builds": "congruence.P1Space.__init__",
        "congruence.canonical_calls": "congruence.P1Space.canonical",
        "hecke.column_calls": "hecke.hecke_column_paths",
        "hecke.functional_eval_calls": "hecke.eigenvalue_from_functional",
        "eigen.decompose_attempts": "eigen.decompose",
        "numfield.elim_calls": "numfield.elim",
        "numfield.sign_calls": "numfield.RealEmbedding.sign",
        "polys.factor_calls": "polys.factor_poly",
        "periods.integral_calls": "periods.period_integral",
        "cache.load_calls": "cache.load",
        "cache.store_calls": "cache.store",
    }
    for metric, key in counted.items():
        out[metric] = (calls[key], "count")
    timed = {
        "numfield.elim_s": "numfield.elim",
        "numfield.sign_s": "numfield.RealEmbedding.sign",
        "eigen.rescale_s": "eigen.rescale_eigenvector",
        "polys.factor_s": "polys.factor_poly",
        "periods.ensure_series_s": "periods.ensure_series",
        "periods.integral_s": "periods.period_integral",
        "periods.detect_rank_s": "periods.detect_rank",
        "linalg.lll_s": "linalg.lll_reduce",
        "cache.load_s": "cache.load",
        "cache.store_s": "cache.store",
    }
    for metric, key in timed.items():
        out[metric] = (busy[key], "s")
    cuspidal = calls["hecke.cuspidal_hecke_matrix"]
    out["hecke.cuspidal_matrix_calls"] = (cuspidal, "count")
    out["hecke.cuspidal_matrix_distinct_ratio"] = (
        _ratio(len(tracer.cuspidal_pairs), cuspidal), "ratio")
    out["eigen.split_success_ratio"] = (
        _ratio(calls["eigen.auto_decompose"], calls["eigen.decompose"]),
        "ratio")
    out["periods.series_terms"] = (tracer.series_terms, "count")
    out["cache.hit_ratio"] = (
        _ratio(tracer.cache_hits, calls["cache.load"]), "ratio")
    out["cache.bytes_written"] = (tracer.bytes_written, "bytes")
    return out
