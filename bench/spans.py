"""Timing shims around the public entry functions of each gowers_forms layer.

A :class:`Tracer` wraps every function named in :data:`SHIMS` and installs the
wrapper in every ``gowers_forms`` module namespace that binds the function
(``gowers.bias`` as well as ``rankbias.bias``), so calls between layers nest as
child spans.  Spans (name, start, end, parent, instance) are kept in memory;
per-layer metrics are derived from them when the run ends.  The library is
unmodified outside :meth:`Tracer.installed`.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("gf2", "forms", "dyadic", "rankbias", "nonclassical", "gowers", "decomp")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rref_counts(args, kwargs, result):
    return {"cells": int(np.prod(np.shape(_arg(args, kwargs, 0, "m"))))}


def _bias_counts(args, kwargs, result):
    f = _arg(args, kwargs, 0, "f")
    return {"ranks": 1 << max(0, (f.arity - 2) * f.dim)}


def _decide_counts(args, kwargs, result):
    return {"decided": int(result.is_low is not None)}


def _slice_rewrite_counts(args, kwargs, result):
    return {"terms_in": len(_arg(args, kwargs, 1, "cert").terms), "terms_out": len(result.terms)}


def _find_point_counts(args, kwargs, result):
    return {"found": int(result[1].found)}


def _extract_counts(args, kwargs, result):
    return {"known": sum(v is not None for v in result.values()), "coefficients": len(result)}


def _derivative_check_counts(args, kwargs, result):
    return {"tuples": int(result[1])}


def _correlation_counts(args, kwargs, result):
    f, alpha = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "alpha")
    return {"tuples": 1 << ((alpha.arity + 1) * f.n)}


def _norm_counts(args, kwargs, result):
    f, k = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "k")
    return {"tuples": 1 << ((k + 1) * f.n)}


def _spectrum_counts(args, kwargs, result):
    f, k = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "k")
    return {"hits": len(result), "space": 1 << (f.n**k)}


def _truth_table_counts(args, kwargs, result):
    f = _arg(args, kwargs, 0, "f")
    return {"cells": 1 << (f.arity * f.dim)}


# layer -> {function (or "Class.method") -> count hook or None}
SHIMS = {
    "gf2": {"rref": _rref_counts, "rank": None, "solve": None},
    "forms": {"truth_table": _truth_table_counts, "slice_form": None, "evaluate": None},
    "dyadic": {"log2_bracket": None},
    "rankbias": {
        "bias": _bias_counts,
        "arank": None,
        "RankProxyPolicy.decide_low_rank": _decide_counts,
        "verify_certificate": None,
        "verify_provenance": None,
        "quadratic_rank_hypothesis": None,
    },
    "nonclassical": {
        "integrate": None,
        "derivative_identity_check": _derivative_check_counts,
        "poly_to_table": None,
    },
    "gowers": {
        "correlation": _correlation_counts,
        "gowers_norm": _norm_counts,
        "subspace_restrict": None,
        "restrict_phase": None,
        "spectrum_search": _spectrum_counts,
        "walsh_hadamard": None,
        "box_power": None,
    },
    "decomp": {
        "slice_rewrite": _slice_rewrite_counts,
        "change_basis": None,
        "find_point": _find_point_counts,
        "extract_coefficients": _extract_counts,
    },
}

# Derived per-layer metrics: name -> (unit, better).  Counts and times are per
# traced instance; ratios are totals over the run.
PER_LAYER = {
    "gf2.rref.calls": ("count", "lower"),
    "gf2.rref.self_s": ("s", "lower"),
    "gf2.rref.cells": ("count", "lower"),
    "gf2.rank.calls": ("count", "lower"),
    "gf2.solve.self_s": ("s", "lower"),
    "rankbias.bias.calls": ("count", "lower"),
    "rankbias.bias.self_s": ("s", "lower"),
    "rankbias.bias.ranks": ("count", "lower"),
    "rankbias.arank.self_s": ("s", "lower"),
    "rankbias.decide_low_rank.self_s": ("s", "lower"),
    "rankbias.decide_low_rank.decided_ratio": ("ratio", "higher"),
    "rankbias.verify_certificate.self_s": ("s", "lower"),
    "rankbias.verify_provenance.self_s": ("s", "lower"),
    "rankbias.quadratic_rank_hypothesis.self_s": ("s", "lower"),
    "dyadic.log2_bracket.calls": ("count", "lower"),
    "dyadic.log2_bracket.self_s": ("s", "lower"),
    "decomp.slice_rewrite.self_s": ("s", "lower"),
    "decomp.slice_rewrite.terms_in": ("count", "lower"),
    "decomp.slice_rewrite.terms_out": ("count", "lower"),
    "decomp.change_basis.calls": ("count", "lower"),
    "decomp.change_basis.self_s": ("s", "lower"),
    "decomp.find_point.calls": ("count", "lower"),
    "decomp.find_point.self_s": ("s", "lower"),
    "decomp.find_point.found_ratio": ("ratio", "higher"),
    "decomp.extract_coefficients.known_ratio": ("ratio", "higher"),
    "nonclassical.integrate.self_s": ("s", "lower"),
    "nonclassical.derivative_identity_check.self_s": ("s", "lower"),
    "nonclassical.derivative_identity_check.tuples": ("count", "lower"),
    "nonclassical.poly_to_table.self_s": ("s", "lower"),
    "gowers.correlation.calls": ("count", "lower"),
    "gowers.correlation.self_s": ("s", "lower"),
    "gowers.correlation.tuples": ("count", "lower"),
    "gowers.gowers_norm.self_s": ("s", "lower"),
    "gowers.gowers_norm.tuples": ("count", "lower"),
    "gowers.subspace_restrict.self_s": ("s", "lower"),
    "gowers.restrict_phase.self_s": ("s", "lower"),
    "gowers.spectrum_search.self_s": ("s", "lower"),
    "gowers.spectrum_search.hit_ratio": ("ratio", "higher"),
    "gowers.walsh_hadamard.self_s": ("s", "lower"),
    "gowers.box_power.self_s": ("s", "lower"),
    "forms.truth_table.calls": ("count", "lower"),
    "forms.truth_table.self_s": ("s", "lower"),
    "forms.truth_table.cells": ("count", "lower"),
    "forms.slice_form.calls": ("count", "lower"),
    "forms.slice_form.self_s": ("s", "lower"),
    "forms.evaluate.calls": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# ratio metric -> (numerator counter, denominator counter); "calls" counts spans
RATIOS = {
    "rankbias.decide_low_rank.decided_ratio": ("rankbias.decide_low_rank.decided", "rankbias.decide_low_rank.calls"),
    "decomp.find_point.found_ratio": ("decomp.find_point.found", "decomp.find_point.calls"),
    "decomp.extract_coefficients.known_ratio": ("decomp.extract_coefficients.known", "decomp.extract_coefficients.coefficients"),
    "gowers.spectrum_search.hit_ratio": ("gowers.spectrum_search.hits", "gowers.spectrum_search.space"),
}


class Tracer:
    """Span recorder for the shimmed library functions of one run."""

    def __init__(self):
        self.names: dict[str, int] = {}  # span name -> id
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.instance: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.current_instance = -1
        self._stack: list[int] = []

    def _wrap(self, key: str, fn, hook):
        tracer = self
        nid = self.names.setdefault(key, len(self.names))

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.instance.append(tracer.current_instance)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if hook is not None:
                for what, value in hook(args, kwargs, result).items():
                    tracer.counters[f"{key}.{what}"] += value
            return result

        return shim

    @contextmanager
    def installed(self, instance: int):
        """Record spans of ``instance`` while the block runs: the shims are
        installed on entry and the original functions restored on exit."""
        self.current_instance = instance
        modules = [importlib.import_module(f"gowers_forms.{layer}") for layer in LAYERS]
        saved = []
        try:
            for layer, functions in SHIMS.items():
                home = importlib.import_module(f"gowers_forms.{layer}")
                for qualname, hook in functions.items():
                    key = f"{layer}.{qualname.split('.')[-1]}"
                    if "." in qualname:
                        cls_name, attr = qualname.split(".")
                        cls = getattr(home, cls_name)
                        original = cls.__dict__[attr]
                        saved.append((cls, attr, original))
                        setattr(cls, attr, self._wrap(key, original, hook))
                        continue
                    original = getattr(home, qualname)
                    shim = self._wrap(key, original, hook)
                    for module in modules:
                        for name, value in list(vars(module).items()):
                            if value is original:
                                saved.append((module, name, original))
                                setattr(module, name, shim)
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        parent = np.asarray(self.parent, dtype=np.int64)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        return dur - covered

    def metrics(self, instances: int, overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics of :data:`PER_LAYER`, per traced instance."""
        name_id = np.asarray(self.name_id, dtype=np.int64)
        self_s = self.self_times()
        totals = dict(self.counters)
        for key, nid in self.names.items():
            mask = name_id == nid
            totals[f"{key}.calls"] = int(mask.sum())
            totals[f"{key}.self_s"] = float(self_s[mask].sum())
        out = {}
        for metric in PER_LAYER:
            if metric == "trace.overhead_ratio":
                out[metric] = overhead_ratio
            elif metric in RATIOS:
                num, den = RATIOS[metric]
                out[metric] = totals.get(num, 0) / totals[den] if totals.get(den) else 0.0
            else:
                out[metric] = totals.get(metric, 0) / instances
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0.0
        np.savez_compressed(
            path,
            names=np.array(list(self.names)),
            name_id=np.asarray(self.name_id, dtype=np.int32),
            start=np.asarray(self.start) - t0,
            end=np.asarray(self.end) - t0,
            parent=np.asarray(self.parent, dtype=np.int64),
            instance=np.asarray(self.instance, dtype=np.int32),
        )
