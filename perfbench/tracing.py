"""Spans around the package's layer boundaries, recorded from outside.

`Tracer.install` wraps each boundary function named in `BOUNDARIES` and
puts the wrapper in place of the original under every name that refers
to it in a loaded `cyclepack` module, so `from ... import` sites see it
too.  Imports inside function bodies look the name up in the defining
module at call time, which now holds the wrapper.  Spans stay in memory;
`layer_metrics` turns them into the per-layer metrics when the run ends.

A span's self time is its duration minus the durations of its direct
child spans; spans nest strictly because the pass is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

# (module, function, span label, note taken from the return value)
BOUNDARIES = (
    ("oracle", "enumerate_embeddings", "oracle.enumerate", lambda out: (out.leaves, out.visited, len(out.classes))),
    ("oracle", "first_distinguishing_invariant", "oracle.certificate", lambda sep: sep is None),
    ("oracle", "invariant_value", "oracle.invariant_value", None),
    ("embedding", "make_sum", "embedding.make_sum", None),
    ("invariants", "canonical_form", "invariants.canonical_form", None),
    ("invariants", "is_planar", "invariants.is_planar", lambda res: res.planar),
    ("invariants", "contains_k4", "invariants.other", None),
    ("invariants", "is_bipartite", "invariants.other", None),
    ("invariants", "has_p4_neighborhood_vertex", "invariants.other", None),
    ("invariants", "max_triangle_subset", "invariants.other", None),
    ("constructions", "two_distinct_embeddings", "constructions.two_distinct", None),
    ("constructions", "ladder_extend", "constructions.ladder_extend", None),
    ("fixtures", "load_fixture", "fixtures.load", None),
    ("fixtures", "search_fixture", "fixtures.search", None),
)

# name -> (unit, better); the order is the order of BENCHMARK.json's per_layer
LAYER_METRICS = {
    "oracle.enumerate.calls": ("count", "lower"),
    "oracle.enumerate.self_s": ("s", "lower"),
    "oracle.leaves": ("count", "lower"),
    "oracle.leaves_per_s": ("1/s", "higher"),
    "oracle.filter.accept_ratio": ("ratio", "higher"),
    "oracle.certificate.calls": ("count", "lower"),
    "oracle.certificate.self_s": ("s", "lower"),
    "oracle.certificate.s": ("s", "lower"),
    "oracle.certificate.canonical_only": ("count", "lower"),
    "embedding.make_sum.calls": ("count", "lower"),
    "embedding.make_sum.s": ("s", "lower"),
    "embedding.make_sum.per_leaf": ("ratio", "lower"),
    "invariants.canonical_form.calls": ("count", "lower"),
    "invariants.canonical_form.s": ("s", "lower"),
    "invariants.canonical_form.p50_ms": ("ms", "lower"),
    "invariants.canonical_form.tail_ms": ("ms", "lower"),
    "invariants.canonical_form.calls_per_class": ("ratio", "lower"),
    "invariants.is_planar.calls": ("count", "lower"),
    "invariants.is_planar.s": ("s", "lower"),
    "invariants.is_planar.p50_ms": ("ms", "lower"),
    "invariants.is_planar.tail_ms": ("ms", "lower"),
    "invariants.is_planar.nonplanar_calls": ("count", "lower"),
    "invariants.is_planar.nonplanar_s": ("s", "lower"),
    "invariants.other.calls": ("count", "lower"),
    "invariants.other.s": ("s", "lower"),
    "constructions.two_distinct.self_s": ("s", "lower"),
    "constructions.ladder_extend.calls": ("count", "lower"),
    "constructions.ladder_extend.self_s": ("s", "lower"),
    "constructions.ladder.checks_per_accept": ("ratio", "lower"),
    "fixtures.load.calls": ("count", "lower"),
    "fixtures.load.s": ("s", "lower"),
    "fixtures.search.self_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


class Tracer:
    """Span recorder.  Each span is [label, parent index, start, end, note]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, label: str, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [label, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(result)
            return result

        return traced

    def install(self) -> None:
        """Swap every boundary function for its traced wrapper."""
        for module, _, _, _ in BOUNDARIES:
            importlib.import_module(f"cyclepack.{module}")
        loaded = [m for name, m in sys.modules.items() if name == "cyclepack" or name.startswith("cyclepack.")]
        for module, func, label, note in BOUNDARIES:
            original = getattr(sys.modules[f"cyclepack.{module}"], func)
            wrapper = self.wrap(label, original, note)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)


def _tail(durations: list[float]) -> float:
    """Highest percentile that still has ten samples above it; 0 with fewer than 11."""
    if len(durations) < 11:
        return 0.0
    return sorted(durations)[-11]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but trace.overhead_frac)."""
    n = len(spans)
    dur = [s[3] - s[2] for s in spans]
    covered = [0.0] * n
    in_enum = [False] * n  # span runs inside an enumerator call
    for i, (label, parent, *_rest) in enumerate(spans):
        if parent >= 0:
            covered[parent] += dur[i]
            in_enum[i] = in_enum[parent] or spans[parent][0] == "oracle.enumerate"
    self_s = [dur[i] - covered[i] for i in range(n)]

    by_label: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_label.setdefault(span[0], []).append(i)

    def idx(label):
        return by_label.get(label, [])

    def total(label, times):
        return sum(times[i] for i in idx(label))

    enum = idx("oracle.enumerate")
    outcomes = [spans[i][4] for i in enum if spans[i][4] is not None]  # None: the call raised
    leaves = sum(o[0] for o in outcomes)
    visited = sum(o[1] for o in outcomes)
    classes = sum(o[2] for o in outcomes)
    enum_self = total("oracle.enumerate", self_s)
    make_sum_in_enum = sum(1 for i in idx("embedding.make_sum") if in_enum[i])
    canon = idx("invariants.canonical_form")
    planar = idx("invariants.is_planar")
    nonplanar = [i for i in planar if spans[i][4] is False]
    ladder = idx("constructions.ladder_extend")
    ladder_checks = sum(
        1 for i in idx("oracle.invariant_value") if spans[i][1] >= 0 and spans[spans[i][1]][0] == "constructions.ladder_extend"
    )

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "oracle.enumerate.calls": len(enum),
        "oracle.enumerate.self_s": enum_self,
        "oracle.leaves": leaves,
        "oracle.leaves_per_s": ratio(leaves, enum_self),
        "oracle.filter.accept_ratio": ratio(visited, leaves),
        "oracle.certificate.calls": len(idx("oracle.certificate")),
        "oracle.certificate.self_s": total("oracle.certificate", self_s),
        "oracle.certificate.s": total("oracle.certificate", dur),
        "oracle.certificate.canonical_only": sum(1 for i in idx("oracle.certificate") if spans[i][4]),
        "embedding.make_sum.calls": len(idx("embedding.make_sum")),
        "embedding.make_sum.s": total("embedding.make_sum", dur),
        "embedding.make_sum.per_leaf": ratio(make_sum_in_enum, leaves),
        "invariants.canonical_form.calls": len(canon),
        "invariants.canonical_form.s": total("invariants.canonical_form", dur),
        "invariants.canonical_form.p50_ms": 1e3 * _median([dur[i] for i in canon]),
        "invariants.canonical_form.tail_ms": 1e3 * _tail([dur[i] for i in canon]),
        "invariants.canonical_form.calls_per_class": ratio(len(canon), classes),
        "invariants.is_planar.calls": len(planar),
        "invariants.is_planar.s": total("invariants.is_planar", dur),
        "invariants.is_planar.p50_ms": 1e3 * _median([dur[i] for i in planar]),
        "invariants.is_planar.tail_ms": 1e3 * _tail([dur[i] for i in planar]),
        "invariants.is_planar.nonplanar_calls": len(nonplanar),
        "invariants.is_planar.nonplanar_s": sum(dur[i] for i in nonplanar),
        "invariants.other.calls": len(idx("invariants.other")),
        "invariants.other.s": total("invariants.other", dur),
        "constructions.two_distinct.self_s": total("constructions.two_distinct", self_s),
        "constructions.ladder_extend.calls": len(ladder),
        "constructions.ladder_extend.self_s": total("constructions.ladder_extend", self_s),
        "constructions.ladder.checks_per_accept": ratio(ladder_checks, len(ladder)),
        "fixtures.load.calls": len(idx("fixtures.load")),
        "fixtures.load.s": total("fixtures.load", dur),
        "fixtures.search.self_s": total("fixtures.search", self_s),
    }
