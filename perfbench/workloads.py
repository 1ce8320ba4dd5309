"""The three benchmark workloads: their items and one serial pass over them.

Each pass calls only the package's public entry points and returns the
raw outputs, which `checks` verifies after the timed region.  Item order
follows the seed where items are independent (`pairs-18`,
`search-constrained`); `census-12` runs as one `oracle.census` call, so
the package fixes its order.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from cyclepack import constructions, fixtures, oracle
from cyclepack.embedding import CycleType, realize

# Vertex budgets per workload.  The tiny sizes exercise every path, check
# and span in seconds; they are for the harness self-check only.
SIZES = {
    "census-12": {"full": 12, "tiny": 7},
    "pairs-18": {"full": 18, "tiny": 10},
    "search-constrained": {"full": 10, "tiny": 7},
}
# Tiny mode recomputes only the fixtures with at most this many vertices.
TINY_FIXTURE_VERTICES = 9

NOT_EMBEDDABLE = {(3,), (4,), (3, 3)}
UNIQUE = {(5,), (6,), (3, 4), (3, 5), (3, 3, 3), (3, 3, 3, 3)}


def cycle_types(n_max: int) -> list[tuple[int, ...]]:
    """Every multiset of cycle lengths >= 3 with total 3..n_max, by total then parts."""
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, least: int, acc: tuple[int, ...]):
        if remaining == 0:
            out.append(acc)
            return
        for part in range(least, remaining + 1):
            if remaining - part == 0 or remaining - part >= part:
                rec(remaining - part, part, acc + (part,))

    for n in range(3, n_max + 1):
        rec(n, 3, ())
    return out


def render(lengths: tuple[int, ...]) -> str:
    return "+".join(f"C{m}" for m in lengths)


@dataclass
class PassResult:
    """Outputs of one pass keyed by item name, with per-item seconds.

    `names` lists every item the pass attempted; an item with neither an
    output nor an error is a failure too.
    """

    names: list[str]
    outputs: dict = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)
    seconds: dict[str, float] = field(default_factory=dict)


def _timed_items(items: list) -> PassResult:
    """Run (name, thunk) items serially; an exception fails only its item."""
    res = PassResult([name for name, _ in items])
    for name, thunk in items:
        start = time.perf_counter()
        try:
            res.outputs[name] = thunk()
        except Exception as exc:  # one failing item must not hide the others
            res.errors[name] = f"{type(exc).__name__}: {exc}"
        res.seconds[name] = time.perf_counter() - start
    return res


def run_census(n_max: int, seed: int) -> PassResult:
    """`oracle.census(n_max)`; the witnesses are captured for the checks."""
    del seed  # census fixes its own row order
    witnesses: dict[tuple[int, ...], tuple] = {}
    classify = oracle.classify_by_oracle

    def capture(ct, **kwargs):
        cls = classify(ct, **kwargs)
        witnesses[ct.lengths] = cls.witnesses
        return cls

    res = PassResult([render(t) for t in cycle_types(n_max)])
    oracle.classify_by_oracle = capture
    try:
        report = oracle.census(n_max)
    except Exception as exc:  # the census is one call: its failure fails every row
        res.errors = {name: f"{type(exc).__name__}: {exc}" for name in res.names}
        return res
    finally:
        oracle.classify_by_oracle = classify
    for row in report.rows:
        name = row.cycle_type.render()
        res.outputs[name] = (row, witnesses.get(row.cycle_type.lengths, ()))
        res.seconds[name] = row.seconds
    return res


def pairs_types(n_max: int) -> list[tuple[int, ...]]:
    return [t for t in cycle_types(n_max) if t not in NOT_EMBEDDABLE and t not in UNIQUE]


def run_pairs(n_max: int, seed: int) -> PassResult:
    types = pairs_types(n_max)
    random.Random(seed).shuffle(types)
    return _timed_items(
        [(render(t), lambda t=t: constructions.two_distinct_embeddings(CycleType(t))) for t in types]
    )


def search_items(n_max: int, tiny: bool) -> list[tuple[str, Callable]]:
    """`fixtures regen` without writing, then `pack --strategy search` per type."""
    items = [
        (f"fixture:{spec.name}", lambda name=spec.name: fixtures.search_fixture(name))
        for spec in fixtures.FIXTURE_SPECS
        if not tiny or sum(spec.cycle_type) <= TINY_FIXTURE_VERTICES
    ]
    for t in cycle_types(n_max):
        if t in NOT_EMBEDDABLE:
            continue
        for want in (True, False):
            items.append((
                f"{render(t)}|planar={'yes' if want else 'no'}",
                lambda t=t, want=want: oracle.find_embedding(
                    realize(CycleType(t)), oracle.SearchConstraints(require_planar=want), reduced=True
                ),
            ))
    return items


def run_search(n_max: int, seed: int, tiny: bool) -> PassResult:
    items = search_items(n_max, tiny)
    random.Random(seed).shuffle(items)
    return _timed_items(items)


def run(workload: str, seed: int, tiny: bool) -> PassResult:
    n_max = SIZES[workload]["tiny" if tiny else "full"]
    if workload == "census-12":
        return run_census(n_max, seed)
    if workload == "pairs-18":
        return run_pairs(n_max, seed)
    return run_search(n_max, seed, tiny)
