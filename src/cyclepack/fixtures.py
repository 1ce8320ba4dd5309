"""Frozen packing fixtures.

Each fixture is a small packing found once by constrained search and
committed as JSON next to this module.  A fixture pins a permutation
together with the invariant values that make it useful as one half of a
distinguishable pair (planar vs not, K4 vs K4-free, cut vertex vs
2-connected, neighbourhood-path vs not); the declared names are yes/no
entries of oracle.INVARIANTS.  Every load checks that the file holds
the canonical bytes of a valid packing, which pin every stored field
but the permutation to the spec, and that the packing's sum has every
declared invariant, so a corrupted, reformatted or stale file fails
loudly instead of silently weakening a proof.  verify_fixture is the
same load without the cache.  The fixtures are also the ladder bases:
constructions.ladder_extend reads a base's cycle type and declared
invariants from its FixtureSpec.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .embedding import CycleType, Embedding, TraceStep, make_sum, realize
from .graph import Permutation
from .oracle import enumerate_embeddings, satisfies
from .report import serialize

SCHEMA_VERSION = 1

_DIR = Path(__file__).parent / "fixtures"


class FixtureError(Exception):
    """A fixture file is missing, malformed, or contradicts its declaration."""


@dataclass(frozen=True)
class FixtureSpec:
    """Name, cycle type, and declared sum invariants of one fixture."""

    name: str
    cycle_type: tuple[int, ...]
    invariants: dict[str, bool]


FIXTURE_SPECS: tuple[FixtureSpec, ...] = (
    FixtureSpec("c3c6-planar", (3, 6), {"planar": True}),
    FixtureSpec("c3c6-nonplanar", (3, 6), {"planar": False}),
    FixtureSpec("c3c7-planar", (3, 7), {"planar": True}),
    FixtureSpec("c3c7-nonplanar", (3, 7), {"planar": False}),
    FixtureSpec("c4c5-planar", (4, 5), {"planar": True}),
    FixtureSpec("c4c5-nonplanar", (4, 5), {"planar": False}),
    FixtureSpec("c4c6-planar", (4, 6), {"planar": True}),
    FixtureSpec("c4c6-nonplanar", (4, 6), {"planar": False}),
    FixtureSpec("c4c7-k4free", (4, 7), {"k4": False}),
    FixtureSpec("c3c3c4-k4", (3, 3, 4), {"k4": True}),
    FixtureSpec("c3c3c4-k4free", (3, 3, 4), {"k4": False}),
    FixtureSpec("c3c3c5-p4", (3, 3, 5), {"p4-neighborhood": True}),
    FixtureSpec("c3c3c5-nop4", (3, 3, 5), {"p4-neighborhood": False}),
    FixtureSpec("c3c4c4-k4", (3, 4, 4), {"k4": True}),
    FixtureSpec("c3c4c4-k4free", (3, 4, 4), {"k4": False}),
    FixtureSpec("c3c3c3c4-cut", (3, 3, 3, 4), {"connected": True, "cut-vertex": True}),
    FixtureSpec("c3c3c3c4-2conn", (3, 3, 3, 4), {"connected": True, "cut-vertex": False}),
    FixtureSpec("c3c3c7-k4free", (3, 3, 7), {"k4": False}),
    FixtureSpec("c3c3c8-k4free", (3, 3, 8), {"k4": False}),
)

_BY_NAME = {spec.name: spec for spec in FIXTURE_SPECS}

_CACHE: dict[str, Embedding] = {}


def fixture_names() -> list[str]:
    return [spec.name for spec in FIXTURE_SPECS]


def fixture_path(name: str) -> Path:
    return _DIR / f"{name}.json"


def _spec(name: str) -> FixtureSpec:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise FixtureError(f"unknown fixture {name!r}") from None


def search_fixture(name: str) -> Embedding:
    """Recompute a fixture's packing from scratch by reduced search."""
    spec = _spec(name)
    g = realize(CycleType(spec.cycle_type))
    hit: list[Embedding] = []

    def visit(e: Embedding) -> bool:
        if satisfies(make_sum(e).sum, spec.invariants):
            hit.append(e)
            return False
        return True

    enumerate_embeddings(g, visit=visit, reduced=True)
    if not hit:
        raise FixtureError(f"no packing of {spec.cycle_type} satisfies {spec.invariants}")
    return hit[0].with_trace((TraceStep("fixture", {"name": name}),))


def serialize_fixture(name: str, e: Embedding) -> str:
    spec = _spec(name)
    record = {
        "schema_version": SCHEMA_VERSION,
        "kind": "packing-fixture",
        "name": spec.name,
        "cycle_type": list(spec.cycle_type),
        "perm": list(e.perm.image),
        "invariants": dict(sorted(spec.invariants.items())),
    }
    return serialize(record)


def regen_fixture(name: str) -> Path:
    """Search the fixture's packing again and rewrite its JSON file."""
    e = search_fixture(name)
    path = fixture_path(name)
    path.parent.mkdir(exist_ok=True)
    path.write_text(serialize_fixture(name, e))
    _CACHE.pop(name, None)
    return path


def load_fixture(name: str) -> Embedding:
    """Load a fixture, checking its file's canonical bytes and declared invariants."""
    if name in _CACHE:
        return _CACHE[name]
    spec = _spec(name)
    path = fixture_path(name)
    if not path.exists():
        raise FixtureError(f"fixture file {path.name} is missing; run the regen command")
    stored = path.read_text()
    try:
        record = json.loads(stored)
    except json.JSONDecodeError as exc:
        raise FixtureError(f"fixture file {path.name} is not valid JSON: {exc}") from exc
    try:
        perm = Permutation(tuple(record["perm"]))
        trace = (TraceStep("fixture", {"name": name}),)
        e = Embedding(realize(CycleType(spec.cycle_type)), perm, trace)
    except (KeyError, TypeError, ValueError) as exc:
        raise FixtureError(f"fixture {name}: stored permutation is not a valid packing: {exc}") from exc
    if stored != serialize_fixture(name, e):
        regen = f"cyclepack fixtures regen {name}"
        raise FixtureError(f"fixture {name}: file bytes differ from canonical serialization; run `{regen}`")
    if not satisfies(make_sum(e).sum, spec.invariants):
        raise FixtureError(f"fixture {name}: stored packing violates declared invariants {spec.invariants}")
    _CACHE[name] = e
    return e


def verify_fixture(name: str) -> Embedding:
    """load_fixture without the cache: reread and recheck the file."""
    _CACHE.pop(name, None)
    return load_fixture(name)
