"""Machine-readable result documents and DOT export.

One JSON document per CLI invocation, schema-versioned and byte-stable:
keys are emitted sorted and no volatile data (timings, paths, clocks)
enters the document unless explicitly requested.  Embeddings are stored
as permutation arrays plus their construction traces and are always
re-validated when a document is loaded back.
"""

from __future__ import annotations

import json
import re

from .embedding import (
    Embedding,
    PackingSum,
    TraceStep,
    parse_cycle_type,
    realize,
    recognize_two_factor,
)
from .graph import Permutation

SCHEMA_VERSION = "1"


def document(command: str, **payload) -> dict:
    """A result document skeleton; payload keys are command-specific."""
    doc = {"schema_version": SCHEMA_VERSION, "command": command}
    doc.update(payload)
    return doc


def embedding_record(e: Embedding) -> dict:
    """JSON-ready record of one validated embedding."""
    ct = recognize_two_factor(e.graph)
    return {
        "cycle_type": ct.render(),
        "perm": list(e.perm.image),
        "trace": [{"op": s.op, "params": s.params} for s in e.trace],
    }


def load_embedding_record(rec: dict) -> Embedding:
    """Rebuild and re-validate an embedding from its stored record; a
    malformed record raises ValueError."""
    try:
        ct = parse_cycle_type(rec["cycle_type"])
        perm = Permutation(tuple(rec["perm"]))
        trace = tuple(TraceStep(s["op"], s["params"]) for s in rec.get("trace", []))
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed embedding record: {exc!r}") from exc
    return Embedding(realize(ct), perm, trace)


def serialize(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_document(text: str) -> dict:
    """Parse a result document, re-validating every embedded permutation."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"a result document is a JSON object, got {type(doc).__name__}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {doc.get('schema_version')!r}")
    embeddings = doc.get("embeddings", [])
    if not isinstance(embeddings, list):
        raise ValueError("embeddings must be a list of embedding records")
    for rec in embeddings:
        load_embedding_record(rec)
    return doc


# -------------------------------------------------------------------- DOT


def export_dot(ps: PackingSum) -> str:
    """Graphviz text for a packing sum: solid black edges for the original
    copy, dashed red for the image copy, vertices labelled 0..n-1,
    deterministic edge order."""
    lines = ["graph packing {", "  node [shape=circle];"]
    for v in range(ps.black.n):
        lines.append(f"  {v};")
    for u, v in sorted(ps.black.edges()):
        lines.append(f"  {u} -- {v} [color=black, style=solid];")
    for u, v in sorted(ps.red.edges()):
        lines.append(f"  {u} -- {v} [color=red, style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


_DOT_EDGE = re.compile(r"^\s*(\d+)\s*--\s*(\d+)\s*\[color=(black|red), style=(solid|dashed)\];$")


def parse_dot(text: str) -> tuple[int, list[tuple[int, int]], list[tuple[int, int]]]:
    """Reparse exported DOT text into (n, black edges, red edges)."""
    n = 0
    black: list[tuple[int, int]] = []
    red: list[tuple[int, int]] = []
    for line in text.splitlines():
        stripped = line.strip()
        if re.fullmatch(r"(\d+);", stripped):
            n = max(n, int(stripped[:-1]) + 1)
            continue
        m = _DOT_EDGE.match(line)
        if not m:
            continue
        u, v, color, style = int(m[1]), int(m[2]), m[3], m[4]
        if (color, style) == ("black", "solid"):
            black.append((u, v))
        elif (color, style) == ("red", "dashed"):
            red.append((u, v))
        else:
            raise ValueError(f"edge styling mismatch in line {line!r}")
        n = max(n, u + 1, v + 1)
    return n, black, red
