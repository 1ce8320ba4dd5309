"""Result documents and DOT export: byte-stability and round trips."""

from __future__ import annotations

import json

import pytest

from cyclepack.constructions import pack_some
from cyclepack.embedding import CycleType, make_sum
from cyclepack.report import (
    SCHEMA_VERSION,
    document,
    embedding_record,
    export_dot,
    load_document,
    load_embedding_record,
    parse_dot,
    serialize,
)


def test_document_has_schema_and_command():
    doc = document("classify", cycle_type="C5", verdict="uniquely-embeddable")
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["command"] == "classify"
    assert doc["cycle_type"] == "C5"


def test_serialize_is_byte_stable():
    doc = document("pack", b=2, a=1)
    text = serialize(doc)
    assert text == serialize(document("pack", a=1, b=2))
    assert text.endswith("\n")
    assert json.loads(text)["a"] == 1


def test_embedding_record_roundtrip():
    e = pack_some(CycleType((3, 3, 4)))
    rec = embedding_record(e)
    assert rec["cycle_type"] == "C3+C3+C4"
    back = load_embedding_record(rec)
    assert back.perm == e.perm
    assert [s.op for s in back.trace] == [s.op for s in e.trace]


def test_load_embedding_record_revalidates():
    e = pack_some(CycleType((5,)))
    rec = embedding_record(e)
    rec["perm"] = list(range(5))  # identity clashes on every edge
    with pytest.raises(ValueError):
        load_embedding_record(rec)


def test_load_embedding_record_refuses_non_int_entries():
    # 2.0 and true compare equal to 2 and 1, so only the entry type tells them apart
    rec = embedding_record(pack_some(CycleType((5,))))
    assert rec["perm"] == [0, 2, 4, 1, 3]
    for perm in ([0.0, 2.0, 4.0, 1.0, 3.0], [False, 2, 4, True, 3]):
        rec["perm"] = perm
        with pytest.raises(ValueError, match="perm entries must be integers"):
            load_embedding_record(rec)
        with pytest.raises(ValueError, match="perm entries must be integers"):
            load_document(serialize(document("pack", embeddings=[rec])))


def test_load_document_checks_schema():
    e = pack_some(CycleType((5,)))
    doc = document("pack", embeddings=[embedding_record(e)])
    loaded = load_document(serialize(doc))
    assert loaded["command"] == "pack"
    bad = dict(doc)
    bad["schema_version"] = "999"
    with pytest.raises(ValueError):
        load_document(serialize(bad))
    for not_an_object in ("[]", '"x"', "3", "null"):
        with pytest.raises(ValueError, match="JSON object"):
            load_document(not_an_object)
    for key in ("perm", "cycle_type"):
        rec = embedding_record(e)
        del rec[key]
        with pytest.raises(ValueError, match="malformed embedding record"):
            load_embedding_record(rec)
        with pytest.raises(ValueError, match="malformed embedding record"):
            load_document(serialize(document("pack", embeddings=[rec])))
    with pytest.raises(ValueError, match="malformed embedding record"):
        load_document(serialize(document("pack", embeddings=["C5"])))
    with pytest.raises(ValueError, match="must be a list"):
        load_document(serialize(document("pack", embeddings=5)))


def test_export_dot_layout():
    ps = make_sum(pack_some(CycleType((5,))))
    text = export_dot(ps)
    lines = text.splitlines()
    assert lines[0] == "graph packing {"
    assert lines[-1] == "}"
    solid = [ln for ln in lines if "style=solid" in ln]
    dashed = [ln for ln in lines if "style=dashed" in ln]
    assert len(solid) == 5 and len(dashed) == 5
    # all black edges precede all red edges
    assert text.index("style=solid") < text.index("style=dashed")
    assert max(i for i, ln in enumerate(lines) if "style=solid" in ln) < min(
        i for i, ln in enumerate(lines) if "style=dashed" in ln
    )


def test_export_dot_is_deterministic():
    ps = make_sum(pack_some(CycleType((3, 4, 5))))
    assert export_dot(ps) == export_dot(ps)


def test_parse_dot_roundtrip():
    ps = make_sum(pack_some(CycleType((3, 3, 6))))
    n, black, red = parse_dot(export_dot(ps))
    assert n == 12
    assert black == sorted(ps.black.edges())
    assert red == sorted(ps.red.edges())
