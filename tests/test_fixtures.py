"""Committed packing fixtures: integrity, byte-stability, tamper detection."""

from __future__ import annotations

import json

import pytest

import cyclepack.fixtures as fixtures
from cyclepack.cli import main
from cyclepack.embedding import CycleType, make_sum, realize, recognize_two_factor
from cyclepack.fixtures import (
    FixtureError,
    fixture_names,
    fixture_path,
    load_fixture,
    search_fixture,
    serialize_fixture,
    verify_fixture,
)
from cyclepack.oracle import invariant_value


def test_every_fixture_verifies():
    for name in fixture_names():
        e = verify_fixture(name)
        ct = CycleType(fixtures._spec(name).cycle_type)
        assert e.graph == realize(ct)
        assert recognize_two_factor(e.red_graph()) == ct


def test_fixtures_declare_true_invariants():
    for name in fixture_names():
        e = load_fixture(name)
        s = make_sum(e).sum
        for key, want in fixtures._spec(name).invariants.items():
            assert invariant_value(s, key) == want, (name, key)


def test_committed_bytes_match_fresh_search():
    # regeneration is deterministic: a from-scratch search reserializes
    # to exactly the committed file, which ties every file to its spec's
    # first search hit
    for name in fixture_names():
        fresh = serialize_fixture(name, search_fixture(name))
        assert fresh == fixture_path(name).read_text()


def test_unknown_fixture_name():
    with pytest.raises(FixtureError):
        load_fixture("c9-imaginary")


def tampered_env(tmp_path, monkeypatch, name: str, mutate):
    record = json.loads(fixture_path(name).read_text())
    mutate(record)
    out = tmp_path / f"{name}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    monkeypatch.setattr(fixtures, "_DIR", tmp_path)
    monkeypatch.setattr(fixtures, "_CACHE", {})


def test_tampered_perm_is_rejected(tmp_path, monkeypatch):
    def identity(record):
        record["perm"] = list(range(len(record["perm"])))

    tampered_env(tmp_path, monkeypatch, "c3c6-planar", identity)
    with pytest.raises(FixtureError, match="not a valid packing"):
        load_fixture("c3c6-planar")


def test_reordered_cycle_images_keep_the_red_edge_set(tmp_path, monkeypatch):
    # swapping two images inside one image triangle leaves the packing
    # intact, so integrity checking keys on the edge set, not the perm
    def swap(record):
        record["perm"][0], record["perm"][1] = record["perm"][1], record["perm"][0]

    before = load_fixture("c3c6-planar").red_graph()
    tampered_env(tmp_path, monkeypatch, "c3c6-planar", swap)
    after = load_fixture("c3c6-planar").red_graph()
    assert after == before


def test_tampered_invariant_is_rejected(tmp_path, monkeypatch):
    def flip(record):
        record["invariants"]["planar"] = not record["invariants"]["planar"]

    tampered_env(tmp_path, monkeypatch, "c3c6-planar", flip)
    with pytest.raises(FixtureError):
        load_fixture("c3c6-planar")


def test_tampered_schema_is_rejected(tmp_path, monkeypatch):
    def bump(record):
        record["schema_version"] = 999

    tampered_env(tmp_path, monkeypatch, "c3c7-planar", bump)
    with pytest.raises(FixtureError):
        load_fixture("c3c7-planar")


def test_a_canonical_file_violating_its_declaration_is_rejected(tmp_path, monkeypatch, capsys):
    # the non-planar packing, serialized canonically as the planar fixture:
    # only the declared-invariant check can refuse it
    name = "c3c6-planar"
    (tmp_path / f"{name}.json").write_text(serialize_fixture(name, load_fixture("c3c6-nonplanar")))
    monkeypatch.setattr(fixtures, "_DIR", tmp_path)
    monkeypatch.setattr(fixtures, "_CACHE", {})
    with pytest.raises(FixtureError, match="violates declared invariants"):
        load_fixture(name)
    assert main(["fixtures", "verify", name]) == 2
    assert '"ok": false' in capsys.readouterr().out


def test_missing_file_is_reported(tmp_path, monkeypatch):
    monkeypatch.setattr(fixtures, "_DIR", tmp_path)
    monkeypatch.setattr(fixtures, "_CACHE", {})
    with pytest.raises(FixtureError, match="missing"):
        load_fixture("c3c6-planar")


def test_non_json_file_is_reported(tmp_path, monkeypatch):
    (tmp_path / "c3c6-planar.json").write_text("{ not json")
    monkeypatch.setattr(fixtures, "_DIR", tmp_path)
    monkeypatch.setattr(fixtures, "_CACHE", {})
    with pytest.raises(FixtureError, match="JSON"):
        load_fixture("c3c6-planar")


def test_stale_bytes_fail_verify(tmp_path, monkeypatch):
    # valid packing, but serialized with different whitespace: every load
    # checks the canonical bytes, not only verify
    name = "c3c6-planar"
    record = json.loads(fixture_path(name).read_text())
    (tmp_path / f"{name}.json").write_text(json.dumps(record, sort_keys=True))
    monkeypatch.setattr(fixtures, "_DIR", tmp_path)
    monkeypatch.setattr(fixtures, "_CACHE", {})
    for load in (verify_fixture, load_fixture):
        with pytest.raises(FixtureError, match="byte"):
            load(name)


def test_fixture_trace_is_replayable():
    from cyclepack.constructions import replay_trace

    name = "c4c5-nonplanar"
    e = load_fixture(name)
    ct = CycleType(fixtures._spec(name).cycle_type)
    rebuilt = replay_trace(ct, e.trace)
    assert rebuilt.perm == e.perm
