"""CLI surface: documents, exit codes, DOT output, constraint plumbing."""

from __future__ import annotations

import json
import shlex
import shutil
from pathlib import Path

import pytest
from test_oracle import fail_row

import cyclepack.cli as cli
import cyclepack.fixtures as fixtures
import cyclepack.oracle as oracle
from cyclepack.report import load_document, parse_dot


def run(capsys, *argv) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_both_modes_agree(capsys):
    code, out, _ = run(capsys, "classify", "C3+C4")
    assert code == 0
    doc = load_document(out)
    assert doc["command"] == "classify"
    assert doc["theorem"] == "uniquely-embeddable"
    assert doc["oracle"]["verdict"] == "uniquely-embeddable"
    assert doc["agree"] is True
    assert doc["oracle"]["raw_leaves"] == doc["oracle"]["reduced_leaves"] * 48


def test_classify_theorem_only_is_instant(capsys):
    code, out, _ = run(capsys, "classify", "C14", "--mode", "theorem")
    assert code == 0
    doc = json.loads(out)
    assert doc["theorem"] == "multiply-embeddable"
    assert "oracle" not in doc


def test_classify_output_is_byte_stable(capsys):
    _, first, _ = run(capsys, "classify", "C7")
    _, second, _ = run(capsys, "classify", "C7")
    assert first == second


def test_classify_timings_are_opt_in(capsys):
    _, plain, _ = run(capsys, "classify", "C5")
    assert "timings" not in json.loads(plain)
    _, timed, _ = run(capsys, "classify", "C5", "--timings")
    assert "timings" in json.loads(timed)


def test_usage_errors_exit_1(tmp_path, capsys, monkeypatch):
    assert run(capsys, "classify", "C2")[0] == 1
    assert run(capsys, "pack", "C3")[0] == 1
    assert run(capsys, "census", "2")[0] == 1
    assert run(capsys, "census", "5", "--jobs", "0")[0] == 1
    assert run(capsys, "pack", "C9", "--strategy", "teleport")[0] == 1
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys)[0] == 1
    # a mistyped fixture name is rejected before any fixture is touched
    monkeypatch.setattr(cli.fixtures, "regen_fixture", lambda name: pytest.fail("regen ran"))
    for action in ("verify", "regen"):
        code, out, err = run(capsys, "fixtures", action, "c3c6-planar", "no-such")
        assert (code, out) == (1, "") and "no-such" in err
    # an unwritable output path is named, and the census refuses it before the first row
    monkeypatch.setattr(cli.oracle, "census", lambda *a, **k: pytest.fail("census ran"))
    missing = str(tmp_path / "missing" / "x.json")
    code, _, err = run(capsys, "census", "8", "--out", missing)
    assert code == 1 and missing in err
    missing = str(tmp_path / "missing" / "x.dot")
    code, _, err = run(capsys, "export", "C5", "--dot", missing)
    assert code == 1 and missing in err
    code, _, err = run(capsys, "export", "C5", "--dot", str(tmp_path))
    assert code == 1 and str(tmp_path) in err
    # so is an empty file name, '' or a path ending in a slash
    for argv in (
        ("census", "5", "--out", ""),
        ("export", "C5", "--dot", ""),
        ("export", "C5", "--dot", f"{tmp_path}/nodir/"),
        ("export", "C5", "--dot", f"{tmp_path}/x.dot/"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and f"cannot write {argv[-1]!r}" in err, argv
    assert not any(tmp_path.iterdir())
    # an option the chosen strategy does not read is refused, not dropped
    dot = tmp_path / "c9.dot"
    for argv, option, strategy in (
        (("pack", "C3+C6", "--require-planar", "yes"), "--require-planar", "auto"),
        (("pack", "C9", "--strategy", "rotation", "--require-planar", "yes"), "--require-planar", "rotation"),
        (("pack", "C9", "--strategy", "k4", "--shift", "4"), "--shift", "k4"),
        (("pack", "C9", "--strategy", "divide", "--connected"), "--connected", "divide"),
        (("export", "C9", "--dot", str(dot), "--strategy", "search", "--variant", "A"), "--variant", "search"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and option in err and f"strategy {strategy}" in err, argv
    assert not dot.exists()
    # a triangle list with no variants refuses one, and one with variants names them
    for argv, words in (
        (("C3+C3+C3", "--variant", "A"), "takes no variant"),
        (("C3+C3+C3+C3+C3",), "one of A, B"),
    ):
        code, out, err = run(capsys, "pack", *argv, "--strategy", "triangles")
        assert (code, out) == (1, "") and words in err and "None" not in err, argv
    # a filtered search may reject every leaf, so it is held to the soft limit
    monkeypatch.delenv("CYCLEPACK_ALLOW_LARGE", raising=False)
    for argv in (("C40", "--require-planar", "yes"), ("C3+C3+C30", "--require-planar", "no")):
        code, out, err = run(capsys, "pack", *argv, "--strategy", "search")
        assert (code, out) == (1, "") and "soft limit 14" in err and "CYCLEPACK_ALLOW_LARGE=1" in err


def test_large_first_hit_packings(capsys, monkeypatch):
    # an unfiltered first-hit search needs no override below pack's size
    # bound, and the search depth is not bounded by the recursion limit
    monkeypatch.delenv("CYCLEPACK_ALLOW_LARGE", raising=False)
    for argv in (("C3+C1200",), ("C4+C1100",), ("C3+C3+C1200",), ("C1100", "--strategy", "k4")):
        code, out, err = run(capsys, "pack", *argv)
        assert (code, err) == (0, ""), argv
        assert load_document(out)["cycle_type"] == argv[0]


class Unreachable:
    def __getattr__(self, name):
        raise AssertionError(f"constructions.{name} was reached")


@pytest.mark.parametrize("ct", ["C10001", "C99999999999999999999", "C3+C9998"])
def test_pack_and_export_refuse_oversized_types_before_building_a_graph(tmp_path, capsys, monkeypatch, ct):
    # every strategy builds its packing in constructions, so a missing bound
    # fails here (exit 2) before a single row is allocated
    monkeypatch.setattr(cli, "constructions", Unreachable())
    for argv in (("pack", ct), ("export", ct, "--dot", str(tmp_path / "sum.dot"))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert f"at most {cli.PACK_VERTEX_LIMIT}" in err


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0


def test_pack_rotation_document(capsys):
    code, out, _ = run(capsys, "pack", "C9", "--strategy", "rotation")
    assert code == 0
    doc = load_document(out)
    rec = doc["embeddings"][0]
    assert rec["perm"] == [0, 2, 4, 6, 8, 1, 3, 5, 7]
    assert rec["trace"][0]["op"] == "rotate"


def test_pack_rotation_explicit_shift(capsys):
    code, out, _ = run(capsys, "pack", "C9", "--strategy", "rotation", "--shift", "4")
    assert code == 0
    assert load_document(out)["embeddings"][0]["perm"][1] == 4
    assert run(capsys, "pack", "C9", "--strategy", "rotation", "--shift", "3")[0] == 1
    assert run(capsys, "pack", "C3+C4", "--strategy", "rotation")[0] == 1


def test_pack_search_constraints(capsys):
    code, out, _ = run(
        capsys, "pack", "C3+C6", "--strategy", "search", "--require-planar", "no", "--connected"
    )
    assert code == 0
    step = load_document(out)["embeddings"][0]["trace"][0]
    assert step["op"] == "search"
    assert step["params"]["require_planar"] is False
    assert step["params"]["require_connected"] is True
    code, out, _ = run(capsys, "pack", "C4+C5", "--strategy", "search", "--require-k4", "yes")
    assert code == 0
    assert load_document(out)["embeddings"][0]["trace"][0]["params"]["require_k4"] is True


def test_pack_unsatisfiable_constraints_exit_1(capsys):
    code, _, err = run(
        capsys, "pack", "C5", "--strategy", "search", "--require-planar", "yes"
    )
    assert code == 1
    assert "no packing" in err


def test_pack_strategy_validation(capsys):
    assert run(capsys, "pack", "C9", "--strategy", "bxy")[0] == 1
    assert run(capsys, "pack", "C7", "--strategy", "k4")[0] == 1
    assert run(capsys, "pack", "C3+C3+C3", "--strategy", "triangles")[0] == 0
    assert run(capsys, "pack", "C4+C4", "--strategy", "bxy", "--variant", "nonbipartite")[0] == 0
    code, out, _ = run(capsys, "pack", "C5+C5+C6", "--strategy", "divide")
    assert code == 0
    assert load_document(out)["embeddings"][0]["trace"][0]["op"] == "divide"


def test_census_stdout_and_exit(capsys):
    code, out, _ = run(capsys, "census", "7")
    assert code == 0
    doc = load_document(out)
    assert len(doc["rows"]) == 7
    assert doc["disagreements"] == []
    assert doc["rows"][0]["cycle_type"] == "C3"


def test_census_out_file(tmp_path, capsys):
    target = tmp_path / "census.json"
    code, out, _ = run(capsys, "census", "6", "--out", str(target))
    assert code == 0
    # stdout is a census document that names the file and carries no rows
    doc = load_document(out)
    assert doc["command"] == "census" and "rows" not in doc
    assert (doc["n_max"], doc["out"], doc["disagreements"]) == (6, str(target), [])
    assert len(json.loads(target.read_text())["rows"]) == 5


def test_census_disagreement_exits_3(capsys, monkeypatch):
    real = oracle.census

    def fake(n_max, jobs=1):
        rep = real(n_max, jobs=jobs)
        rows = list(rep.rows)
        rows[0] = oracle.CensusRow(
            cycle_type=rows[0].cycle_type,
            theorem=oracle.Verdict.NOT_EMBEDDABLE,
            oracle=oracle.Verdict.UNIQUE,
            class_count=1,
            exhausted=True,
            reduced_leaves=1,
            raw_leaves=6,
            certificate=None,
            seconds=0.0,
        )
        return oracle.CensusReport(n_max=rep.n_max, rows=tuple(rows))

    monkeypatch.setattr(cli.oracle, "census", fake)
    code, out, _ = run(capsys, "census", "3")
    assert code == 3
    assert json.loads(out)["disagreements"] == ["C3"]


def test_census_row_failure_exits_2_naming_the_type(capsys, monkeypatch):
    # a ValueError deep inside a row is an internal error, not a usage error
    fail_row(monkeypatch, "C5")
    code, out, err = run(capsys, "census", "5")
    assert code == 2
    assert out == ""
    assert "census row C5 failed" in err


@pytest.mark.parametrize("override", [None, "1"])
def test_oracle_refuses_past_24_before_any_work(capsys, monkeypatch, override):
    # 24 is the canonical-form limit, and the override does not lift it
    if override is None:
        monkeypatch.delenv("CYCLEPACK_ALLOW_LARGE", raising=False)
    else:
        monkeypatch.setenv("CYCLEPACK_ALLOW_LARGE", override)
    monkeypatch.setattr(oracle, "_census_row", lambda ct: pytest.fail("a census row ran"))
    monkeypatch.setattr(oracle, "enumerate_embeddings", lambda *a, **k: pytest.fail("a search ran"))
    for argv in (("census", "25"), ("classify", "C25", "--mode", "oracle")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and "24" in err and "CYCLEPACK_ALLOW_LARGE" not in err, argv


def test_export_writes_dot(tmp_path, capsys):
    target = tmp_path / "c5.dot"
    code, out, _ = run(capsys, "export", "C5", "--dot", str(target))
    assert code == 0
    doc = json.loads(out)
    assert doc["black_edges"] == 5 and doc["red_edges"] == 5
    n, black, red = parse_dot(target.read_text())
    assert n == 5 and len(black) == 5 and len(red) == 5


def test_export_respects_strategy(tmp_path, capsys):
    target = tmp_path / "c12.dot"
    code, _, _ = run(capsys, "export", "C12", "--dot", str(target), "--strategy", "k4")
    assert code == 0
    n, black, red = parse_dot(target.read_text())
    assert n == 12 and len(black) == 12 and len(red) == 12
    code, _, _ = run(capsys, "export", "C3+C6", "--dot", str(target), "--strategy", "search")
    assert code == 0
    assert parse_dot(target.read_text())[0] == 9


def test_fixtures_verify_all(capsys):
    code, out, _ = run(capsys, "fixtures", "verify")
    assert code == 0
    doc = json.loads(out)
    assert all(r["ok"] for r in doc["results"])
    assert len(doc["results"]) == len(fixtures.fixture_names())


def test_fixtures_verify_subset(capsys):
    code, out, _ = run(capsys, "fixtures", "verify", "c3c6-planar")
    assert code == 0
    assert len(json.loads(out)["results"]) == 1


def test_fixtures_corruption_exits_2(tmp_path, capsys, monkeypatch):
    name = "c3c6-planar"
    record = json.loads(fixtures.fixture_path(name).read_text())
    record["perm"] = list(range(len(record["perm"])))
    (tmp_path / f"{name}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    monkeypatch.setattr(fixtures, "_DIR", tmp_path)
    monkeypatch.setattr(fixtures, "_CACHE", {})
    code, out, _ = run(capsys, "fixtures", "verify", name)
    assert code == 2
    assert json.loads(out)["results"][0]["ok"] is False


def test_fixtures_regen_to_tmp(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(fixtures, "_DIR", tmp_path)
    monkeypatch.setattr(fixtures, "_CACHE", {})
    code, _, _ = run(capsys, "fixtures", "regen", "c3c6-planar", "c3c6-nonplanar")
    assert code == 0
    assert (tmp_path / "c3c6-planar.json").exists()
    code, _, _ = run(capsys, "fixtures", "verify", "c3c6-planar")
    assert code == 0


def test_internal_error_exits_2(capsys, monkeypatch):
    def boom(*a, **k):
        raise RuntimeError("stub")

    monkeypatch.setattr(cli.oracle, "classify_by_oracle", boom)
    code, _, err = run(capsys, "classify", "C5", "--mode", "oracle")
    assert code == 2
    assert "internal error" in err


def readme_cli_lines() -> list[str]:
    """The cyclepack invocations in the README's CLI section's shell block."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("cyclepack ")]


def test_readme_cli_block_runs(tmp_path, capsys, monkeypatch):
    # files the lines write land in tmp_path, and regen rewrites a copy
    monkeypatch.chdir(tmp_path)
    shutil.copytree(fixtures._DIR, tmp_path / "fixtures")
    monkeypatch.setattr(fixtures, "_DIR", tmp_path / "fixtures")
    monkeypatch.setattr(fixtures, "_CACHE", {})
    lines = readme_cli_lines()
    assert len(lines) == 10
    for line in lines:
        code, _, err = run(capsys, *shlex.split(line)[1:])
        assert code == 0, (line, err)
