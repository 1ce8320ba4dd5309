"""Harness self-check: every workload path, check and span at tiny sizes.

    python3 perfbench/selfcheck.py

Checks that `BENCHMARK.json` declares what the harness reports, runs
each workload through `run.py --tiny`, untraced and traced, and
requires a correct result carrying every metric with its unit.  Then it
feeds corrupted outputs to the checks, which must reject each one, and
runs the benchmark in a directory holding only `BENCHMARK.json` and the
benchmark's files, where it must fail without printing a result.  Takes
well under a minute; it is not part of the test suite.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END, WORKLOADS  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

from cyclepack import fixtures  # noqa: E402
from cyclepack.oracle import Verdict  # noqa: E402


def run_tiny(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_declaration() -> None:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS), doc["workloads"]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END, doc["end_to_end"]
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == LAYER_METRICS, doc["per_layer"]
    print("ok  BENCHMARK.json names the workloads and metrics the harness reports")


def check_runs() -> None:
    for workload in WORKLOADS:
        for trace, names in ((0, END_TO_END), (1, LAYER_METRICS)):
            proc = run_tiny(workload, trace)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, result
            assert list(result["metrics"]) == list(names), sorted(result["metrics"])
            for name, m in result["metrics"].items():
                unit = names[name] if trace == 0 else names[name][0]
                assert m["unit"] == unit and isinstance(m["value"], (int, float)), (name, m)
            print(f"ok  {workload} trace={trace}: {result['attempted']} items")


def must_fail(label: str, bad: list[str]) -> None:
    assert bad, f"check accepted {label}"
    print(f"ok  rejects {label}: {bad[0]}")


def check_rejections() -> None:
    census = workloads.run("census-12", 0, tiny=True)
    row, (w1, w2) = census.outputs["C7"]
    must_fail("a verdict off the paper's table", checks.check_census_row(
        "C7", (dataclasses.replace(row, oracle=Verdict.UNIQUE, agree=False), (w1, w2))))
    must_fail("isomorphic census witnesses", checks.check_census_row("C7", (row, (w1, w1))))

    pairs = workloads.run("pairs-18", 0, tiny=True)
    pair = pairs.outputs["C3+C6"]
    must_fail("a pair of one packing twice", checks.check_pair("C3+C6", dataclasses.replace(pair, second=pair.first)))
    must_fail("a misstated certificate", checks.check_pair(
        "C3+C6", dataclasses.replace(pair, certificate="sum is planar: False vs True")))
    must_fail("a packing of another type", checks.check_pair("C4+C5", pair))

    other = fixtures.load_fixture("c3c6-nonplanar")
    must_fail("a fixture that differs from its file", checks.check_search("fixture:c3c6-planar", other))
    must_fail("a hit where the baseline has none", checks.check_search("C5|planar=yes", other))
    must_fail("a miss where the baseline has a hit", checks.check_search("C3+C6|planar=no", None))
    must_fail("a hit that breaks its constraint", checks.check_search("C3+C6|planar=no", fixtures.load_fixture("c3c6-planar")))

    failed = checks.failures("pairs-18", workloads.PassResult(["C3+C6", "C4+C5"], errors={"C4+C5": "boom"}))
    assert set(failed) == {"C3+C6", "C4+C5"}, failed
    print("ok  counts raised and missing items as failed")


def check_bare_directory() -> None:
    bare = ROOT / ".bench_selfcheck"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_tiny(WORKLOADS[0], 0, cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
        print(f"ok  exits {proc.returncode} without a result when src/ is absent")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    check_declaration()
    check_runs()
    check_rejections()
    check_bare_directory()
    print("self-check passed")
