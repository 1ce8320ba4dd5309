"""cyclepack benchmark: one workload, measured in fresh interpreters.

    python3 perfbench/run.py --workload census-12 --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`.  Each pass is a new interpreter that imports the
package, runs every item of the workload serially, then checks every
output outside the timed region (see `worker.py`, `checks.py`).  A fresh
process per pass matters: the module-level fixture and ladder caches
would turn repeats inside one process into cache hits, which a command
line user never gets.  Passes run one at a time, with no worker pool.

Passes repeat until `--seconds` of timed work is done (at least one).
With `--trace 0` the last line reports the end-to-end metrics as medians
over the passes; with `--trace 1` it alternates untraced and traced
passes and reports the per-layer metrics of the traced ones.  `--tiny`
shrinks every workload for the harness self-check (`selfcheck.py`).

Earlier lines print the machine, the metrics with units, `fail_frac`
and any failed items.  The last line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  The exit code is 0 when every
output passed its check, 1 when one failed, 2 when the benchmark could
not run (for example, no `src/cyclepack` in the checkout).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("census-12", "pairs-18", "search-constrained")
PROBES_PER_PASS = 4  # bare `import cyclepack` starts before each pass, for setup_s
PASS_TIMEOUT_S = 150
RUN_BUDGET_S = 150  # start no pass that could end after this

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "slowest_item_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark itself could not run."""


def _spawn(args: list[str]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), repr(spawned_at), *args],
            env=env,
            capture_output=True,
            text=True,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {args} exceeded {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"pass {args} exited {proc.returncode}:\n{proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(out["cyclepack"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported cyclepack from {out['cyclepack']}, not from {SRC}")
    return out


def _environment() -> str:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = git.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return (
        f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
        f"networkx={importlib.metadata.version('networkx')} commit={commit} "
        f"src_sha256={digest.hexdigest()[:16]}"
    )


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> tuple[dict, list[dict], list[float]]:
    """Passes until `seconds` of timed work, each after a few set-up
    probes; returns (metrics, passes, set-up samples)."""
    setups: list[float] = []
    passes: list[dict] = []
    started = time.monotonic()
    kinds = ["0", "1"] if trace else ["0"]
    while True:
        for kind in kinds:
            setups += [_spawn(["--probe"])["setup_s"] for _ in range(PROBES_PER_PASS)]
            p = _spawn([workload, str(seed), "1" if tiny else "0", kind])
            p["traced"] = kind == "1"
            passes.append(p)
            setups.append(p["setup_s"])
        timed = sum(p["wall_s"] for p in passes)
        elapsed = time.monotonic() - started
        round_cost = elapsed / (len(passes) // len(kinds))
        if timed >= seconds or elapsed + round_cost > RUN_BUDGET_S:
            break

    plain = [p for p in passes if not p["traced"]]

    def med(key, ps=plain):
        return statistics.median(p[key] for p in ps)

    if trace:
        traced = [p for p in passes if p["traced"]]
        metrics = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in LAYER_METRICS
            if name != "trace.overhead_frac"
        }
        metrics["trace.overhead_frac"] = med("wall_s", traced) / med("wall_s") - 1
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": med("wall_s"),
            "slowest_item_s": med("slowest_item_s"),
            "peak_rss_mb": med("peak_rss_mb"),
        }
        units = END_TO_END
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}, passes, setups


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small sizes for the harness self-check")
    args = ap.parse_args()

    if not (SRC / "cyclepack" / "__init__.py").is_file():
        print(f"error: no cyclepack package under {SRC}", file=sys.stderr)
        return 2
    try:
        env = _environment()
        metrics, passes, setups = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} tiny={args.tiny} {env}")
    for i, p in enumerate(passes):
        kind = "traced" if p["traced"] else "plain"
        print(
            f"pass {i} {kind}: wall_s={p['wall_s']:.4f} slowest={p['slowest_item']} "
            f"({p['slowest_item_s']:.4f} s) peak_rss_mb={p['peak_rss_mb']:.1f} setup_s={p['setup_s']:.4f} "
            f"check_s={p['check_s']:.2f}"
        )
        for name, bad in p["failures"].items():
            print(f"  FAILED {name}: {'; '.join(bad)}")
    print(f"setup samples: {len(setups)}")
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_frac':42s} {failed / attempted:.6g} ({failed}/{attempted} items)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
