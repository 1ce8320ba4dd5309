"""One timed pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py SPAWNED_AT WORKLOAD SEED TINY TRACE
    python3 perfbench/worker.py SPAWNED_AT --probe

SPAWNED_AT is the parent's `time.monotonic()` just before it started this
process; the clock is system-wide, so `setup_s` spans interpreter start-up
and `import cyclepack`.  Nothing but `sys` and `time` is imported before
the package, and networkx is first imported by the package or, after the
timed pass, by the checks.  Prints one JSON line.
"""

import sys
import time

import cyclepack

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402


def main(argv: list[str]) -> dict:
    out = {"setup_s": READY - float(argv[0]), "cyclepack": cyclepack.__file__}
    if argv[1] == "--probe":
        return out
    workload, seed, tiny, trace = argv[1], int(argv[2]), argv[3] == "1", argv[4] == "1"

    import workloads

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    start = time.perf_counter()
    result = workloads.run(workload, seed, tiny)
    out["wall_s"] = time.perf_counter() - start
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    slowest = max(result.seconds, key=result.seconds.get, default=None)
    out["slowest_item"] = slowest
    out["slowest_item_s"] = result.seconds.get(slowest, 0.0)
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer.spans)

    import checks

    start = time.perf_counter()
    out["attempted"] = len(result.names)
    out["failures"] = checks.failures(workload, result)
    out["check_s"] = time.perf_counter() - start
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
