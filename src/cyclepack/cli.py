"""Command-line interface.

Subcommands: classify (trichotomy verdicts, theorem and oracle), pack
(construct one validated packing by strategy), census (theorem vs
oracle over all types up to a total), export (DOT drawing of a packing
sum), fixtures (regen or verify the committed packings).

classify --mode both and census compare the closed-form verdict with
the oracle's.  The oracle's verdict and its distinct_sums_found count
its witness packings, which have pairwise non-isomorphic sums: 0, 1,
or 2 where the search stops.  agree and the census disagreements are
read from the two verdicts.

Exit codes: 0 success, 1 usage or parse error (including non-embeddable
inputs, unknown fixture names and output paths that cannot be written),
2 internal error or corrupted fixture, 3 census disagreement.
classify --mode oracle and census take up to 24 vertices (the
canonical-form limit) with no override; a search that can visit every
leaf refuses more than 14 unless CYCLEPACK_ALLOW_LARGE=1 is set,
triangle-max refuses sums beyond 18, and pack and export refuse more
than PACK_VERTEX_LIMIT (10 000) vertices before building any graph.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import constructions, fixtures, oracle, report
from .embedding import CycleType, make_sum, parse_cycle_type

# graph rows are bitsets, about n^2/16 bytes in all: 17 MB for C4000
PACK_VERTEX_LIMIT = 10_000
STRATEGIES = ("auto", "rotation", "k4", "triangles", "bxy", "divide", "search")
# the strategies that read each pack/export option; any other refuses it
_READERS = {
    "shift": ("rotation",),
    "variant": ("triangles", "bxy"),
    "require_k4": ("search",),
    "require_planar": ("search",),
    "connected": ("search",),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here reserves 2 for
    # internal failures and uses 1 for anything the user typed wrong
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self._usage_exit(message))

    def _usage_exit(self, message) -> int:
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="cyclepack", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="trichotomy verdict for a cycle type")
    c.add_argument("cycle_type", help='e.g. "C3+C4" or "3+4"')
    c.add_argument("--mode", choices=("theorem", "oracle", "both"), default="both")
    c.add_argument("--timings", action="store_true", help="include wall time (breaks byte-stability)")

    k = sub.add_parser("pack", help="construct one validated packing")
    k.add_argument("cycle_type")
    k.add_argument("--strategy", choices=STRATEGIES, default="auto")
    k.add_argument("--variant", help="triangles: A|B; bxy: bipartite|nonbipartite")
    k.add_argument("--shift", type=int, help="rotation: explicit shift r")
    k.add_argument("--require-k4", choices=("yes", "no"), help="search: sum must/must not contain K4")
    k.add_argument("--require-planar", choices=("yes", "no"), help="search: sum must/must not be planar")
    k.add_argument("--connected", action="store_true", default=None, help="search: sum must be connected")
    k.add_argument("--timings", action="store_true")

    s = sub.add_parser("census", help="theorem vs oracle over all types with total <= n_max")
    s.add_argument("n_max", type=int)
    s.add_argument("--out", help="write the report here instead of stdout")
    s.add_argument("--jobs", type=int, default=1)
    s.add_argument("--timings", action="store_true")

    e = sub.add_parser("export", help="write a packing sum as a DOT file")
    e.add_argument("cycle_type")
    e.add_argument("--dot", required=True, help="output path")
    e.add_argument("--strategy", choices=STRATEGIES, default="auto")
    e.add_argument("--variant")
    e.add_argument("--shift", type=int)
    # no filter flags here: --strategy search exports the first packing found
    e.set_defaults(require_k4=None, require_planar=None, connected=None)

    f = sub.add_parser("fixtures", help="regenerate or verify the committed packings")
    f.add_argument("action", choices=("regen", "verify"))
    f.add_argument("names", nargs="*", help="fixture names (default: all)")
    return p


def _check_writable(path: str) -> None:
    """Reject an output path that cannot be written, before any work is done:
    an empty file name ('' or a trailing slash), a directory, or a file in
    a missing directory."""
    named = os.path.basename(path) and not os.path.isdir(path)
    if not named or not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise ValueError(f"cannot write {path!r}: not a file name in an existing directory")


def _timed(doc: dict, t0: float, wanted: bool) -> dict:
    if wanted:
        doc["timings"] = {"seconds": round(time.perf_counter() - t0, 3)}
    return doc


def _cmd_classify(args) -> int:
    t0 = time.perf_counter()
    ct = parse_cycle_type(args.cycle_type)
    payload: dict = {"cycle_type": ct.render(), "mode": args.mode}
    if args.mode in ("theorem", "both"):
        payload["theorem"] = oracle.classify_by_theorem(ct).value
    if args.mode in ("oracle", "both"):
        cls = oracle.classify_by_oracle(ct)
        payload["oracle"] = {
            "verdict": cls.verdict.value,
            "distinct_sums_found": cls.class_count,
            "exhausted": cls.exhausted,
            "reduced_leaves": cls.reduced_leaves,
        }
        if cls.exhausted:
            payload["oracle"]["raw_leaves"] = cls.raw_leaves
    if args.mode == "both":
        payload["agree"] = payload["theorem"] == payload["oracle"]["verdict"]
    doc = report.document("classify", **_timed(payload, t0, args.timings))
    print(report.serialize(doc), end="")
    return 0


def _packing_for(ct: CycleType, args):
    if ct.total > PACK_VERTEX_LIMIT:
        raise ValueError(f"{ct.render()} has {ct.total} vertices; pack and export take at most {PACK_VERTEX_LIMIT}")
    strategy = args.strategy
    for option, readers in _READERS.items():
        if getattr(args, option) is not None and strategy not in readers:
            flag = "--" + option.replace("_", "-")
            raise ValueError(f"strategy {strategy} does not read {flag} (read by {', '.join(readers)})")
    if strategy == "auto":
        return constructions.pack_some(ct)
    if strategy == "rotation":
        if ct.cycle_count != 1:
            raise ValueError("strategy rotation needs a single cycle")
        return constructions.rotate_embedding(ct.lengths[0], args.shift)
    if strategy == "k4":
        return constructions.k4_embedding(ct)
    if strategy == "triangles":
        return constructions.triangle_list_packing(ct, args.variant)
    if strategy == "bxy":
        return constructions.bxy_packing(ct, args.variant or "bipartite")
    if strategy == "divide":
        return constructions.divide_and_pack(ct)
    require = {}
    if args.require_k4 is not None:
        require["require_k4"] = args.require_k4 == "yes"
    if args.require_planar is not None:
        require["require_planar"] = args.require_planar == "yes"
    if args.connected:
        require["require_connected"] = True
    return constructions.search_packing(ct, **require)


def _cmd_pack(args) -> int:
    t0 = time.perf_counter()
    ct = parse_cycle_type(args.cycle_type)
    e = _packing_for(ct, args)
    payload = {
        "cycle_type": ct.render(),
        "strategy": args.strategy,
        "embeddings": [report.embedding_record(e)],
    }
    doc = report.document("pack", **_timed(payload, t0, args.timings))
    print(report.serialize(doc), end="")
    return 0


def _cmd_census(args) -> int:
    t0 = time.perf_counter()
    if args.out is not None:
        _check_writable(args.out)
    rep = oracle.census(args.n_max, jobs=args.jobs)
    rows = []
    for row in rep.rows:
        rows.append(
            {
                "cycle_type": row.cycle_type.render(),
                "theorem": row.theorem.value,
                "oracle": row.oracle.value,
                "agree": row.agree,
                "distinct_sums_found": row.class_count,
                "exhausted": row.exhausted,
                "reduced_leaves": row.reduced_leaves,
                "raw_leaves": row.raw_leaves,
                "certificate": row.certificate,
            }
        )
    payload = {
        "n_max": args.n_max,
        "rows": rows,
        "disagreements": [r.cycle_type.render() for r in rep.rows if not r.agree],
    }
    doc = report.document("census", **_timed(payload, t0, args.timings))
    text = report.serialize(doc)
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(text)
        # the rows went to the file; stdout names it, as export names its dot path
        doc = report.document("census", n_max=args.n_max, out=args.out, disagreements=payload["disagreements"])
        text = report.serialize(doc)
    print(text, end="")
    return 3 if rep.disagreements else 0


def _cmd_export(args) -> int:
    _check_writable(args.dot)
    ct = parse_cycle_type(args.cycle_type)
    e = _packing_for(ct, args)
    ps = make_sum(e)
    text = report.export_dot(ps)
    with open(args.dot, "w") as fh:
        fh.write(text)
    doc = report.document(
        "export",
        cycle_type=ct.render(),
        strategy=args.strategy,
        dot=args.dot,
        black_edges=ps.black.edge_count,
        red_edges=ps.red.edge_count,
    )
    print(report.serialize(doc), end="")
    return 0


def _cmd_fixtures(args) -> int:
    known = fixtures.fixture_names()
    unknown = [name for name in args.names if name not in known]
    if unknown:
        raise ValueError(f"unknown fixture {unknown[0]!r} (have: {', '.join(known)})")
    names = args.names or known
    results = []
    failures = 0
    for name in names:
        if args.action == "regen":
            path = fixtures.regen_fixture(name)
            results.append({"name": name, "ok": True, "file": path.name})
        else:
            try:
                fixtures.verify_fixture(name)
                results.append({"name": name, "ok": True})
            except fixtures.FixtureError as exc:
                failures += 1
                results.append({"name": name, "ok": False, "error": str(exc)})
    doc = report.document("fixtures", action=args.action, results=results)
    print(report.serialize(doc), end="")
    return 2 if failures else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "classify": _cmd_classify,
        "pack": _cmd_pack,
        "census": _cmd_census,
        "export": _cmd_export,
        "fixtures": _cmd_fixtures,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"cyclepack: error: {exc}", file=sys.stderr)
        return 1
    except fixtures.FixtureError as exc:
        print(f"cyclepack: fixture error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - contract maps unknowns to exit 2
        print(f"cyclepack: internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
