"""Parallel evaluation runner: the precision and scalability bench record.

The paper's evaluation is embarrassingly parallel: every benchmark program
is generated, compiled and analysed independently, and only the final
tables aggregate across programs.  Each experiment therefore has one
per-program function, which its ``run_*`` entry point maps over the corpus
through :func:`~repro.evaluation.harness.map_shards` — in-process at
``jobs=1``, one program at a time per worker process otherwise (workers
regenerate their programs; IR never crosses process boundaries).

Determinism contract: results come back in corpus order and every counter
is computed per program, so query counts, no-alias counts, solver-step
totals and engine cache counters cannot depend on ``jobs`` or on
scheduling.  :func:`strip_volatile` removes exactly the wall-time-derived
fields; the CI determinism gate diffs what remains byte for byte.

Command line::

    python -m repro.evaluation.parallel --quick --jobs 4 \
        --out BENCH_eval.json --manifest CORPUS_MANIFEST.json
    python -m repro.evaluation.parallel --compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from ..benchgen import SUITE_PROGRAMS, corpus_manifest, suite_configs
from ..engine.manager import ManagerStatistics
from .harness import ProgramResult, map_shards, partition
from .precision import PrecisionReport, run_precision_experiment
from .reporting import to_canonical_json
from .scalability import (
    ScalabilityReport,
    run_scalability_experiment,
    scalability_configs,
)

__all__ = [
    "partition",
    "map_shards",
    "bench_record",
    "strip_volatile",
    "diff_records",
    "compare_bench_files",
    "write_json",
    "main",
]

#: Quick-mode corpus for the CI smoke + determinism-gate jobs: small suite
#: programs plus a 12-point sweep — big enough that sharding pays off, small
#: enough to finish in seconds.
QUICK_PRECISION_PROGRAMS = ("allroots", "fixoutput", "anagram", "ft",
                            "compiler", "ks", "gnugo", "loader")
QUICK_MAX_PAIRS = 500
QUICK_SCALABILITY_POINTS = 12

#: Valid ``--programs`` names (an unknown name is a usage error).
SUITE_NAMES = tuple(program.name for program in SUITE_PROGRAMS)


# -- benchmark records --------------------------------------------------------

#: Keys whose values derive from wall time (stripped before determinism diffs).
_VOLATILE_KEY_SUFFIXES = ("_seconds", "_per_second", "_ns")
_VOLATILE_KEYS = frozenset({"run", "correlations"})


def _program_result_record(result: ProgramResult) -> Dict[str, Any]:
    return {
        "program": result.program,
        "queries": result.queries,
        "no_alias": dict(result.no_alias),
        "query_seconds": dict(result.query_seconds),
        "build_seconds": dict(result.build_seconds),
        "extra": {name: dict(extra) for name, extra in result.extra.items()},
        "engine": dict(result.engine),
        "solver": {name: dict(entry) for name, entry in result.solver.items()},
        # Token/IR digests: non-volatile by design, so the determinism gate
        # and the perf-smoke compare fail on any frontend output change.
        "frontend": dict(result.frontend),
    }


def bench_record(precision: Optional[PrecisionReport] = None,
                 scalability: Optional[ScalabilityReport] = None,
                 run_info: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """One JSON-ready record of an evaluation run.

    Wall-time-derived values live only under keys :func:`strip_volatile`
    removes (``*_seconds``, ``*_per_second``, ``correlations``, ``run``);
    everything else — query counts, no-alias counts, solver steps, engine
    cache counters — is deterministic and gated on in CI.
    """
    record: Dict[str, Any] = {"schema": 1}
    if precision is not None:
        totals = precision.totals()
        engine_totals = ManagerStatistics()
        for result in precision.results:
            if result.engine:
                engine_totals.merge(ManagerStatistics(**result.engine))
        record["precision"] = {
            "programs": [_program_result_record(result) for result in precision.results],
            "totals": {
                "queries": totals.queries,
                "no_alias": dict(totals.no_alias),
                "extra": {name: dict(extra) for name, extra in totals.extra.items()},
                "engine": engine_totals.as_dict(),
                "solver": totals.solver,
            },
        }
    if scalability is not None:
        record["scalability"] = {
            "points": [{
                "name": point.name,
                "instructions": point.instructions,
                "pointers": point.pointers,
                "solver_steps": point.solver_steps,
                "analysis_seconds": point.analysis_seconds,
            } for point in scalability.points],
            "totals": {
                "instructions": scalability.total_instructions(),
                "pointers": scalability.total_pointers(),
                "solver_steps": scalability.total_solver_steps(),
                "analysis_seconds": scalability.total_seconds(),
            },
            "steps_per_instruction": scalability.steps_per_instruction(),
            "steps_correlation": scalability.correlation_steps_vs_instructions(),
            "correlations": {
                "time_vs_instructions": scalability.correlation_time_vs_instructions(),
                "time_vs_pointers": scalability.correlation_time_vs_pointers(),
            },
            "instructions_per_second": scalability.instructions_per_second(),
        }
    if run_info is not None:
        record["run"] = dict(run_info)
    return record


def strip_volatile(payload: Any) -> Any:
    """Recursively drop every wall-time-derived field of a bench record."""
    if isinstance(payload, dict):
        return {key: strip_volatile(value) for key, value in payload.items()
                if key not in _VOLATILE_KEYS
                and not key.endswith(_VOLATILE_KEY_SUFFIXES)}
    if isinstance(payload, list):
        return [strip_volatile(value) for value in payload]
    return payload


def diff_records(a: Any, b: Any, path: str = "$") -> List[str]:
    """Human-readable paths where two (stripped) records disagree."""
    if isinstance(a, dict) and isinstance(b, dict):
        diffs: List[str] = []
        for key in sorted(set(a) | set(b)):
            if key not in a:
                diffs.append(f"{path}.{key}: only in second")
            elif key not in b:
                diffs.append(f"{path}.{key}: only in first")
            else:
                diffs.extend(diff_records(a[key], b[key], f"{path}.{key}"))
        return diffs
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{path}: list length {len(a)} != {len(b)}"]
        diffs = []
        for index, (left, right) in enumerate(zip(a, b)):
            diffs.extend(diff_records(left, right, f"{path}[{index}]"))
        return diffs
    if a != b:
        return [f"{path}: {a!r} != {b!r}"]
    return []


def compare_bench_files(path_a: str, path_b: str) -> List[str]:
    """Differences between two bench JSON files, ignoring wall-time fields."""
    with open(path_a, "r", encoding="utf-8") as handle:
        record_a = json.load(handle)
    with open(path_b, "r", encoding="utf-8") as handle:
        record_b = json.load(handle)
    return diff_records(strip_volatile(record_a), strip_volatile(record_b))


def write_json(path: str, payload: Any) -> None:
    """Write ``payload`` as canonical JSON (byte-stable across runs)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_canonical_json(payload))


# -- command line -------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.evaluation.parallel",
        description="Parallel evaluation runner (precision + scalability).")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1)")
    parser.add_argument("--quick", action="store_true",
                        help=f"CI smoke corpus: {len(QUICK_PRECISION_PROGRAMS)} "
                             f"small precision programs, "
                             f"{QUICK_SCALABILITY_POINTS} scalability points")
    parser.add_argument("--programs", nargs="+", default=None, metavar="NAME",
                        choices=SUITE_NAMES,
                        help="restrict the precision suite to these programs")
    parser.add_argument("--max-programs", type=int, default=None)
    parser.add_argument("--max-pairs", type=int, default=None,
                        help="cap on enumerated pointer pairs per function")
    parser.add_argument("--points", type=int, default=None,
                        help="number of Figure-15 scalability points (default 50)")
    parser.add_argument("--seed", type=int, default=7,
                        help="base seed of the scalability sweep")
    parser.add_argument("--skip-precision", action="store_true")
    parser.add_argument("--skip-scalability", action="store_true")
    parser.add_argument("--out", default="BENCH_eval.json",
                        help="bench record output path")
    parser.add_argument("--manifest", default=None, metavar="PATH",
                        help="also emit the corpus manifest to PATH")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), default=None,
                        help="diff two bench records ignoring wall-time fields; "
                             "exit 1 on any difference")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.compare is not None:
        diffs = compare_bench_files(*args.compare)
        if diffs:
            print(f"{len(diffs)} non-wall-time difference(s):")
            for line in diffs:
                print(f"  {line}")
            return 1
        print("identical modulo wall-time fields")
        return 0

    jobs = args.jobs
    programs = args.programs
    max_pairs = args.max_pairs
    points = args.points if args.points is not None else 50
    if args.quick:
        programs = list(QUICK_PRECISION_PROGRAMS) if programs is None else programs
        max_pairs = QUICK_MAX_PAIRS if max_pairs is None else max_pairs
        points = args.points if args.points is not None else QUICK_SCALABILITY_POINTS

    started = time.perf_counter()
    precision = None if args.skip_precision else run_precision_experiment(
        programs, args.max_programs, max_pairs, jobs=jobs)
    scalability = None if args.skip_scalability else run_scalability_experiment(
        program_count=points, seed=args.seed, jobs=jobs)
    elapsed = time.perf_counter() - started

    record = bench_record(precision, scalability, run_info={
        "jobs": jobs,
        "quick": bool(args.quick),
        "python": sys.version.split()[0],
        "total_wall_seconds": elapsed,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    })
    write_json(args.out, record)
    print(f"wrote {args.out} (jobs={jobs}, {elapsed:.2f}s wall)")

    if args.manifest:
        # The manifest documents exactly what this run evaluated — skipped
        # experiments contribute no entries.
        configs = [] if args.skip_precision else suite_configs(programs, args.max_programs)
        if not args.skip_scalability:
            configs += scalability_configs(program_count=points, seed=args.seed)
        write_json(args.manifest, corpus_manifest(configs))
        print(f"wrote {args.manifest} ({len(configs)} programs)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
