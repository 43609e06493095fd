"""Profiling harness: where the evaluation actually spends its time.

The scalability experiment (Figure 15) reports solver steps and wall time,
but neither says *which layer* the time went to — and a perf-sensitive
reproduction needs a recorded trajectory, not a one-off profiler session.
This module runs the evaluation corpus under :mod:`cProfile` and writes
``BENCH_profile.json``:

* **cProfile hotspots** — the top-N functions by internal and by cumulative
  time, with repo-relative paths;
* **per-analysis wall/step breakdown** — build/query seconds per alias
  analysis (from the harness) and, per sparse-solver problem, the
  ``steps``/``transfer_ns`` attribution recorded by
  :class:`~repro.engine.solver.SolverStatistics`;
* **symbolic-layer cache telemetry** — intern-table size and the
  hit/miss/eviction counters of the order-layer memo caches;
* **compile-phase breakdown** — per-module lex/parse/sema/lower/prepare
  wall time plus token/instruction counts and token-stream/IR digests,
  collected by recompiling the corpus under
  :func:`repro.frontend.stages.collect_phases`.

Everything wall-time-derived lives under ``*_seconds``/``*_ns`` keys (or
the ``run`` section), matching the volatile-field convention of
:func:`repro.evaluation.parallel.strip_volatile`; the record is a CI
artifact, not a gate — except for the *presence* of the compile-phase
breakdown, which ``--check-phases`` asserts in the perf-smoke job.

Command line::

    python -m repro.evaluation.profile --out BENCH_profile.json
    python -m repro.evaluation.profile --check-phases BENCH_profile.json
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from ..benchgen import generate_source, select_programs
from ..frontend import collect_phases, compile_source
from ..symbolic import compare_memo_stats, intern_table_size
from .parallel import (
    QUICK_MAX_PAIRS,
    QUICK_PRECISION_PROGRAMS,
    QUICK_SCALABILITY_POINTS,
    SUITE_NAMES,
    write_json,
)
from .precision import run_precision_experiment
from .scalability import run_scalability_experiment

__all__ = ["run_profile", "profile_record", "compile_phase_breakdown",
           "check_phases", "main"]

#: Fields every per-module compile-phase entry must carry (``--check-phases``).
_PHASE_WALL_FIELDS = ("lex_seconds", "parse_seconds", "sema_seconds",
                      "lower_seconds", "prepare_seconds")
_PHASE_COUNT_FIELDS = ("tokens", "instructions")
_PHASE_DIGEST_FIELDS = ("token_digest", "ir_digest")


def compile_phase_breakdown(program_names: Sequence[str]) -> Dict[str, Any]:
    """Per-module compile-phase telemetry for the given corpus slice.

    Each program is regenerated and recompiled once under
    :func:`repro.frontend.stages.collect_phases`, yielding lex / parse /
    sema / lower / prepare wall seconds (volatile, reported only) plus
    token/instruction counts and token-stream/IR digests (deterministic).
    """
    per_module: Dict[str, Dict[str, Any]] = {}
    totals: Dict[str, Any] = {field: 0.0 for field in _PHASE_WALL_FIELDS}
    for field in _PHASE_COUNT_FIELDS:
        totals[field] = 0
    for program in select_programs(program_names):
        source = generate_source(program.config())
        with collect_phases() as phases:
            compile_source(source, program.name)
        entry = phases.as_dict()
        for field in _PHASE_WALL_FIELDS:
            entry[field] = round(entry[field], 6)
            totals[field] = round(totals[field] + entry[field], 6)
        for field in _PHASE_COUNT_FIELDS:
            totals[field] += entry[field]
        per_module[program.name] = entry
    totals["frontend_seconds"] = round(
        totals["lex_seconds"] + totals["parse_seconds"] + totals["lower_seconds"], 6)
    return {"per_module": per_module, "totals": totals}


def check_phases(record: Dict[str, Any]) -> List[str]:
    """Validate a profile record's compile-phase breakdown.

    Returns a list of human-readable problems (empty when the record is
    well-formed): the section must exist, cover at least one module, and
    every module entry must carry all wall/count/digest fields with
    non-empty digests.
    """
    problems: List[str] = []
    section = record.get("compile_phases")
    if not isinstance(section, dict):
        return ["missing compile_phases section"]
    per_module = section.get("per_module")
    if not isinstance(per_module, dict) or not per_module:
        problems.append("compile_phases.per_module is missing or empty")
        per_module = {}
    for name, entry in sorted(per_module.items()):
        for field in _PHASE_WALL_FIELDS + _PHASE_COUNT_FIELDS:
            if not isinstance(entry.get(field), (int, float)):
                problems.append(f"{name}: missing phase field {field!r}")
        for field in _PHASE_DIGEST_FIELDS:
            if not entry.get(field):
                problems.append(f"{name}: missing or empty digest {field!r}")
    if "totals" not in section:
        problems.append("compile_phases.totals is missing")
    return problems

#: Repository source roots stripped from profile paths (longest first).
_PATH_MARKERS = (f"{os.sep}src{os.sep}", f"{os.sep}lib{os.sep}")


def _relative_path(path: str) -> str:
    """Trim an absolute profile path down to a stable, repo-relative tail."""
    for marker in _PATH_MARKERS:
        index = path.rfind(marker)
        if index >= 0:
            return path[index + 1:]
    return os.path.basename(path)


def _hotspots(stats: pstats.Stats, top: int) -> Dict[str, List[Dict[str, Any]]]:
    """The top-``top`` rows of a profile, by internal and cumulative time."""
    rows = []
    for (filename, line, name), (_cc, ncalls, tottime, cumtime, _callers) \
            in stats.stats.items():  # type: ignore[attr-defined]
        rows.append({
            "function": f"{_relative_path(filename)}:{line}({name})",
            "calls": ncalls,
            "internal_seconds": round(tottime, 6),
            "cumulative_seconds": round(cumtime, 6),
        })
    by_internal = sorted(rows, key=lambda row: row["internal_seconds"],
                         reverse=True)[:top]
    by_cumulative = sorted(rows, key=lambda row: row["cumulative_seconds"],
                           reverse=True)[:top]
    return {"by_internal_seconds": by_internal,
            "by_cumulative_seconds": by_cumulative}


def profile_record(precision, scalability, stats: pstats.Stats, *,
                   top: int, wall_seconds: float,
                   precision_seconds: float,
                   scalability_seconds: float,
                   compile_phases: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Assemble the ``BENCH_profile.json`` payload."""
    analyses: Dict[str, Dict[str, Any]] = {}
    for result in precision.results:
        for name in result.no_alias:
            entry = analyses.setdefault(name, {
                "build_seconds": 0.0, "query_seconds": 0.0, "no_alias": 0})
            entry["build_seconds"] += result.build_seconds.get(name, 0.0)
            entry["query_seconds"] += result.query_seconds.get(name, 0.0)
            entry["no_alias"] += result.no_alias.get(name, 0)
    for entry in analyses.values():
        entry["build_seconds"] = round(entry["build_seconds"], 6)
        entry["query_seconds"] = round(entry["query_seconds"], 6)
    return {
        "schema": 1,
        "run": {
            "python": sys.version.split()[0],
            "wall_seconds": wall_seconds,
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "experiments": {
            "precision_seconds": round(precision_seconds, 6),
            "scalability_seconds": round(scalability_seconds, 6),
            "precision_programs": len(precision.results),
            "scalability_points": len(scalability.points),
            "scalability_solver_steps": scalability.total_solver_steps(),
        },
        "analyses": analyses,
        "solver": precision.totals().solver,
        "symbolic_caches": compare_memo_stats(),
        "intern_table_size": intern_table_size(),
        "compile_phases": compile_phases or {},
        "hotspots": _hotspots(stats, top),
    }


def run_profile(programs: Optional[Sequence[str]] = None,
                max_pairs: Optional[int] = None,
                points: int = QUICK_SCALABILITY_POINTS,
                seed: int = 7,
                top: int = 30,
                out: str = "BENCH_profile.json") -> Dict[str, Any]:
    """Profile one serial evaluation run and write the record to ``out``.

    Runs in-process under a single :class:`cProfile.Profile` (``jobs=1`` by
    construction — worker processes would escape the profiler).
    """
    if programs is None:
        programs = list(QUICK_PRECISION_PROGRAMS)
    if max_pairs is None:
        max_pairs = QUICK_MAX_PAIRS
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    precision_started = time.perf_counter()
    precision = run_precision_experiment(programs,
                                         max_pairs_per_function=max_pairs)
    precision_seconds = time.perf_counter() - precision_started
    scalability_started = time.perf_counter()
    scalability = run_scalability_experiment(program_count=points, seed=seed)
    scalability_seconds = time.perf_counter() - scalability_started
    profiler.disable()
    # Outside the cProfile scope: the phase collector's perf_counter calls
    # would otherwise show up as profiler-inflated hotspots of their own.
    phases = compile_phase_breakdown(programs)
    wall_seconds = time.perf_counter() - started

    stats = pstats.Stats(profiler)
    record = profile_record(
        precision, scalability, stats, top=top, wall_seconds=wall_seconds,
        precision_seconds=precision_seconds,
        scalability_seconds=scalability_seconds,
        compile_phases=phases)
    write_json(out, record)
    return record


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.evaluation.profile",
        description="cProfile the evaluation and attribute time per analysis.")
    parser.add_argument("--programs", nargs="+", default=None, metavar="NAME",
                        choices=SUITE_NAMES,
                        help="precision programs to profile (default: the "
                             "CI quick corpus)")
    parser.add_argument("--max-pairs", type=int, default=None)
    parser.add_argument("--points", type=int, default=QUICK_SCALABILITY_POINTS,
                        help="Figure-15 points to include")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--top", type=int, default=30,
                        help="profile rows to keep per ranking")
    parser.add_argument("--out", default="BENCH_profile.json")
    parser.add_argument("--check-phases", metavar="RECORD", default=None,
                        help="validate the compile-phase breakdown of an "
                             "existing profile record and exit (used by the "
                             "perf-smoke CI gate)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.check_phases:
        import json
        with open(args.check_phases, "r", encoding="utf-8") as handle:
            record = json.load(handle)
        problems = check_phases(record)
        if problems:
            for problem in problems:
                print(f"check-phases: {problem}", file=sys.stderr)
            return 1
        totals = record["compile_phases"]["totals"]
        print(f"check-phases OK: {len(record['compile_phases']['per_module'])} "
              f"modules, frontend {totals.get('frontend_seconds', 0.0) * 1e3:.1f}ms "
              "(wall reported, never gated)")
        return 0
    record = run_profile(programs=args.programs, max_pairs=args.max_pairs,
                         points=args.points, seed=args.seed, top=args.top,
                         out=args.out)
    run = record["run"]
    print(f"wrote {args.out} ({run['wall_seconds']:.2f}s profiled wall)")
    for problem, cost in sorted(record["solver"].items()):
        print(f"  {problem}: {cost['steps']} steps, "
              f"{cost['transfer_ns'] / 1e6:.1f}ms in transfers")
    totals = record.get("compile_phases", {}).get("totals", {})
    if totals:
        print("  compile: "
              f"lex {totals['lex_seconds'] * 1e3:.1f}ms, "
              f"parse {totals['parse_seconds'] * 1e3:.1f}ms, "
              f"lower {totals['lower_seconds'] * 1e3:.1f}ms, "
              f"prepare {totals['prepare_seconds'] * 1e3:.1f}ms")
    for row in record["hotspots"]["by_internal_seconds"][:5]:
        print(f"  hot: {row['function']} "
              f"({row['internal_seconds']:.3f}s internal)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
