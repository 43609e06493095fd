"""Corpus-wide differential evaluation of the client analyses.

For every corpus program this runner computes both client reports — the
out-of-bounds verdict table (:mod:`repro.clients.bounds`) and the
loop-parallelization table (:mod:`repro.clients.parallelize`) — executes
the program under the concrete interpreter, and replays the observed
accesses against the verdicts through :mod:`repro.clients.validate`:

* an observed out-of-extent access at a load/store classified ``safe``
  is a violation (and an in-extent access at ``definitely-oob``,
  symmetrically);
* an observed cross-iteration overlapping access pair (store involved)
  inside a loop reported parallelizable is a violation.

Every violation carries a replayable ``(program, seed, access)`` triple.
The corpus, the interpreter run, the report header, the sharded run and
the command line are the shared oracle runner's
(:mod:`repro.evaluation.oracle`), and the emitted ``BENCH_clients.json``
is canonical JSON — byte-identical across ``--jobs`` counts and
``PYTHONHASHSEED`` values once the volatile wall-time fields are stripped
(``python -m repro.evaluation.parallel --compare A.json B.json``).

Command line::

    python -m repro.evaluation.clients --quick --jobs 2 \
        --out BENCH_clients.json --min-programs 50
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..benchgen import GeneratorConfig
from ..clients.validate import validate_bounds, validate_loops
from ..engine import keys
from ..engine.manager import AnalysisManager
from ..interp import InterpreterLimits
from .oracle import (
    QUICK_EXTRA_PROGRAMS,
    OracleCheck,
    OracleReport,
    execute,
    fuzz_corpus,
    oracle_main,
    oracle_parser,
    run_oracle,
)

__all__ = [
    "ClientCheck",
    "ClientsReport",
    "CLIENT_MIX",
    "clients_corpus",
    "check_clients_program",
    "run_clients",
    "main",
]

#: The fuzz slice's idiom mix, weighted toward the shapes the clients
#: classify non-trivially: provably-safe walks, off-by-one windows,
#: disjoint and overlapping cross-iteration loops.
CLIENT_MIX: Dict[str, float] = {
    "bounded_walk": 3.0,
    "off_by_one_window": 3.0,
    "disjoint_tiles": 3.0,
    "overlapping_shift": 3.0,
    "mixed_width_stride": 3.0,
    "strided": 1.0,
    "matrix": 1.0,
    "split_halves": 1.0,
    "double_buffer": 1.0,
    "allocator": 1.0,
    "local_scratch": 1.0,
}


def clients_corpus(extra: int = QUICK_EXTRA_PROGRAMS,
                   seed: int = 17) -> List[GeneratorConfig]:
    """The runner's corpus: every suite program plus ``extra`` fuzz programs
    drawn from :data:`CLIENT_MIX`."""
    return fuzz_corpus("client", "clients", extra, seed, mix=CLIENT_MIX)


# -- result records -----------------------------------------------------------


@dataclass
class ClientCheck(OracleCheck):
    """Differential outcome for one corpus program (pure data, picklable)."""

    #: The bounds report's verdict counts (safe / maybe_oob /
    #: definitely_oob / accesses).
    bounds_summary: Dict[str, int] = field(default_factory=dict)
    bounds_events_checked: int = 0
    oob_events_observed: int = 0
    loops: int = 0
    parallel_loops: int = 0
    loop_frames_checked: int = 0
    loop_frames_skipped: int = 0
    #: Claimed loop headers absent from the recomputed LoopInfo (stale
    #: report vs. module) — counted per claim, not per frame.
    loop_claims_stale: int = 0


class ClientsReport(OracleReport):
    """Aggregated differential results over a corpus."""

    def totals(self) -> Dict[str, int]:
        totals = {"accesses_classified": self._verdicts("accesses")}
        totals.update((verdict, self._verdicts(verdict))
                      for verdict in ("safe", "maybe_oob", "definitely_oob"))
        totals.update((name, self.total(name)) for name in (
            "bounds_events_checked", "oob_events_observed", "loops",
            "parallel_loops", "loop_frames_checked", "loop_frames_skipped",
            "loop_claims_stale"))
        return totals

    def _verdicts(self, verdict: str) -> int:
        return sum(check.bounds_summary.get(verdict, 0) for check in self.checks)

    def summary(self, totals: Dict[str, int]) -> str:
        return (f"{totals['accesses_classified']} accesses classified "
                f"({totals['safe']} safe / {totals['maybe_oob']} maybe / "
                f"{totals['definitely_oob']} definite), "
                f"{totals['parallel_loops']}/{totals['loops']} loops parallel, "
                f"{totals['bounds_events_checked']} events and "
                f"{totals['loop_frames_checked']} loop frames checked")


# -- per-program driver --------------------------------------------------------


def check_clients_program(program, *, detector_factory=None,
                          checker_factory=None,
                          limits: Optional[InterpreterLimits] = None
                          ) -> ClientCheck:
    """Run the full differential check of both clients for one program.

    ``detector_factory`` / ``checker_factory`` take ``(module, manager)``
    and are injectable so the test-suite can feed deliberately broken
    clients through the validator and assert they are caught.
    """
    config = program.config
    module = program.module
    check = ClientCheck(program=config.name, seed=config.seed)
    manager = AnalysisManager(module)
    detector = detector_factory(module, manager) if detector_factory \
        else manager.get(keys.BOUNDS)
    checker = checker_factory(module, manager) if checker_factory \
        else manager.get(keys.PARALLEL)
    bounds_report = detector.module_report()
    loops_report = checker.module_report()
    check.bounds_summary = dict(bounds_report["summary"])
    check.loops = loops_report["summary"]["loops"]
    check.parallel_loops = loops_report["summary"]["parallel"]

    trace, replay = execute(check, program, limits)
    check.oob_events_observed = sum(
        1 for event in trace.accesses if not event.in_extent)

    events_checked, bounds_violations = validate_bounds(
        config.name, trace, bounds_report, replay)
    check.bounds_events_checked = events_checked
    check.violations.extend(bounds_violations)

    frames_checked, frames_skipped, claims_stale, loop_violations = \
        validate_loops(config.name, module, trace, loops_report, replay)
    check.loop_frames_checked = frames_checked
    check.loop_frames_skipped = frames_skipped
    check.loop_claims_stale = claims_stale
    check.violations.extend(loop_violations)
    return check


# -- corpus driver -------------------------------------------------------------


def run_clients(configs: Optional[Sequence[GeneratorConfig]] = None,
                jobs: Optional[int] = None,
                max_steps: int = InterpreterLimits.max_steps) -> ClientsReport:
    """Run the differential check over a corpus (default: :func:`clients_corpus`)."""
    return ClientsReport(checks=run_oracle(
        check_clients_program, configs if configs is not None else clients_corpus(),
        jobs, max_steps))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = oracle_parser("clients", "Differential evaluation of the bounds and "
                           "loop-parallelization clients versus concrete "
                           "executions.", seed=17, out="BENCH_clients.json")
    args = parser.parse_args(argv)
    return oracle_main(args, clients_corpus, lambda configs: run_clients(
        configs, jobs=args.jobs, max_steps=args.max_steps))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
