"""The interpreter oracles' shared runner (soundness and clients).

Both oracles execute every corpus program under the concrete interpreter
(:mod:`repro.interp`) and falsify one family of analysis claims against
the observed execution.  Only the claims differ, so each oracle module
keeps just its check function and its own totals; this module holds the
rest once:

* the corpus — every suite program plus a seeded fuzz slice;
* the execute-and-record step — the interpreter run, its
  ``executed`` / ``stop_reason`` / ``steps`` / ``truncated`` outcome and
  the replayable ``(program, seed, argv)`` triple each violation carries;
* the corpus report and record header;
* the run — one per-program function mapped over the corpus through
  :func:`~repro.evaluation.harness.map_shards` (workers regenerate their
  programs; IR never crosses process boundaries);
* the command-line tail — write the record, print the violations, exit 1
  on a violation and 2 unless every corpus program executed to completion
  (and at least ``--min-programs`` did).
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..benchgen import (
    GENERATOR_VERSION,
    GeneratorConfig,
    execution_inputs,
    generate_module,
    stable_seed,
    suite_configs,
)
from ..interp import ExecutionTrace, Interpreter, InterpreterLimits
from .harness import map_shards
from .reporting import to_canonical_json

__all__ = ["QUICK_EXTRA_PROGRAMS", "fuzz_corpus", "OracleCheck", "OracleReport",
           "execute", "run_oracle", "oracle_parser", "oracle_main"]

#: Extra generated programs in the quick corpus (on top of the 22 suite
#: programs): 22 + 34 = 56 ≥ the CI gate of 50.
QUICK_EXTRA_PROGRAMS = 34


def fuzz_corpus(prefix: str, key: str, extra: int, seed: int,
                mix: Optional[Dict[str, float]] = None) -> List[GeneratorConfig]:
    """Every suite program plus ``extra`` fuzz programs ``{prefix}_NN``.

    The fuzz programs draw from ``mix`` (default: the uniform mix over the
    full idiom pool) with sizes cycling 3..8 idiom instances, seeded via
    :func:`stable_seed` of ``{key}:{seed}:{name}`` so the corpus is
    identical in every process and under every ``PYTHONHASHSEED`` — a
    violation's ``(program, seed)`` pair replays exactly.
    """
    configs = suite_configs()
    for index in range(max(0, extra)):
        name = f"{prefix}_{index:02d}"
        configs.append(GeneratorConfig(
            name=name,
            instances=3 + (index % 6),
            seed=stable_seed(f"{key}:{seed}:{name}", 1_000_000),
            mix=dict(mix) if mix else None,
        ))
    return configs


@dataclass
class OracleCheck:
    """What every oracle records about one corpus program (picklable)."""

    program: str
    seed: int
    executed: bool = False
    stop_reason: Optional[str] = None
    steps: int = 0
    truncated: bool = False
    violations: List[Any] = field(default_factory=list)


def execute(check: OracleCheck, program,
            limits: Optional[InterpreterLimits] = None
            ) -> Tuple[ExecutionTrace, Dict[str, Any]]:
    """Run ``program`` on its seeded inputs and record the outcome on ``check``.

    Returns the trace and the replay triple every violation carries.
    """
    config = program.config
    inputs = execution_inputs(config)
    trace = Interpreter(program.module, limits=limits).run_main(inputs.argv())
    check.executed = trace.completed
    check.stop_reason = trace.stop_reason
    check.steps = trace.steps
    check.truncated = any(frame.truncated for frame in trace.frames)
    replay = {
        "program": config.name,
        "seed": config.seed,
        "instances": config.instances,
        "rng_key": config.rng_key,
        "mix": dict(sorted(config.mix.items())) if config.mix else None,
        "argv": inputs.argv(),
    }
    return trace, replay


@dataclass
class OracleReport:
    """An oracle's checks over a corpus, in corpus order."""

    checks: List[OracleCheck] = field(default_factory=list)

    def programs_executed(self) -> int:
        return sum(1 for check in self.checks if check.executed)

    def violations(self) -> List[Any]:
        return [violation for check in self.checks for violation in check.violations]

    def total(self, name: str) -> int:
        return sum(getattr(check, name) for check in self.checks)

    def totals(self) -> Dict[str, int]:
        """The oracle's own corpus totals."""
        return {}

    def summary(self, totals: Dict[str, int]) -> str:
        """One line of the oracle's own totals for the CLI."""
        return ""

    def as_record(self, run_info: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "schema": 1,
            "generator_version": GENERATOR_VERSION,
            "programs": [asdict(check) for check in self.checks],
            "totals": {
                "programs": len(self.checks),
                "programs_executed": self.programs_executed(),
                **self.totals(),
                "violations": len(self.violations()),
            },
        }
        if run_info is not None:
            record["run"] = dict(run_info)
        return record


def _check_config(config: GeneratorConfig, *, check: Callable[..., OracleCheck],
                  max_steps: int, **options: Any) -> OracleCheck:
    """Generate one corpus program and run the oracle's check on it."""
    return check(generate_module(config),
                 limits=InterpreterLimits(max_steps=max_steps), **options)


def run_oracle(check: Callable[..., OracleCheck], configs: Sequence[GeneratorConfig],
               jobs: Optional[int], max_steps: int, **options: Any) -> List[OracleCheck]:
    """``check`` over every corpus program, in corpus order."""
    worker = functools.partial(_check_config, check=check, max_steps=max_steps,
                               **options)
    return map_shards(worker, configs, jobs)


def oracle_parser(name: str, description: str, seed: int,
                  out: str) -> argparse.ArgumentParser:
    """The options both oracle CLIs share."""
    parser = argparse.ArgumentParser(prog=f"python -m repro.evaluation.{name}",
                                     description=description)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1)")
    parser.add_argument("--quick", action="store_true",
                        help=f"CI smoke corpus: 22 suite programs + "
                             f"{QUICK_EXTRA_PROGRAMS} fuzz programs")
    parser.add_argument("--extra", type=int, default=None,
                        help="number of generated fuzz programs beyond the suite")
    parser.add_argument("--seed", type=int, default=seed,
                        help="base seed of the fuzz slice of the corpus")
    parser.add_argument("--max-steps", type=int, default=InterpreterLimits.max_steps,
                        help="interpreter step budget per program")
    parser.add_argument("--min-programs", type=int, default=0,
                        help="fail unless at least this many programs executed")
    parser.add_argument("--out", default=out, help="report output path")
    return parser


def oracle_main(args: argparse.Namespace,
                corpus: Callable[..., List[GeneratorConfig]],
                run: Callable[[List[GeneratorConfig]], OracleReport]) -> int:
    """Run an oracle over its corpus, write the record and apply the gates."""
    extra = args.extra
    if extra is None:
        # Quick mode is the CI smoke corpus (56 programs); the full run
        # sweeps a larger fuzz slice.
        extra = QUICK_EXTRA_PROGRAMS if args.quick else 3 * QUICK_EXTRA_PROGRAMS
    configs = corpus(extra=extra, seed=args.seed)

    started = time.perf_counter()
    report = run(configs)
    elapsed = time.perf_counter() - started

    record = report.as_record(run_info={
        "jobs": args.jobs,
        "quick": bool(args.quick),
        "python": sys.version.split()[0],
        "total_wall_seconds": elapsed,
    })
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(to_canonical_json(record))

    executed = report.programs_executed()
    violations = report.violations()
    print(f"wrote {args.out}: {executed}/{len(report.checks)} programs executed, "
          f"{report.summary(record['totals'])}, {len(violations)} violation(s) "
          f"({elapsed:.2f}s wall, jobs={args.jobs})")
    for violation in violations[:20]:
        analysis = getattr(violation, "analysis", "")
        print(f"  [{violation.kind}] {violation.program}/{violation.function} "
              f"{analysis + ': ' if analysis else ''}{violation.query} — "
              f"{violation.detail}")
    if violations:
        return 1
    if executed < len(report.checks):
        print(f"{len(report.checks) - executed} corpus program(s) did not "
              f"execute to completion")
        return 2
    if executed < args.min_programs:
        print(f"only {executed} programs executed "
              f"(< --min-programs {args.min_programs})")
        return 2
    return 0
