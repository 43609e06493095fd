"""Reproduction of the precision experiment (Figures 13 and 14).

For every program of the synthetic evaluation suite the experiment runs the
three analyses the paper compares — ``scev``, ``basic`` and ``rbaa`` — plus
the chained ``rbaa + basic`` combination, over all intraprocedural pointer
pairs, and reports:

* Figure 13: the percentage of queries each analysis answers "no alias";
* Figure 14: how many of rbaa's no-alias answers came from the global test.

Run directly with ``python -m repro.evaluation.precision``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..aliases import BasicAliasAnalysis, CombinedAliasAnalysis, SCEVAliasAnalysis
from ..benchgen import build_program, select_programs
from ..core import RBAAAliasAnalysis
from ..ir.module import Module
from .harness import (AnalysisFactory, ProgramResult, frontend_fingerprint, map_shards,
                      run_queries)
from .reporting import format_table

__all__ = ["PrecisionReport", "standard_factories", "precision_program",
           "run_precision_experiment",
           "figure13_rows", "figure14_rows", "format_figure13", "format_figure14"]

#: Column order of Figure 13.
ANALYSIS_COLUMNS = ("scev", "basic", "rbaa", "r+b")


def _combined_factory(module: Module, manager=None):
    # Module-level (not a per-call closure) so build_analysis' per-factory
    # signature cache actually hits across experiment invocations.
    return CombinedAliasAnalysis(
        module,
        [RBAAAliasAnalysis(module, manager=manager), BasicAliasAnalysis(module)],
        name="r+b")


def standard_factories() -> List[Tuple[str, AnalysisFactory]]:
    """The four analysis configurations of Figure 13.

    The factories accept the harness' shared :class:`AnalysisManager`, so the
    standalone ``rbaa`` and the ``rbaa`` inside the chained combination share
    one range bootstrap and one GR/LR fixed point per module.
    """
    return [
        ("scev", SCEVAliasAnalysis),
        ("basic", BasicAliasAnalysis),
        ("rbaa", RBAAAliasAnalysis),
        ("r+b", _combined_factory),
    ]


def _accumulate(bucket: Dict[str, int], counts: Dict[str, int]) -> None:
    for key, value in counts.items():
        bucket[key] = bucket.get(key, 0) + value


@dataclass
class PrecisionReport:
    """All per-program results plus aggregate totals."""

    results: List[ProgramResult] = field(default_factory=list)

    def totals(self) -> ProgramResult:
        """Corpus-wide sums of the per-program counters, including the
        per-problem solver cost (``steps`` / ``transfer_ns``)."""
        total = ProgramResult(program="Total")
        for result in self.results:
            total.queries += result.queries
            _accumulate(total.no_alias, result.no_alias)
            for name, extra in result.extra.items():
                _accumulate(total.extra.setdefault(name, {}), extra)
            for problem, cost in result.solver.items():
                _accumulate(total.solver.setdefault(problem, {}), cost)
        return total

    def improvement_over_basic(self) -> float:
        """The headline ratio: rbaa no-alias answers / basic no-alias answers."""
        total = self.totals()
        basic = total.no_alias.get("basic", 0)
        rbaa = total.no_alias.get("rbaa", 0)
        return rbaa / basic if basic else float("inf")

    def global_test_fraction(self) -> float:
        """Fraction of rbaa's no-alias answers produced by the global test."""
        total = self.totals()
        rbaa_no_alias = total.no_alias.get("rbaa", 0)
        global_hits = total.extra.get("rbaa", {}).get("answered_by_global", 0)
        return global_hits / rbaa_no_alias if rbaa_no_alias else 0.0


def precision_program(name: str,
                      max_pairs_per_function: Optional[int] = None) -> ProgramResult:
    """The Figure 13/14 measurement of one suite program."""
    program = build_program(name)
    result = run_queries(name, program.module, standard_factories(),
                         max_pairs_per_function)
    result.frontend = frontend_fingerprint(program.source, program.module)
    return result


def run_precision_experiment(program_names: Optional[Sequence[str]] = None,
                             max_programs: Optional[int] = None,
                             max_pairs_per_function: Optional[int] = None,
                             jobs: int = 1) -> PrecisionReport:
    """Run the Figure 13/14 experiment over (a slice of) the synthetic suite.

    Programs are measured over ``jobs`` worker processes and reported in
    corpus order; only wall times depend on ``jobs``.
    """
    names = [program.name for program in select_programs(program_names, max_programs)]
    worker = functools.partial(precision_program,
                               max_pairs_per_function=max_pairs_per_function)
    return PrecisionReport(results=map_shards(worker, names, jobs))


def figure13_rows(report: PrecisionReport) -> List[List[object]]:
    """Rows of the Figure 13 table: program, #queries, %scev, %basic, %rbaa, %r+b."""
    rows: List[List[object]] = []
    for result in report.results + [report.totals()]:
        rows.append([
            result.program,
            result.queries,
            f"{result.percentage('scev'):.2f}",
            f"{result.percentage('basic'):.2f}",
            f"{result.percentage('rbaa'):.2f}",
            f"{result.percentage('r+b'):.2f}",
        ])
    return rows


def figure14_rows(report: PrecisionReport) -> List[List[object]]:
    """Rows of the Figure 14 table: program, noalias count, global-test count."""
    rows: List[List[object]] = []
    for result in report.results + [report.totals()]:
        rbaa_extra = result.extra.get("rbaa", {})
        rows.append([
            result.program,
            result.no_alias.get("rbaa", 0),
            rbaa_extra.get("answered_by_global", 0),
        ])
    return rows


def format_figure13(report: PrecisionReport) -> str:
    return format_table(
        ["Program", "#Queries", "%scev", "%basic", "%rbaa", "%(r+b)"],
        figure13_rows(report),
        title="Figure 13 — no-alias percentage per analysis",
    )


def format_figure14(report: PrecisionReport) -> str:
    return format_table(
        ["Program", "noalias", "global"],
        figure14_rows(report),
        title="Figure 14 — queries solved by the global test",
    )


def main() -> None:  # pragma: no cover - manual entry point
    report = run_precision_experiment()
    print(format_figure13(report))
    print()
    print(format_figure14(report))
    print()
    print(f"rbaa / basic improvement: {report.improvement_over_basic():.2f}x "
          f"(paper: 1.35x)")
    print(f"global-test fraction of rbaa answers: "
          f"{100 * report.global_test_fraction():.2f}% (paper: 18.52%)")


if __name__ == "__main__":  # pragma: no cover
    main()
