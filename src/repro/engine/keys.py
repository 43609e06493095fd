"""Standard :class:`~repro.engine.manager.AnalysisKey` definitions.

One key per analysis the repository ships.  Imports of the analysis modules
happen inside the factories so that this module stays import-cycle-free (the
analyses themselves import the engine for the sparse solver).

Analyses that layer on others request their inputs through the manager —
``GLOBAL_RANGES`` asks for ``RANGES`` and ``LOCATIONS`` — so any two
consumers of the same module share one bootstrap range analysis, one
location table and one GR/LR fixed point.  Sharing holds across spellings of
the defaults: the manager drops a parameter equal to its factory default
(``None``, ``RangeAnalysisOptions()``, ``GlobalAnalysisOptions()``,
``RBAAOptions()``) from the cache key, so RBAA's
``get(RANGES, options=RangeAnalysisOptions())`` and the bounds client's
plain ``get(RANGES)`` are one entry.  Likewise every dominator tree and loop
forest of a function is computed once, in the shared ``CFG_FACTS`` entry.
"""

from __future__ import annotations

from .manager import SCOPE_CALLGRAPH, SCOPE_FUNCTION, AnalysisKey

__all__ = ["RANGES", "LOCATIONS", "CALLGRAPH", "CFG_FACTS", "GLOBAL_RANGES",
           "LOCAL_RANGES", "ANDERSEN", "STEENSGAARD", "BASIC", "SCEV", "RBAA",
           "BOUNDS", "PARALLEL"]


def _build_ranges(module, manager, options=None):
    from ..rangeanalysis.symbolic_ra import SymbolicRangeAnalysis
    return SymbolicRangeAnalysis(module, options)


def _build_locations(module, manager):
    from ..core.locations import LocationTable
    return LocationTable(module)


def _build_callgraph(module, manager):
    from ..analysis.callgraph import CallGraph
    return CallGraph.compute(module)


def _build_cfg_facts(module, manager):
    from ..analysis.facts import CFGFacts
    return CFGFacts()


def _build_global_ranges(module, manager, options=None, range_options=None):
    from ..core.global_analysis import GlobalRangeAnalysis
    return GlobalRangeAnalysis(
        module,
        ranges=manager.get(RANGES, options=range_options),
        locations=manager.get(LOCATIONS),
        options=options,
    )


def _build_local_ranges(module, manager, range_options=None):
    from ..core.local_analysis import LocalRangeAnalysis
    return LocalRangeAnalysis(
        module,
        ranges=manager.get(RANGES, options=range_options),
        locations=manager.get(LOCATIONS),
        cfg_facts=manager.get(CFG_FACTS),
    )


def _build_andersen(module, manager):
    from ..aliases.andersen import AndersenAliasAnalysis
    return AndersenAliasAnalysis(module)


def _build_steensgaard(module, manager):
    from ..aliases.steensgaard import SteensgaardAliasAnalysis
    return SteensgaardAliasAnalysis(module)


def _build_basic(module, manager):
    from ..aliases.basic import BasicAliasAnalysis
    return BasicAliasAnalysis(module)


def _build_scev(module, manager):
    from ..aliases.scev_aa import SCEVAliasAnalysis
    return SCEVAliasAnalysis(module, cfg_facts=manager.get(CFG_FACTS))


def _build_rbaa(module, manager, options=None):
    from ..core.rbaa import RBAAAliasAnalysis
    return RBAAAliasAnalysis(module, options, manager=manager)


def _build_bounds(module, manager):
    from ..clients.bounds import BoundsCheckAnalysis
    return BoundsCheckAnalysis(module, manager=manager)


def _build_parallel(module, manager):
    from ..clients.parallelize import LoopParallelismAnalysis
    return LoopParallelismAnalysis(module, manager=manager)


#: The symbolic integer range bootstrap (Blume–Eigenmann style).  The
#: analysis is function-local (interprocedural flows become kernel symbols),
#: so a function edit re-runs only the edited function's nodes.
RANGES = AnalysisKey("symbolic-ranges", _build_ranges, scope=SCOPE_FUNCTION)
#: The module's abstract memory locations (``Loc``); allocation sites of an
#: edited function are re-registered in place.
LOCATIONS = AnalysisKey("locations", _build_locations, scope=SCOPE_FUNCTION)
#: The direct-call graph with SCC condensation.
CALLGRAPH = AnalysisKey("callgraph", _build_callgraph)
#: Per-function dominator trees and loop forests, computed once each and
#: shared by LR, SCEV-AA and the parallelization client; an edit drops the
#: replaced function's facts.
CFG_FACTS = AnalysisKey("cfg-facts", _build_cfg_facts, scope=SCOPE_FUNCTION)
#: The global symbolic pointer range analysis (GR, Figure 9): an
#: interprocedural fixed point re-run when an edit lands in its cone.
GLOBAL_RANGES = AnalysisKey("global-ranges", _build_global_ranges,
                            scope=SCOPE_CALLGRAPH)
#: The local symbolic pointer range analysis (LR, Figure 11): one-sweep and
#: per-function, so edits refresh it in place.
LOCAL_RANGES = AnalysisKey("local-ranges", _build_local_ranges,
                           scope=SCOPE_FUNCTION)
#: Inclusion-based points-to baseline (whole-module constraint graph).
ANDERSEN = AnalysisKey("andersen", _build_andersen, scope=SCOPE_CALLGRAPH)
#: Unification-based points-to baseline (whole-module constraint drain).
STEENSGAARD = AnalysisKey("steensgaard", _build_steensgaard,
                          scope=SCOPE_CALLGRAPH)
#: The basicaa-style heuristic baseline (stateless; per-function caches).
BASIC = AnalysisKey("basic", _build_basic, scope=SCOPE_FUNCTION)
#: The scalar-evolution baseline (lazy per-function engines).
SCEV = AnalysisKey("scev", _build_scev, scope=SCOPE_FUNCTION)
#: The paper's complete range-based alias analysis.
RBAA = AnalysisKey("rbaa", _build_rbaa, scope=SCOPE_FUNCTION)
#: Out-of-bounds client: per-access safe/maybe-oob/definitely-oob verdicts
#: (per-function report cache, refreshed in place on edits).
BOUNDS = AnalysisKey("check-bounds", _build_bounds, scope=SCOPE_FUNCTION)
#: Loop-parallelization client: cross-iteration disjointness per natural loop.
PARALLEL = AnalysisKey("parallel-loops", _build_parallel, scope=SCOPE_FUNCTION)
