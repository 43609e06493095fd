"""Construction, caching and invalidation of per-module analyses.

Every consumer used to build its own :class:`SymbolicRangeAnalysis`,
:class:`LocationTable` and friends, so comparing four alias analyses over one
module ran the (by far most expensive) range bootstrap four times.  The
manager memoizes analyses behind typed :class:`AnalysisKey`\\ s:

    manager = AnalysisManager(module)
    ranges = manager.get(keys.RANGES)          # built once
    ranges = manager.get(keys.RANGES)          # cache hit

Parameters equal to the factory's default — ``None``, or a dataclass equal
to its no-argument instance — are dropped from the cache key, so
``get(keys.RANGES)`` and ``get(keys.RANGES, options=RangeAnalysisOptions())``
are one entry and every consumer of a module shares one range bootstrap.

Factories receive the manager itself, so an analysis declares its inputs by
calling :meth:`AnalysisManager.get` recursively; the manager records those
nested requests as dependency edges and uses them to invalidate dependents
transitively when an input is invalidated (e.g. after a transform changes
the module).
"""

from __future__ import annotations

from dataclasses import dataclass, field, is_dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Set, Tuple

__all__ = ["AnalysisKey", "AnalysisManager", "ManagerStatistics", "EditImpact",
           "SCOPE_MODULE", "SCOPE_FUNCTION", "SCOPE_CALLGRAPH"]

#: The analysis depends on the whole module opaquely: any function edit
#: evicts it (the conservative default).
SCOPE_MODULE = "module"
#: The analysis keeps per-function state and implements
#: ``refresh_function(old, new)``: a function edit refreshes it in place,
#: re-running only the edited function's nodes.
SCOPE_FUNCTION = "function"
#: The analysis is an interprocedural whole-module fixed point.  A function
#: edit *re-seeds* it in place through ``refresh_function(old, new, edit)``:
#: the analysis maps the edit to its seed nodes (``SparseProblem
#: .delta_nodes``) and restarts change-driven propagation against the
#: retained fixed point (``SparseSolver.resolve_from``).  Entries without
#: the hook fall back to eviction.
SCOPE_CALLGRAPH = "callgraph"


@dataclass(frozen=True)
class AnalysisKey:
    """Typed handle for one kind of analysis.

    ``factory(module, manager, **params)`` builds the analysis; ``params``
    must be keyword arguments whose ``repr`` is deterministic — they become
    part of the cache key, so two requests with equal parameters share one
    instance.  A factory must treat a ``None`` parameter as its default
    instance (``options=None`` builds exactly what ``options=Options()``
    builds): the manager drops default-valued parameters from the key, so
    every spelling of the defaults shares one instance too.

    ``scope`` declares how the analysis reacts to a single-function edit
    (see :meth:`AnalysisManager.apply_function_edit`): module-scoped entries
    are evicted, function-scoped entries are refreshed in place through
    their ``refresh_function(old, new)`` hook, and callgraph-scoped entries
    are re-seeded in place through ``refresh_function(old, new, edit)``.
    """

    name: str
    factory: Callable[..., Any]
    scope: str = SCOPE_MODULE

    def __repr__(self) -> str:
        return f"AnalysisKey({self.name!r})"


@dataclass
class ManagerStatistics:
    """Cache behaviour counters (asserted by the engine tests).

    The counters are deterministic for a given module and request sequence —
    no wall time, no memory addresses — so the sharded evaluation runner
    ships them across process boundaries and merges them into the benchmark
    record as hardware-independent cost signals.
    """

    hits: int = 0
    misses: int = 0
    builds: int = 0
    invalidations: int = 0
    refreshes: int = 0

    def as_dict(self) -> Dict[str, int]:
        """A plain-dict snapshot (picklable, JSON-ready, stable key order)."""
        return {"hits": self.hits, "misses": self.misses,
                "builds": self.builds, "invalidations": self.invalidations,
                "refreshes": self.refreshes}

    def merge(self, other: "ManagerStatistics") -> None:
        """Accumulate another manager's counters (shard-merge aggregation)."""
        self.hits += other.hits
        self.misses += other.misses
        self.builds += other.builds
        self.invalidations += other.invalidations
        self.refreshes += other.refreshes


class CyclicAnalysisError(RuntimeError):
    """Two analyses requested each other while being built."""


_CacheKey = Tuple[AnalysisKey, Hashable]


@dataclass
class EditImpact:
    """What one function edit did to a manager's cache.

    ``cone`` is the callgraph closure of the edited function (itself plus
    transitive callers and callees) — the set of functions whose
    interprocedural analysis results the edit can influence, and therefore
    the outer bound on any callgraph-scoped re-seed.

    ``reseeded`` and ``retained`` record, per refreshed analysis, how many
    nodes the edit re-seeded and how much prior state survived it — the
    per-edit incremental telemetry the service's ``stats`` op surfaces
    (pure counts: deterministic, and untouched by ``strip_volatile``).
    """

    function: str
    refreshed: List[str] = field(default_factory=list)
    evicted: List[str] = field(default_factory=list)
    cone: Tuple[str, ...] = ()
    reseeded: Dict[str, int] = field(default_factory=dict)
    retained: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {"function": self.function,
                "refreshed": sorted(self.refreshed),
                "evicted": sorted(self.evicted),
                "cone": sorted(self.cone),
                "reseeded": dict(sorted(self.reseeded.items())),
                "retained": dict(sorted(self.retained.items()))}


def _is_default(value: Any) -> bool:
    """Whether a factory parameter selects the factory's default.

    ``None`` does, and so does a dataclass instance equal to its class's
    no-argument instance (``RangeAnalysisOptions()``, ``RBAAOptions()`` with
    default nested options, …): factories treat ``None`` as exactly that
    instance, so both spellings must share one cache entry.
    """
    if value is None:
        return True
    if not is_dataclass(value) or isinstance(value, type):
        return False
    try:
        return value == type(value)()
    except TypeError:  # a dataclass with required fields has no default
        return False


def _callgraph_cone(module, function) -> Tuple[str, ...]:
    """Function names in the edit cone: the edited function plus its
    transitive callers and callees (computed directly from the IR so it
    never depends on a cached — possibly stale — callgraph analysis)."""
    from ..ir.instructions import CallInst

    callers: Dict[str, Set[str]] = {}
    callees: Dict[str, Set[str]] = {}
    for caller in module.defined_functions():
        for inst in caller.instructions():
            if not isinstance(inst, CallInst):
                continue
            name = inst.callee_name()
            target = module.get_function(name)
            if target is None or target.is_declaration():
                continue
            callees.setdefault(caller.name, set()).add(name)
            callers.setdefault(name, set()).add(caller.name)
    cone: Set[str] = set()
    frontier = [function.name]
    while frontier:
        name = frontier.pop()
        if name in cone:
            continue
        cone.add(name)
        frontier.extend(callers.get(name, ()))
        frontier.extend(callees.get(name, ()))
    return tuple(sorted(cone))


class AnalysisManager:
    """Builds, caches and invalidates analyses for one module.

    Managers are cheap to construct and must never cross process boundaries:
    cached analyses hold live IR object graphs, so the parallel evaluation
    runner has each worker construct its own manager per module and ships
    only plain-data results (and :class:`ManagerStatistics` snapshots) back.
    """

    def __init__(self, module):
        self.module = module
        self.statistics = ManagerStatistics()
        self._cache: Dict[_CacheKey, Any] = {}
        #: cache key -> keys that were requested while building it.
        self._dependencies: Dict[_CacheKey, Set[_CacheKey]] = {}
        #: cache key -> keys whose build requested it.
        self._dependents: Dict[_CacheKey, Set[_CacheKey]] = {}
        self._build_stack: List[_CacheKey] = []
        #: Optional ``callback(key, value)`` invoked for every evicted entry
        #: (the analysis service harvests retired solver-step counters here).
        self.on_evict: Optional[Callable[[AnalysisKey, Any], None]] = None

    # -- cache keys -----------------------------------------------------------
    @staticmethod
    def _cache_key(key: AnalysisKey, params: Dict[str, Any]) -> _CacheKey:
        # Every spelling of the defaults shares the unparameterized entry.
        filtered = {name: value for name, value in params.items()
                    if not _is_default(value)}
        if not filtered:
            return (key, ())
        return (key, tuple(sorted((name, repr(value)) for name, value in filtered.items())))

    # -- retrieval ------------------------------------------------------------
    def get(self, key: AnalysisKey, **params) -> Any:
        """The analysis for ``key`` (and ``params``), building it on a miss."""
        cache_key = self._cache_key(key, params)
        self._record_edge(cache_key)
        if cache_key in self._cache:
            self.statistics.hits += 1
            return self._cache[cache_key]
        if cache_key in self._build_stack:
            cycle = " -> ".join(entry[0].name for entry in self._build_stack)
            raise CyclicAnalysisError(
                f"analysis dependency cycle: {cycle} -> {key.name}")
        self.statistics.misses += 1
        self._build_stack.append(cache_key)
        try:
            value = key.factory(self.module, self, **params)
        finally:
            self._build_stack.pop()
        self.statistics.builds += 1
        self._cache[cache_key] = value
        return value

    def cached(self, key: AnalysisKey, **params) -> Optional[Any]:
        """The cached analysis, or ``None`` without building anything."""
        return self._cache.get(self._cache_key(key, params))

    def cached_values(self) -> List[Any]:
        """Every live cached analysis, in deterministic key order (the
        analysis service aggregates solver-step totals over these)."""
        ordered = sorted(self._cache, key=lambda entry: (entry[0].name,
                                                         repr(entry[1])))
        return [self._cache[cache_key] for cache_key in ordered]

    def cached_items(self) -> List[Tuple[str, Any]]:
        """``(key name, analysis)`` pairs for every live cached entry, in the
        same deterministic order as :meth:`cached_values` (the analysis
        service attributes per-analysis solver-step totals over these)."""
        ordered = sorted(self._cache, key=lambda entry: (entry[0].name,
                                                         repr(entry[1])))
        return [(cache_key[0].name, self._cache[cache_key])
                for cache_key in ordered]

    def _record_edge(self, cache_key: _CacheKey) -> None:
        if not self._build_stack:
            return
        requester = self._build_stack[-1]
        self._dependencies.setdefault(requester, set()).add(cache_key)
        self._dependents.setdefault(cache_key, set()).add(requester)

    # -- invalidation ---------------------------------------------------------
    def invalidate(self, key: Optional[AnalysisKey] = None, **params) -> int:
        """Drop cached analyses; returns how many entries were evicted.

        With no ``key``, everything goes (the module changed wholesale).
        With a ``key``, that entry *and every analysis built on top of it*
        (transitively, via the recorded dependency edges) are evicted.
        """
        if key is None:
            evicted = len(self._cache)
            if self.on_evict is not None:
                for cache_key, value in list(self._cache.items()):
                    self.on_evict(cache_key[0], value)
            self._cache.clear()
            self._dependencies.clear()
            self._dependents.clear()
            self.statistics.invalidations += evicted
            return evicted
        doomed: Set[_CacheKey] = set()
        frontier = [cache_key for cache_key in self._cache
                    if cache_key[0] is key
                    and (not params or cache_key == self._cache_key(key, params))]
        while frontier:
            cache_key = frontier.pop()
            if cache_key in doomed:
                continue
            doomed.add(cache_key)
            frontier.extend(self._dependents.get(cache_key, ()))
        self._evict_entries(doomed)
        self.statistics.invalidations += len(doomed)
        return len(doomed)

    def _evict_entries(self, doomed: Set[_CacheKey]) -> None:
        """Drop exactly ``doomed`` (no transitive closure) and clean edges."""
        for cache_key in doomed:
            if self.on_evict is not None and cache_key in self._cache:
                self.on_evict(cache_key[0], self._cache[cache_key])
            self._cache.pop(cache_key, None)
            self._dependencies.pop(cache_key, None)
            self._dependents.pop(cache_key, None)
        for dependents in self._dependents.values():
            dependents.difference_update(doomed)
        for dependencies in self._dependencies.values():
            dependencies.difference_update(doomed)

    # -- function-granular edits ------------------------------------------------
    def apply_function_edit(self, old_function, new_function) -> EditImpact:
        """React to one function edit (``Module.replace_function``).

        Entries are handled per their key's declared scope:

        * :data:`SCOPE_FUNCTION` entries whose cached value implements
          ``refresh_function(old, new)`` are *refreshed in place*: the hook
          purges the per-value state of the old function and re-runs only the
          new function's nodes, accumulating solver statistics.
        * :data:`SCOPE_CALLGRAPH` entries whose cached value implements
          ``refresh_function(old, new, edit)`` are *re-seeded in place*: the
          hook maps the edit to the nodes it can influence
          (``SparseProblem.delta_nodes``) and restarts change-driven
          propagation against the retained fixed point
          (``SparseSolver.resolve_from``), so the edit pays for its cone
          rather than the module.  A hook may return a telemetry dict
          (``reseeded``/``retained`` counts), recorded on the impact.
        * :data:`SCOPE_MODULE` entries — and any entry without the hook its
          scope requires — are evicted and rebuilt lazily.

        Refreshes run dependencies-first (the recorded edge order), with the
        refreshing entry pushed on the build stack so any nested
        :meth:`get` — e.g. RBAA re-requesting the re-seeded GR analysis,
        now a cache hit on the same object — keeps its dependency edges
        recorded.
        """
        refresh: List[_CacheKey] = []
        doomed: Set[_CacheKey] = set()
        for cache_key, value in self._cache.items():
            key = cache_key[0]
            if (key.scope in (SCOPE_FUNCTION, SCOPE_CALLGRAPH)
                    and hasattr(value, "refresh_function")):
                refresh.append(cache_key)
            else:
                doomed.add(cache_key)
        impact = EditImpact(
            function=new_function.name,
            cone=_callgraph_cone(self.module, new_function))
        impact.evicted = sorted({cache_key[0].name for cache_key in doomed})
        self._evict_entries(doomed)
        self.statistics.invalidations += len(doomed)

        for cache_key in self._refresh_order(refresh):
            value = self._cache[cache_key]
            self._build_stack.append(cache_key)
            try:
                if cache_key[0].scope == SCOPE_CALLGRAPH:
                    telemetry = value.refresh_function(old_function,
                                                       new_function, impact)
                else:
                    telemetry = value.refresh_function(old_function,
                                                       new_function)
            finally:
                self._build_stack.pop()
            self.statistics.refreshes += 1
            impact.refreshed.append(cache_key[0].name)
            if isinstance(telemetry, dict):
                name = cache_key[0].name
                if "reseeded" in telemetry:
                    impact.reseeded[name] = int(telemetry["reseeded"])
                if "retained" in telemetry:
                    impact.retained[name] = int(telemetry["retained"])
        return impact

    def _refresh_order(self, entries: List[_CacheKey]) -> List[_CacheKey]:
        """``entries`` sorted dependencies-first along the recorded edges."""
        pending = set(entries)
        ordered: List[_CacheKey] = []
        visiting: Set[_CacheKey] = set()

        def visit(cache_key: _CacheKey) -> None:
            if cache_key not in pending or cache_key in visiting:
                return
            visiting.add(cache_key)
            for dependency in sorted(self._dependencies.get(cache_key, ()),
                                     key=lambda entry: entry[0].name):
                visit(dependency)
            visiting.discard(cache_key)
            pending.discard(cache_key)
            ordered.append(cache_key)

        for cache_key in sorted(entries, key=lambda entry: entry[0].name):
            visit(cache_key)
        return ordered

    def __len__(self) -> int:
        return len(self._cache)
