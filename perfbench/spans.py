"""In-memory spans and counters recorded around the program's public calls.

The benchmark measures layers from the outside: :func:`install` replaces a
fixed set of public functions and methods of the ``repro`` package with
wrappers that open a span (name, start, end, parent, request id) and add
counts at the same boundary.  Nothing in the package itself changes; the
original attributes are restored by :meth:`Tracer.uninstall`.

Spans nest per thread.  A layer's *self time* is its span's duration minus
the durations of its direct child spans (children of one span never
overlap, because each thread runs one call stack).
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Engine key name -> layer span name of its build / refresh.
KEY_LAYERS = {
    "symbolic-ranges": "rangeanalysis.ra",
    "global-ranges": "core.gr",
    "local-ranges": "core.lr",
    "locations": "core.locations",
    "rbaa": "core.rbaa_build",
    "basic": "aliases.basic_build",
    "andersen": "aliases.andersen",
    "steensgaard": "aliases.steensgaard",
    "scev": "aliases.scev",
    "callgraph": "analysis.callgraph",
    "check-bounds": "clients.bounds",
    "parallel-loops": "clients.parallel",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "children")

    def __init__(self, name: str, start: float, parent: int,
                 request: Any) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.children = 0.0


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request(self) -> Any:
        return getattr(self._local, "request", None)

    @request.setter
    def request(self, value: Any) -> None:
        self._local.request = value

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        record = Span(name, time.perf_counter(), parent, self.request)
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            if parent >= 0:
                self.spans[parent].children += record.end - record.start

    def record(self, name: str, start: float, end: float, request: Any) -> None:
        """Add a finished top-level span (for calls that do not nest)."""
        span = Span(name, start, -1, request)
        span.end = end
        with self._lock:
            self.spans.append(span)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- patching --------------------------------------------------------------
    def wrap(self, owner: Any, attribute: str, name: Any,
             counter: Optional[Callable[..., None]] = None) -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper.

        ``name`` is the span name, or a callable ``(args, kwargs) -> name``
        returning ``None`` to skip the span for that call.  ``counter`` is
        called as ``counter(tracer, result, args, kwargs)`` after the call.
        """
        own = not isinstance(owner, type) or attribute in owner.__dict__
        function = getattr(owner, attribute)
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_name = name(args, kwargs) if callable(name) else name
            if span_name is None:
                result = function(*args, **kwargs)
            else:
                with tracer.span(span_name):
                    result = function(*args, **kwargs)
            if counter is not None:
                counter(tracer, result, args, kwargs)
            return result

        wrapper.__wrapped__ = function  # type: ignore[attr-defined]
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, function if own else None))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            if original is None:  # the wrapper shadowed an inherited method
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Span name -> summed self time in seconds."""
        totals: Dict[str, float] = {}
        for record in self.spans:
            own = (record.end - record.start) - record.children
            totals[record.name] = totals.get(record.name, 0.0) + own
        return totals

    def write(self, path: str) -> None:
        """Write every span as JSON lines (start/end relative to the first)."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, record in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": record.name,
                    "start_s": round(record.start - origin, 9),
                    "end_s": round(record.end - origin, 9),
                    "parent": record.parent, "request": record.request},
                    sort_keys=True) + "\n")


def _count_tokens(tracer: Tracer, tokens: Any, args: Any, kwargs: Any) -> None:
    tracer.count("frontend.tokens", len(tokens))


def _count_prepared(tracer: Tracer, result: Any, args: Any, kwargs: Any) -> None:
    tracer.count("transforms.promoted", result.promoted_allocas)
    tracer.count("transforms.sigmas", result.sigmas_created)
    tracer.count("ir.instructions", args[0].instruction_count())


def _manager_span(args: Any, kwargs: Any) -> Optional[str]:
    manager, key = args[0], args[1]
    if manager.cached(key, **kwargs) is not None:
        return None
    return KEY_LAYERS.get(key.name, "engine.build." + key.name)


def install(tracer: Tracer) -> Tracer:
    """Wrap the public layer entry points of ``repro`` with spans."""
    from repro.aliases.andersen import AndersenAliasAnalysis
    from repro.aliases.basic import BasicAliasAnalysis
    from repro.clients.bounds import BoundsCheckAnalysis
    from repro.clients.parallelize import LoopParallelismAnalysis
    from repro.core.global_analysis import GlobalRangeAnalysis
    from repro.core.local_analysis import LocalRangeAnalysis
    from repro.core.locations import LocationTable
    from repro.core.rbaa import RBAAAliasAnalysis
    from repro.engine.manager import AnalysisManager
    from repro.frontend import driver
    from repro.frontend.cparser import Parser
    from repro.rangeanalysis.symbolic_ra import SymbolicRangeAnalysis
    from repro.service import session
    from repro.transforms import pipeline

    tracer.wrap(driver, "tokenize", "frontend.lex", _count_tokens)
    tracer.wrap(Parser, "parse_translation_unit", "frontend.parse")
    tracer.wrap(driver, "analyze", "frontend.sema")
    tracer.wrap(driver, "lower_translation_unit", "frontend.lower")
    tracer.wrap(driver, "prepare_module", "transforms.prepare", _count_prepared)
    tracer.wrap(pipeline, "promote_allocas", "transforms.mem2reg")
    tracer.wrap(pipeline, "simplify_module", "transforms.simplify")
    tracer.wrap(pipeline, "build_essa", "transforms.essa")
    tracer.wrap(pipeline, "verify_module", "transforms.verify")
    tracer.wrap(session, "print_function", "ir.print")

    tracer.wrap(AnalysisManager, "get", _manager_span)
    tracer.wrap(AnalysisManager, "apply_function_edit", "engine.edit")
    for cls, layer in ((SymbolicRangeAnalysis, "rangeanalysis.ra"),
                       (GlobalRangeAnalysis, "core.gr"),
                       (LocalRangeAnalysis, "core.lr"),
                       (LocationTable, "core.locations"),
                       (RBAAAliasAnalysis, "core.rbaa_build"),
                       (BasicAliasAnalysis, "aliases.basic_build"),
                       (AndersenAliasAnalysis, "aliases.andersen"),
                       (BoundsCheckAnalysis, "clients.bounds"),
                       (LoopParallelismAnalysis, "clients.parallel")):
        tracer.wrap(cls, "refresh_function", layer)
    tracer.wrap(RBAAAliasAnalysis, "query_many", "core.query")
    tracer.wrap(BasicAliasAnalysis, "query_many", "aliases.basic_query")
    tracer.wrap(AndersenAliasAnalysis, "query_many", "aliases.andersen_query")
    tracer.wrap(BoundsCheckAnalysis, "module_report", "clients.bounds")
    tracer.wrap(LoopParallelismAnalysis, "module_report", "clients.parallel")
    return tracer
