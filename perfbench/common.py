"""Shared helpers: statistics, memory readings, layer metrics, the result line."""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: Where runs leave traces, counter snapshots and scratch stores (ignored by git).
OUTPUT_DIR = ".perfbench"

#: The served workloads' worker count cap and connection count.
CONNECTIONS = 2

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Every per-layer metric a traced run reports, with its unit.  Times (``_s``)
#: are self times in seconds and counts are totals, both per *unit of work*
#: of the workload (see README.md); layers a workload does not exercise read 0.
LAYER_METRICS: Dict[str, str] = {
    "frontend.lex_s": "s", "frontend.parse_s": "s", "frontend.sema_s": "s",
    "frontend.lower_s": "s", "frontend.tokens": "count",
    "transforms.mem2reg_s": "s", "transforms.simplify_s": "s",
    "transforms.essa_s": "s", "transforms.verify_s": "s",
    "transforms.promoted": "count", "transforms.sigmas": "count",
    "ir.instructions": "count", "ir.print_s": "s",
    "rangeanalysis.ra_s": "s", "rangeanalysis.ra_steps": "count",
    "core.gr_s": "s", "core.gr_steps": "count",
    "core.lr_s": "s", "core.lr_steps": "count",
    "core.rbaa_build_s": "s", "core.query_s": "s", "core.queries": "count",
    "core.answered_by_global": "count", "core.answered_by_local": "count",
    "core.outcome_memo_hit_ratio": "ratio",
    "aliases.basic_query_s": "s", "aliases.andersen_s": "s",
    "aliases.andersen_steps": "count",
    "clients.bounds_s": "s", "clients.parallel_s": "s",
    "clients.accesses": "count", "clients.loops": "count",
    "symbolic.intern_size": "count", "symbolic.compare_hit_ratio": "ratio",
    "symbolic.difference_hit_ratio": "ratio", "symbolic.evictions": "count",
    "engine.edit_s": "s", "engine.builds": "count", "engine.hits": "count",
    "engine.misses": "count", "engine.refreshes": "count",
    "engine.invalidations": "count", "engine.reseeded_nodes": "count",
    "service.handle_s.edit": "s", "service.handle_s.values": "s",
    "service.handle_s.query": "s", "service.handle_s.query_many": "s",
    "service.handle_s.query_function": "s", "service.handle_s.range": "s",
    "service.handle_s.check_bounds": "s",
    "service.handle_s.parallel_loops": "s",
    "service.session_memo_hit_ratio": "ratio",
    "service.inproc_p50_ms": "ms", "service.overhead_p50_ms": "ms",
    "service.store_hits": "count", "service.store_misses": "count",
    "service.store_hit_ratio": "ratio", "service.store_bytes": "bytes",
    "service.warm_solver_steps": "count", "service.retries": "count",
    "service.shed": "count",
    "session.read_p50_ms": "ms", "session.read_p95_ms": "ms",
    "trace.overhead_pct": "%",
}

#: Span name -> per-layer time metric (several span names may share one).
SPAN_METRICS: Dict[str, str] = {
    "frontend.lex": "frontend.lex_s", "frontend.parse": "frontend.parse_s",
    "frontend.sema": "frontend.sema_s", "frontend.lower": "frontend.lower_s",
    "transforms.mem2reg": "transforms.mem2reg_s",
    "transforms.simplify": "transforms.simplify_s",
    "transforms.essa": "transforms.essa_s",
    "transforms.verify": "transforms.verify_s",
    "ir.print": "ir.print_s", "rangeanalysis.ra": "rangeanalysis.ra_s",
    "core.gr": "core.gr_s", "core.lr": "core.lr_s",
    "core.rbaa_build": "core.rbaa_build_s", "core.query": "core.query_s",
    "aliases.basic_query": "aliases.basic_query_s",
    "aliases.andersen": "aliases.andersen_s",
    "aliases.andersen_query": "aliases.andersen_s",
    "clients.bounds": "clients.bounds_s",
    "clients.parallel": "clients.parallel_s",
    "engine.edit": "engine.edit_s",
}

#: Solver problem / engine key name -> per-layer step metric.
STEP_METRICS: Dict[str, str] = {
    "symbolic-ranges": "rangeanalysis.ra_steps",
    "global-ranges": "core.gr_steps",
    "local-ranges": "core.lr_steps",
    "andersen": "aliases.andersen_steps",
}


def use_source_tree() -> str:
    """Put the checkout's ``src`` on ``sys.path``; exit 2 when it is missing."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    source = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {source}", file=sys.stderr)
        raise SystemExit(2)
    if source not in sys.path:
        sys.path.insert(0, source)
    return source


def setup_repeats(smoke: bool) -> int:
    return 1 if smoke else SETUP_REPEATS


def source_digest() -> str:
    """Digest of the package and benchmark sources, so that counter
    snapshots are only compared between runs of the same code."""
    import hashlib

    bench = os.path.dirname(os.path.abspath(__file__))
    hasher = hashlib.sha256()
    for root in (os.path.join(os.path.dirname(bench), "src"), bench):
        for directory, _, files in sorted(os.walk(root)):
            for name in sorted(files):
                if name.endswith((".py", ".json")):
                    path = os.path.join(directory, name)
                    hasher.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as handle:
                        hasher.update(handle.read())
    return hasher.hexdigest()[:16]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (``fraction`` in (0, 1])."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(fraction * len(ordered))))
    return ordered[rank - 1]


def ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def own_peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_tree(pid: int) -> List[int]:
    """``pid`` and all its live descendants (from ``/proc``)."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        tree.append(current)
        frontier.extend(children.get(current, ()))
    return tree


def tree_peak_rss_mb(pid: int) -> float:
    """Summed ``VmHWM`` of ``pid`` and its descendants, in MiB."""
    total_kb = 0
    for member in process_tree(pid):
        try:
            with open(f"/proc/{member}/status", "r", encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def symbolic_snapshot() -> Dict[str, int]:
    """Process-global symbolic-layer counters (intern table + order memos)."""
    from repro.symbolic import compare_memo_stats, intern_table_size

    memos = compare_memo_stats()
    return {"intern_size": intern_table_size(),
            "compare_hits": memos["compare"]["hits"],
            "compare_misses": memos["compare"]["misses"],
            "difference_hits": memos["difference"]["hits"],
            "difference_misses": memos["difference"]["misses"],
            "evictions": (memos["compare"]["evictions"]
                          + memos["difference"]["evictions"])}


def symbolic_metrics(before: Dict[str, int], after: Dict[str, int],
                     units: int) -> Dict[str, float]:
    """The ``symbolic.*`` layer metrics between two snapshots."""
    delta = {key: after[key] - before[key] for key in after}
    return {
        "symbolic.intern_size": delta["intern_size"] / units,
        "symbolic.compare_hit_ratio": ratio(delta["compare_hits"],
                                            delta["compare_misses"]),
        "symbolic.difference_hit_ratio": ratio(delta["difference_hits"],
                                               delta["difference_misses"]),
        "symbolic.evictions": delta["evictions"] / units,
    }


def span_metrics(self_times: Dict[str, float], units: int) -> Dict[str, float]:
    """Per-unit self times of the traced layers, plus per-op handle times."""
    metrics: Dict[str, float] = {}
    for span, seconds in self_times.items():
        name = SPAN_METRICS.get(span)
        if name is None and span.startswith("service.handle."):
            name = "service.handle_s." + span[len("service.handle."):]
        if name is not None and name in LAYER_METRICS:
            metrics[name] = metrics.get(name, 0.0) + seconds / units
    return metrics


def median_by_name(units: List[Dict[str, float]]) -> Dict[str, float]:
    """Per metric name, the median over units of work (absent counts as 0)."""
    names = sorted({name for values in units for name in values})
    return {name: median([values.get(name, 0.0) for values in units])
            for name in names}


def layer_result(values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric (0 where the workload leaves it unexercised)."""
    unknown = sorted(set(values) - set(LAYER_METRICS))
    if unknown:
        raise KeyError(f"unlisted per-layer metrics: {unknown}")
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in LAYER_METRICS.items()}


def emit(correct: bool, attempted: int, failed: int,
         metrics: Dict[str, Dict[str, Any]]) -> None:
    """Print the result line (always the last line of standard output)."""
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics},
                     sort_keys=False), flush=True)


def write_samples(workload: str, seed: int, samples: Any) -> None:
    """Keep a run's raw timing samples next to its spans, for later analysis."""
    with open(output_path(f"samples-{workload}-seed{seed}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(samples, handle)


def end_to_end(work_per_s: float, p75_ms: float, p90_ms: float,
               peak_rss_mb: float, setup_s: float) -> Dict[str, Dict[str, Any]]:
    return {"work_per_s": {"value": work_per_s, "unit": "1/s"},
            "p75_ms": {"value": p75_ms, "unit": "ms"},
            "p90_ms": {"value": p90_ms, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            "setup_s": {"value": setup_s, "unit": "s"}}


def output_path(name: str) -> str:
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    return os.path.join(OUTPUT_DIR, name)


def check_counter_snapshot(workload: str, seed: int, smoke: bool,
                           counts: Dict[str, Any],
                           reference: Optional[Dict[str, Any]]) -> List[str]:
    """Compare a deterministic counter snapshot with its twin(s).

    ``reference`` is the same unit of work re-executed in this run; the
    snapshot is also compared with the one an earlier run of the same
    sources on the same seed left in the output directory, then stored.
    """
    problems = []
    if reference is not None and reference != counts:
        problems.append(_diff("re-executed unit", reference, counts))
    tag = "smoke" if smoke else "full"
    path = output_path(
        f"counters-{workload}-{tag}-seed{seed}-{source_digest()}.json")
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            previous = json.load(handle)
        if previous != counts:
            problems.append(_diff("earlier run", previous, counts))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(counts, handle, sort_keys=True, indent=1)
    return problems


def _diff(label: str, expected: Dict[str, Any], actual: Dict[str, Any]) -> str:
    keys: Iterable[str] = sorted(set(expected) | set(actual))
    changed = [key for key in keys if expected.get(key) != actual.get(key)]
    return f"counter snapshot differs from the {label}: {changed}"
