"""``session_edits``: one in-process ``AnalysisSession`` absorbing edits.

Mid-size suite programs are loaded (and each warmed by one read burst) in
set-up.  The timed window then replays seeded ``edit_scenario`` steps
through ``handle_payload``: every program walks its scenario forward
(step 1..E) and back to step 0, and every ``edit`` is followed by a read
burst on the edited function (``values``, ``query_function``,
``query_many``, ``check_bounds``, ``parallel_loops``, ``range``).  The walk
repeats while time remains, so every visited state is one of the scenario's
E + 1 sources and the correctness check stays bounded: each read answer must
equal the answer of a fresh session loaded with that state's source.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
import time
from typing import Any, Dict, List, Tuple

import common
import served
import spans

#: Mid-size suite programs (10-12 idiom instances, 300-370 IR instructions).
PROGRAMS = ("cfrac", "unix-tbl", "bison", "archie")
EDITS = 8
SMOKE_PROGRAMS = ("allroots",)
SMOKE_EDITS = 2
#: Pairs per ``query_many`` in a read burst.
BURST_PAIRS = 4
#: A traced run drives the served probe for ``seconds / PROBE_SHARE``.
PROBE_SHARE = 5
#: Per-layer metrics a traced run takes from the served probe.
PROBE_METRICS = (
    "service.inproc_p50_ms", "service.overhead_p50_ms", "service.store_hits",
    "service.store_misses", "service.store_hit_ratio", "service.store_bytes",
    "service.warm_solver_steps", "service.retries", "service.shed")


class Replay:
    """The session, its scenarios and the request log of one run."""

    def __init__(self, seed: int, smoke: bool) -> None:
        from repro.benchgen import SUITE_PROGRAMS, edit_scenario
        from repro.service import AnalysisSession

        self.seed = seed
        names = SMOKE_PROGRAMS if smoke else PROGRAMS
        edits = SMOKE_EDITS if smoke else EDITS
        configs = {program.name: program.config() for program in SUITE_PROGRAMS}
        self.scenarios = {name: edit_scenario(configs[name], edits=edits,
                                              seed=seed) for name in names}
        self.session = AnalysisSession()
        self.tracer = None
        self.edit_ms: List[float] = []
        self.read_ms: List[float] = []
        #: (program, state, payload json) -> the first answer to that read.
        #: Later repetitions are only compared with it (after their latency
        #: is taken), so the log stays small however long the window is.
        self.answers: Dict[Tuple[str, int, str], Dict[str, Any]] = {}
        self.unstable: List[str] = []
        self.edit_failures: List[str] = []
        self.reseeded = 0
        self.accesses = 0
        self.loops = 0
        self.requests = 0
        for name, scenario in self.scenarios.items():
            self.handle({"op": "load", "v": 1, "name": name,
                         "source": scenario.steps[0].source})
            self.burst(name, 0, scenario.steps[1].function)

    def handle(self, payload: Dict[str, Any]) -> Tuple[Dict[str, Any], float]:
        from repro.service import handle_payload

        self.requests += 1
        started = time.perf_counter()
        if self.tracer is None:
            response = handle_payload(self.session, payload)
        else:
            self.tracer.request = self.requests
            with self.tracer.span("service.handle." + payload["op"]):
                response = handle_payload(self.session, payload)
        return response, (time.perf_counter() - started) * 1e3

    def read(self, name: str, state: int, payload: Dict[str, Any]) -> Dict[str, Any]:
        response, elapsed = self.handle(payload)
        self.read_ms.append(elapsed)
        key = (name, state, json.dumps(payload, sort_keys=True))
        first = self.answers.setdefault(key, response)
        if first is not response and first != response:
            self.unstable.append(f"{name} state {state} {key[2][:120]}")
        return response

    def burst(self, name: str, state: int, function: str) -> None:
        """The read burst on one edited function at one scenario state."""
        from repro.benchgen import stable_seed
        from repro.service import make_request

        rng = random.Random(stable_seed(
            f"perfbench/session_edits/{self.seed}/{name}/{state}/{function}"))
        where = {"module": name, "function": function}
        values = self.read(name, state, make_request("values", **where))
        listed = values.get("values", [])
        pointers = [value["name"] for value in listed if value["pointer"]]
        integers = [value["name"] for value in listed
                    if value["op"] == "argument" and not value["pointer"]]
        self.read(name, state, make_request("query_function", analysis="rbaa",
                                            **where))
        if len(pointers) >= 2:
            pairs = [rng.sample(pointers, 2) for _ in range(BURST_PAIRS)]
            self.read(name, state, make_request(
                "query_many", analysis="andersen", pairs=pairs, **where))
        bounds = self.read(name, state, make_request("check_bounds", **where))
        loops = self.read(name, state, make_request("parallel_loops", **where))
        self.accesses += bounds.get("summary", {}).get("accesses", 0)
        self.loops += loops.get("summary", {}).get("loops", 0)
        if integers:
            self.read(name, state, make_request(
                "range", value=rng.choice(integers), **where))

    def walk(self, name: str) -> None:
        """One program's scenario forward to step E and back to step 0."""
        steps = self.scenarios[name].steps
        last = len(steps) - 1
        state = 0
        for target in list(range(1, last + 1)) + list(range(last - 1, -1, -1)):
            function = steps[max(state, target)].function
            response, elapsed = self.handle({"op": "edit", "v": 1, "name": name,
                                             "source": steps[target].source})
            self.edit_ms.append(elapsed)
            if (not response.get("ok") or response.get("reloaded")
                    or response.get("changed") != [function]):
                self.edit_failures.append(
                    f"{name} step {state}->{target}: {str(response)[:200]}")
            for impact in response.get("impacts", []):
                self.reseeded += sum(impact.get("reseeded", {}).values())
            state = target
            self.burst(name, state, function)

    def cycle(self) -> None:
        for name in self.scenarios:
            self.walk(name)

    def counters(self) -> Dict[str, float]:
        """Cumulative deterministic counters of the session so far."""
        totals: Dict[str, float] = {"engine.reseeded_nodes": self.reseeded,
                                    "clients.accesses": self.accesses,
                                    "clients.loops": self.loops,
                                    "memo_hits": 0, "memo_misses": 0,
                                    "outcome_hits": 0, "outcome_misses": 0}
        for name in self.scenarios:
            stats = self.session.stats(name)
            for key in ("builds", "hits", "misses", "refreshes", "invalidations"):
                totals["engine." + key] = (totals.get("engine." + key, 0)
                                           + stats["engine"][key])
            for analysis, steps in stats["solver_steps_by_analysis"].items():
                metric = common.STEP_METRICS.get(analysis)
                if metric is not None:
                    totals[metric] = totals.get(metric, 0) + steps
            for memo in stats["memos"].values():
                totals["memo_hits"] += memo["hits"]
                totals["memo_misses"] += memo["misses"]
            outcome = stats.get("rbaa_outcome_memo", {})
            totals["outcome_hits"] += outcome.get("hits", 0)
            totals["outcome_misses"] += outcome.get("misses", 0)
            figure14 = stats.get("figure14", {})
            for key in ("queries", "answered_by_global", "answered_by_local"):
                totals["core." + key] = (totals.get("core." + key, 0)
                                         + figure14.get(key, 0))
        return totals


def verify(replay: Replay) -> Tuple[int, int]:
    """Replay every distinct read on a fresh session per visited state.

    Returns ``(attempted, failed)`` over the window's edits and reads.
    """
    from repro.service import AnalysisSession, handle_payload

    problems = ([f"edit failed: {message}" for message in replay.edit_failures]
                + [f"answer changed between repetitions: {message}"
                   for message in replay.unstable])
    states = itertools.groupby(sorted(replay.answers.items()),
                               key=lambda item: item[0][:2])
    for (name, state), group in states:
        session = AnalysisSession()
        handle_payload(session, {
            "op": "load", "v": 1, "name": name,
            "source": replay.scenarios[name].steps[state].source})
        for (_, _, payload), answer in group:
            expected = handle_payload(session, json.loads(payload))
            if answer != expected or not answer.get("ok"):
                problems.append(f"{name} state {state} {payload[:120]} "
                                f"differs from a fresh session")
    for problem in problems[:10]:
        print(f"session_edits: {problem}", file=sys.stderr)
    return len(replay.edit_ms) + len(replay.read_ms), len(problems)


def run(seed: int, seconds: float, traced: bool, smoke: bool) -> None:
    setups = []
    for _ in range(common.setup_repeats(smoke)):
        started = time.perf_counter()
        replay = Replay(seed, smoke)
        setups.append(time.perf_counter() - started)
    replay.edit_ms.clear()
    replay.read_ms.clear()
    replay.answers.clear()

    # Whole cycles (every program walked once) are the unit of work.  A
    # traced run alternates untraced and traced cycles.
    cycles: List[Dict[str, Any]] = []
    minimum = 4 if traced else 1
    deadline = time.perf_counter() + seconds
    while len(cycles) < minimum or time.perf_counter() < deadline:
        with_spans = traced and len(cycles) % 2 == 1
        record: Dict[str, Any] = {"traced": with_spans,
                                  "reads_from": len(replay.read_ms),
                                  "edits_from": len(replay.edit_ms)}
        if with_spans:
            replay.tracer = spans.install(spans.Tracer())
            record["counters_before"] = replay.counters()
            record["symbolic_before"] = common.symbolic_snapshot()
        cycle_started = time.perf_counter()
        replay.cycle()
        record["seconds"] = time.perf_counter() - cycle_started
        record["reads_to"] = len(replay.read_ms)
        record["edits_to"] = len(replay.edit_ms)
        if with_spans:
            record["symbolic_after"] = common.symbolic_snapshot()
            replay.tracer.uninstall()
            record["tracer"] = replay.tracer
            replay.tracer = None
            record["counters_after"] = replay.counters()
        cycles.append(record)
    peak_rss = common.own_peak_rss_mb()

    attempted, failed = verify(replay)
    problems: List[str] = []
    if not traced:
        common.write_samples("session_edits", seed, [
            {"edit_ms": replay.edit_ms[c["edits_from"]:c["edits_to"]],
             "read_ms": replay.read_ms[c["reads_from"]:c["reads_to"]],
             "seconds": c["seconds"]} for c in cycles])
        metrics = common.end_to_end(
            work_per_s=1e3 * (len(replay.edit_ms) + len(replay.read_ms))
            / (sum(replay.edit_ms) + sum(replay.read_ms)),
            p75_ms=common.percentile(replay.edit_ms, 0.75),
            p90_ms=common.percentile(replay.edit_ms, 0.90),
            peak_rss_mb=peak_rss, setup_s=common.median(setups))
    else:
        traced_cycles = [cycle for cycle in cycles if cycle["traced"]]
        plain_cycles = [cycle for cycle in cycles if not cycle["traced"]]
        snapshots = [_cycle_counts(cycle) for cycle in traced_cycles]
        problems += common.check_counter_snapshot(
            "session_edits", seed, smoke, snapshots[0], snapshots[1])
        values = _layer_values(traced_cycles, snapshots)
        plain_reads = [ms for cycle in plain_cycles
                       for ms in replay.read_ms[cycle["reads_from"]:cycle["reads_to"]]]
        values["session.read_p50_ms"] = common.percentile(plain_reads, 0.50)
        values["session.read_p95_ms"] = common.percentile(plain_reads, 0.95)
        values["trace.overhead_pct"] = 100.0 * (
            common.median([cycle["seconds"] for cycle in traced_cycles])
            / common.median([cycle["seconds"] for cycle in plain_cycles]) - 1.0)
        # The socket front end and the result store are measured by a short
        # warm-restart probe of the same service (see served.measure).
        probe = served.measure(True, seed, max(1.0, seconds / PROBE_SHARE),
                               True, smoke, repeats=1)
        attempted += probe["attempted"]
        failed += probe["failed"]
        problems += probe["problems"]
        values.update({name: value for name, value in probe["values"].items()
                       if name in PROBE_METRICS})
        metrics = common.layer_result(values)
        traced_cycles[0]["tracer"].write(
            common.output_path(f"spans-session_edits-seed{seed}.jsonl"))
    for problem in problems:
        print(f"session_edits: {problem}", file=sys.stderr)
    common.emit(failed == 0 and not problems, attempted, failed, metrics)


def _cycle_counts(cycle: Dict[str, Any]) -> Dict[str, float]:
    """Deterministic counts of one traced cycle (counter deltas + tracer)."""
    before, after = cycle["counters_before"], cycle["counters_after"]
    counts = {name: after[name] - before.get(name, 0) for name in after}
    counts.update(cycle["tracer"].counts)
    return dict(sorted(counts.items()))


def _layer_values(traced_cycles: List[Dict[str, Any]],
                  snapshots: List[Dict[str, float]]) -> Dict[str, float]:
    per_cycle = []
    for cycle, counts in zip(traced_cycles, snapshots):
        counts = dict(counts)
        values = {"core.outcome_memo_hit_ratio": common.ratio(
                      counts.pop("outcome_hits"), counts.pop("outcome_misses")),
                  "service.session_memo_hit_ratio": common.ratio(
                      counts.pop("memo_hits"), counts.pop("memo_misses"))}
        values.update({name: float(value) for name, value in counts.items()})
        values.update(common.span_metrics(cycle["tracer"].self_times(), 1))
        values.update(common.symbolic_metrics(cycle["symbolic_before"],
                                              cycle["symbolic_after"], 1))
        per_cycle.append(values)
    return common.median_by_name(per_cycle)
