"""The serving layer's one driver: loadtest, fault drill and edit replay.

``python -m repro.service.loadtest`` replays deterministic traffic against
the service (client scripts seeded from :func:`repro.benchgen.stable_seed`,
edit scenarios from :func:`repro.benchgen.edit_scenario`) in one of three
modes.  Every mode writes one record of the same family — a header
(record schema, protocol, result-schema and generator versions, config,
corpus digests), the mode's runs, named boolean ``gates`` and a volatile
``run`` block — and ``--check`` exits 2 unless every gate holds.
Wall-time numbers are reported, never gated: their keys carry the
``_seconds``/``_per_second`` suffixes
:func:`repro.evaluation.parallel.strip_volatile` removes.

**Plain** (the default; ``BENCH_service.json``) drives the asyncio TCP
front end (:mod:`repro.service.server`) with N concurrent closed-loop
clients, three times over the same scripts: ``direct`` (no store),
``cold`` (a fresh persistent store, :mod:`repro.service.store`) and
``warm`` (a brand-new server on that store).  Nothing is retried.  Gates:
every response — loads, queries, ranges, value listings, sweeps and the
scripted error requests — is bit-identical to what a serial in-process
:class:`~repro.service.session.AnalysisSession` answers, at any
worker/client count and under the front end's query coalescing; the
deterministic subset of each module's ``stats`` (:func:`stats_gate_view`)
equals the serial session's; and the warm run shows zero store misses and
finishes with every module unmaterialised at ``solver_steps == 0`` — the
restarted server answered everything without compiling or solving.

**Chaos** (``--chaos --chaos-seed N``; ``BENCH_chaos.json``) is a seeded
fault drill (:mod:`repro.service.chaos`).  A fault-free *prime* run warms
the store with every payload the drill sends; store entries are then
corrupted per the plan, and the *chaos* run replays the same clients
against a server with admission control while a worker is killed
mid-traffic and client lines are torn.  Probe phases then wedge a victim
request, burst past the admission bound and probe deadlines.  Clients
retry transient faults with seeded backoff.  Gates: every request ends in
a structured envelope, post-fault answers equal the serial session's,
respawns equal the planned kills, the killed shard answers again with
zero bootstrap solver steps, deadlines hold both cooperatively and by the
front-end backstop, the burst is shed and then fully recovered, store
corruption is survived and torn lines stay isolated.

**Edits** (``--edits``; ``BENCH_edits.json``) replays each program's edit
scenario two ways.  *Warm*: one resident session — in process, or behind
a real daemon or socket-server subprocess (``--transport``) — absorbs
every edit through the function-granular incremental path and answers a
query sweep from warm state.  *Cold*: every step rebuilds the module and
all analyses from scratch.  Each step records both paths' solver steps,
split out for the callgraph-scoped fixed points (GR, Andersen,
Steensgaard), plus each edit's re-seed telemetry.  Gates: warm and cold
answers are identical at every step, and on every edit the warm path
re-runs strictly fewer solver steps than a cold rebuild, both overall and
on the callgraph-scoped fixed points.

Usage::

    python -m repro.service.loadtest --quick --workers 2 --clients 4 \\
        --store .service-store --check
    python -m repro.service.loadtest --quick --chaos --chaos-seed 1 --check
    python -m repro.service.loadtest --quick --edits --transport daemon --check
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import math
import random
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, ContextManager, Dict, List, Optional, Sequence, Tuple

from ..benchgen import build_program, digest_index, edit_scenario, stable_seed
from ..benchgen.manifest import GENERATOR_VERSION
from ..benchgen.suites import SUITE_PROGRAMS
from ..evaluation.reporting import to_canonical_json
from .chaos import (
    VICTIM_REQUEST_ID,
    ChaosController,
    FaultPlan,
    corrupt_store_entries,
    generate_plan,
)
from .client import (
    DaemonClient,
    InProcessClient,
    RetryPolicy,
    ServiceClient,
    SocketClient,
)
from .pool import WorkerPool
from .protocol import (
    DEADLINE_EXCEEDED,
    PROTOCOL_VERSION,
    encode_line,
    handle_payload,
    make_request,
)
from .server import ServiceServer
from .session import AnalysisSession
from .store import RESULT_SCHEMA_VERSION

__all__ = ["DEFAULT_PROGRAMS", "TRANSPORTS", "run_plain", "run_chaos",
           "run_edits", "edit_program", "edit_gates", "main"]

#: The driver's corpus unless ``--programs`` names another (all modes).
DEFAULT_PROGRAMS = ("allroots", "fixoutput", "anagram", "ft")

#: Analyses the scripted queries exercise.
SCRIPT_ANALYSES = ("rbaa", "basic")

#: Non-default access-size spellings the scripts mix in.
_SIZE_CHOICES = (None, 1, 4, 8, "default")


@dataclass
class _Function:
    name: str
    pointers: List[str]
    int_args: List[str]


@dataclass
class _Program:
    name: str
    source: str
    functions: List[_Function]

    @property
    def query_functions(self) -> List[_Function]:
        return [fn for fn in self.functions if len(fn.pointers) >= 2]

    @property
    def range_functions(self) -> List[_Function]:
        return [fn for fn in self.functions if fn.int_args]


def build_corpus(programs: Sequence[str]) -> List[_Program]:
    """Generate the corpus and scout its queryable names (a helper client
    compiles each program once so scripts can address real SSA values)."""
    scout = InProcessClient()
    corpus: List[_Program] = []
    for name in programs:
        source = build_program(name).source
        loaded = scout.load(name, source)
        functions = []
        for fn_name in loaded.functions:
            values = scout.values(name, fn_name).values
            functions.append(_Function(
                name=fn_name,
                pointers=[v["name"] for v in values if v["pointer"]],
                int_args=[v["name"] for v in values
                          if v["op"] == "argument" and not v["pointer"]]))
        corpus.append(_Program(name=name, source=source, functions=functions))
    usable = [program for program in corpus if program.query_functions]
    dropped = sorted(set(p.name for p in corpus) - set(p.name for p in usable))
    if dropped:  # no silent shrinking of the corpus
        print(f"loadtest: dropping {dropped} (no function with 2+ pointers)",
              file=sys.stderr)
    return usable


def _query_fields(rng: random.Random, program: _Program) -> Dict[str, Any]:
    fn = rng.choice(program.query_functions)
    a, b = rng.sample(fn.pointers, 2)
    fields: Dict[str, Any] = {"module": program.name,
                              "analysis": rng.choice(SCRIPT_ANALYSES),
                              "function": fn.name, "a": a, "b": b}
    if rng.random() < 0.4:
        for key in ("size_a", "size_b"):
            size = rng.choice(_SIZE_CHOICES)
            if size != "default":
                fields[key] = size
    return fields


def _error_request(rng: random.Random, program: _Program,
                   request_id: str) -> Dict[str, Any]:
    """A scripted failure: deterministic envelopes are identity-gated too.

    Only error shapes that fail *before* any store access are scripted
    (unknown op/module/analysis, bad size, bad version) — an unknown value
    name would force a warm-store worker to materialise the module just to
    discover the name is bad, defeating the warm-run laziness gate.
    """
    fn = program.query_functions[0]
    kind = rng.randrange(5)
    if kind == 0:
        return make_request("frobnicate", id=request_id)
    if kind == 1:
        return make_request("query", id=request_id, module="ghost",
                            analysis="rbaa", function=fn.name,
                            a=fn.pointers[0], b=fn.pointers[1])
    if kind == 2:
        return make_request("query", id=request_id, module=program.name,
                            analysis="voodoo", function=fn.name,
                            a=fn.pointers[0], b=fn.pointers[1])
    if kind == 3:
        return make_request("query", id=request_id, module=program.name,
                            analysis="rbaa", function=fn.name,
                            a=fn.pointers[0], b=fn.pointers[1], size_a=-3)
    payload = make_request("query", id=request_id, module=program.name,
                           analysis="rbaa", function=fn.name,
                           a=fn.pointers[0], b=fn.pointers[1])
    payload["v"] = 99  # rejected with protocol_mismatch
    return payload


def client_script(index: int, corpus: Sequence[_Program],
                  requests: int) -> List[Dict[str, Any]]:
    """The deterministic request script of one closed-loop client."""
    rng = random.Random(stable_seed(f"service/loadtest/client/{index}"))
    script: List[Dict[str, Any]] = []
    for n in range(requests):
        request_id = f"c{index}.{n}"
        program = corpus[rng.randrange(len(corpus))]
        roll = rng.random()
        if roll < 0.60:
            script.append(make_request("query", id=request_id,
                                       **_query_fields(rng, program)))
        elif roll < 0.72:
            fn = rng.choice(program.query_functions)
            pairs = []
            for _ in range(rng.randint(2, 5)):
                a, b = rng.sample(fn.pointers, 2)
                if rng.random() < 0.3:
                    pairs.append([a, b, rng.choice(_SIZE_CHOICES),
                                  rng.choice(_SIZE_CHOICES)])
                else:
                    pairs.append([a, b])
            script.append(make_request(
                "query_many", id=request_id, module=program.name,
                analysis=rng.choice(SCRIPT_ANALYSES),
                function=fn.name, pairs=pairs))
        elif roll < 0.80:
            fn = rng.choice(program.functions)
            script.append(make_request("values", id=request_id,
                                       module=program.name, function=fn.name))
        elif roll < 0.86 and program.range_functions:
            fn = rng.choice(program.range_functions)
            script.append(make_request(
                "range", id=request_id, module=program.name,
                function=fn.name, value=rng.choice(fn.int_args)))
        elif roll < 0.94:
            fn = rng.choice(program.functions)
            script.append(make_request(
                "query_function", id=request_id, module=program.name,
                analysis="rbaa", function=fn.name, max_pairs=40))
        else:
            script.append(_error_request(rng, program, request_id))
    return script


def _load_payloads(corpus: Sequence[_Program]) -> List[Dict[str, Any]]:
    return [make_request("load", id=f"load.{program.name}",
                         name=program.name, source=program.source)
            for program in corpus]


def _stats_payloads(corpus: Sequence[_Program]) -> List[Dict[str, Any]]:
    return [make_request("stats", id=f"stats.{program.name}",
                         module=program.name) for program in corpus]


# -- serial oracle -------------------------------------------------------------

def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def serial_expectations(corpus: Sequence[_Program],
                        scripts: Sequence[Sequence[Dict[str, Any]]],
                        ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Replay every payload through one in-process session.

    Returns ``(expected_by_id, serial_stats_by_module)`` — the oracle the
    socket runs are gated against.  Responses are pure per-module
    functions of the (multiset of) requests, so the serial replay order
    does not have to match any particular socket interleaving.
    """
    session = AnalysisSession()
    expected: Dict[str, Any] = {}
    for payload in _load_payloads(corpus):
        expected[payload["id"]] = handle_payload(session, payload)
    for script in scripts:
        for payload in script:
            expected[payload["id"]] = handle_payload(session, payload)
    stats = {program.name: session.stats(program.name) for program in corpus}
    return expected, stats


def stats_gate_view(record: Dict[str, Any]) -> Dict[str, Any]:
    """The deterministic, interleaving-independent subset of one ``stats``.

    Excluded on purpose: engine get-level hits/misses (they count cache
    *lookups*, whose number depends on how the front end batched),
    ``symbolic_caches`` (process-global), and ``store`` (operational).
    """
    engine = record.get("engine", {})
    view: Dict[str, Any] = {
        "module": record.get("module"),
        "edits": record.get("edits"),
        "solver_steps": record.get("solver_steps"),
        "engine_builds": engine.get("builds"),
        "engine_invalidations": engine.get("invalidations"),
        "engine_refreshes": engine.get("refreshes"),
        "memos": record.get("memos"),
    }
    for key in ("figure14", "rbaa_outcome_memo"):
        if key in record:
            view[key] = record[key]
    return view


# -- one socket run ------------------------------------------------------------

#: Seconds of silence after which a request counts as hung.
HANG_SECONDS = 30.0


@dataclass
class RunResult:
    transcript: List[Tuple[str, Any]] = field(default_factory=list)
    stats: Dict[str, Any] = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)
    wall: float = 0.0
    batches: int = 0
    batched_queries: int = 0
    #: Ids of requests that never got an answer.
    hangs: List[str] = field(default_factory=list)
    #: The server's supervision/backpressure counters plus the clients'
    #: ``client_retries``.
    fault_stats: Dict[str, Any] = field(default_factory=dict)
    # Fault-plan runs only:
    truncated_resends: int = 0
    victim_response: Optional[Dict[str, Any]] = None
    controller: Optional[ChaosController] = None


async def _send(reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
                payload: Dict[str, Any], policy: RetryPolicy,
                result: RunResult) -> Optional[Dict[str, Any]]:
    """One request line exchanged, and resent while ``policy`` says so.

    A request that gets no answer — :data:`HANG_SECONDS` of silence or a
    dropped connection — is recorded in ``result.hangs`` and yields
    ``None``; the identity and terminal-answer gates then fail.
    """
    line = encode_line(payload).encode()
    attempt = 0
    while True:
        try:
            writer.write(line)
            await writer.drain()
            response = json.loads(await asyncio.wait_for(
                reader.readline(), timeout=HANG_SECONDS))
        except (asyncio.TimeoutError, ConnectionError, OSError, ValueError):
            result.hangs.append(payload.get("id"))
            return None
        delay = policy.backoff(response, attempt)
        if delay is None:
            return response
        await asyncio.sleep(delay)
        attempt += 1


async def _close(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
        pass


async def _run_client(host: str, port: int, script: Sequence[Dict[str, Any]],
                      policy: RetryPolicy, result: RunResult,
                      truncate_at: Optional[int] = None) -> None:
    """One closed-loop client over its own connection.

    At ordinal ``truncate_at`` (a fault plan's torn line; ``None`` without
    a plan) the client writes *half* the request with no newline, drops
    the connection ungracefully, reconnects and resends the full request —
    the server must treat the torn half-line as that connection's problem
    alone.  After an unanswered request the client reconnects and goes on.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for ordinal, payload in enumerate(script):
            if ordinal == truncate_at:
                line = json.dumps(payload, sort_keys=True)
                writer.write(line[:max(1, len(line) // 2)].encode())
                await writer.drain()
                writer.close()
                reader, writer = await asyncio.open_connection(host, port)
                result.truncated_resends += 1
            started = time.perf_counter()
            response = await _send(reader, writer, payload, policy, result)
            if response is None:
                writer.close()
                reader, writer = await asyncio.open_connection(host, port)
                continue
            result.latencies.append(time.perf_counter() - started)
            result.transcript.append((payload["id"], response))
    finally:
        await _close(writer)


async def _run_probes(server: ServiceServer, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter,
                      probes: Dict[str, List[Dict[str, Any]]],
                      policy: RetryPolicy, result: RunResult) -> None:
    """A fault plan's probe phases, after the scripted traffic."""
    host, port = server.host, server.port
    # Wedge the victim shard; the front-end backstop must answer the
    # victim long before the injected sleep releases.  The victim is never
    # retried: its first answer is the one the backstop gate judges.
    victim_reader, victim_writer = await asyncio.open_connection(host, port)
    victim = asyncio.create_task(_send(
        victim_reader, victim_writer, probes["victim"][0],
        RetryPolicy(attempts=0), result))
    await asyncio.sleep(0.3)  # let the victim reach the worker
    # Overload burst against the wedged shard, one connection each:
    # admissions beyond max_inflight are shed with ``overloaded``, and the
    # burst clients retry with backoff until the wedge clears.
    burst = RunResult()
    await asyncio.gather(*[_run_client(host, port, [payload], policy, burst)
                           for payload in probes["burst"]])
    result.transcript += burst.transcript
    result.hangs += burst.hangs
    result.victim_response = await victim
    victim_writer.close()
    # Cooperative deadlines on a healthy connection (the wedge has drained
    # by now — the burst completed through it), then post-failover answers
    # from the respawned shard.
    for payload in probes["deadline"] + probes["postkill"]:
        response = await _send(reader, writer, payload, policy, result)
        if response is not None:
            result.transcript.append((payload["id"], response))


async def _run_server(corpus: Sequence[_Program],
                      scripts: Sequence[Sequence[Dict[str, Any]]],
                      workers: int, store_root: Optional[str],
                      plan: Optional[FaultPlan] = None) -> RunResult:
    """One server lifetime: loads on a primer connection, the concurrent
    clients, a fault plan's probe phases, then per-module ``stats``.

    Without a plan the server runs with its defaults and a zero-attempt
    policy retries nothing.  With one, the pool injects the plan's worker
    latency, a :class:`ChaosController` fires its kill, the server bounds
    admissions and backstops deadlines early, and clients retry with
    seeded backoff.
    """
    result = RunResult()
    pool = WorkerPool(workers=workers, store_root=store_root,
                      chaos=dict(plan.latency) if plan else None)
    pool.assign([program.name for program in corpus])
    if plan is None:
        server = ServiceServer(pool)
        policy = RetryPolicy(attempts=0)
        truncate: Dict[int, int] = {}
    else:
        result.controller = ChaosController(pool, plan)
        server = ServiceServer(pool, max_inflight=CHAOS_MAX_INFLIGHT,
                               deadline_grace=CHAOS_DEADLINE_GRACE,
                               on_response=result.controller.on_response)
        policy = RetryPolicy(attempts=8, base_ms=50.0,
                             seed=f"service/chaos/retry/{plan.seed}")
        truncate = plan.truncate_clients
    await server.start()
    try:
        reader, writer = await asyncio.open_connection(server.host,
                                                       server.port)
        for payload in _load_payloads(corpus):  # journaled once acked
            response = await _send(reader, writer, payload, policy, result)
            if response is not None:
                result.transcript.append((payload["id"], response))
        # A plan's kill fires mid-traffic: its threshold sits past the
        # shard's load acks.
        started = time.perf_counter()
        await asyncio.gather(*[
            _run_client(server.host, server.port, script, policy, result,
                        truncate.get(index))
            for index, script in enumerate(scripts)])
        result.wall = time.perf_counter() - started
        if plan is not None:
            await _run_probes(server, reader, writer,
                              _probe_payloads(corpus, plan), policy, result)
        for payload in _stats_payloads(corpus):
            response = await _send(reader, writer, payload, policy, result)
            if response is not None:
                result.stats[payload["module"]] = response
        await _close(writer)
    finally:
        await server.stop()
    result.batches = server.batches
    result.batched_queries = server.batched_queries
    result.fault_stats = dict(server.fault_stats(),
                              client_retries=policy.stats())
    return result


def run_once(corpus: Sequence[_Program],
             scripts: Sequence[Sequence[Dict[str, Any]]],
             workers: int, store_root: Optional[str],
             plan: Optional[FaultPlan] = None) -> RunResult:
    return asyncio.run(_run_server(corpus, scripts, workers, store_root,
                                   plan))


# -- gating + reporting --------------------------------------------------------

def check_identity(result: RunResult,
                   expected: Dict[str, Any]) -> Dict[str, Any]:
    """Compare every answer with the serial oracle; a request that got no
    answer (``result.hangs``) is a mismatch with ``actual`` ``None``."""
    mismatches: List[Dict[str, Any]] = []
    answers = list(result.transcript) + [(request_id, None)
                                         for request_id in result.hangs]
    for request_id, actual in answers:
        want = expected.get(request_id)
        if actual is None or _canonical(want) != _canonical(actual):
            mismatches.append({"id": request_id, "expected": want,
                               "actual": actual})
    return {"checked": len(answers),
            "mismatches": len(mismatches),
            "first_mismatches": mismatches[:3]}


def _percentile(ordered: Sequence[float], fraction: float) -> float:
    if not ordered:
        return 0.0
    index = max(0, min(len(ordered) - 1,
                       math.ceil(fraction * len(ordered)) - 1))
    return ordered[index]


def _latency_report(result: RunResult) -> Dict[str, Any]:
    ordered = sorted(result.latencies)
    count = len(ordered)
    return {
        "requests": count,
        "wall_seconds": result.wall,
        "throughput_per_second": (count / result.wall) if result.wall else 0.0,
        "latency_p50_seconds": _percentile(ordered, 0.50),
        "latency_p95_seconds": _percentile(ordered, 0.95),
        "latency_p99_seconds": _percentile(ordered, 0.99),
        "latency_mean_seconds": (sum(ordered) / count) if count else 0.0,
        "latency_max_seconds": ordered[-1] if ordered else 0.0,
    }


def _store_views(result: RunResult) -> Dict[str, Dict[str, int]]:
    """Per-module snapshots of the (per-worker) store counters.

    Modules sharing a worker report the same underlying store object, so
    sums double-count — the gates only use zero/non-zero facts, which
    double counting cannot distort.
    """
    views: Dict[str, Dict[str, int]] = {}
    for module, envelope in sorted(result.stats.items()):
        store = envelope.get("store")
        if store:
            views[module] = {key: store[key] for key in
                             ("hits", "misses", "bypasses",
                              "corrupt_entries", "writes")}
    return views


def _run_report(result: RunResult, identity: Dict[str, Any],
                store_runs: bool) -> Dict[str, Any]:
    report = _latency_report(result)
    report["identity"] = identity
    report["coalesced_batches"] = result.batches
    report["coalesced_queries"] = result.batched_queries
    report["solver_steps_total"] = sum(
        envelope.get("solver_steps", 0) for envelope in result.stats.values())
    report["materialized_modules"] = sorted(
        module for module, envelope in result.stats.items()
        if envelope.get("materialized"))
    if store_runs:
        report["store_by_module"] = _store_views(result)
    return report


def _record(names: Sequence[str], config: Dict[str, Any],
            **body: Any) -> Dict[str, Any]:
    """One record of the driver's family: the shared header, the mode's
    ``body`` (runs and ``gates``), and the volatile ``run`` block."""
    return {
        "schema": 1,
        "protocol_version": PROTOCOL_VERSION,
        "result_schema_version": RESULT_SCHEMA_VERSION,
        "generator_version": GENERATOR_VERSION,
        "config": dict(programs=list(names), **config),
        "corpus": dict(sorted(digest_index(list(names)).items())),
        **body,
        # Everything under "run" is volatile; strip_volatile drops the key.
        "run": {"started_unix": time.time()},
    }


def _traffic(programs: Sequence[str], clients: int, requests: int,
             ) -> Tuple[List[_Program], List[List[Dict[str, Any]]]]:
    corpus = build_corpus(programs)
    if not corpus:
        raise SystemExit("loadtest: empty corpus")
    return corpus, [client_script(index, corpus, requests)
                    for index in range(clients)]


def _store_dir(store_root: Optional[str]) -> ContextManager[str]:
    """``store_root`` as given, or a temporary store removed afterwards."""
    if store_root is not None:
        return contextlib.nullcontext(store_root)
    return tempfile.TemporaryDirectory(prefix="repro-service-store-",
                                       ignore_cleanup_errors=True)


# -- plain mode ----------------------------------------------------------------

def run_plain(programs: Sequence[str], workers: int, clients: int,
              requests: int, store_root: Optional[str]) -> Dict[str, Any]:
    """The three-run loadtest; returns the ``BENCH_service`` record."""
    corpus, scripts = _traffic(programs, clients, requests)
    expected, serial_stats = serial_expectations(corpus, scripts)
    with _store_dir(store_root) as root:
        runs = {"direct": run_once(corpus, scripts, workers, None),
                "cold": run_once(corpus, scripts, workers, root),
                # A brand-new server (fresh pool, fresh sessions) on the
                # same store: the restart the warm gates are about.
                "warm": run_once(corpus, scripts, workers, root)}

    identities = {name: check_identity(result, expected)
                  for name, result in runs.items()}
    stats_mismatches = []
    for module, serial_record in serial_stats.items():
        socket_view = stats_gate_view(runs["direct"].stats.get(module, {}))
        serial_view = stats_gate_view(serial_record)
        if _canonical(socket_view) != _canonical(serial_view):
            stats_mismatches.append({"module": module,
                                     "serial": serial_view,
                                     "socket": socket_view})

    warm = runs["warm"]
    warm_views = _store_views(warm)
    gates = {
        "answer_identity": all(report["mismatches"] == 0
                               for report in identities.values()),
        "stats_subset_identity": not stats_mismatches,
        "warm_store_hit_floor": bool(warm_views) and all(
            view["misses"] == 0 and view["corrupt_entries"] == 0
            for view in warm_views.values()) and any(
            view["hits"] > 0 for view in warm_views.values()),
        "warm_no_bootstrap": bool(warm.stats) and all(
            envelope.get("solver_steps") == 0
            and not envelope.get("materialized")
            for envelope in warm.stats.values()),
    }
    return _record(
        [program.name for program in corpus],
        {"workers": workers, "clients": clients,
         "requests_per_client": requests},
        runs={name: _run_report(result, identities[name],
                                store_runs=name != "direct")
              for name, result in runs.items()},
        stats_gate={"modules": sorted(serial_stats),
                    "mismatches": stats_mismatches[:3],
                    "mismatch_count": len(stats_mismatches)},
        gates=gates)


# -- chaos mode ----------------------------------------------------------------

#: Admission bound of the chaos server (small on purpose: the overload
#: burst must provably exceed it while the victim wedge holds).
CHAOS_MAX_INFLIGHT = 8

#: Front-end backstop grace in the chaos run: generous enough that a
#: healthy worker always answers a ``timeout_ms=0`` probe cooperatively,
#: small enough that the wedged victim (2.5 s sleep) is backstopped.
CHAOS_DEADLINE_GRACE = 1.0

#: Connections in the overload burst (> ``CHAOS_MAX_INFLIGHT``).
CHAOS_BURST = 24

#: ``timeout_ms`` of the latency victim — far below the injected sleep.
CHAOS_VICTIM_TIMEOUT_MS = 150


def _first_query_fields(program: _Program) -> Dict[str, Any]:
    """A deterministic canonical query for one program (probe traffic)."""
    fn = program.query_functions[0]
    return {"module": program.name, "analysis": "rbaa", "function": fn.name,
            "a": fn.pointers[0], "b": fn.pointers[1]}


def _probe_payloads(corpus: Sequence[_Program], plan: FaultPlan,
                    ) -> Dict[str, List[Dict[str, Any]]]:
    """Every probe payload of the chaos run, plus prime-phase copies (same
    fields, ``prime.*`` ids) so the store is warm for all of them — a cold
    probe would materialise modules mid-drill and invalidate the
    zero-bootstrap gate."""
    by_name = {program.name: program for program in corpus}
    victim_fields = _first_query_fields(by_name[plan.victim_module])
    payloads: Dict[str, List[Dict[str, Any]]] = {
        "victim": [make_request("query", id=VICTIM_REQUEST_ID,
                                timeout_ms=CHAOS_VICTIM_TIMEOUT_MS,
                                **victim_fields)],
        "burst": [make_request("query", id=f"chaos.burst.{index}",
                               **victim_fields)
                  for index in range(CHAOS_BURST)],
        "deadline": [make_request("query", id=f"chaos.deadline.{index}",
                                  timeout_ms=0, **victim_fields)
                     for index in range(2)],
        "postkill": [make_request("query", id=f"chaos.postkill.{module}",
                                  **_first_query_fields(by_name[module]))
                     for module in plan.killed_modules
                     if module in by_name][:2],
    }
    payloads["prime"] = [make_request("query", id=f"prime.probe.{index}",
                                      **victim_fields)
                         for index in range(1)] + [
        make_request("query", id=f"prime.postkill.{module}",
                     **_first_query_fields(by_name[module]))
        for module in plan.killed_modules if module in by_name][:3]
    return payloads


def run_chaos(programs: Sequence[str], workers: int, clients: int,
              requests: int, store_root: Optional[str],
              seed: int) -> Dict[str, Any]:
    """The seeded fault drill; returns the ``BENCH_chaos`` record."""
    corpus, scripts = _traffic(programs, clients, requests)
    names = [program.name for program in corpus]
    plan = generate_plan(seed, WorkerPool(workers=workers).assign(names),
                         clients)
    probes = _probe_payloads(corpus, plan)

    # The serial oracle covers everything identity-gated: client scripts,
    # prime-phase probe copies, and the chaos probes — except the latency
    # victim, whose outcome is (by design) the wall-clock backstop.
    expected, _ = serial_expectations(corpus, list(scripts) + [
        probes["prime"], probes["burst"], probes["deadline"],
        probes["postkill"]])
    with _store_dir(store_root) as root:
        # Prime run: a fault-free pass that warms the store with every
        # payload (scripts + probe shapes) the chaos run will send.
        prime = run_once(corpus, list(scripts) + [probes["prime"]],
                         workers, root)
        corrupted = corrupt_store_entries(root, digest_index(names),
                                          plan.corrupt_modules)
        chaos = run_once(corpus, scripts, workers, root, plan)

    prime_identity = check_identity(prime, expected)
    identity = check_identity(chaos, expected)
    answers = dict(chaos.transcript)
    deadline_answers = [answers.get(payload["id"])
                        for payload in probes["deadline"]]
    burst_final_ok = sum(1 for payload in probes["burst"]
                         if (answers.get(payload["id"]) or {}).get("ok"))
    killed_stats = [chaos.stats.get(module, {})
                    for module in plan.killed_modules]
    store_views = _store_views(chaos)
    faults = chaos.fault_stats
    controller = chaos.controller
    gates = {
        "terminal_answers": not chaos.hangs and all(
            isinstance(response, dict) and "ok" in response
            for _, response in chaos.transcript),
        "answer_identity_after_faults": identity["mismatches"] == 0,
        "respawn_matches_kills": bool(plan.kills)
        and faults.get("respawns") == len(plan.kills)
        and set(controller.kills_fired) == set(plan.kills),
        "failover_warm_zero_bootstrap": bool(killed_stats) and all(
            record.get("solver_steps") == 0
            and not record.get("materialized")
            for record in killed_stats),
        "deadline_cooperative": bool(deadline_answers) and all(
            response is not None
            and response.get("error_code") == DEADLINE_EXCEEDED
            for response in deadline_answers),
        "deadline_backstop": chaos.victim_response is not None
        and chaos.victim_response.get("error_code") == DEADLINE_EXCEEDED
        and faults.get("backstops", 0) >= 1,
        "overload_shed_and_recovered":
            faults.get("shed", 0) >= 1
            and faults["client_retries"]["retries_by_code"].get(
                "overloaded", 0) >= 1
            and burst_final_ok == CHAOS_BURST,
        "store_corruption_survived": not plan.corrupt_modules or (
            len(corrupted) == len(plan.corrupt_modules) and any(
                view.get("corrupt_entries", 0) > 0
                for view in store_views.values())),
        "truncation_isolated":
            chaos.truncated_resends == len(plan.truncate_clients),
        "prime_identity": prime_identity["mismatches"] == 0,
    }
    return _record(
        names,
        {"workers": workers, "clients": clients,
         "requests_per_client": requests, "chaos_seed": seed,
         "max_inflight": CHAOS_MAX_INFLIGHT,
         "deadline_grace_seconds": CHAOS_DEADLINE_GRACE},
        plan=plan.as_dict(),
        corrupted_entries=len(corrupted),
        runs={"prime": _run_report(prime, prime_identity, True),
              "chaos": dict(_latency_report(chaos),
                            identity=identity,
                            hangs=list(chaos.hangs),
                            truncated_resends=chaos.truncated_resends,
                            burst_final_ok=burst_final_ok,
                            store_by_module=store_views)},
        fault_stats=faults,
        controller={
            "responses": {str(shard): count for shard, count
                          in sorted(controller.responses.items())},
            "kills_fired": {str(shard): count for shard, count
                            in sorted(controller.kills_fired.items())}},
        gates=gates)


# -- edits mode ----------------------------------------------------------------

#: Analyses swept at every step of every edit scenario.
EDIT_ANALYSES = ("rbaa", "basic", "andersen", "steensgaard")

#: The callgraph-scoped (interprocedural) fixed points, by engine-key name —
#: the analyses whose per-edit re-seed the incremental gate measures.
CALLGRAPH_ANALYSES = ("global-ranges", "andersen", "steensgaard")

#: Edit steps per program, and ``--quick``'s cap on the pointer pairs each
#: sweep enumerates per function.
EDIT_STEPS = 3
QUICK_MAX_PAIRS = 120

#: Seed of every program's edit scenario.
EDIT_SEED = 0

#: ``--transport`` / ``edit_program(transport=...)`` choices.
TRANSPORTS = {
    "inprocess": InProcessClient,
    "daemon": DaemonClient,
    "socket": SocketClient,
}


def _sweep(client: ServiceClient, module: str,
           max_pairs: Optional[int]) -> Dict[str, Any]:
    """The per-step query sweep: every analysis over every enumerated pair."""
    queries = 0
    no_alias: Dict[str, int] = {}
    outcomes: Dict[str, List[int]] = {}
    for analysis in EDIT_ANALYSES:
        response = client.query_function(module, analysis, max_pairs=max_pairs)
        queries = response.queries
        no_alias[analysis] = response.no_alias
        outcomes[analysis] = response.no_alias_indices
    return {"queries": queries, "no_alias": no_alias, "outcomes": outcomes}


def _callgraph_steps(stats: Dict[str, Any]) -> int:
    """Solver steps spent on the interprocedural fixed points so far."""
    by_analysis = stats.get("solver_steps_by_analysis", {})
    return sum(by_analysis.get(name, 0) for name in CALLGRAPH_ANALYSES)


def edit_program(name: str, edits: int, max_pairs: Optional[int],
                 transport: str = "inprocess") -> Dict[str, Any]:
    """Replay one program's edit scenario warm and cold; return its record.

    ``transport`` picks the warm path's client, one of :data:`TRANSPORTS`.
    """
    config = next(p for p in SUITE_PROGRAMS if p.name == name).config()
    scenario = edit_scenario(config, edits=edits, seed=EDIT_SEED)

    warm_client = TRANSPORTS[transport]()
    steps: List[Dict[str, Any]] = []
    try:
        started = time.perf_counter()
        warm_client.load(name, scenario.steps[0].source)
        load_seconds = time.perf_counter() - started
        previous_steps = 0
        previous_callgraph = 0
        for step in scenario.steps:
            impacts: List[Dict[str, Any]] = []
            warm_started = time.perf_counter()
            if step.index > 0:
                edited = warm_client.edit(name, step.source)
                if edited["reloaded"] or edited["changed"] != [step.function]:
                    raise RuntimeError(
                        f"scenario step {step.index} of {name!r} did not take "
                        f"the incremental path: {edited}")
                impacts = edited["impacts"]
            warm_sweep = _sweep(warm_client, name, max_pairs)
            warm_seconds = time.perf_counter() - warm_started
            warm_stats = warm_client.stats(name)
            total = warm_stats["solver_steps"]
            warm_steps = total - previous_steps
            previous_steps = total
            callgraph_total = _callgraph_steps(warm_stats)
            warm_callgraph = callgraph_total - previous_callgraph
            previous_callgraph = callgraph_total

            cold_started = time.perf_counter()
            cold_client = InProcessClient()
            cold_client.load(name, step.source)
            cold_sweep = _sweep(cold_client, name, max_pairs)
            cold_stats = cold_client.stats(name)
            cold_seconds = time.perf_counter() - cold_started

            steps.append({
                "index": step.index,
                "function": step.function,
                "queries": warm_sweep["queries"],
                "no_alias": warm_sweep["no_alias"],
                "identical": warm_sweep["outcomes"] == cold_sweep["outcomes"],
                "warm_solver_steps": warm_steps,
                "cold_solver_steps": cold_stats["solver_steps"],
                "warm_callgraph_steps": warm_callgraph,
                "cold_callgraph_steps": _callgraph_steps(cold_stats),
                "impacts": impacts,
                "warm_seconds": warm_seconds,
                "cold_seconds": cold_seconds,
            })
    finally:
        warm_client.close()

    edit_steps = [step for step in steps if step["index"] > 0]
    return {
        "program": name,
        "edits": len(edit_steps),
        "steps": steps,
        "totals": {
            "identical": all(step["identical"] for step in steps),
            "warm_solver_steps": sum(s["warm_solver_steps"] for s in steps),
            "cold_solver_steps": sum(s["cold_solver_steps"] for s in steps),
            "warm_edit_solver_steps": sum(s["warm_solver_steps"]
                                          for s in edit_steps),
            "cold_edit_solver_steps": sum(s["cold_solver_steps"]
                                          for s in edit_steps),
            "warm_edit_callgraph_steps": sum(s["warm_callgraph_steps"]
                                             for s in edit_steps),
            "cold_edit_callgraph_steps": sum(s["cold_callgraph_steps"]
                                             for s in edit_steps),
            "load_seconds": load_seconds,
        },
    }


def edit_gates(programs: Sequence[Dict[str, Any]]) -> Dict[str, bool]:
    """The edit mode's gates over :func:`edit_program` records.

    Two step-cost gates per edit step: the warm path overall, and the
    callgraph-scoped (interprocedural) subset — the latter is what the
    re-seed path must win, since without it every edit would pay full
    GR / Andersen / Steensgaard rebuilds.
    """
    steps = [step for program in programs for step in program["steps"]]
    edit_steps = [step for step in steps if step["index"] > 0]
    return {
        "answer_identity": all(step["identical"] for step in steps),
        "warm_beats_cold": all(
            step["warm_solver_steps"] < step["cold_solver_steps"]
            for step in edit_steps),
        "callgraph_reseed_beats_cold": all(
            step["warm_callgraph_steps"] < step["cold_callgraph_steps"]
            for step in edit_steps),
    }


def run_edits(programs: Sequence[str], transport: str = "inprocess",
              max_pairs: Optional[int] = None) -> Dict[str, Any]:
    """The warm-vs-cold edit replay; returns the ``BENCH_edits`` record."""
    records = [edit_program(name, EDIT_STEPS, max_pairs, transport=transport)
               for name in programs]
    return _record(
        programs,
        {"transport": transport, "edits": EDIT_STEPS, "max_pairs": max_pairs,
         "seed": EDIT_SEED},
        programs=records,
        totals={key: sum(record["totals"][key] for record in records)
                for key in ("warm_solver_steps", "cold_solver_steps",
                            "warm_edit_callgraph_steps",
                            "cold_edit_callgraph_steps")},
        gates=edit_gates(records))


# -- command line --------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.loadtest",
        description="the serving layer's driver: closed-loop loadtest of "
                    "the socket server, seeded fault drill (--chaos) or "
                    "warm-vs-cold edit replay (--edits)")
    parser.add_argument("--programs", default=",".join(DEFAULT_PROGRAMS),
                        help="comma-separated suite program names")
    parser.add_argument("--quick", action="store_true",
                        help="CI profile: caps --requests at 12; with "
                             f"--edits, caps each sweep at {QUICK_MAX_PAIRS} "
                             "pointer pairs")
    parser.add_argument("--out", default=None,
                        help="output record path (default: "
                             "BENCH_service.json, BENCH_chaos.json with "
                             "--chaos, BENCH_edits.json with --edits)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless every gate holds")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--chaos", action="store_true",
                      help="run the seeded fault drill (worker kill, "
                           "latency, store corruption, truncated lines) "
                           "instead of the three-run loadtest")
    mode.add_argument("--edits", action="store_true",
                      help=f"replay {EDIT_STEPS} seeded edits per program "
                           "warm vs cold instead of the three-run loadtest")
    traffic = parser.add_argument_group(
        "plain and --chaos modes (ignored by --edits)")
    traffic.add_argument("--workers", type=int, default=2)
    traffic.add_argument("--clients", type=int, default=4)
    traffic.add_argument("--requests", type=int, default=20,
                         help="requests per client (per run)")
    traffic.add_argument("--store", metavar="DIR", default=None,
                         help="persistent store directory (default: a "
                              "temporary one, removed afterwards)")
    traffic.add_argument("--chaos-seed", type=int, default=1,
                         help="fault-plan seed (--chaos only)")
    edits = parser.add_argument_group("--edits mode (ignored otherwise)")
    edits.add_argument("--transport", choices=tuple(TRANSPORTS),
                       default="inprocess",
                       help="the warm path's client: in process, or a real "
                            "daemon or TCP server subprocess")
    options = parser.parse_args(argv)
    programs = tuple(name for name in options.programs.split(",") if name)
    known = [program.name for program in SUITE_PROGRAMS]
    unknown = [name for name in programs if name not in known]
    if unknown or not programs:
        parser.error(f"unknown program(s) {', '.join(unknown) or '(none)'} "
                     f"in --programs; valid names: {', '.join(known)}")
    requests = min(options.requests, 12) if options.quick else options.requests
    workers, clients, requests = (max(1, options.workers),
                                  max(1, options.clients), max(1, requests))

    if options.edits:
        record = run_edits(programs, options.transport,
                           max_pairs=QUICK_MAX_PAIRS if options.quick
                           else None)
        out = options.out or "BENCH_edits.json"
        totals = record["totals"]
        summary = (f"loadtest --edits ({options.transport}): "
                   f"{len(record['programs'])} programs, "
                   f"warm {totals['warm_solver_steps']} vs cold "
                   f"{totals['cold_solver_steps']} solver steps "
                   f"(callgraph on edits: warm "
                   f"{totals['warm_edit_callgraph_steps']} vs cold "
                   f"{totals['cold_edit_callgraph_steps']}), "
                   f"identical={record['gates']['answer_identity']}")
    elif options.chaos:
        record = run_chaos(programs, workers, clients, requests,
                           options.store, options.chaos_seed)
        out = options.out or "BENCH_chaos.json"
        chaos = record["runs"]["chaos"]
        faults = record["fault_stats"]
        summary = (f"loadtest --chaos (seed {options.chaos_seed}): "
                   f"{chaos['requests']} answered, "
                   f"{len(chaos['hangs'])} hangs, "
                   f"{faults['respawns']} respawns, {faults['shed']} shed, "
                   f"{faults['backstops']} backstops, "
                   f"{faults['client_retries']['retries']} client retries")
    else:
        record = run_plain(programs, workers, clients, requests,
                           options.store)
        out = options.out or "BENCH_service.json"
        direct = record["runs"]["direct"]
        warm = record["runs"]["warm"]
        summary = (f"loadtest: {direct['requests']} requests/run, "
                   f"{direct['throughput_per_second']:.1f} req/s direct "
                   f"(p50 {direct['latency_p50_seconds'] * 1e3:.1f} ms, "
                   f"p99 {direct['latency_p99_seconds'] * 1e3:.1f} ms), "
                   f"{warm['throughput_per_second']:.1f} req/s warm-store; "
                   f"warm solver steps {warm['solver_steps_total']}")

    with open(out, "w", encoding="utf-8") as handle:
        handle.write(to_canonical_json(record))
    print(summary)
    for name, passed in sorted(record["gates"].items()):
        print(f"loadtest: gate {name}: {'ok' if passed else 'FAILED'}")
    if options.check and not all(record["gates"].values()):
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    sys.exit(main(sys.argv[1:]))
