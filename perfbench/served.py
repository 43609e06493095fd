"""``served_reads`` and ``served_warm_restart``: reads over the real socket.

Both run ``python -m repro.service.server`` as a subprocess (at most
``nproc`` workers, capped at 2) and drive it from this process through two
closed-loop ``ServiceClient`` connections, each replaying a seeded read
script of the kind ``repro.service.loadtest.client_script`` generates.

* ``served_reads``: storeless server, memo-warmed in set-up by one serial
  pass over both scripts.
* ``served_warm_restart``: set-up primes a result store through a first
  server, stops it and starts a fresh one on the same store; every answer
  in the timed window then comes from the store, with zero solver steps.

Every response must equal the answer a serial in-process session gives for
the same payload (``loadtest.serial_expectations``).
"""

from __future__ import annotations

import json
import os
import re
import selectors
import shutil
import socket
import subprocess
import sys
import time
from collections import Counter
from typing import Any, Dict, List, Optional

import common
import spans
from repro.service import ServiceClient

PROGRAMS = ("allroots", "fixoutput", "anagram", "ft")
SCRIPT_REQUESTS = 300
SMOKE_PROGRAMS = ("allroots", "anagram")
SMOKE_REQUESTS = 30
#: Time slices of the window whose median rate is the throughput.
SLICES = 10


class SocketConnection(ServiceClient):
    """One line-protocol connection to an already running server."""

    def __init__(self, port: int) -> None:
        self._socket = socket.create_connection(("127.0.0.1", port), timeout=60)
        self._file = self._socket.makefile("rw", encoding="utf-8", newline="\n")

    def call(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        self._file.write(json.dumps(payload) + "\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise RuntimeError("server closed the connection")
        return json.loads(line)

    def close(self) -> None:
        self._file.close()
        self._socket.close()


class Server:
    """A ``repro.service.server`` subprocess plus one control connection."""

    def __init__(self, store: Optional[str]) -> None:
        from repro.service.client import subprocess_env

        workers = max(1, min(common.CONNECTIONS, os.cpu_count() or 1))
        command = [sys.executable, "-m", "repro.service.server",
                   "--port", "0", "--workers", str(workers)]
        if store is not None:
            command += ["--store", store]
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                        text=True, env=subprocess_env())
        try:
            banner = self.process.stdout.readline()
            match = re.search(r":(\d+) ", banner)
            if not match:
                raise RuntimeError(f"no port in server banner: {banner!r}")
            self.port = int(match.group(1))
            self.control = SocketConnection(self.port)
        except BaseException:
            self.kill()
            raise

    def stop(self) -> None:
        try:
            self.control.shutdown()
            self.control.close()
            self.process.wait(timeout=30)
        except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired):
            self.kill()
        finally:
            self.process.stdout.close()

    def kill(self) -> None:
        self.process.kill()
        self.process.wait(timeout=30)
        self.process.stdout.close()


def _load_all(client: Any, corpus: List[Any]) -> None:
    for program in corpus:
        client.load(program.name, program.source)


def _replay_serially(client: Any, scripts: List[List[Dict[str, Any]]]) -> None:
    for script in scripts:
        for payload in script:
            client.send(payload)


def _module_stats(client: Any, corpus: List[Any]) -> Dict[str, Any]:
    return {program.name: client.stats(program.name) for program in corpus}


def _set_up(warm_restart: bool, corpus: List[Any],
            scripts: List[List[Dict[str, Any]]],
            store: Optional[str]) -> Server:
    if warm_restart:
        shutil.rmtree(store, ignore_errors=True)
        primer = Server(store)
        try:
            _load_all(primer.control, corpus)
            _replay_serially(primer.control, scripts)
        finally:
            primer.stop()
        server = Server(store)
        _load_all(server.control, corpus)
        return server
    server = Server(None)
    try:
        _load_all(server.control, corpus)
        _replay_serially(server.control, scripts)
    except BaseException:
        server.stop()
        raise
    return server


def _drive(port: int, scripts: List[List[Dict[str, Any]]], seconds: float,
           tracer: Optional[spans.Tracer]) -> Dict[str, Any]:
    """Closed-loop connections, one per script, until the deadline.

    One thread multiplexes every connection (so the load generator's own
    threads never contend for the interpreter lock); each connection sends
    its next request only when the previous answer arrived, and resends a
    request answered with a retryable error code, as ``ServiceClient.send``
    does.
    """
    from repro.service import RETRYABLE_ERROR_CODES

    connections = [socket.create_connection(("127.0.0.1", port), timeout=60)
                   for _ in scripts]
    selector = selectors.DefaultSelector()
    position = [0] * len(scripts)
    sent_at = [0.0] * len(scripts)
    pending = [b""] * len(scripts)
    run: Dict[str, Any] = {"latency_ms": [], "ids": [], "lines": [],
                           "finished": [], "retries": 0, "shed": 0}

    def send(index: int) -> None:
        payload = scripts[index][position[index] % len(scripts[index])]
        sent_at[index] = time.perf_counter()
        connections[index].sendall((json.dumps(payload) + "\n").encode())

    started = time.perf_counter()
    deadline = started + seconds
    try:
        for index, connection in enumerate(connections):
            selector.register(connection, selectors.EVENT_READ, index)
            send(index)
        while selector.get_map():
            events = selector.select(timeout=60)
            if not events:
                raise RuntimeError("no answer from the server within 60 s")
            for key, _ in events:
                index = key.data
                chunk = connections[index].recv(1 << 16)
                if not chunk:
                    raise RuntimeError("server closed a load connection")
                pending[index] += chunk
                while b"\n" in pending[index]:
                    raw, pending[index] = pending[index].split(b"\n", 1)
                    finished = time.perf_counter()
                    payload = scripts[index][position[index] % len(scripts[index])]
                    line = raw.decode("utf-8")
                    code = json.loads(line).get("error_code")
                    if tracer is not None:
                        tracer.record("service.client." + str(payload.get("op")),
                                      sent_at[index], finished, payload.get("id"))
                    if code in RETRYABLE_ERROR_CODES:
                        run["retries"] += 1
                        run["shed"] += code == "overloaded"
                        send(index)
                        continue
                    run["latency_ms"].append((finished - sent_at[index]) * 1e3)
                    run["finished"].append(finished)
                    run["ids"].append(payload.get("id"))
                    run["lines"].append(line)
                    position[index] += 1
                    if (position[index] % len(scripts[index]) == 0
                            and finished >= deadline):
                        selector.unregister(connections[index])
                    else:
                        send(index)
    finally:
        selector.close()
        for connection in connections:
            connection.close()
    # Throughput is the median over equal time slices of the window, so a
    # short stall of the machine moves one slice, not the whole figure.
    width = (time.perf_counter() - started) / SLICES
    per_slice = Counter(min(SLICES - 1, int((finished - started) / width))
                        for finished in run["finished"])
    run["rate"] = common.median([per_slice.get(index, 0) / width
                                 for index in range(SLICES)])
    return run


def _inprocess_pass(corpus: List[Any], scripts: List[List[Dict[str, Any]]],
                    store: Optional[str], warm: bool) -> Dict[str, Any]:
    """One traced serial pass of the scripts through a fresh in-process session."""
    from repro.service import AnalysisSession, ResultStore, handle_payload

    session = AnalysisSession(ResultStore(store) if store else None)
    for program in corpus:
        handle_payload(session, {"op": "load", "v": 1, "name": program.name,
                                 "source": program.source})
    if warm:
        for script in scripts:
            for payload in script:
                handle_payload(session, payload)
    before = _session_counts(session, corpus)
    tracer = spans.install(spans.Tracer())
    symbolic_before = common.symbolic_snapshot()
    latencies = []
    try:
        for script in scripts:
            for payload in script:
                tracer.request = payload.get("id")
                started = time.perf_counter()
                with tracer.span("service.handle." + str(payload.get("op"))):
                    handle_payload(session, payload)
                latencies.append((time.perf_counter() - started) * 1e3)
    finally:
        tracer.uninstall()
    after = _session_counts(session, corpus)
    counts = {name: after[name] - before.get(name, 0) for name in after}
    counts.update(tracer.counts)
    return {"counts": dict(sorted(counts.items())), "latencies": latencies,
            "tracer": tracer,
            "symbolic": [symbolic_before, common.symbolic_snapshot()]}


def _session_counts(session: Any, corpus: List[Any]) -> Dict[str, float]:
    totals: Counter = Counter()
    for program in corpus:
        stats = session.stats(program.name)
        totals.update(_stat_counts(stats))
    if session.store is not None:
        store = session.store.stats()
        totals["service.store_hits"] = store["hits"]
        totals["service.store_misses"] = store["misses"]
    return dict(totals)


def _stat_counts(stats: Dict[str, Any]) -> Dict[str, float]:
    counts: Counter = Counter()
    for key in ("builds", "hits", "misses", "refreshes", "invalidations"):
        counts["engine." + key] += stats["engine"][key]
    counts["solver_steps"] += stats["solver_steps"]
    for memo in stats["memos"].values():
        counts["memo_hits"] += memo["hits"]
        counts["memo_misses"] += memo["misses"]
    return counts


def _store_bytes(store: str) -> int:
    total = 0
    for directory, _, files in os.walk(store):
        total += sum(os.path.getsize(os.path.join(directory, name))
                     for name in files)
    return total


def run(warm_restart: bool, seed: int, seconds: float, traced: bool,
        smoke: bool) -> None:
    result = measure(warm_restart, seed, seconds, traced, smoke)
    metrics = common.layer_result(result["values"]) if traced \
        else result["metrics"]
    common.emit(result["failed"] == 0 and not result["problems"],
                result["attempted"], result["failed"], metrics)


def measure(warm_restart: bool, seed: int, seconds: float, traced: bool,
            smoke: bool, repeats: Optional[int] = None) -> Dict[str, Any]:
    """One served run: ``attempted``/``failed``/``problems`` and either the
    end-to-end ``metrics`` or (traced) the raw per-layer ``values``."""
    from repro.benchgen import stable_seed
    from repro.service.loadtest import build_corpus, client_script, \
        serial_expectations

    workload = "served_warm_restart" if warm_restart else "served_reads"
    store = os.path.abspath(common.output_path(f"store-{os.getpid()}")) \
        if warm_restart else None
    names = SMOKE_PROGRAMS if smoke else PROGRAMS
    length = SMOKE_REQUESTS if smoke else SCRIPT_REQUESTS
    base = stable_seed(f"perfbench/{workload}/{seed}", 1_000_000)

    setups = []
    server: Optional[Server] = None
    try:
        for _ in range(repeats or common.setup_repeats(smoke)):
            if server is not None:
                server.stop()
                server = None
            started = time.perf_counter()
            corpus = build_corpus(names)
            scripts = [client_script(base * common.CONNECTIONS + index,
                                     corpus, length)
                       for index in range(common.CONNECTIONS)]
            server = _set_up(warm_restart, corpus, scripts, store)
            setups.append(time.perf_counter() - started)

        stats_before = _module_stats(server.control, corpus)
        halves = [False, True] if traced else [False]
        measured = []
        for with_spans in halves:
            tracer = spans.Tracer() if with_spans else None
            measured.append(_drive(server.port, scripts,
                                   seconds / len(halves), tracer))
        peak_rss = common.tree_peak_rss_mb(server.process.pid)
        stats_after = _module_stats(server.control, corpus)
    finally:
        if server is not None:
            server.stop()

    # Correctness, after the server has stopped.
    expected, _ = serial_expectations(corpus, scripts)
    attempted = failed = 0
    for run_ in measured:
        for request_id, line in zip(run_["ids"], run_["lines"]):
            attempted += 1
            if json.loads(line) != expected.get(request_id):
                failed += 1
                if failed <= 5:
                    print(f"{workload}: {request_id} differs from the serial "
                          f"session", file=sys.stderr)
    solver_steps = sum(_stat_counts(stats_after[name])["solver_steps"]
                       - _stat_counts(stats_before[name])["solver_steps"]
                       for name in stats_after)
    problems = []
    if warm_restart and solver_steps:
        problems.append(f"warm store run spent {solver_steps} solver steps")

    result: Dict[str, Any] = {"attempted": attempted, "failed": failed,
                              "problems": problems}
    latencies = measured[0]["latency_ms"]
    if not traced:
        common.write_samples(workload, seed, {
            "rate": measured[0]["rate"], "latency_ms": latencies,
            "ids": measured[0]["ids"]})
        result["metrics"] = common.end_to_end(
            work_per_s=measured[0]["rate"],
            p75_ms=common.percentile(latencies, 0.75),
            p90_ms=common.percentile(latencies, 0.90),
            peak_rss_mb=peak_rss, setup_s=common.median(setups))
    else:
        replays = [_inprocess_pass(corpus, scripts, store, not warm_restart)
                   for _ in range(2)]
        problems += common.check_counter_snapshot(
            workload, seed, smoke, replays[0]["counts"], replays[1]["counts"])
        values = _layer_values(replays[1], store)
        passes = len(latencies) / sum(len(script) for script in scripts)
        before = [_stat_counts(stats) for stats in stats_before.values()]
        after = [_stat_counts(stats) for stats in stats_after.values()]
        values["service.session_memo_hit_ratio"] = common.ratio(
            sum(a["memo_hits"] - b["memo_hits"] for a, b in zip(after, before)),
            sum(a["memo_misses"] - b["memo_misses"]
                for a, b in zip(after, before)))
        values["service.warm_solver_steps"] = solver_steps
        for name in ("retries", "shed"):
            values["service." + name] = sum(run_[name] for run_ in measured) / passes
        served_p50 = common.percentile(latencies, 0.50)
        values["service.overhead_p50_ms"] = \
            served_p50 - values["service.inproc_p50_ms"]
        values["trace.overhead_pct"] = 100.0 * (
            common.percentile(measured[1]["latency_ms"], 0.50) / served_p50
            - 1.0)
        result["values"] = values
        replays[1]["tracer"].write(
            common.output_path(f"spans-{workload}-seed{seed}.jsonl"))
    if store is not None:
        shutil.rmtree(store, ignore_errors=True)
    for problem in problems:
        print(f"{workload}: {problem}", file=sys.stderr)
    return result


def _layer_values(replay: Dict[str, Any], store: Optional[str]) -> Dict[str, float]:
    """Per-script-pass layer metrics of the in-process replay."""
    counts = dict(replay["counts"])
    for name in ("memo_hits", "memo_misses", "solver_steps"):
        counts.pop(name, None)
    values = {name: float(value) for name, value in counts.items()}
    values.update(common.span_metrics(replay["tracer"].self_times(), 1))
    values.update(common.symbolic_metrics(*replay["symbolic"], 1))
    values["service.inproc_p50_ms"] = common.percentile(replay["latencies"], 0.50)
    if store is not None:
        values["service.store_hit_ratio"] = common.ratio(
            values.get("service.store_hits", 0.0),
            values.get("service.store_misses", 0.0))
        values["service.store_bytes"] = float(_store_bytes(store))
    return values
