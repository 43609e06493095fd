"""A shared-nothing pool of analysis worker processes, sharded by module.

The engine's cached analyses hold live IR object graphs that must never
cross process boundaries (the parallel evaluation runner has the same
rule), so scaling the service means *sharding*, not sharing: every worker
process owns a private :class:`~repro.service.session.AnalysisSession`,
and each resident module lives on exactly one worker.  Placement reuses
:func:`repro.evaluation.parallel.partition`'s round-robin discipline for a
known corpus (:meth:`WorkerPool.assign`), falling back to a stable
name-hash (:func:`repro.benchgen.stable_seed`) for modules that show up
unannounced — both are deterministic, so a request for module *m* reaches
the same shard on every run.

Workers speak the service protocol verbatim: a job is ``(job_id, payload)``
on the request queue, the answer is ``(job_id, envelope)`` on the response
queue, produced by :func:`repro.service.protocol.handle_payload` (which
never raises, so a malformed request cannot kill a worker).  The asyncio
front end (:mod:`repro.service.server`) multiplexes many clients onto these
queues and correlates by job id.

Workers are *replaceable*: :meth:`WorkerPool.respawn` builds a fresh
process (with fresh queues — a dead worker's queues may hold torn state)
for a shard whose process died.  The supervisor
(:mod:`repro.service.supervisor`) watches each process sentinel, fails or
retries the dead worker's in-flight jobs, and replays the shard's journal
into the replacement, so worker state stays a pure function of the
acknowledged request stream.

Workers may share one persistent content-addressed result store
(:mod:`repro.service.store`): entries are written atomically, and keys are
pure functions of module source + request, so concurrent writers are safe
and a warm store lets every worker answer without compiling anything.

Processes are *spawned*, not forked: the symbolic layer keeps
process-global memo caches, and a forked child would inherit whatever the
parent had warmed — spawn keeps worker state a pure function of the
request stream, which the loadtest's answer-identity gate relies on.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..benchgen import stable_seed
from ..evaluation.parallel import partition

__all__ = ["WorkerPool"]


def _worker_main(index: int, requests: Any, responses: Any,
                 store_root: Optional[str],
                 chaos: Optional[Dict[str, Any]] = None) -> None:
    """One worker: a resident session draining its request queue.

    Imports happen here (not at module import) only in the sense that the
    spawned interpreter re-imports this module; the loop itself is dumb on
    purpose — all protocol semantics live in ``handle_payload``.

    ``chaos`` is the deterministic fault spec of the chaos harness
    (:mod:`repro.service.chaos`): ``latency_by_id`` maps request ids to a
    sleep (seconds) injected *before* handling — how the harness makes a
    worker wedge on one scripted request.  Production runs pass ``None``.
    """
    from .protocol import handle_payload
    from .session import AnalysisSession
    from .store import ResultStore

    latency_by_id = (chaos or {}).get("latency_by_id", {})
    store = ResultStore(store_root) if store_root else None
    session = AnalysisSession(store=store)
    while True:
        job = requests.get()
        if job is None:
            responses.put(None)  # lets the front end's pump thread exit
            return
        job_id, payload = job
        delay = latency_by_id.get(str(payload.get("id"))) \
            if isinstance(payload, dict) else None
        if delay:
            time.sleep(float(delay))
        responses.put((job_id, handle_payload(session, payload)))


@dataclass
class _Worker:
    index: int
    process: multiprocessing.process.BaseProcess
    requests: Any
    responses: Any
    #: Bumped on every respawn — lets the supervisor ignore stale death
    #: notifications for a shard that was already replaced.
    generation: int = 0


@dataclass
class WorkerPool:
    """The process pool plus the deterministic module→shard placement."""

    workers: int = 2
    #: Shared result-store directory (``None`` disables persistence).
    store_root: Optional[str] = None
    #: Deterministic fault spec per shard index (chaos harness only):
    #: ``{shard: {"latency_by_id": {request_id: seconds}}}``.
    chaos: Optional[Dict[int, Dict[str, Any]]] = None
    #: Lifetime respawn count (the supervisor's failovers land here).
    respawns: int = 0
    _workers: List[_Worker] = field(default_factory=list)
    _placement: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.workers = max(1, int(self.workers))

    # -- placement -------------------------------------------------------------
    def assign(self, modules: Sequence[str]) -> Dict[str, int]:
        """Pin a known corpus to shards with the partition discipline.

        Modules are sorted first so placement is independent of call-site
        ordering; :func:`partition`'s round-robin then balances them across
        shards exactly like the parallel evaluation runner balances its
        corpus.
        """
        for shard, names in enumerate(partition(sorted(modules), self.workers)):
            for name in names:
                self._placement[name] = shard
        return dict(self._placement)

    def shard_of(self, module: Optional[str]) -> int:
        """The shard serving ``module`` (stable hash for unpinned names)."""
        if module is None:
            return 0
        shard = self._placement.get(module)
        if shard is None:
            shard = stable_seed(f"service/shard/{module}", self.workers)
            self._placement[module] = shard
        return shard

    # -- lifecycle -------------------------------------------------------------
    def _spawn(self, index: int, generation: int) -> _Worker:
        context = multiprocessing.get_context("spawn")
        requests = context.Queue()
        responses = context.Queue()
        chaos = (self.chaos or {}).get(index)
        process = context.Process(
            target=_worker_main,
            args=(index, requests, responses, self.store_root, chaos),
            name=f"repro-service-worker-{index}.g{generation}", daemon=True)
        process.start()
        return _Worker(index, process, requests, responses, generation)

    def start(self) -> None:
        if self._workers:
            return
        for index in range(self.workers):
            self._workers.append(self._spawn(index, generation=0))

    def worker(self, shard: int) -> _Worker:
        return self._workers[shard]

    def respawn(self, shard: int) -> _Worker:
        """Replace a dead shard process with a fresh one (fresh queues too).

        The old queues are abandoned rather than reused: a process killed
        mid-``put`` can leave a queue's pipe torn, and the supervisor has
        already drained whatever made it through.  The replacement session
        is empty — the caller (supervisor) replays the shard journal.
        """
        old = self._workers[shard]
        if old.process.is_alive():  # defensive: only dead workers come here
            old.process.terminate()
        old.process.join(5.0)
        for queue in (old.requests, old.responses):
            # A worker killed mid-put dies holding the queue's shared write
            # lock; a feeder blocked on that lock would wedge interpreter
            # exit when multiprocessing joins it.  Cancel the join and drop
            # our ends — the daemon pump/feeder threads are left behind.
            queue.cancel_join_thread()
            queue.close()
        worker = self._spawn(shard, generation=old.generation + 1)
        self._workers[shard] = worker
        self.respawns += 1
        return worker

    def submit(self, shard: int, job_id: int, payload: Dict[str, Any]) -> None:
        """Enqueue one protocol payload on a shard's resident worker."""
        self._workers[shard].requests.put((job_id, payload))

    def close(self, timeout: float = 30.0) -> None:
        """Stop every worker (each acknowledges with a ``None`` response).

        A worker that exited *without* posting its sentinel — it crashed,
        or it wedged and had to be terminated here — would leave its pump
        thread blocked on ``responses.get()`` forever, so the closer posts
        the sentinel on the response queue itself in that case (a duplicate
        sentinel is harmless: the pump exits on the first one it sees).
        """
        for worker in self._workers:
            if worker.process.is_alive():
                worker.requests.put(None)
        for worker in self._workers:
            worker.process.join(timeout)
            if worker.process.is_alive():  # pragma: no cover - hang backstop
                worker.process.terminate()
                worker.process.join(timeout)
            if worker.process.exitcode != 0:
                worker.responses.put(None)  # unwedge the pump ourselves
        self._workers = []

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
