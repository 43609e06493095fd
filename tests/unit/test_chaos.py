"""Fault-tolerance building blocks: solver budgets, retry policy, fault
plans, the kill controller, and store-corruption survival."""

import pytest

from repro.engine.solver import SolverInterrupted, solver_budget
from repro.service.chaos import (
    ChaosController,
    corrupt_store_entries,
    generate_plan,
)
from repro.service.client import RetryPolicy, ServiceClient
from repro.service.protocol import error_envelope, success_envelope
from repro.service.session import AnalysisSession
from repro.service.store import ResultStore

SRC = """
int main(int argc, char** argv) {
  char* a = (char*)malloc(8);
  char* b = a + 1;
  *a = 0;
  *b = 1;
  return 0;
}
"""


def _pointers(session, module="m"):
    values = session.values(module, "main")["values"]
    base = next(v["name"] for v in values if v["op"] == "malloc")
    offset = [v["name"] for v in values if v["op"] == "ptradd"][-1]
    return base, offset


class TestSolverBudget:
    def test_exhausted_budget_interrupts_without_poisoning_state(self):
        session = AnalysisSession()
        session.load_source("m", SRC)
        base, offset = _pointers(session)
        with solver_budget(lambda: False):
            with pytest.raises(SolverInterrupted):
                session.query("m", "rbaa", "main", base, offset)
        # The abandoned fixed point was discarded, not cached: the same
        # query without a budget computes the correct answer from scratch.
        assert session.query("m", "rbaa", "main", base, offset)["result"] \
            == "no-alias"

    def test_generous_budget_does_not_change_the_answer(self):
        session = AnalysisSession()
        session.load_source("m", SRC)
        base, offset = _pointers(session)
        with solver_budget(lambda: True):
            bounded = session.query("m", "rbaa", "main", base, offset)
        assert bounded["result"] == "no-alias"

    def test_budget_hooks_nest_and_restore(self):
        from repro.engine import solver

        assert solver._BUDGET_HOOK is None
        outer = lambda: True  # noqa: E731
        inner = lambda: False  # noqa: E731
        with solver_budget(outer):
            assert solver._BUDGET_HOOK is outer
            with solver_budget(inner):
                assert solver._BUDGET_HOOK is inner
            assert solver._BUDGET_HOOK is outer
        assert solver._BUDGET_HOOK is None


class TestRetryPolicy:
    def test_backoff_schedule_is_seeded_and_bounded(self):
        one = RetryPolicy(seed="service/test/retry")
        two = RetryPolicy(seed="service/test/retry")
        delays = [one.delay_seconds(attempt) for attempt in range(6)]
        assert delays == [two.delay_seconds(attempt) for attempt in range(6)]
        for attempt, delay in enumerate(delays):
            nominal = min(one.cap_ms, one.base_ms * one.factor ** attempt)
            assert nominal / 2000.0 <= delay <= nominal / 1000.0
        assert RetryPolicy(seed="service/test/other").delay_seconds(0) \
            != delays[0]

    def test_counters(self):
        policy = RetryPolicy()
        policy.note("overloaded")
        policy.note("overloaded")
        policy.note("worker_unavailable")
        stats = policy.stats()
        assert stats["retries"] == 3
        assert stats["retries_by_code"] == {"overloaded": 2,
                                            "worker_unavailable": 1}

    def test_backoff_decides_and_counts(self):
        policy = RetryPolicy(attempts=1, seed="t")
        shed = error_envelope("overloaded", "shed", 1)
        assert policy.backoff(success_envelope(1, {}), 0) is None
        assert policy.backoff(error_envelope("deadline_exceeded", "no", 1),
                              0) is None
        assert policy.backoff("not an envelope", 0) is None
        assert policy.backoff(shed, 0) > 0
        assert policy.backoff(shed, 1) is None  # the budget is spent
        assert policy.stats()["retries_by_code"] == {"overloaded": 1}
        assert policy.stats()["exhausted"] == 1

    def test_zero_attempt_policy_retries_nothing(self):
        policy = RetryPolicy(attempts=0)
        assert policy.backoff(
            error_envelope("worker_unavailable", "died", 1), 0) is None
        assert policy.stats()["retries"] == 0
        assert policy.stats()["exhausted"] == 1


class _ScriptedClient(ServiceClient):
    """A fake transport answering from a canned envelope sequence."""

    def __init__(self, envelopes):
        self.envelopes = list(envelopes)
        self.calls = 0

    def call(self, payload):
        self.calls += 1
        return self.envelopes.pop(0)


class TestClientRetries:
    def test_send_retries_transient_codes_until_success(self):
        client = _ScriptedClient([
            error_envelope("overloaded", "shed", 1),
            error_envelope("worker_unavailable", "died", 1),
            success_envelope(1, {"pong": True}),
        ])
        client.retry_policy = RetryPolicy(base_ms=0.01, seed="t")
        assert client.send({"op": "ping", "v": 1, "id": 1})["pong"] is True
        assert client.calls == 3
        assert client.retry_stats()["retries_by_code"] == {
            "overloaded": 1, "worker_unavailable": 1}

    def test_send_never_retries_non_transient_codes(self):
        for code in ("deadline_exceeded", "unknown_module", "bad_request"):
            client = _ScriptedClient([error_envelope(code, "no", 7)])
            client.retry_policy = RetryPolicy(base_ms=0.01, seed="t")
            assert client.send({"op": "q", "v": 1})["error_code"] == code
            assert client.calls == 1

    def test_send_gives_up_after_the_attempt_budget(self):
        client = _ScriptedClient(
            [error_envelope("overloaded", "shed", 1)] * 10)
        client.retry_policy = RetryPolicy(attempts=3, base_ms=0.01, seed="t")
        assert client.send({"op": "q", "v": 1})["error_code"] == "overloaded"
        assert client.calls == 4  # initial + 3 retries
        assert client.retry_stats()["exhausted"] == 1


class TestFaultPlan:
    PLACEMENT = {"alpha": 0, "beta": 1, "gamma": 0, "delta": 1}

    def test_plans_are_pure_functions_of_the_seed(self):
        one = generate_plan(7, self.PLACEMENT, clients=4)
        two = generate_plan(7, self.PLACEMENT, clients=4)
        assert one.as_dict() == two.as_dict()

    def test_plan_invariants(self):
        for seed in range(5):
            plan = generate_plan(seed, self.PLACEMENT, clients=4)
            assert len(plan.kills) == 1
            killed_shard = next(iter(plan.kills))
            # The kill lands after that shard's load acks.
            assert plan.kills[killed_shard] > len(plan.killed_modules)
            assert set(plan.killed_modules) == {
                m for m, s in self.PLACEMENT.items() if s == killed_shard}
            # Corruption stays off the killed shard, or the respawn-warm
            # zero-bootstrap gate would be meaningless.
            assert set(plan.corrupt_modules) <= set(plan.safe_modules)
            assert not set(plan.corrupt_modules) & set(plan.killed_modules)
            assert plan.victim_module in self.PLACEMENT
            assert all(0 <= index < 4 for index in plan.truncate_clients)

    def test_single_shard_plan_skips_corruption(self):
        plan = generate_plan(3, {"alpha": 0, "beta": 0}, clients=2)
        assert plan.safe_modules == []
        assert plan.corrupt_modules == []
        assert plan.victim_module in plan.killed_modules


class _FakeProcess:
    def __init__(self):
        self.kills = 0

    def kill(self):
        self.kills += 1


class _FakeWorker:
    def __init__(self):
        self.process = _FakeProcess()


class _FakePool:
    def __init__(self, shards):
        self._workers = {shard: _FakeWorker() for shard in shards}

    def worker(self, shard):
        return self._workers[shard]


class TestChaosController:
    def test_kill_fires_exactly_once_at_the_threshold(self):
        plan = generate_plan(0, {"alpha": 0}, clients=1)
        plan.kills = {0: 3}
        pool = _FakePool([0, 1])
        controller = ChaosController(pool, plan)
        for _ in range(2):
            controller.on_response(0, {"ok": True})
        assert pool.worker(0).process.kills == 0
        for _ in range(4):
            controller.on_response(0, {"ok": True})
        assert pool.worker(0).process.kills == 1
        assert controller.kills_fired == {0: 3}
        # Unplanned shards are never touched.
        controller.on_response(1, {"ok": True})
        assert pool.worker(1).process.kills == 0


class TestStoreCorruption:
    def test_corrupted_entries_are_counted_discarded_and_recomputed(
            self, tmp_path):
        root = str(tmp_path / "store")
        store = ResultStore(root)
        digest = "d" * 64
        key = store.key(digest, "load")
        store.put(key, {"functions": ["main"]})
        corrupted = corrupt_store_entries(root, {"m": digest}, ["m"])
        assert len(corrupted) == 1
        fresh = ResultStore(root)
        assert fresh.get(key) is None
        assert fresh.corrupt_entries == 1
        # The discard deletes the bad entry; a recompute can re-store it.
        fresh.put(key, {"functions": ["main"]})
        assert fresh.get(key) == {"functions": ["main"]}

    def test_missing_entries_are_skipped_not_invented(self, tmp_path):
        root = str(tmp_path / "store")
        assert corrupt_store_entries(root, {"m": "e" * 64}, ["m"]) == []
