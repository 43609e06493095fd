"""The benchmark's own tests: every workload in smoke mode, plus the harness.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import common
import spans

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("pipeline_cold", "session_edits", "served_reads",
             "served_warm_restart")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(cwd, *arguments):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *arguments],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload, trace):
    completed = _run(ROOT, "--workload", workload, "--seed", "3",
                     "--seconds", "0.5", "--trace", str(trace), "--smoke")
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, completed.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in spec]
    for metric in spec:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        if not trace:
            assert reported["value"] > 0, metric["name"]
    if workload == "served_warm_restart" and trace:
        assert result["metrics"]["service.warm_solver_steps"]["value"] == 0
        assert result["metrics"]["service.store_hit_ratio"]["value"] == 1.0


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run(tmp_path, "--workload", "pipeline_cold", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_spec_lists_every_layer_metric():
    spec = _spec()
    assert [m["name"] for m in spec["per_layer"]] == list(common.LAYER_METRICS)
    assert "setup_s" in [m["name"] for m in spec["end_to_end"]]


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        time.sleep(0.02)
        with tracer.span("inner"):
            time.sleep(0.03)
    self_times = tracer.self_times()
    outer = tracer.spans[0].end - tracer.spans[0].start
    inner = tracer.spans[1].end - tracer.spans[1].start
    assert tracer.spans[1].parent == 0
    assert self_times["outer"] == pytest.approx(outer - inner)
    assert self_times["inner"] == pytest.approx(inner)


def test_wrappers_are_removed_on_uninstall():
    common.use_source_tree()
    from repro.engine.manager import AnalysisManager
    from repro.frontend import driver
    from repro.core.rbaa import RBAAAliasAnalysis

    tokenize, get = driver.tokenize, AnalysisManager.get
    tracer = spans.install(spans.Tracer())
    assert driver.tokenize is not tokenize
    assert "query_many" in RBAAAliasAnalysis.__dict__
    tracer.uninstall()
    assert driver.tokenize is tokenize and AnalysisManager.get is get
    assert "query_many" not in RBAAAliasAnalysis.__dict__


def test_pipeline_corpus_is_seeded_and_covered():
    common.use_source_tree()
    import pipeline

    expected = pipeline.load_expected()
    assert set(pipeline.pool()) == set(expected)
    first, again, other = (pipeline.draw(1, False), pipeline.draw(1, False),
                           pipeline.draw(2, False))
    assert first == again and first != other
    assert len(first) == 28 and set(first) <= set(expected)
