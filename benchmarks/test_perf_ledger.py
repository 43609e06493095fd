"""The committed perf trajectory: every row of ``perf_ledger.jsonl`` is complete.

Each performance change appends one JSON row to ``benchmarks/perf_ledger.jsonl``
with what ``perfbench`` measured for it: the medians and quartiles of the
five end-to-end metrics (``BENCHMARK.json``) on both workloads, for the parent
commit and the change, over alternating run pairs, plus the per-cycle deltas
of the ``--trace 1`` layers the change touched, on the workload it targets.
A row may also carry ``counters``: exact parent/change values of
deterministic per-layer counts (solver steps), which repeat run to run.  The
benchmark outputs themselves are not committed, so this file is the
trajectory.
"""

import json
import math
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
LEDGER = ROOT / "benchmarks" / "perf_ledger.jsonl"

SIDES = ("parent", "change")
#: A ``session_edits`` trace always reports the edit path's layers.
EDIT_PATH_LAYERS = (
    "frontend.lex_s", "frontend.parse_s", "frontend.sema_s", "frontend.lower_s",
    "transforms.mem2reg_s", "transforms.simplify_s", "transforms.essa_s",
    "transforms.verify_s", "ir.print_s", "service.handle_s.edit",
)


def _rows():
    lines = LEDGER.read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _names(section):
    return [entry["name"] for entry in _spec()[section]]


def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def test_ledger_has_rows():
    assert _rows()


@pytest.mark.parametrize("index", range(len(_rows())))
def test_row_has_required_fields(index):
    row = _rows()[index]
    for key in ("change", "date", "host"):
        assert isinstance(row[key], str) and row[key]
    assert isinstance(row["seed"], int)
    assert _number(row["run_seconds"]) and row["run_seconds"] > 0
    assert isinstance(row["pairs"], int) and row["pairs"] >= 1

    metrics = _names("end_to_end")
    for workload in _names("workloads"):
        sides = row["end_to_end"][workload]
        for side in SIDES:
            for metric in metrics:
                summary = sides[side][metric]
                assert all(_number(summary[k]) for k in ("q1", "median", "q3")), \
                    (workload, side, metric)
                assert summary["q1"] <= summary["median"] <= summary["q3"], \
                    (workload, side, metric)

    layers = set(_names("per_layer"))
    trace = row["trace"]
    assert trace["workload"] in _names("workloads")
    assert isinstance(trace["seed"], int) and isinstance(trace["runs"], int)
    assert trace["per_cycle"] and set(trace["per_cycle"]) <= layers
    if trace["workload"] == "session_edits":
        assert set(EDIT_PATH_LAYERS) <= set(trace["per_cycle"])
    for layer, cycle in trace["per_cycle"].items():
        assert all(_number(cycle[k]) for k in ("parent", "change", "delta")), layer
        assert cycle["delta"] == pytest.approx(cycle["change"] - cycle["parent"],
                                               abs=1e-6), layer

    counters = row.get("counters", {})
    assert set(counters) <= layers
    for layer, sides in counters.items():
        assert set(sides) == set(SIDES), layer
        assert all(isinstance(sides[side], int) and not isinstance(sides[side], bool)
                   and sides[side] >= 0 for side in SIDES), layer
