"""The service driver end to end: every mode's gates, and its usage errors."""

import json

import pytest

from repro.benchgen.suites import SUITE_PROGRAMS
from repro.service.loadtest import RunResult, check_identity, main

#: A reduced corpus: one module per shard with two workers.
PROGRAMS = "allroots,fixoutput"


#: The traffic flags the plain and chaos modes read.
TRAFFIC = ["--workers", "2", "--clients", "4", "--requests", "6"]


@pytest.mark.parametrize("mode", [
    TRAFFIC,
    TRAFFIC + ["--chaos", "--chaos-seed", "1"],
    ["--edits", "--transport", "inprocess"],
], ids=["plain", "chaos", "edits"])
def test_every_mode_passes_its_gates(mode, tmp_path):
    out = tmp_path / "record.json"
    status = main(["--quick", "--programs", PROGRAMS, "--check",
                   "--out", str(out)] + mode)
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["gates"], "a mode without gates gates nothing"
    assert all(record["gates"].values()), record["gates"]
    assert status == 0
    assert record["config"]["programs"] == PROGRAMS.split(",")
    assert sorted(record["corpus"]) == sorted(PROGRAMS.split(","))


@pytest.mark.parametrize("mode", [[], ["--chaos"], ["--edits"]],
                         ids=["plain", "chaos", "edits"])
def test_unknown_program_is_a_usage_error_listing_valid_names(mode, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--programs", "allroots,nosuch"] + mode)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "nosuch" in err
    assert all(program.name in err for program in SUITE_PROGRAMS)


def test_chaos_and_edits_are_exclusive_modes(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--chaos", "--edits"])
    assert excinfo.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_unanswered_request_is_an_identity_mismatch():
    answered = {"ok": True, "id": "c0.0"}
    result = RunResult(transcript=[("c0.0", answered)], hangs=["c0.1"])
    expected = {"c0.0": answered, "c0.1": {"ok": True, "id": "c0.1"}}
    assert check_identity(result, expected) == {
        "checked": 2, "mismatches": 1,
        "first_mismatches": [{"id": "c0.1", "expected": expected["c0.1"],
                              "actual": None}]}
