"""``pipeline_cold``: the paper pipeline, batch and cold, over a seeded corpus.

Every *pass* runs in a fresh interpreter process (so the process-global
symbolic intern table and order memos start empty, as they do for a user
running the evaluation), and takes each corpus program through
``compile_source`` -> GR/LR -> RBAA and basic ``query_many`` over every
intraprocedural pointer pair -> bounds and parallel-loop reports.

The corpus is drawn from a fixed pool: one program per size stratum of the
Figure-15 sweep (2-60 idiom instances, 25 strata of 2) plus one program per
Figure-13 suite idiom mix.  Every pool program's verdict digest is committed
in ``expected_pipeline.json`` (written by ``run.py --write-expected``, which
refuses to write unless the interpreter oracles report zero violations on
the whole pool).

Run a pass by hand: ``python3 perfbench/pipeline.py < corpus.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from typing import Any, Dict, List, Tuple

import common
import spans

EXPECTED_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected_pipeline.json")

#: Figure-15 sweep: points, smallest and largest idiom-instance counts.
SWEEP = (50, 2, 60)
STRATUM = 2
#: The Figure-13 suites whose idiom mixes the corpus covers.
SUITES = ("MallocBench", "Prolangs", "PtrDist")
MIX_VARIANTS = 5
MIX_INSTANCES = 12


def pool() -> Dict[str, Any]:
    """Every program the corpus can draw, by name (generator configs)."""
    from repro.benchgen import GeneratorConfig, SuiteProgram, stable_seed
    from repro.evaluation.scalability import scalability_configs

    configs = {config.name: config for config in scalability_configs(*SWEEP)}
    for suite in SUITES:
        mix = SuiteProgram("mix", suite, 1, 0).config().mix
        for variant in range(MIX_VARIANTS):
            name = f"fig13_{suite.lower()}_{variant}"
            configs[name] = GeneratorConfig(
                name=name, instances=MIX_INSTANCES, mix=dict(mix),
                seed=stable_seed(f"perfbench:{name}", 1_000_000))
    return configs


def draw(seed: int, smoke: bool) -> List[str]:
    """The seeded corpus: one sweep point per stratum, one program per mix."""
    from repro.benchgen import stable_seed

    rng = random.Random(stable_seed(f"perfbench/pipeline_cold/{seed}"))
    points = SWEEP[0]
    strata = [list(range(start, min(start + STRATUM, points)))
              for start in range(0, points, STRATUM)]
    names = [f"scale_{rng.choice(stratum):02d}" for stratum in strata]
    names += [f"fig13_{suite.lower()}_{rng.randrange(MIX_VARIANTS)}"
              for suite in SUITES]
    if smoke:
        names = names[:2] + names[-1:]
    return names


def digest(outputs: Dict[str, Any]) -> str:
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- one cold pass (runs in a child process) -----------------------------------


def run_pass(programs: List[Tuple[str, str]], traced: bool,
             spans_path: str) -> Dict[str, Any]:
    from repro import AnalysisManager, compile_source, keys
    from repro.evaluation.harness import enumerate_query_pairs, solver_breakdown

    tracer = spans.install(spans.Tracer()) if traced else None
    symbolic_before = common.symbolic_snapshot()
    counts: Counter = Counter()
    records = []
    for name, source in programs:
        if tracer is not None:
            tracer.request = name
        started = time.perf_counter()
        module = compile_source(source, name)
        manager = AnalysisManager(module)
        rbaa = manager.get(keys.RBAA)
        basic = manager.get(keys.BASIC)
        pairs = [(pair.a, pair.b) for pair in enumerate_query_pairs(module)]
        rbaa_no_alias = rbaa.no_alias_pairs(pairs)
        basic_no_alias = basic.no_alias_pairs(pairs)
        bounds = manager.get(keys.BOUNDS).module_report()
        loops = manager.get(keys.PARALLEL).module_report()
        seconds = time.perf_counter() - started
        records.append({
            "name": name, "seconds": seconds,
            "instructions": module.instruction_count(),
            "digest": digest({"queries": len(pairs), "rbaa": rbaa_no_alias,
                              "basic": basic_no_alias, "bounds": bounds,
                              "parallel": loops})})
        counts["core.queries"] += rbaa.statistics.queries
        counts["core.answered_by_global"] += rbaa.statistics.answered_by_global
        counts["core.answered_by_local"] += rbaa.statistics.answered_by_local
        counts["outcome_hits"] += rbaa._outcomes.hits
        counts["outcome_misses"] += rbaa._outcomes.misses
        counts["clients.accesses"] += bounds["summary"]["accesses"]
        counts["clients.loops"] += loops["summary"]["loops"]
        for key, value in manager.statistics.as_dict().items():
            counts["engine." + key] += value
        for problem, cost in solver_breakdown(manager).items():
            if problem in common.STEP_METRICS:
                counts[common.STEP_METRICS[problem]] += cost["steps"]
    result: Dict[str, Any] = {
        "programs": records, "peak_rss_mb": common.own_peak_rss_mb(),
        "symbolic": [symbolic_before, common.symbolic_snapshot()]}
    if tracer is not None:
        tracer.uninstall()
        counts.update(tracer.counts)
        result["self_times"] = tracer.self_times()
        tracer.write(spans_path)
    result["counts"] = dict(sorted(counts.items()))
    return result


def spawn_pass(programs: List[Tuple[str, str]], traced: bool,
               spans_path: str) -> Dict[str, Any]:
    """Run one pass in a fresh interpreter and wait for it to end."""
    payload = json.dumps({"programs": programs, "traced": traced,
                          "spans_path": spans_path})
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__)], input=payload,
        capture_output=True, text=True, timeout=150, check=False)
    if completed.returncode != 0:
        raise RuntimeError(f"pipeline pass failed: {completed.stderr[-2000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


# -- correctness ----------------------------------------------------------------


def load_expected() -> Dict[str, str]:
    with open(EXPECTED_FILE, "r", encoding="utf-8") as handle:
        return json.load(handle)["programs"]


def oracle_violations(configs: List[Any]) -> Dict[str, int]:
    """Interpreter-oracle violations (alias/range and client claims) per program."""
    from repro.benchgen import generate_module
    from repro.evaluation.clients import check_clients_program
    from repro.evaluation.soundness import check_program

    violations = {}
    for config in configs:
        program = generate_module(config)
        soundness = check_program(program)
        clients = check_clients_program(program)
        bad = len(soundness.violations) + len(clients.violations)
        if not (soundness.executed and clients.executed):
            bad += 1
        violations[config.name] = bad
    return violations


def write_expected() -> int:
    """Regenerate ``expected_pipeline.json`` over the whole pool."""
    from repro.benchgen import GENERATOR_VERSION, generate_source

    configs = pool()
    bad = {name: count for name, count in
           oracle_violations(list(configs.values())).items() if count}
    if bad:
        print(f"oracle violations, expected file not written: {bad}",
              file=sys.stderr)
        return 1
    programs = [(name, generate_source(config))
                for name, config in configs.items()]
    result = spawn_pass(programs, False, "")
    expected = {record["name"]: record["digest"]
                for record in result["programs"]}
    with open(EXPECTED_FILE, "w", encoding="utf-8") as handle:
        json.dump({"generator_version": GENERATOR_VERSION,
                   "programs": dict(sorted(expected.items()))},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {EXPECTED_FILE}: {len(expected)} programs, oracle clean")
    return 0


# -- the workload ----------------------------------------------------------------


def run(seed: int, seconds: float, traced: bool, smoke: bool) -> None:
    from repro.benchgen import generate_source

    names = draw(seed, smoke)
    setups = []
    for _ in range(common.setup_repeats(smoke)):
        started = time.perf_counter()
        configs = pool()
        programs = [(name, generate_source(configs[name])) for name in names]
        expected = load_expected()
        spawn_pass([], False, "")  # a cold interpreter start, as each pass pays
        setups.append(time.perf_counter() - started)

    passes: List[Dict[str, Any]] = []
    traced_flags: List[bool] = []
    deadline = time.perf_counter() + seconds
    minimum = 4 if traced else 2
    while len(passes) < minimum or time.perf_counter() < deadline:
        # A traced run alternates untraced and traced passes, so the tracing
        # overhead is measured on the same machine state.
        with_spans = traced and len(passes) % 2 == 1
        path = common.output_path(
            f"spans-pipeline_cold-seed{seed}-pass{len(passes)}.jsonl")
        passes.append(spawn_pass(programs, with_spans, path))
        traced_flags.append(with_spans)

    # Correctness, outside the timed passes.
    failed = attempted = 0
    for result in passes:
        for record in result["programs"]:
            attempted += 1
            if expected.get(record["name"]) != record["digest"]:
                failed += 1
    violations = oracle_violations([configs[name] for name in names])
    failed += sum(1 for count in violations.values() if count)
    problems = [f"oracle: {name} {count}" for name, count in violations.items()
                if count]

    def pass_seconds(result: Dict[str, Any]) -> float:
        return sum(record["seconds"] for record in result["programs"])

    if not traced:
        latencies = [record["seconds"] * 1e3 for result in passes
                     for record in result["programs"]]
        common.write_samples("pipeline_cold", seed, [
            [[r["name"], r["seconds"], r["instructions"]]
             for r in result["programs"]] for result in passes])
        metrics = common.end_to_end(
            work_per_s=sum(record["instructions"] for result in passes
                           for record in result["programs"])
            / sum(pass_seconds(result) for result in passes),
            p75_ms=common.percentile(latencies, 0.75),
            p90_ms=common.percentile(latencies, 0.90),
            peak_rss_mb=common.median([r["peak_rss_mb"] for r in passes]),
            setup_s=common.median(setups))
    else:
        traced_passes = [r for r, flag in zip(passes, traced_flags) if flag]
        plain_passes = [r for r, flag in zip(passes, traced_flags) if not flag]
        snapshots = [result["counts"] for result in traced_passes]
        problems += common.check_counter_snapshot(
            "pipeline_cold", seed, smoke, snapshots[0], snapshots[1])
        values = _layer_values(traced_passes)
        values["trace.overhead_pct"] = 100.0 * (
            common.median([pass_seconds(r) for r in traced_passes])
            / common.median([pass_seconds(r) for r in plain_passes]) - 1.0)
        metrics = common.layer_result(values)
    for problem in problems:
        print(f"pipeline_cold: {problem}", file=sys.stderr)
    common.emit(failed == 0 and not problems, attempted, failed, metrics)


def _layer_values(traced_passes: List[Dict[str, Any]]) -> Dict[str, float]:
    """Median over traced passes of each per-pass layer metric."""
    per_pass: List[Dict[str, float]] = []
    for result in traced_passes:
        counts = dict(result["counts"])
        hits = counts.pop("outcome_hits")
        misses = counts.pop("outcome_misses")
        values = {name: float(value) for name, value in counts.items()}
        values["core.outcome_memo_hit_ratio"] = common.ratio(hits, misses)
        values.update(common.span_metrics(result["self_times"], 1))
        values.update(common.symbolic_metrics(*result["symbolic"], 1))
        per_pass.append(values)
    return common.median_by_name(per_pass)


def _child_main() -> int:
    common.use_source_tree()
    request = json.load(sys.stdin)
    programs = [tuple(entry) for entry in request["programs"]]
    result = run_pass(programs, request["traced"], request["spans_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(_child_main())
