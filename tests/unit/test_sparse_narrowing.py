"""The change-driven descending schedule against a dense reference.

``SparseSolver``'s descending passes apply a transfer only at refinement
points and at nodes with an input written since their last evaluation.
These tests hold that schedule to a test-only reference whose descending
passes re-evaluate every node, on the range analyses the narrowing serves:

* symbolic RA and GR over the soundness corpus (``--quick`` size): every
  final state and every GR ``on_phase`` snapshot is identical, with fewer
  descending transfers;
* the same after every edit of two suite edit scenarios, where GR's edit
  re-seed runs the descending passes of ``resolve_from``;
* a toy problem whose transfer reads an undeclared dependency, where the
  two schedules differ — the contract written in
  ``SparseProblem.dependencies``.
"""

from contextlib import contextmanager

import pytest

from repro.benchgen import edit_scenario, generate_source
from repro.benchgen.suites import SUITE_PROGRAMS
from repro.core import global_analysis
from repro.core.global_analysis import GlobalAnalysisOptions, GlobalRangeAnalysis
from repro.core.locations import LocationTable
from repro.engine import AnalysisManager, SparseProblem, SparseSolver, keys
from repro.evaluation.soundness import soundness_corpus
from repro.frontend import compile_source
from repro.rangeanalysis import symbolic_ra
from repro.rangeanalysis.symbolic_ra import SymbolicRangeAnalysis


class DenseNarrowingSolver(SparseSolver):
    """The reference schedule: every descending pass evaluates every node."""

    def _descending_pass(self):
        for node in self._order:
            self._evaluate(node, phase="descending")


@contextmanager
def dense_schedule():
    """Solve the range analyses built inside the ``with`` on the reference."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(symbolic_ra, "SparseSolver", DenseNarrowingSolver)
        patch.setattr(global_analysis, "SparseSolver", DenseNarrowingSolver)
        yield


def _solve(module):
    ranges = SymbolicRangeAnalysis(module)
    gr = GlobalRangeAnalysis(module, ranges=ranges, locations=LocationTable(module),
                             options=GlobalAnalysisOptions(track_trace=True))
    return ranges, gr


def _assert_same_schedule_result(sparse, dense):
    """Equal fixpoints and snapshots, equal ascending work, less descending."""
    (sparse_ra, sparse_gr), (dense_ra, dense_gr) = sparse, dense
    assert sparse_ra._ranges == dense_ra._ranges
    assert sparse_gr._gr == dense_gr._gr
    assert sparse_gr.trace() == dense_gr.trace()
    for ours, reference in ((sparse_ra.solver_statistics, dense_ra.solver_statistics),
                            (sparse_gr.solver_statistics, dense_gr.solver_statistics)):
        assert ours.sweep_steps == reference.sweep_steps
        assert ours.worklist_steps == reference.worklist_steps
        assert ours.descending_steps <= reference.descending_steps


class TestSoundnessCorpus:
    def test_fixpoints_and_phase_snapshots_match_the_dense_schedule(self):
        saved = {"symbolic-ranges": 0, "global-ranges": 0}
        for config in soundness_corpus():
            module = compile_source(generate_source(config), config.name)
            with dense_schedule():
                dense = _solve(module)
            sparse = _solve(module)
            _assert_same_schedule_result(sparse, dense)
            for ours, reference in zip(sparse, dense):
                saved[ours.solver_statistics.problem] += (
                    reference.solver_statistics.steps - ours.solver_statistics.steps)
        # The schedule is not vacuous: both analyses skip real work.
        assert saved["symbolic-ranges"] > 0 and saved["global-ranges"] > 0


def _canonical(module, table):
    """``table`` keyed by (function, position) instead of IR identity, so
    the states of two separately compiled modules can be compared."""
    labels = {}
    for function in module.defined_functions():
        values = list(function.args) + list(function.instructions())
        for position, value in enumerate(values):
            labels[value] = (function.name, position)
    for variable in module.globals:
        labels[variable] = ("@", variable.name)
    assert set(table) <= set(labels)
    return {labels[value]: state for value, state in table.items()}


def _edit_states(scenario):
    """RA/GR state, GR snapshots and descending steps after every step."""
    name = scenario.config.name
    module = compile_source(scenario.steps[0].source, name)
    manager = AnalysisManager(module)
    ranges = manager.get(keys.RANGES)
    gr = manager.get(keys.GLOBAL_RANGES, options=GlobalAnalysisOptions(track_trace=True))
    states = []
    snapshots = 0
    for step in scenario.steps:
        if step.function:
            donor = compile_source(step.source, name)
            old = module.replace_function(donor.get_function(step.function))
            impact = manager.apply_function_edit(old, module.get_function(step.function))
            assert impact.reseeded.get("global-ranges", 0) > 0
        # This step's snapshots, labelled against the module they were taken on.
        trace = [(label, _canonical(module, snapshot))
                 for label, snapshot in gr.trace()[snapshots:]]
        snapshots += len(trace)
        states.append((_canonical(module, ranges._ranges), _canonical(module, gr._gr),
                       trace))
    steps = (ranges.solver_statistics.descending_steps,
             gr.solver_statistics.descending_steps)
    return states, steps


@pytest.mark.parametrize("program", ["allroots", "anagram"])
def test_edit_reseeds_match_the_dense_schedule(program):
    config = next(p for p in SUITE_PROGRAMS if p.name == program).config()
    scenario = edit_scenario(config, edits=3)
    with dense_schedule():
        dense, dense_steps = _edit_states(scenario)
    sparse, sparse_steps = _edit_states(scenario)
    assert len(sparse) == len(dense) == 4
    for step, (ours, reference) in enumerate(zip(sparse, dense)):
        assert ours == reference, f"step {step}"
    assert sparse_steps[0] < dense_steps[0] and sparse_steps[1] < dense_steps[1]


class _ClampProblem(SparseProblem):
    """``a`` climbs a self-loop to 3, is widened to 100 and narrowed back
    to 3; ``b`` copies ``a``.  ``declare`` says how ``b`` tells the solver
    it reads ``a``: ``"static"`` (``dependencies``), ``"dynamic"``
    (``add_dependency`` from inside the transfer) or ``None`` (it does not —
    a contract violation)."""

    name = "clamp"

    def __init__(self, declare):
        self.declare = declare
        self.state = {}
        self._solver = None

    def bind(self, solver):
        self._solver = solver

    def nodes(self):
        return ["a", "b"]

    def dependencies(self, node):
        if node == "a":
            return ["a"]
        return ["a"] if self.declare == "static" else []

    def transfer(self, node):
        if node == "a":
            return min(self.state.get("a", 0) + 1, 3)
        if self.declare == "dynamic":
            self._solver.add_dependency("b", "a")
        return self.state.get("a", 0)

    def read(self, node):
        return self.state.get(node, 0)

    def write(self, node, value):
        self.state[node] = value

    def is_refinement_point(self, node):
        return node == "a"

    def widen(self, node, old, new):
        return 100 if new > old else old


@pytest.mark.parametrize("solver", [SparseSolver, DenseNarrowingSolver])
@pytest.mark.parametrize("declare", ["static", "dynamic"])
def test_declared_reads_reach_the_same_fixpoint(solver, declare):
    problem = _ClampProblem(declare)
    solver(problem, descending_passes=2).solve()
    assert problem.state == {"a": 3, "b": 3}


class _CappedClimbProblem(SparseProblem):
    """``a`` climbs one step per evaluation of its self-loop and ``b``
    copies it.  Neither is a refinement point, so only staleness brings
    them into a descending pass."""

    name = "capped-climb"

    def __init__(self):
        self.state = {}

    def nodes(self):
        return ["a", "b"]

    def dependencies(self, node):
        return ["a"]

    def transfer(self, node):
        return self.state.get("a", 0) + (1 if node == "a" else 0)

    def read(self, node):
        return self.state.get(node, 0)

    def write(self, node, value):
        self.state[node] = value


@pytest.mark.parametrize("solver", [SparseSolver, DenseNarrowingSolver])
def test_nodes_the_evaluation_cap_skips_stay_stale(solver):
    # The cap stops a's re-evaluation after the sweep, with its self-loop
    # input already rewritten: each descending pass must still take it.
    problem = _CappedClimbProblem()
    solver(problem, max_node_evaluations=1, descending_passes=2).solve()
    assert problem.state == {"a": 3, "b": 3}


def test_an_undeclared_read_goes_stale():
    sparse, dense = _ClampProblem(None), _ClampProblem(None)
    SparseSolver(sparse, descending_passes=2).solve()
    DenseNarrowingSolver(dense, descending_passes=2).solve()
    # The reference re-reads a's narrowed value; the change-driven schedule
    # never learns that b depends on a, so b keeps the sweep's value.
    assert dense.state == {"a": 3, "b": 3}
    assert sparse.state == {"a": 3, "b": 1}
