"""Structural verification of IR modules.

The verifier enforces the invariants the analyses rely on:

* every reachable block ends in exactly one terminator;
* φ-functions appear only at the top of blocks and have one incoming value
  per predecessor;
* every SSA value is defined before use (dominance is checked separately by
  the tests via :mod:`repro.analysis.dominance`; here we check block-local
  ordering and that operands belong to the same function);
* names of values are unique within a function;
* operand types are consistent: loads and stores dereference pointer-typed
  operands, conditional branches test an ``i1``, and φ/σ results carry the
  type of the values they merge.

Violations are collected as :class:`VerificationError` records; ``verify``
raises on the first batch unless ``raise_on_error=False``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..analysis.cfg import predecessor_map
from .basicblock import BasicBlock
from .function import Function
from .instructions import (
    BinaryInst,
    BranchInst,
    Instruction,
    LoadInst,
    PhiInst,
    SigmaInst,
    StoreInst,
)
from .module import Module
from .types import BOOL
from .values import Argument, Constant, GlobalVariable, UndefValue

__all__ = ["VerificationError", "IRVerificationFailure", "verify_function", "verify_module"]


@dataclass(frozen=True)
class VerificationError:
    """One structural problem found by the verifier."""

    function: str
    message: str

    def __str__(self) -> str:
        return f"[@{self.function}] {self.message}"


class IRVerificationFailure(Exception):
    """Raised when verification finds at least one error."""

    def __init__(self, errors: List[VerificationError]):
        super().__init__("\n".join(str(error) for error in errors))
        self.errors = errors


def _check_terminators(function: Function, errors: List[VerificationError]) -> None:
    for block in function.blocks:
        terminator_positions = [
            index for index, inst in enumerate(block.instructions) if inst.is_terminator()
        ]
        if not terminator_positions:
            errors.append(VerificationError(function.name, f"block {block.name} has no terminator"))
        elif terminator_positions[-1] != len(block.instructions) - 1 \
                or len(terminator_positions) > 1:
            errors.append(VerificationError(
                function.name, f"block {block.name} has a misplaced or duplicate terminator"))
        for inst in block.instructions:
            if isinstance(inst, BranchInst):
                for target in inst.targets():
                    if target not in function.blocks:
                        errors.append(VerificationError(
                            function.name,
                            f"branch in {block.name} targets a block outside the function"))


def _check_phis(function: Function, errors: List[VerificationError]) -> None:
    # One pass over the edges: ``block.predecessors()`` rescans every block.
    predecessors_of = predecessor_map(function)
    for block in function.blocks:
        seen_non_phi = False
        predecessors = predecessors_of[block]
        for inst in block.instructions:
            if isinstance(inst, PhiInst):
                if seen_non_phi:
                    errors.append(VerificationError(
                        function.name,
                        f"phi {inst.short_name()} is not at the top of {block.name}"))
                incoming_blocks = inst.incoming_blocks
                if len(incoming_blocks) != len(inst.operands):
                    errors.append(VerificationError(
                        function.name, f"phi {inst.short_name()} has mismatched incoming lists"))
                for incoming_block in incoming_blocks:
                    if incoming_block not in predecessors:
                        errors.append(VerificationError(
                            function.name,
                            f"phi {inst.short_name()} names {incoming_block.label()} "
                            f"which is not a predecessor of {block.name}"))
            elif not isinstance(inst, SigmaInst):
                seen_non_phi = True


def _check_names(function: Function, errors: List[VerificationError]) -> None:
    seen = {}
    for value in function.values():
        if not value.name:
            continue
        if value.name in seen:
            errors.append(VerificationError(
                function.name, f"duplicate value name %{value.name}"))
        seen[value.name] = value


def _definition_index(function: Function) -> dict:
    order = {}
    position = 0
    for block in function.blocks:
        for inst in block.instructions:
            order[inst] = position
            position += 1
    return order


def _check_operands(function: Function, errors: List[VerificationError]) -> None:
    local_values = set(function.args)
    for inst in function.instructions():
        local_values.add(inst)
    for block in function.blocks:
        for inst in block.instructions:
            for operand in inst.operands:
                if isinstance(operand, (Constant, GlobalVariable, Function, BasicBlock)):
                    continue
                if isinstance(operand, (Argument, Instruction)) and operand not in local_values:
                    errors.append(VerificationError(
                        function.name,
                        f"instruction {inst.short_name() or inst.opcode} uses a value "
                        f"defined in another function: {operand.short_name()}"))
            if isinstance(inst, PhiInst):
                continue
            # Same-block straight-line order: a use must not precede its def.
            for operand in inst.operands:
                if isinstance(operand, Instruction) and operand.parent is block:
                    if block.instructions.index(operand) > block.instructions.index(inst):
                        errors.append(VerificationError(
                            function.name,
                            f"{inst.short_name() or inst.opcode} uses "
                            f"{operand.short_name()} before its definition in {block.name}"))


def _check_types(function: Function, errors: List[VerificationError]) -> None:
    """Operand/result type consistency for the memory and merge instructions."""
    for block in function.blocks:
        for inst in block.instructions:
            if isinstance(inst, LoadInst) and not inst.pointer.type.is_pointer():
                errors.append(VerificationError(
                    function.name,
                    f"load {inst.short_name()} dereferences non-pointer "
                    f"{inst.pointer.short_name()}"))
            elif isinstance(inst, StoreInst) and not inst.pointer.type.is_pointer():
                errors.append(VerificationError(
                    function.name,
                    f"store writes through non-pointer {inst.pointer.short_name()}"))
            elif isinstance(inst, BranchInst) and inst.is_conditional() \
                    and inst.condition.type != BOOL:
                errors.append(VerificationError(
                    function.name,
                    f"conditional branch in {block.name} tests a "
                    f"non-i1 value {inst.condition.short_name()}"))
            elif isinstance(inst, PhiInst):
                for value, _ in inst.incoming():
                    if isinstance(value, UndefValue):
                        continue
                    if value.type != inst.type:
                        errors.append(VerificationError(
                            function.name,
                            f"phi {inst.short_name()} of type {inst.type!r} has "
                            f"incoming {value.short_name()} of type {value.type!r}"))
            elif isinstance(inst, SigmaInst) and inst.source.type != inst.type:
                errors.append(VerificationError(
                    function.name,
                    f"sigma {inst.short_name()} of type {inst.type!r} renames "
                    f"{inst.source.short_name()} of type {inst.source.type!r}"))
            elif isinstance(inst, BinaryInst) and inst.lhs.type != inst.rhs.type:
                errors.append(VerificationError(
                    function.name,
                    f"binary {inst.short_name() or inst.opcode} mixes operand "
                    f"types {inst.lhs.type!r} and {inst.rhs.type!r}"))


def verify_function(function: Function, raise_on_error: bool = True) -> List[VerificationError]:
    """Verify one function; returns the list of problems found."""
    errors: List[VerificationError] = []
    if function.is_declaration():
        return errors
    _check_terminators(function, errors)
    _check_phis(function, errors)
    _check_names(function, errors)
    _check_operands(function, errors)
    _check_types(function, errors)
    if errors and raise_on_error:
        raise IRVerificationFailure(errors)
    return errors


def verify_module(module: Module, raise_on_error: bool = True) -> List[VerificationError]:
    """Verify every defined function of ``module``."""
    errors: List[VerificationError] = []
    for function in module.defined_functions():
        errors.extend(verify_function(function, raise_on_error=False))
    if errors and raise_on_error:
        raise IRVerificationFailure(errors)
    return errors
