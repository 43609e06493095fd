"""Lightweight IR clean-ups: constant folding and dead-code elimination.

These are not required for correctness of the analyses, but the frontend and
the synthetic generator occasionally emit trivially foldable arithmetic
(``0 + x``, comparisons of constants) and unused values; folding them keeps
instruction counts honest for the scalability experiment and exercises the
use-list machinery.
"""

from __future__ import annotations

from typing import Optional

from ..ir.function import Function
from ..ir.instructions import BinaryInst, ICmpInst, Instruction, PhiInst, SelectInst
from ..ir.module import Module
from ..ir.values import ConstantInt, Value

__all__ = ["fold_constants_in_function", "eliminate_dead_code_in_function",
           "simplify_function", "simplify_module"]


def _fold_binary(inst: BinaryInst) -> Optional[ConstantInt]:
    """Fold a binary instruction whose operands are integer constants."""
    if not isinstance(inst.lhs, ConstantInt) or not isinstance(inst.rhs, ConstantInt):
        return None
    a, b = inst.lhs.value, inst.rhs.value
    opcode = inst.opcode
    try:
        if opcode == "add":
            return ConstantInt(a + b, inst.type)
        if opcode == "sub":
            return ConstantInt(a - b, inst.type)
        if opcode == "mul":
            return ConstantInt(a * b, inst.type)
        if opcode == "sdiv":
            quotient = abs(a) // abs(b)
            return ConstantInt(-quotient if (a < 0) != (b < 0) else quotient, inst.type)
        if opcode == "srem":
            remainder = abs(a) % abs(b)
            return ConstantInt(-remainder if a < 0 else remainder, inst.type)
        if opcode == "and":
            return ConstantInt(a & b, inst.type)
        if opcode == "or":
            return ConstantInt(a | b, inst.type)
        if opcode == "xor":
            return ConstantInt(a ^ b, inst.type)
        if opcode == "shl":
            return ConstantInt(a << b, inst.type)
        if opcode == "ashr":
            return ConstantInt(a >> b, inst.type)
    except (ZeroDivisionError, ValueError):
        return None
    return None


def _fold_icmp(inst: ICmpInst) -> Optional[ConstantInt]:
    if not isinstance(inst.lhs, ConstantInt) or not isinstance(inst.rhs, ConstantInt):
        return None
    a, b = inst.lhs.value, inst.rhs.value
    table = {
        "eq": a == b, "ne": a != b,
        "slt": a < b, "sle": a <= b, "sgt": a > b, "sge": a >= b,
    }
    return ConstantInt(int(table[inst.predicate]), inst.type)


def _fold_identity(inst: BinaryInst) -> Optional[Value]:
    """``x + 0``, ``x - 0``, ``x * 1`` and friends fold to ``x``."""
    lhs, rhs = inst.lhs, inst.rhs
    if isinstance(rhs, ConstantInt):
        if rhs.value == 0 and inst.opcode in ("add", "sub", "or", "xor", "shl", "ashr"):
            return lhs
        if rhs.value == 1 and inst.opcode in ("mul", "sdiv"):
            return lhs
    if isinstance(lhs, ConstantInt):
        if lhs.value == 0 and inst.opcode == "add":
            return rhs
        if lhs.value == 1 and inst.opcode == "mul":
            return rhs
    return None


def fold_constants_in_function(function: Function) -> int:
    """Fold constant arithmetic and identities; returns the number of folds."""
    folded = 0
    changed = True
    while changed:
        changed = False
        for block in function.blocks:
            for inst in list(block.instructions):
                replacement: Optional[Value] = None
                if isinstance(inst, BinaryInst):
                    replacement = _fold_binary(inst) or _fold_identity(inst)
                elif isinstance(inst, ICmpInst):
                    replacement = _fold_icmp(inst)
                elif isinstance(inst, SelectInst) and isinstance(inst.condition, ConstantInt):
                    replacement = inst.true_value if inst.condition.value else inst.false_value
                if replacement is not None:
                    inst.replace_all_uses_with(replacement)
                    inst.erase_from_parent()
                    folded += 1
                    changed = True
    return folded


def _has_side_effects(inst: Instruction) -> bool:
    return (inst.is_terminator() or inst.may_write_memory() or inst.may_read_memory()
            or inst.is_allocation_site() or inst.opcode in ("call", "free"))


def eliminate_dead_code_in_function(function: Function) -> int:
    """Remove side-effect-free instructions whose results are never used."""
    removed = 0
    changed = True
    while changed:
        changed = False
        for block in function.blocks:
            for inst in reversed(list(block.instructions)):
                if _has_side_effects(inst) or isinstance(inst, PhiInst):
                    continue
                if not inst.uses:
                    inst.erase_from_parent()
                    removed += 1
                    changed = True
    return removed


def simplify_function(function: Function) -> int:
    """Constant folding followed by DCE; returns the number of changes."""
    return fold_constants_in_function(function) + eliminate_dead_code_in_function(function)


def simplify_module(module: Module) -> int:
    """:func:`simplify_function` over every function; returns total changes."""
    return sum(simplify_function(function) for function in module.defined_functions())
