"""Abstract syntax tree of the mini-C frontend.

Nodes are slotted dataclasses (ASTs dominate cold-compile allocation, and
slots keep them compact and typo-proof); type information is attached to the
side tables of the semantic analysis (:mod:`repro.frontend.sema`), never to
the nodes themselves, and consumed during lowering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

__all__ = [
    # type syntax
    "TypeSpec", "NamedTypeSpec", "PointerTypeSpec", "ArrayTypeSpec", "StructTypeSpec",
    # expressions
    "Expr", "IntLiteral", "FloatLiteral", "CharLiteral", "StringLiteral", "NullLiteral",
    "Identifier", "UnaryOp", "BinaryOp", "Assignment", "Conditional", "Call",
    "ArrayIndex", "Member", "Cast", "SizeOf",
    # statements
    "Stmt", "DeclStmt", "ExprStmt", "CompoundStmt", "IfStmt", "WhileStmt", "DoWhileStmt",
    "ForStmt", "ReturnStmt", "BreakStmt", "ContinueStmt", "EmptyStmt",
    # declarations
    "ParamDecl", "VarDecl", "FieldDecl", "StructDecl", "FunctionDecl", "TranslationUnit",
]


# ---------------------------------------------------------------------------
# Type syntax
# ---------------------------------------------------------------------------

class TypeSpec:
    """Base class for syntactic type specifications."""

    __slots__ = ()


@dataclass(slots=True)
class NamedTypeSpec(TypeSpec):
    """A builtin scalar type name: ``int``, ``char``, ``float``, ``double``, ``void``."""

    name: str


@dataclass(slots=True)
class StructTypeSpec(TypeSpec):
    """A reference to a struct type by name: ``struct point``."""

    name: str


@dataclass(slots=True)
class PointerTypeSpec(TypeSpec):
    """A pointer to another type specification."""

    pointee: TypeSpec


@dataclass(slots=True)
class ArrayTypeSpec(TypeSpec):
    """An array with an optionally known constant size."""

    element: TypeSpec
    size: Optional["Expr"]


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expr:
    """Base class of expressions; ``line`` supports diagnostics."""

    __slots__ = ()

    line: int = 0


@dataclass(slots=True)
class IntLiteral(Expr):
    value: int
    line: int = 0


@dataclass(slots=True)
class FloatLiteral(Expr):
    value: float
    line: int = 0


@dataclass(slots=True)
class CharLiteral(Expr):
    value: int
    line: int = 0


@dataclass(slots=True)
class StringLiteral(Expr):
    value: str
    line: int = 0


@dataclass(slots=True)
class NullLiteral(Expr):
    line: int = 0


@dataclass(slots=True)
class Identifier(Expr):
    name: str
    line: int = 0


@dataclass(slots=True)
class UnaryOp(Expr):
    """``op operand`` where op ∈ {-, !, ~, *, &, ++, --, p++, p--}.

    Pre/post increment are encoded with ``op`` of ``++``/``--`` and
    ``is_postfix``.
    """

    op: str
    operand: Expr
    is_postfix: bool = False
    line: int = 0


@dataclass(slots=True)
class BinaryOp(Expr):
    op: str
    lhs: Expr
    rhs: Expr
    line: int = 0


@dataclass(slots=True)
class Assignment(Expr):
    """``target op= value`` with ``op`` empty for plain assignment."""

    target: Expr
    value: Expr
    op: str = ""
    line: int = 0


@dataclass(slots=True)
class Conditional(Expr):
    condition: Expr
    true_value: Expr
    false_value: Expr
    line: int = 0


@dataclass(slots=True)
class Call(Expr):
    callee: str
    args: List[Expr] = field(default_factory=list)
    line: int = 0


@dataclass(slots=True)
class ArrayIndex(Expr):
    base: Expr
    index: Expr
    line: int = 0


@dataclass(slots=True)
class Member(Expr):
    """``base.field`` (``is_arrow=False``) or ``base->field`` (``is_arrow=True``)."""

    base: Expr
    field_name: str
    is_arrow: bool
    line: int = 0


@dataclass(slots=True)
class Cast(Expr):
    target_type: TypeSpec
    operand: Expr
    line: int = 0


@dataclass(slots=True)
class SizeOf(Expr):
    target_type: Optional[TypeSpec]
    operand: Optional[Expr] = None
    line: int = 0


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Stmt:
    """Base class of statements."""

    __slots__ = ()


@dataclass(slots=True)
class VarDecl:
    """One declarator of a declaration statement (or a global variable)."""

    name: str
    type_spec: TypeSpec
    initializer: Optional[Expr] = None
    line: int = 0


@dataclass(slots=True)
class DeclStmt(Stmt):
    declarations: List[VarDecl]


@dataclass(slots=True)
class ExprStmt(Stmt):
    expression: Expr


@dataclass(slots=True)
class CompoundStmt(Stmt):
    statements: List[Stmt] = field(default_factory=list)


@dataclass(slots=True)
class IfStmt(Stmt):
    condition: Expr
    then_branch: Stmt
    else_branch: Optional[Stmt] = None


@dataclass(slots=True)
class WhileStmt(Stmt):
    condition: Expr
    body: Stmt


@dataclass(slots=True)
class DoWhileStmt(Stmt):
    body: Stmt
    condition: Expr


@dataclass(slots=True)
class ForStmt(Stmt):
    init: Optional[Stmt]
    condition: Optional[Expr]
    step: Optional[Expr]
    body: Stmt


@dataclass(slots=True)
class ReturnStmt(Stmt):
    value: Optional[Expr] = None


@dataclass(slots=True)
class BreakStmt(Stmt):
    pass


@dataclass(slots=True)
class ContinueStmt(Stmt):
    pass


@dataclass(slots=True)
class EmptyStmt(Stmt):
    pass


# ---------------------------------------------------------------------------
# Top-level declarations
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class ParamDecl:
    name: str
    type_spec: TypeSpec


@dataclass(slots=True)
class FieldDecl:
    name: str
    type_spec: TypeSpec


@dataclass(slots=True)
class StructDecl:
    name: str
    fields: List[FieldDecl]


@dataclass(slots=True)
class FunctionDecl:
    name: str
    return_type: TypeSpec
    params: List[ParamDecl]
    body: Optional[CompoundStmt]  # ``None`` for prototypes
    is_vararg: bool = False


@dataclass(slots=True)
class TranslationUnit:
    """A whole source file."""

    structs: List[StructDecl] = field(default_factory=list)
    globals: List[VarDecl] = field(default_factory=list)
    functions: List[FunctionDecl] = field(default_factory=list)
    #: ``(start, end)`` token index range of every top-level declaration,
    #: in source order; together they cover the stream up to EOF.
    spans: List[Tuple[int, int]] = field(default_factory=list)
