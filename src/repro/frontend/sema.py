"""Semantic analysis for the mini-C frontend.

The semantic pass resolves syntactic type specifications to IR types, builds
the struct table, collects function signatures (including prototypes for
external functions) and global variables, and reports basic errors
(duplicate definitions, unknown struct names).  The heavy lifting of
expression typing happens during lowering, which consults the
:class:`SemanticInfo` produced here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..ir.types import (
    ArrayType,
    DOUBLE,
    FLOAT,
    FunctionType,
    INT32,
    INT64,
    INT8,
    PointerType,
    StructType,
    Type,
    VOID,
)
from .ast_nodes import (
    ArrayTypeSpec,
    CompoundStmt,
    FunctionDecl,
    IntLiteral,
    NamedTypeSpec,
    PointerTypeSpec,
    StructTypeSpec,
    TranslationUnit,
    TypeSpec,
    VarDecl,
)

__all__ = ["SemanticError", "SemanticInfo", "analyze"]

_BUILTIN_TYPES: Dict[str, Type] = {
    "void": VOID,
    "char": INT8,
    "int": INT32,
    "long": INT64,
    "float": FLOAT,
    "double": DOUBLE,
}

#: Signatures of the library functions the frontend knows about.  Pointers
#: returned by these calls become symbolic/unknown values in the analyses.
KNOWN_EXTERNALS: Dict[str, FunctionType] = {
    "malloc": FunctionType(PointerType(INT8), [INT32]),
    "calloc": FunctionType(PointerType(INT8), [INT32, INT32]),
    "realloc": FunctionType(PointerType(INT8), [PointerType(INT8), INT32]),
    "free": FunctionType(VOID, [PointerType(INT8)]),
    "strlen": FunctionType(INT32, [PointerType(INT8)]),
    "strcpy": FunctionType(PointerType(INT8), [PointerType(INT8), PointerType(INT8)]),
    "strncpy": FunctionType(PointerType(INT8), [PointerType(INT8), PointerType(INT8), INT32]),
    "strcmp": FunctionType(INT32, [PointerType(INT8), PointerType(INT8)]),
    "strcat": FunctionType(PointerType(INT8), [PointerType(INT8), PointerType(INT8)]),
    "memcpy": FunctionType(PointerType(INT8), [PointerType(INT8), PointerType(INT8), INT32]),
    "memset": FunctionType(PointerType(INT8), [PointerType(INT8), INT32, INT32]),
    "atoi": FunctionType(INT32, [PointerType(INT8)]),
    "abs": FunctionType(INT32, [INT32]),
    "rand": FunctionType(INT32, []),
    "printf": FunctionType(INT32, [PointerType(INT8)], is_vararg=True),
    "puts": FunctionType(INT32, [PointerType(INT8)]),
    "getchar": FunctionType(INT32, []),
    "exit": FunctionType(VOID, [INT32]),
}


#: The body a header-only function definition carries (see ``header``).
_EMPTY_BODY = CompoundStmt([])


class SemanticError(Exception):
    """Raised for problems the frontend cannot lower meaningfully."""


@dataclass
class SemanticInfo:
    """Resolved module-level information consumed by the lowerer."""

    structs: Dict[str, StructType] = field(default_factory=dict)
    function_types: Dict[str, FunctionType] = field(default_factory=dict)
    function_decls: Dict[str, FunctionDecl] = field(default_factory=dict)
    global_decls: List[VarDecl] = field(default_factory=list)

    def resolve(self, spec: TypeSpec) -> Type:
        """Resolve a syntactic type specification to an IR type."""
        if isinstance(spec, NamedTypeSpec):
            try:
                return _BUILTIN_TYPES[spec.name]
            except KeyError as error:
                raise SemanticError(f"unknown type name {spec.name!r}") from error
        if isinstance(spec, StructTypeSpec):
            if spec.name not in self.structs:
                raise SemanticError(f"unknown struct {spec.name!r}")
            return self.structs[spec.name]
        if isinstance(spec, PointerTypeSpec):
            return PointerType(self.resolve(spec.pointee))
        if isinstance(spec, ArrayTypeSpec):
            element = self.resolve(spec.element)
            size = 0
            if isinstance(spec.size, IntLiteral):
                size = spec.size.value
            elif spec.size is not None:
                raise SemanticError("array sizes must be integer literals")
            return ArrayType(element, size)
        raise SemanticError(f"unsupported type specification {spec!r}")

    def header(self) -> "SemanticInfo":
        """The declaration half of this info, without any body AST.

        Structs, signatures and globals are shared; each function
        definition keeps its declaration with an empty body, so
        ``body is not None`` still tells definitions from prototypes.
        """
        return SemanticInfo(
            structs=self.structs, function_types=self.function_types,
            function_decls={
                name: decl if decl.body is None else FunctionDecl(
                    decl.name, decl.return_type, decl.params, _EMPTY_BODY,
                    decl.is_vararg)
                for name, decl in self.function_decls.items()},
            global_decls=self.global_decls)

    def signature_for_call(self, name: str) -> Optional[FunctionType]:
        """Signature of a called function: module-defined, prototype or known external."""
        if name in self.function_types:
            return self.function_types[name]
        return KNOWN_EXTERNALS.get(name)


def analyze(unit: TranslationUnit) -> SemanticInfo:
    """Run semantic analysis over a parsed translation unit."""
    info = SemanticInfo()

    # Structs first (they may reference previously declared structs).
    for struct in unit.structs:
        if struct.name in info.structs:
            raise SemanticError(f"duplicate struct {struct.name!r}")
        # Two-phase creation so self-referencing pointers (linked lists) work:
        # a pointer to an incomplete struct is modelled as a char pointer.
        fields = []
        for field_decl in struct.fields:
            try:
                field_type = info.resolve(field_decl.type_spec)
            except SemanticError:
                if _is_self_pointer(field_decl.type_spec, struct.name):
                    field_type = PointerType(INT8)
                else:
                    raise
            fields.append((field_decl.name, field_type))
        info.structs[struct.name] = StructType(struct.name, fields)

    for function in unit.functions:
        return_type = info.resolve(function.return_type)
        param_types = [info.resolve(param.type_spec) for param in function.params]
        signature = FunctionType(return_type, param_types, function.is_vararg)
        existing = info.function_types.get(function.name)
        if existing is not None and existing != signature:
            raise SemanticError(f"conflicting declarations of {function.name!r}")
        info.function_types[function.name] = signature
        if function.body is not None:
            if function.name in info.function_decls and \
                    info.function_decls[function.name].body is not None:
                raise SemanticError(f"duplicate definition of {function.name!r}")
            info.function_decls[function.name] = function
        else:
            info.function_decls.setdefault(function.name, function)

    seen_globals = set()
    for variable in unit.globals:
        if variable.name in seen_globals:
            raise SemanticError(f"duplicate global {variable.name!r}")
        seen_globals.add(variable.name)
        info.resolve(variable.type_spec)  # validate eagerly
        info.global_decls.append(variable)
    return info


def _is_self_pointer(spec: TypeSpec, struct_name: str) -> bool:
    return (isinstance(spec, PointerTypeSpec)
            and isinstance(spec.pointee, StructTypeSpec)
            and spec.pointee.name == struct_name)
