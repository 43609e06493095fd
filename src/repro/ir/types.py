"""Type system of the intermediate representation.

The IR is typed in the LLVM spirit: integers of a given bit width, floats,
pointers, sized arrays, named structs and function types.  Types carry a
byte size (:meth:`Type.size_in_bytes`) because the pointer analyses reason
about *byte offsets* from allocation sites — a field access ``&s->y`` is a
pointer plus the byte offset of ``y``, exactly what the paper's
pointer-plus-constant rule consumes.
"""

from __future__ import annotations

from typing import Sequence, Tuple

__all__ = [
    "Type",
    "VoidType",
    "IntType",
    "FloatType",
    "PointerType",
    "ArrayType",
    "StructType",
    "FunctionType",
    "LabelType",
    "VOID",
    "BOOL",
    "INT8",
    "INT32",
    "INT64",
    "FLOAT",
    "DOUBLE",
    "LABEL",
    "pointer_to",
]


class Type:
    """Base class for all IR types. Types are immutable and interned by value."""

    __slots__ = ()

    def size_in_bytes(self) -> int:
        """Storage size of a value of this type."""
        raise NotImplementedError

    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    def is_integer(self) -> bool:
        return isinstance(self, IntType)

    def is_float(self) -> bool:
        return isinstance(self, FloatType)

    def is_aggregate(self) -> bool:
        return isinstance(self, (ArrayType, StructType))

    def __repr__(self) -> str:  # pragma: no cover - subclasses override
        return self.__class__.__name__


class VoidType(Type):
    """The type of instructions that produce no value."""

    __slots__ = ()

    def size_in_bytes(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "void"

    def __eq__(self, other) -> bool:
        return isinstance(other, VoidType)

    def __hash__(self) -> int:
        return hash("void")


class LabelType(Type):
    """The type of basic-block labels (only used by branch operands)."""

    __slots__ = ()

    def size_in_bytes(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "label"

    def __eq__(self, other) -> bool:
        return isinstance(other, LabelType)

    def __hash__(self) -> int:
        return hash("label")


class IntType(Type):
    """An integer of ``bits`` width (i1 doubles as the boolean type)."""

    __slots__ = ("bits",)

    def __init__(self, bits: int):
        if bits <= 0:
            raise ValueError("integer width must be positive")
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("IntType is immutable")

    def size_in_bytes(self) -> int:
        return max(1, self.bits // 8)

    def __repr__(self) -> str:
        return f"i{self.bits}"

    def __eq__(self, other) -> bool:
        return isinstance(other, IntType) and self.bits == other.bits

    def __hash__(self) -> int:
        return hash(("IntType", self.bits))


class FloatType(Type):
    """An IEEE float of ``bits`` width (32 or 64)."""

    __slots__ = ("bits",)

    def __init__(self, bits: int = 64):
        if bits not in (32, 64):
            raise ValueError("float width must be 32 or 64")
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("FloatType is immutable")

    def size_in_bytes(self) -> int:
        return self.bits // 8

    def __repr__(self) -> str:
        return "float" if self.bits == 32 else "double"

    def __eq__(self, other) -> bool:
        return isinstance(other, FloatType) and self.bits == other.bits

    def __hash__(self) -> int:
        return hash(("FloatType", self.bits))


class PointerType(Type):
    """A pointer to ``pointee``; all pointers are 8 bytes."""

    __slots__ = ("pointee",)

    def __init__(self, pointee: Type):
        object.__setattr__(self, "pointee", pointee)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("PointerType is immutable")

    def size_in_bytes(self) -> int:
        return 8

    def __repr__(self) -> str:
        return f"{self.pointee!r}*"

    def __eq__(self, other) -> bool:
        return isinstance(other, PointerType) and self.pointee == other.pointee

    def __hash__(self) -> int:
        return hash(("PointerType", self.pointee))


class ArrayType(Type):
    """A fixed-size array ``[count x element]``."""

    __slots__ = ("element", "count")

    def __init__(self, element: Type, count: int):
        if count < 0:
            raise ValueError("array count must be non-negative")
        object.__setattr__(self, "element", element)
        object.__setattr__(self, "count", count)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("ArrayType is immutable")

    def size_in_bytes(self) -> int:
        return self.element.size_in_bytes() * self.count

    def __repr__(self) -> str:
        return f"[{self.count} x {self.element!r}]"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ArrayType)
            and self.element == other.element
            and self.count == other.count
        )

    def __hash__(self) -> int:
        return hash(("ArrayType", self.element, self.count))


class StructType(Type):
    """A named struct with ordered ``(field name, field type)`` members.

    Fields are laid out sequentially without padding; byte offsets are what
    the frontend feeds into pointer-plus-constant instructions, which is how
    the analyses disambiguate distinct fields (the "basic" baseline does the
    same through :meth:`field_offset`).
    """

    __slots__ = ("name", "fields")

    def __init__(self, name: str, fields: Sequence[Tuple[str, Type]]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "fields", tuple(fields))

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("StructType is immutable")

    def size_in_bytes(self) -> int:
        return sum(field_type.size_in_bytes() for _, field_type in self.fields)

    def field_index(self, field_name: str) -> int:
        for index, (name, _) in enumerate(self.fields):
            if name == field_name:
                return index
        raise KeyError(f"struct {self.name} has no field {field_name!r}")

    def field_type(self, field_name: str) -> Type:
        return self.fields[self.field_index(field_name)][1]

    def field_offset(self, field_name: str) -> int:
        """Byte offset of ``field_name`` from the start of the struct."""
        offset = 0
        for name, field_type in self.fields:
            if name == field_name:
                return offset
            offset += field_type.size_in_bytes()
        raise KeyError(f"struct {self.name} has no field {field_name!r}")

    def field_offset_by_index(self, index: int) -> int:
        """Byte offset of the ``index``-th field."""
        return sum(t.size_in_bytes() for _, t in self.fields[:index])

    def __repr__(self) -> str:
        return f"%struct.{self.name}"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StructType)
            and self.name == other.name
            and self.fields == other.fields
        )

    def __hash__(self) -> int:
        return hash(("StructType", self.name, self.fields))


class FunctionType(Type):
    """A function signature ``ret(params...)`` with optional varargs."""

    __slots__ = ("return_type", "param_types", "is_vararg")

    def __init__(self, return_type: Type, param_types: Sequence[Type], is_vararg: bool = False):
        object.__setattr__(self, "return_type", return_type)
        object.__setattr__(self, "param_types", tuple(param_types))
        object.__setattr__(self, "is_vararg", is_vararg)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("FunctionType is immutable")

    def size_in_bytes(self) -> int:
        return 0

    def __repr__(self) -> str:
        params = ", ".join(repr(t) for t in self.param_types)
        if self.is_vararg:
            params = f"{params}, ..." if params else "..."
        return f"{self.return_type!r} ({params})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FunctionType)
            and self.return_type == other.return_type
            and self.param_types == other.param_types
            and self.is_vararg == other.is_vararg
        )

    def __hash__(self) -> int:
        return hash(("FunctionType", self.return_type, self.param_types, self.is_vararg))


VOID = VoidType()
BOOL = IntType(1)
INT8 = IntType(8)
INT32 = IntType(32)
INT64 = IntType(64)
FLOAT = FloatType(32)
DOUBLE = FloatType(64)
LABEL = LabelType()


def pointer_to(pointee: Type) -> PointerType:
    """Convenience constructor for pointer types."""
    return PointerType(pointee)
