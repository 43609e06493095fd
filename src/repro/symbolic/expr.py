"""Symbolic expressions used by the range analyses.

The paper defines symbolic expressions by the grammar (Section 3.3)::

    E ::= n | s | min(E, E) | max(E, E) | E - E
        | E + E | E / E | E mod E | E * E

where ``n`` is an integer and ``s`` a *symbol*: a program name that cannot be
expressed as a function of other names (function parameters, results of
unknown calls, globals).  The set of symbols of a program forms its
*symbolic kernel*.

This module implements an immutable, hashable expression algebra with
aggressive canonicalisation of the linear fragment: every expression is
normalised into ``constant + sum(coefficient * atom)`` where atoms are
symbols or opaque non-linear nodes (``min``, ``max``, division, modulo and
products of non-constant expressions).  Canonicalisation is what makes the
partial-order queries of :mod:`repro.symbolic.order` decidable in the cases
the analyses care about, e.g. ``N + 1 > N`` while ``N`` and ``M`` stay
incomparable.

Expressions are **hash-consed**: every constructor routes through a
per-process intern table keyed on structural content, so two structurally
equal expressions are one object.  Structural equality is therefore
identity (``a == b`` iff ``a is b``), ``__hash__`` is a slot computed once
at construction, and ``symbols()``/``sort_key()``/``complexity()`` return
cached values (a sum builds its sort key on first use).  Interned expressions are immortal for
the lifetime of the process (the table holds strong references), which is
exactly what lets the derived-operation memos of
:mod:`repro.symbolic.order` key on ``id()`` without recycling hazards.

Infinities are first-class values (:data:`POS_INF` and :data:`NEG_INF`) with
saturating arithmetic, because interval bounds live in
``S = SE ∪ {-inf, +inf}``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Optional, Tuple, Union

from .cache import named_memo

__all__ = [
    "SymExpr",
    "Constant",
    "Symbol",
    "Infinity",
    "MinExpr",
    "MaxExpr",
    "DivExpr",
    "ModExpr",
    "ProductExpr",
    "SumExpr",
    "POS_INF",
    "NEG_INF",
    "ZERO",
    "ONE",
    "sym",
    "const",
    "sym_add",
    "sym_sub",
    "sym_neg",
    "sym_mul",
    "sym_div",
    "sym_mod",
    "sym_min",
    "sym_max",
    "as_expr",
    "ExprLike",
    "intern_table_size",
]

#: The per-process intern table: structural key → the unique instance.
#: Never cleared — clearing would let a later structurally-equal expression
#: coexist with a pre-clear twin, breaking the identity-equality invariant
#: every consumer (and every ``id``-keyed memo) relies on.
_INTERN: Dict[tuple, "SymExpr"] = {}

_EMPTY_SYMBOLS: FrozenSet[str] = frozenset()


#: Non-trivial ``sym_add`` results keyed on the pair key
#: ``id(a) << 64 | id(b)`` — safe because interned expressions are immortal.
#: Sized so that the largest pipeline program never evicts.
_ADD_MEMO = named_memo("sym_add", 1 << 13)


def intern_table_size() -> int:
    """Number of live interned expressions (monitoring/tests)."""
    return len(_INTERN)


class SymExpr:
    """Base class of all symbolic expressions.

    Instances are immutable, interned and hashable; arithmetic operators
    build new (canonicalised, interned) expressions.  Subclasses implement
    the small protocol consisting of :meth:`substitute`, :meth:`is_infinite`
    and the cached :meth:`symbols`/:meth:`sort_key`/:meth:`complexity`.
    """

    __slots__ = ("_hash", "_symbols", "_sort_key", "_complexity")

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- protocol ---------------------------------------------------------
    def symbols(self) -> FrozenSet[str]:
        """The set of symbol names occurring in this expression (cached)."""
        return self._symbols

    def substitute(self, mapping: Mapping[str, "ExprLike"]) -> "SymExpr":
        """Return a copy with symbols replaced according to ``mapping``."""
        raise NotImplementedError

    def is_infinite(self) -> bool:
        """True for ``+inf``/``-inf`` (never true for finite expressions)."""
        return False

    def is_constant(self) -> bool:
        """True when the expression is a plain integer constant."""
        return False

    def constant_value(self) -> Optional[int]:
        """The integer value when :meth:`is_constant`, else ``None``."""
        return None

    def sort_key(self) -> Tuple:
        """A total ordering key used only for canonical printing/hashing."""
        return self._sort_key

    def complexity(self) -> int:
        """Number of nodes; used to bound simplification work."""
        return self._complexity

    # -- identity semantics -----------------------------------------------
    # Interning makes structural equality coincide with identity: the
    # comparisons below are O(1) however deep the expressions are.
    def __eq__(self, other) -> bool:
        return self is other

    def __ne__(self, other) -> bool:
        return self is not other

    def __hash__(self) -> int:
        return self._hash

    # -- operator sugar ---------------------------------------------------
    def __add__(self, other: "ExprLike") -> "SymExpr":
        return sym_add(self, other)

    def __radd__(self, other: "ExprLike") -> "SymExpr":
        return sym_add(other, self)

    def __sub__(self, other: "ExprLike") -> "SymExpr":
        return sym_sub(self, other)

    def __rsub__(self, other: "ExprLike") -> "SymExpr":
        return sym_sub(other, self)

    def __mul__(self, other: "ExprLike") -> "SymExpr":
        return sym_mul(self, other)

    def __rmul__(self, other: "ExprLike") -> "SymExpr":
        return sym_mul(other, self)

    def __neg__(self) -> "SymExpr":
        return sym_neg(self)

    def __floordiv__(self, other: "ExprLike") -> "SymExpr":
        return sym_div(self, other)

    def __mod__(self, other: "ExprLike") -> "SymExpr":
        return sym_mod(self, other)


ExprLike = Union[SymExpr, int]

_set = object.__setattr__


class Constant(SymExpr):
    """An integer literal."""

    __slots__ = ("value",)

    def __new__(cls, value: int):
        value = int(value)
        key = ("n", value)
        self = _INTERN.get(key)
        if self is not None:
            return self
        self = object.__new__(cls)
        _set(self, "value", value)
        _set(self, "_symbols", _EMPTY_SYMBOLS)
        _set(self, "_sort_key", (0, value))
        _set(self, "_complexity", 1)
        _set(self, "_hash", hash(key))
        _INTERN[key] = self
        return self

    def __reduce__(self):
        return (Constant, (self.value,))

    def substitute(self, mapping: Mapping[str, ExprLike]) -> SymExpr:
        return self

    def is_constant(self) -> bool:
        return True

    def constant_value(self) -> Optional[int]:
        return self.value

    def __repr__(self) -> str:
        return str(self.value)


class Symbol(SymExpr):
    """A member of the symbolic kernel: a name treated as an opaque value."""

    __slots__ = ("name",)

    def __new__(cls, name: str):
        if not name:
            raise ValueError("symbol name must be non-empty")
        key = ("s", name)
        self = _INTERN.get(key)
        if self is not None:
            return self
        self = object.__new__(cls)
        _set(self, "name", name)
        _set(self, "_symbols", frozenset((name,)))
        _set(self, "_sort_key", (1, name))
        _set(self, "_complexity", 1)
        _set(self, "_hash", hash(key))
        _INTERN[key] = self
        return self

    def __reduce__(self):
        return (Symbol, (self.name,))

    def substitute(self, mapping: Mapping[str, ExprLike]) -> SymExpr:
        if self.name in mapping:
            return as_expr(mapping[self.name])
        return self

    def __repr__(self) -> str:
        return self.name


class Infinity(SymExpr):
    """``+inf`` or ``-inf``; only valid at the ends of symbolic intervals.

    The two instances are the interned singletons :data:`POS_INF` and
    :data:`NEG_INF` — ``Infinity(sign)`` always returns one of them, so
    ``is`` comparisons against the singletons are valid everywhere.
    """

    __slots__ = ("sign",)

    def __new__(cls, sign: int):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        key = ("inf", sign)
        self = _INTERN.get(key)
        if self is not None:
            return self
        self = object.__new__(cls)
        _set(self, "sign", sign)
        _set(self, "_symbols", _EMPTY_SYMBOLS)
        _set(self, "_sort_key", (9, sign))
        _set(self, "_complexity", 1)
        _set(self, "_hash", hash(key))
        _INTERN[key] = self
        return self

    def __reduce__(self):
        return (Infinity, (self.sign,))

    def substitute(self, mapping: Mapping[str, ExprLike]) -> SymExpr:
        return self

    def is_infinite(self) -> bool:
        return True

    def __repr__(self) -> str:
        return "+inf" if self.sign > 0 else "-inf"

    def __neg__(self) -> "SymExpr":
        return NEG_INF if self.sign > 0 else POS_INF


POS_INF = Infinity(1)
NEG_INF = Infinity(-1)
ZERO = Constant(0)
ONE = Constant(1)


def _union(first: FrozenSet[str], second: FrozenSet[str]) -> FrozenSet[str]:
    """``first | second``, sharing an operand's set when it already is the
    union — most expressions mention one symbol, and a fresh frozenset per
    interned expression is most of the intern table's memory."""
    if second <= first:
        return first
    if first <= second:
        return second
    return first | second


def _freeze_terms(terms: Mapping[SymExpr, int]) -> Tuple[Tuple[SymExpr, int], ...]:
    items = [(t, c) for t, c in terms.items() if c != 0]
    items.sort(key=lambda tc: tc[0]._sort_key)
    return tuple(items)


class SumExpr(SymExpr):
    """Canonical linear combination ``offset + sum(coeff * atom)``.

    Atoms are symbols or opaque non-linear expressions.  ``SumExpr`` is never
    constructed with zero or one trivial term — the builder functions collapse
    those cases to :class:`Constant` / the atom itself.
    """

    __slots__ = ("offset", "terms")

    def __new__(cls, offset: int, terms: Tuple[Tuple[SymExpr, int], ...]):
        offset = int(offset)
        key = ("+", offset, terms)
        self = _INTERN.get(key)
        if self is not None:
            return self
        self = object.__new__(cls)
        _set(self, "offset", offset)
        _set(self, "terms", terms)
        symbols = _EMPTY_SYMBOLS
        complexity = 1
        for atom, _ in terms:
            symbols = _union(symbols, atom._symbols)
            complexity += atom._complexity
        _set(self, "_symbols", symbols)
        _set(self, "_sort_key", None)  # built on first use: most sums never need it
        _set(self, "_complexity", complexity)
        _set(self, "_hash", hash(key))
        _INTERN[key] = self
        return self

    def __reduce__(self):
        return (SumExpr, (self.offset, self.terms))

    def sort_key(self) -> Tuple:
        key = self._sort_key
        if key is None:
            # Atoms are never sums, so their keys were built eagerly.
            key = (5, self.offset, tuple((a._sort_key, c) for a, c in self.terms))
            _set(self, "_sort_key", key)
        return key

    def substitute(self, mapping: Mapping[str, ExprLike]) -> SymExpr:
        result: SymExpr = Constant(self.offset)
        for atom, coeff in self.terms:
            result = sym_add(result, sym_mul(atom.substitute(mapping), coeff))
        return result

    def __repr__(self) -> str:
        parts = []
        for atom, coeff in self.terms:
            if coeff == 1:
                parts.append(f"{atom!r}")
            elif coeff == -1:
                parts.append(f"-{atom!r}")
            else:
                parts.append(f"{coeff}*{atom!r}")
        if self.offset or not parts:
            parts.append(str(self.offset))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


class _BinaryAtom(SymExpr):
    """Common machinery for opaque binary nodes (min, max, div, mod, mul)."""

    __slots__ = ("lhs", "rhs")
    _tag = "?"
    _rank = 6

    def __new__(cls, lhs: SymExpr, rhs: SymExpr):
        key = (cls._tag, lhs, rhs)
        self = _INTERN.get(key)
        if self is not None:
            return self
        self = object.__new__(cls)
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)
        _set(self, "_symbols", _union(lhs._symbols, rhs._symbols))
        _set(self, "_sort_key", (cls._rank, cls._tag, lhs.sort_key(), rhs.sort_key()))
        _set(self, "_complexity", 1 + lhs._complexity + rhs._complexity)
        _set(self, "_hash", hash(key))
        _INTERN[key] = self
        return self

    def __reduce__(self):
        return (type(self), (self.lhs, self.rhs))

    def __repr__(self) -> str:
        return f"{self._tag}({self.lhs!r}, {self.rhs!r})"


class MinExpr(_BinaryAtom):
    """``min(lhs, rhs)``; commutative — operands stored in canonical order."""

    __slots__ = ()
    _tag = "min"

    def substitute(self, mapping: Mapping[str, ExprLike]) -> SymExpr:
        return sym_min(self.lhs.substitute(mapping), self.rhs.substitute(mapping))


class MaxExpr(_BinaryAtom):
    """``max(lhs, rhs)``; commutative — operands stored in canonical order."""

    __slots__ = ()
    _tag = "max"

    def substitute(self, mapping: Mapping[str, ExprLike]) -> SymExpr:
        return sym_max(self.lhs.substitute(mapping), self.rhs.substitute(mapping))


class DivExpr(_BinaryAtom):
    """Integer division ``lhs / rhs`` kept opaque unless both are constants."""

    __slots__ = ()
    _tag = "div"

    def substitute(self, mapping: Mapping[str, ExprLike]) -> SymExpr:
        return sym_div(self.lhs.substitute(mapping), self.rhs.substitute(mapping))


class ModExpr(_BinaryAtom):
    """``lhs mod rhs`` kept opaque unless both are constants."""

    __slots__ = ()
    _tag = "mod"

    def substitute(self, mapping: Mapping[str, ExprLike]) -> SymExpr:
        return sym_mod(self.lhs.substitute(mapping), self.rhs.substitute(mapping))


class ProductExpr(_BinaryAtom):
    """A product of two non-constant expressions (non-linear atom)."""

    __slots__ = ()
    _tag = "mul"

    def substitute(self, mapping: Mapping[str, ExprLike]) -> SymExpr:
        return sym_mul(self.lhs.substitute(mapping), self.rhs.substitute(mapping))


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def as_expr(value: ExprLike) -> SymExpr:
    """Coerce an ``int`` or :class:`SymExpr` into a :class:`SymExpr`."""
    if isinstance(value, SymExpr):
        return value
    if isinstance(value, int):  # booleans included, as Constant(0/1)
        return Constant(value)
    raise TypeError(f"cannot convert {value!r} to a symbolic expression")


def sym(name: str) -> Symbol:
    """Create a kernel symbol."""
    return Symbol(name)


def const(value: int) -> Constant:
    """Create an integer constant."""
    return Constant(value)


def _decompose(expr: SymExpr) -> Tuple[int, Dict[SymExpr, int]]:
    """Split a finite expression into ``(constant offset, {atom: coeff})``."""
    if type(expr) is Constant:
        return expr.value, {}
    if type(expr) is SumExpr:
        return expr.offset, dict(expr.terms)
    return 0, {expr: 1}


def _recompose(offset: int, terms: Dict[SymExpr, int]) -> SymExpr:
    terms = {a: c for a, c in terms.items() if c != 0}
    if not terms:
        return Constant(offset)
    if offset == 0 and len(terms) == 1:
        (atom, coeff), = terms.items()
        if coeff == 1:
            return atom
    return SumExpr(offset, _freeze_terms(terms))


def sym_add(a: ExprLike, b: ExprLike) -> SymExpr:
    """Saturating symbolic addition with linear canonicalisation."""
    return _add(as_expr(a), as_expr(b))


def _add(a: SymExpr, b: SymExpr) -> SymExpr:
    """:func:`sym_add` of two expressions, memoised on their identity once
    neither operand is an infinity or zero."""
    type_a, type_b = type(a), type(b)
    if type_a is Constant and type_b is Constant:
        return Constant(a.value + b.value)
    if type_a is Infinity:
        if type_b is Infinity and a is not b:
            raise ArithmeticError("cannot add +inf and -inf")
        return a
    if type_b is Infinity:
        return b
    if type_a is Constant and a.value == 0:
        return b
    if type_b is Constant and b.value == 0:
        return a
    key = id(a) << 64 | id(b)
    result = _ADD_MEMO.get(key)
    if result is None:
        off_a, terms_a = _decompose(a)
        off_b, terms_b = _decompose(b)
        terms = dict(terms_a)
        for atom, coeff in terms_b.items():
            terms[atom] = terms.get(atom, 0) + coeff
        result = _recompose(off_a + off_b, terms)
        _ADD_MEMO.put(key, result)
    return result


def sym_neg(a: ExprLike) -> SymExpr:
    """Negation; flips infinities."""
    return _neg(as_expr(a))


def _neg(a: SymExpr) -> SymExpr:
    if type(a) is Constant:
        return Constant(-a.value)
    if type(a) is Infinity:
        return NEG_INF if a is POS_INF else POS_INF
    off, terms = _decompose(a)
    return _recompose(-off, {atom: -coeff for atom, coeff in terms.items()})


def sym_sub(a: ExprLike, b: ExprLike) -> SymExpr:
    """Saturating symbolic subtraction."""
    return _sub(as_expr(a), as_expr(b))


def _sub(a: SymExpr, b: SymExpr) -> SymExpr:
    if type(a) is Infinity and type(b) is Infinity:
        if a is not b:
            return a
        raise ArithmeticError("cannot subtract equal infinities")
    if a is b:
        # Identical finite expressions cancel exactly (interning makes this
        # an O(1) test rather than a structural walk).
        return ZERO
    return _add(a, _neg(b))


def sym_mul(a: ExprLike, b: ExprLike) -> SymExpr:
    """Symbolic multiplication.

    Multiplication by a constant distributes over the linear form; a product
    of two non-constant expressions becomes an opaque :class:`ProductExpr`
    atom.  Multiplying an infinity by a constant keeps the usual sign rules;
    multiplying an infinity by a non-constant expression is rejected because
    the sign of the result is unknowable.
    """
    a, b = as_expr(a), as_expr(b)
    if a.is_infinite() or b.is_infinite():
        inf, other = (a, b) if a.is_infinite() else (b, a)
        if other.is_constant():
            value = other.constant_value()
            if value == 0:
                return ZERO
            assert isinstance(inf, Infinity)
            return inf if value > 0 else -inf
        if other.is_infinite():
            assert isinstance(inf, Infinity) and isinstance(other, Infinity)
            return POS_INF if inf.sign == other.sign else NEG_INF
        raise ArithmeticError("cannot multiply infinity by a symbolic expression")
    if a.is_constant():
        a, b = b, a
    if b.is_constant():
        factor = b.constant_value()
        assert factor is not None
        if factor == 0:
            return ZERO
        if factor == 1:
            return a
        off, terms = _decompose(a)
        return _recompose(off * factor, {atom: coeff * factor for atom, coeff in terms.items()})
    lhs, rhs = sorted((a, b), key=lambda e: e.sort_key())
    return ProductExpr(lhs, rhs)


def sym_div(a: ExprLike, b: ExprLike) -> SymExpr:
    """Integer (floor) division; folded only when both sides are constants."""
    a, b = as_expr(a), as_expr(b)
    if b.is_constant() and b.constant_value() == 0:
        raise ZeroDivisionError("symbolic division by constant zero")
    if b.is_constant() and b.constant_value() == 1:
        return a
    if a.is_constant() and b.is_constant():
        av, bv = a.constant_value(), b.constant_value()
        assert av is not None and bv is not None
        quotient = abs(av) // abs(bv)
        if (av < 0) != (bv < 0):
            quotient = -quotient
        return Constant(quotient)  # C-style truncating division
    if a.is_constant() and a.constant_value() == 0:
        return ZERO
    if a.is_infinite() or b.is_infinite():
        raise ArithmeticError("cannot divide with infinite operands")
    return DivExpr(a, b)


def sym_mod(a: ExprLike, b: ExprLike) -> SymExpr:
    """Modulo; folded only when both sides are constants."""
    a, b = as_expr(a), as_expr(b)
    if b.is_constant() and b.constant_value() == 0:
        raise ZeroDivisionError("symbolic modulo by constant zero")
    if a.is_constant() and b.is_constant():
        av, bv = a.constant_value(), b.constant_value()
        assert av is not None and bv is not None
        remainder = abs(av) % abs(bv)
        return Constant(-remainder if av < 0 else remainder)
    if a.is_infinite() or b.is_infinite():
        raise ArithmeticError("cannot take modulo with infinite operands")
    return ModExpr(a, b)


def _fold_minmax(a: SymExpr, b: SymExpr, want_min: bool) -> Optional[SymExpr]:
    """Resolve ``min``/``max`` when the operands are comparable."""
    from .order import _compare, Ordering  # local import to avoid a cycle

    ordering = _compare(a, b)
    if ordering is Ordering.EQUAL:
        # Provably equal but possibly syntactically different (e.g.
        # ``max(0, N)`` vs ``max(0, max(-1, N))``): pick a canonical
        # representative so folding is order-independent.
        return min(a, b, key=lambda e: (e._complexity, e.sort_key()))
    if ordering is Ordering.LESS or ordering is Ordering.LESS_EQUAL:
        return a if want_min else b
    if ordering is Ordering.GREATER or ordering is Ordering.GREATER_EQUAL:
        return b if want_min else a
    return None


def sym_min(a: ExprLike, b: ExprLike) -> SymExpr:
    """``min`` over ``S``; resolved eagerly when operands are comparable."""
    return _min(as_expr(a), as_expr(b))


def _min(a: SymExpr, b: SymExpr) -> SymExpr:
    if a is b:
        return a
    if a is NEG_INF or b is NEG_INF:
        return NEG_INF
    if a is POS_INF:
        return b
    if b is POS_INF:
        return a
    if type(a) is Constant and type(b) is Constant:
        return a if a.value <= b.value else b
    folded = _fold_minmax(a, b, want_min=True)
    if folded is not None:
        return folded
    lhs, rhs = sorted((a, b), key=lambda e: e.sort_key())
    return MinExpr(lhs, rhs)


def sym_max(a: ExprLike, b: ExprLike) -> SymExpr:
    """``max`` over ``S``; resolved eagerly when operands are comparable."""
    return _max(as_expr(a), as_expr(b))


def _max(a: SymExpr, b: SymExpr) -> SymExpr:
    if a is b:
        return a
    if a is POS_INF or b is POS_INF:
        return POS_INF
    if a is NEG_INF:
        return b
    if b is NEG_INF:
        return a
    if type(a) is Constant and type(b) is Constant:
        return a if a.value >= b.value else b
    folded = _fold_minmax(a, b, want_min=False)
    if folded is not None:
        return folded
    lhs, rhs = sorted((a, b), key=lambda e: e.sort_key())
    return MaxExpr(lhs, rhs)
