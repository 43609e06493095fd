"""The ``SymbRanges`` lattice: symbolic intervals (Section 3.3 of the paper).

A symbolic interval is a pair ``R = [l, u]`` of symbolic expressions (or
infinities).  The semi-lattice is ``(S², ⊑, ⊔, ∅, [-inf, +inf])`` where::

    [l0, u0] ⊑ [l1, u1]   iff  l1 <= l0 and u1 >= u0
    [a1, a2] ⊔ [b1, b2]   =   [min(a1, b1), max(a2, b2)]
    [a1, a2] ⊓ [b1, b2]   =   ∅ if a2 < b1 or b2 < a1, else [max(a1,b1), min(a2,b2)]

and the widening of the paper::

    [l, u] ∇ [l', u'] = [l,    u   ]  if l = l' and u = u'
                        [l,    +inf]  if l = l' and u' > u
                        [-inf, u   ]  if l' < l and u' = u
                        [-inf, +inf]  otherwise

Because the bounds are symbolic, equality and the comparisons above are only
semi-decidable; everything here errs on the side of the *larger* (more
conservative) result.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from .cache import named_memo
from .expr import (
    ExprLike,
    NEG_INF,
    POS_INF,
    SymExpr,
    _add,
    _max,
    _min,
    _neg,
    _sub,
    as_expr,
    sym_mul,
)
from .order import Ordering, _compare, definitely_le

__all__ = ["SymbolicInterval", "EMPTY_INTERVAL", "TOP_INTERVAL"]

#: The interval intern table, keyed on the pair key
#: ``id(lower) << 64 | id(upper)``: bounds are interned, immortal
#: expressions, so their ids are stable.  Unlike the expression table this
#: one is bounded.  Equality and hashing stay structural, so an evicted
#: interval stays valid next to a rebuilt twin: interning only saves the
#: allocations and makes the identity-keyed memos below hit.  Sized so that
#: the largest pipeline program never evicts.
_INTERVALS = named_memo("interval_intern", 1 << 13)

#: ``meet`` / ``join`` results keyed on the pair key ``id(a) << 64 | id(b)``.
#: Each entry holds both operands, so no id in a live key can be recycled:
#: a hit is a hit on the very objects that were combined.
_MEET_MEMO = named_memo("interval_meet", 1 << 12)
_JOIN_MEMO = named_memo("interval_join", 1 << 12)

_set = object.__setattr__


def _interval(lower: SymExpr, upper: SymExpr) -> "SymbolicInterval":
    """The canonical ``[lower, upper]`` of two interned bounds."""
    key = id(lower) << 64 | id(upper)
    interval = _INTERVALS.get(key)
    if interval is None:
        interval = object.__new__(SymbolicInterval)
        _set(interval, "_hash", None)
        _set(interval, "_empty", False)
        _set(interval, "_lower", lower)
        _set(interval, "_upper", upper)
        _INTERVALS.put(key, interval)
    return interval


class SymbolicInterval:
    """An element of ``SymbRanges``: ``∅`` or a pair ``[lower, upper]``.

    Bounds are hash-consed expressions and intervals are interned on them,
    so building an interval that already exists returns the existing
    object, bound comparisons inside the lattice operations are identity
    tests, and ``meet``/``join`` memoise on the identity of their operands.
    Equality and the hash stay structural (set orders do not depend on
    interning, and an interval evicted from the bounded intern table still
    equals its rebuilt twin).
    """

    __slots__ = ("_lower", "_upper", "_empty", "_hash")

    def __new__(cls, lower: Optional[ExprLike] = None, upper: Optional[ExprLike] = None,
                *, empty: bool = False):
        if empty:
            return EMPTY_INTERVAL
        if lower is None or upper is None:
            raise ValueError("a non-empty interval needs both bounds")
        return _interval(as_expr(lower), as_expr(upper))

    def __reduce__(self):
        # Unpickling returns the canonical instance: the module's ∅, or the
        # interned interval the constructor finds.
        if self._empty:
            return "EMPTY_INTERVAL"
        return (SymbolicInterval, (self._lower, self._upper))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("SymbolicInterval is immutable")

    # -- constructors ------------------------------------------------------
    @classmethod
    def empty(cls) -> "SymbolicInterval":
        """The least element ``∅``."""
        return EMPTY_INTERVAL

    @classmethod
    def top(cls) -> "SymbolicInterval":
        """The greatest element ``[-inf, +inf]``."""
        return TOP_INTERVAL

    @classmethod
    def point(cls, value: ExprLike) -> "SymbolicInterval":
        """The singleton interval ``[value, value]``."""
        expr = as_expr(value)
        return _interval(expr, expr)

    @classmethod
    def from_bounds(cls, lower: ExprLike, upper: ExprLike) -> "SymbolicInterval":
        """Build ``[lower, upper]`` (no emptiness check is attempted)."""
        return cls(lower, upper)

    # -- accessors ---------------------------------------------------------
    @property
    def lower(self) -> SymExpr:
        """The lower bound ``R↓`` (raises on ``∅``)."""
        if self._empty:
            raise ValueError("the empty interval has no lower bound")
        return self._lower

    @property
    def upper(self) -> SymExpr:
        """The upper bound ``R↑`` (raises on ``∅``)."""
        if self._empty:
            raise ValueError("the empty interval has no upper bound")
        return self._upper

    @property
    def is_empty(self) -> bool:
        """True for the distinguished least element ``∅``."""
        return self._empty

    @property
    def is_top(self) -> bool:
        """True for ``[-inf, +inf]``."""
        return not self._empty and self._lower is NEG_INF and self._upper is POS_INF

    def is_constant(self) -> bool:
        """True when both bounds are (finite) integer constants."""
        return (not self._empty and self._lower.is_constant() and self._upper.is_constant())

    def is_symbolic(self) -> bool:
        """True when at least one finite bound mentions a kernel symbol."""
        if self._empty:
            return False
        return bool(self._lower.symbols() or self._upper.symbols())

    def symbols(self) -> frozenset:
        """Union of kernel symbols appearing in the bounds."""
        if self._empty:
            return frozenset()
        return self._lower.symbols() | self._upper.symbols()

    # -- lattice operations ------------------------------------------------
    def join(self, other: "SymbolicInterval") -> "SymbolicInterval":
        """The ``⊔`` operator (least upper bound up to symbolic precision)."""
        if self._empty:
            return other
        if other._empty:
            return self
        if self._lower is other._lower and self._upper is other._upper:
            # Identical endpoints (the overwhelmingly common fixpoint case):
            # the join is this interval itself, no min/max folding needed.
            return self
        key = id(self) << 64 | id(other)
        entry = _JOIN_MEMO.get(key)
        if entry is None:
            entry = (self, other, _interval(_min(self._lower, other._lower),
                                            _max(self._upper, other._upper)))
            _JOIN_MEMO.put(key, entry)
        return entry[2]

    def meet(self, other: "SymbolicInterval") -> "SymbolicInterval":
        """The ``⊓`` operator; ``∅`` when the intervals are provably disjoint."""
        if self._empty or other._empty:
            return EMPTY_INTERVAL
        if self._lower is NEG_INF and self._upper is POS_INF:
            return other
        if other._lower is NEG_INF and other._upper is POS_INF:
            return self
        key = id(self) << 64 | id(other)
        entry = _MEET_MEMO.get(key)
        if entry is None:
            if self.definitely_disjoint(other):
                met = EMPTY_INTERVAL
            else:
                met = _interval(_max(self._lower, other._lower),
                                _min(self._upper, other._upper))
            entry = (self, other, met)
            _MEET_MEMO.put(key, entry)
        return entry[2]

    def contains_interval(self, other: "SymbolicInterval") -> bool:
        """``other ⊑ self``, i.e. the bounds of ``self`` enclose ``other``'s."""
        if other._empty:
            return True
        if self._empty:
            return False
        return definitely_le(self._lower, other._lower) and definitely_le(
            other._upper, self._upper
        )

    def widen(self, other: "SymbolicInterval") -> "SymbolicInterval":
        """The ``∇`` operator of the paper (applied as ``old ∇ new``)."""
        if self._empty:
            return other
        if other._empty:
            return self
        if self._lower is other._lower and self._upper is other._upper:
            return self
        lower_stable = self._lower is other._lower or definitely_le(
            self._lower, other._lower
        )
        upper_stable = self._upper is other._upper or definitely_le(
            other._upper, self._upper
        )
        lower = self._lower if lower_stable else NEG_INF
        upper = self._upper if upper_stable else POS_INF
        return _interval(lower, upper)

    def narrow(self, other: "SymbolicInterval") -> "SymbolicInterval":
        """Descending-sequence refinement: replace infinite bounds of ``self``
        by the corresponding bounds of ``other``.

        ``∅`` is the least element, so a state that stabilised at ``∅`` must
        stay there: narrowing may never enlarge (``self.narrow(other) ⊑ self``).
        """
        if self._empty:
            return self
        if other._empty:
            return other
        lower = other._lower if self._lower is NEG_INF else self._lower
        upper = other._upper if self._upper is POS_INF else self._upper
        if lower is self._lower and upper is self._upper:
            return self
        return _interval(lower, upper)

    # -- arithmetic ---------------------------------------------------------
    def shift(self, delta: ExprLike) -> "SymbolicInterval":
        """Add the single expression ``delta`` to both bounds."""
        if self._empty:
            return self
        delta = as_expr(delta)
        lower = _add(self._lower, delta)
        upper = _add(self._upper, delta)
        if lower is self._lower and upper is self._upper:
            return self  # shift by zero: interning proves nothing changed
        return _interval(lower, upper)

    def add(self, other: "SymbolicInterval") -> "SymbolicInterval":
        """Interval addition ``[a+c, b+d]``."""
        if self._empty or other._empty:
            return EMPTY_INTERVAL
        lower = _add(self._lower, other._lower)
        upper = _add(self._upper, other._upper)
        if lower is self._lower and upper is self._upper:
            return self
        return _interval(lower, upper)

    def sub(self, other: "SymbolicInterval") -> "SymbolicInterval":
        """Interval subtraction ``[a-d, b-c]``."""
        if self._empty or other._empty:
            return EMPTY_INTERVAL
        return _interval(_sub(self._lower, other._upper), _sub(self._upper, other._lower))

    def negate(self) -> "SymbolicInterval":
        """``[-u, -l]``."""
        if self._empty:
            return self
        return _interval(_neg(self._upper), _neg(self._lower))

    def scale(self, factor: int) -> "SymbolicInterval":
        """Multiply both bounds by an integer constant."""
        if self._empty:
            return self
        if factor == 0:
            return SymbolicInterval(0, 0)
        if factor > 0:
            return SymbolicInterval(sym_mul(self._lower, factor), sym_mul(self._upper, factor))
        return SymbolicInterval(sym_mul(self._upper, factor), sym_mul(self._lower, factor))

    def mul(self, other: "SymbolicInterval") -> "SymbolicInterval":
        """Interval multiplication.

        Precise only when one operand is a constant point or a constant
        interval with bounds of one sign; otherwise returns top, which is
        always sound.
        """
        if self._empty or other._empty:
            return EMPTY_INTERVAL
        for first, second in ((self, other), (other, self)):
            if second.is_constant() and second._lower == second._upper:
                factor = second._lower.constant_value()
                assert factor is not None
                return first.scale(factor)
        return TOP_INTERVAL

    def clamp_upper(self, bound: ExprLike) -> "SymbolicInterval":
        """Meet with ``[-inf, bound]`` (the ``∩ [-inf, E]`` of e-SSA)."""
        return self.meet(_interval(NEG_INF, as_expr(bound)))

    def clamp_lower(self, bound: ExprLike) -> "SymbolicInterval":
        """Meet with ``[bound, +inf]`` (the ``∩ [E, +inf]`` of e-SSA)."""
        return self.meet(_interval(as_expr(bound), POS_INF))

    # -- predicates ---------------------------------------------------------
    def definitely_disjoint(self, other: "SymbolicInterval") -> bool:
        """True only when the two intervals can be proven not to overlap."""
        if self._empty or other._empty:
            return True
        return (_compare(self._upper, other._lower) is Ordering.LESS
                or _compare(other._upper, self._lower) is Ordering.LESS)

    def contains_value(self, value: ExprLike) -> bool:
        """True only when ``lower <= value <= upper`` is provable."""
        if self._empty:
            return False
        value = as_expr(value)
        return definitely_le(self._lower, value) and definitely_le(value, self._upper)

    def substitute(self, mapping: Mapping[str, ExprLike]) -> "SymbolicInterval":
        """Substitute kernel symbols in both bounds."""
        if self._empty:
            return self
        return SymbolicInterval(
            self._lower.substitute(mapping), self._upper.substitute(mapping)
        )

    # -- dunder -------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, SymbolicInterval):
            return NotImplemented
        if self._empty or other._empty:
            return self._empty and other._empty
        # Bounds are interned: structural equality is identity.
        return self._lower is other._lower and self._upper is other._upper

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            if self._empty:
                cached = hash("SymbolicInterval.EMPTY")
            else:
                cached = hash(("SymbolicInterval", self._lower, self._upper))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __repr__(self) -> str:
        if self._empty:
            return "∅"
        return f"[{self._lower!r}, {self._upper!r}]"

    @staticmethod
    def join_all(intervals: Iterable["SymbolicInterval"]) -> "SymbolicInterval":
        """Fold :meth:`join` over an iterable (``∅`` for the empty iterable)."""
        result = EMPTY_INTERVAL
        for interval in intervals:
            result = result.join(interval)
        return result


def _make_empty() -> SymbolicInterval:
    empty = object.__new__(SymbolicInterval)
    _set(empty, "_hash", None)
    _set(empty, "_empty", True)
    _set(empty, "_lower", None)
    _set(empty, "_upper", None)
    return empty


EMPTY_INTERVAL = _make_empty()
TOP_INTERVAL = SymbolicInterval(NEG_INF, POS_INF)
