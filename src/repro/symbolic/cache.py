"""A small bounded LRU memo shared by the symbolic layer's hot caches.

Hash-consing (:mod:`repro.symbolic.expr`) makes expressions immortal for the
lifetime of the process, so derived-operation caches may key on ``id(expr)``
without any risk of id recycling.  A memo over an ordered pair keys on the
one int ``id(a) << 64 | id(b)``: injective because ids are below ``2**64``,
and a third of the memory of an ``(id(a), id(b))`` tuple with its two ints.
What the memos must *not* do is grow without bound: a long-lived analysis
daemon answers queries over arbitrarily many modules, and an unbounded
``compare`` memo would leak an entry per distinct expression pair ever
compared.  :class:`BoundedMemo` is the shared answer —
a dict-ordered LRU with hit/miss/eviction counters.  Every process-global
memo of the layer is created through :func:`named_memo`, which files it in
:data:`MEMOS`; :func:`repro.symbolic.compare_memo_stats` reports them all,
and through it the service's ``stats`` op and the profile record.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable

__all__ = ["BoundedMemo", "MEMOS", "named_memo"]


_MISSING = object()


class BoundedMemo:
    """An LRU mapping with a size knob and observable counters.

    Built on the insertion order of a plain ``dict``: a hit reinserts the
    key (moving it to the most-recent end) and an insert past ``maxsize``
    evicts the least recently used entry.  ``maxsize`` may be changed at any
    time through :meth:`resize`.

    Recency is tracked only once the memo is at least half full.  Below
    that no eviction is near, and reinserting on every hit makes the dict
    rebuild its table again and again, which fragments the heap (it
    measurably raised a cold pipeline pass's peak RSS).  Entries last hit
    before the memo reached half its bound therefore age in insertion order.
    """

    __slots__ = ("maxsize", "hits", "misses", "evictions", "_data")

    def __init__(self, maxsize: int = 1 << 16):
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self.maxsize = int(maxsize)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: Dict[Hashable, Any] = {}

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The remembered value, or ``default``; a hit refreshes recency
        once the memo is half full."""
        data = self._data
        value = data.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        if len(data) << 1 >= self.maxsize:
            del data[key]
            data[key] = value
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Remember ``key`` → ``value``, evicting the LRU entry when full."""
        data = self._data
        if key in data:
            del data[key]
        elif len(data) >= self.maxsize:
            del data[next(iter(data))]
            self.evictions += 1
        data[key] = value

    def resize(self, maxsize: int) -> None:
        """Change the bound, evicting LRU entries that no longer fit."""
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self.maxsize = int(maxsize)
        data = self._data
        while len(data) > self.maxsize:
            del data[next(iter(data))]
            self.evictions += 1

    def clear(self) -> None:
        """Drop every payload; the counters survive."""
        self._data.clear()

    def stats(self) -> Dict[str, int]:
        """Counters + occupancy as a plain JSON-ready dict."""
        return {"size": len(self._data), "maxsize": self.maxsize,
                "hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data


#: The symbolic layer's process-global memos, by name.
MEMOS: Dict[str, BoundedMemo] = {}


def named_memo(name: str, maxsize: int) -> BoundedMemo:
    """A new :class:`BoundedMemo`, filed in :data:`MEMOS` under ``name``."""
    memo = MEMOS[name] = BoundedMemo(maxsize)
    return memo
