"""Process-wide, size-accounted cache shared by every memoization layer.

Before this module each memo owned its own dictionary with its own ad-hoc
bound: the featurization fit/transform memos in ``repro.ml.preprocessing``
counted entries (and the transform memo bytes, with hard-coded limits),
the FD pair-stats cache in ``repro.detect.fd`` counted entries only, and
none of them were visible to — let alone governed by — the service's
:class:`~repro.service.quotas.SessionQuotas`. That is fine for one sweep
and wrong for a long-lived multi-tenant service: caches must be *shared*
(identical CleanML column tokens across sessions hit the same entries)
and *bounded in bytes* process-wide.

:class:`SharedCache` is that single layer. Entries live in namespaces
(``"fit"``, ``"transform"``, ``"blocks"``, ``"fd"``, …) and every entry
is charged its payload ``nbytes`` plus a fixed per-key overhead against
one byte budget. Storage is one LRU-ordered ``OrderedDict`` per
namespace, and a global access clock stamps every entry: a hit or a put
takes the next tick and moves the entry to the end of its namespace. The
head of each namespace is therefore its least recently used entry, and
comparing head ticks across namespaces recovers the global LRU order
without ever walking it. Eviction — never an error — keeps the total
under the budget, one victim at a time:

- *floors first*: evict the oldest head among namespaces above their
  *floor* (a small per-namespace reservation, so pressure from one
  namespace cannot completely starve another);
- when no namespace is above its floor, evict the oldest head overall —
  the budget is a hard bound, floors are best-effort;
- entries larger than an admission cap (a fraction of the budget) are
  rejected outright and counted, not cached.

A namespace's bytes only fall during eviction, so one that drops to its
floor stays protected until the budget is met: this is exactly the
order of a two-pass walk over a single global LRU (skip floor-protected
namespaces, then pure LRU), at a cost independent of the entry count.

Cost per operation, with *N* namespaces (four in practice): ``get`` and
a ``put`` that stays under budget are O(1); each evicted entry costs
O(N) to pick; ``stats()`` is O(N) (entry counts are ``len()`` per
namespace); ``clear(namespace)`` is proportional to that namespace's
entries only.

Per-namespace counters (hits, misses, puts, evictions, rejected, bytes,
entries) plus the global totals are exposed via :func:`cache_stats`,
which the service's ``status`` verb and the benchmarks report. The
budget is wired to ``SessionQuotas.max_cache_bytes`` (and ``serve
--max-cache-bytes``) by the service layer; see :func:`set_cache_budget`.

Caching here never changes results: callers key entries by content-
proving signatures (column identity tokens or delta signatures, see
:mod:`repro.frame.column`), so a hit returns exactly what a recompute
would. Eviction only costs a future recompute.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable

import numpy as np

__all__ = [
    "SharedCache",
    "shared_cache",
    "cache_stats",
    "set_cache_budget",
    "clear_shared_cache",
    "DEFAULT_MAX_BYTES",
    "KEY_OVERHEAD_BYTES",
]

#: Default process-wide budget: roomy for a workstation sweep, small
#: enough that a long-lived service cannot hoard matrices unnoticed.
DEFAULT_MAX_BYTES = 128 * 1024 * 1024

#: Flat per-entry charge covering the key tuple, the OrderedDict slot,
#: and bookkeeping — so even nbytes=0 entries (small fit tuples) cannot
#: grow the cache without limit.
KEY_OVERHEAD_BYTES = 256

#: No single entry may take more than this fraction of the budget; a
#: matrix that large would evict everything else for one once-used value.
_ADMISSION_FRACTION = 8


def estimate_nbytes(value: Any) -> int:
    """Byte estimate for a cached payload (arrays exactly, rest coarsely)."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (tuple, list)):
        return sum(estimate_nbytes(v) for v in value)
    if isinstance(value, dict):
        return sum(estimate_nbytes(v) for v in value.values())
    arrays = getattr(value, "__dict__", None)
    if arrays:
        return sum(
            int(v.nbytes) for v in arrays.values() if isinstance(v, np.ndarray)
        )
    return 64


def _zero_namespace_stats() -> dict[str, int]:
    return {
        "hits": 0,
        "misses": 0,
        "puts": 0,
        "evictions": 0,
        "rejected": 0,
        "bytes": 0,
        "entries": 0,
    }


class _Namespace:
    """One namespace: its entries in LRU order, its floor, its counters."""

    __slots__ = ("entries", "floor", "stats")

    def __init__(self) -> None:
        #: key → (value, charged cost, access tick), least recent first.
        self.entries: OrderedDict[Hashable, tuple[Any, int, int]] = (
            OrderedDict()
        )
        self.floor = 0
        #: Counters; ``stats["bytes"]`` is the namespace's live charge.
        self.stats = _zero_namespace_stats()

    def head_tick(self) -> int:
        """Access tick of the least recently used entry (non-empty only)."""
        return next(iter(self.entries.values()))[2]

    def describe(self) -> dict[str, int]:
        out = dict(self.stats)
        out["entries"] = len(self.entries)
        out["floor_bytes"] = self.floor
        return out


class SharedCache:
    """A namespaced LRU cache with byte accounting and floor-aware eviction.

    Thread-safe behind a single lock: sessions in a service run on
    scheduler worker threads but share this one cache, and the lock also
    makes counter read-and-reset atomic (a reset can no longer lose a
    racing update, which the per-module caches it replaces could).
    """

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self._lock = threading.RLock()
        self._namespaces: dict[str, _Namespace] = {}
        self._max_bytes = int(max_bytes)
        self._total_bytes = 0
        #: Global access clock: every hit or put stamps its entry with
        #: the next tick, so head ticks order namespaces by LRU age.
        self._clock = 0

    # ------------------------------------------------------------------ #
    # configuration
    # ------------------------------------------------------------------ #
    @property
    def max_bytes(self) -> int:
        """The process-wide byte budget currently enforced."""
        with self._lock:
            return self._max_bytes

    def register(self, namespace: str, floor_bytes: int = 0) -> str:
        """Declare a namespace (idempotent) with an eviction floor.

        The floor is a best-effort reservation: global pressure prefers
        evicting namespaces that sit above their floor. Re-registering
        keeps the larger floor, so import order cannot shrink one.
        """
        if floor_bytes < 0:
            raise ValueError(f"floor_bytes must be >= 0, got {floor_bytes}")
        with self._lock:
            space = self._space(namespace)
            space.floor = max(space.floor, int(floor_bytes))
        return namespace

    def configure(
        self,
        max_bytes: int | None = None,
        floors: dict[str, int] | None = None,
    ) -> None:
        """Change the budget and/or floors; evicts immediately if shrunk."""
        with self._lock:
            if max_bytes is not None:
                if max_bytes <= 0:
                    raise ValueError(
                        f"max_bytes must be positive, got {max_bytes}"
                    )
                self._max_bytes = int(max_bytes)
            if floors:
                for namespace, floor in floors.items():
                    if floor < 0:
                        raise ValueError(
                            f"floor for {namespace!r} must be >= 0, got {floor}"
                        )
                    self._space(namespace).floor = int(floor)
            self._evict_to_budget()

    # ------------------------------------------------------------------ #
    # the cache protocol
    # ------------------------------------------------------------------ #
    def get(self, namespace: str, key: Hashable) -> Any | None:
        """The cached value, or ``None``; counts the hit/miss either way."""
        with self._lock:
            space = self._space(namespace)
            entry = space.entries.pop(key, None)
            if entry is None:
                space.stats["misses"] += 1
                return None
            self._clock += 1
            space.entries[key] = (entry[0], entry[1], self._clock)
            space.stats["hits"] += 1
            return entry[0]

    def put(
        self, namespace: str, key: Hashable, value: Any, nbytes: int | None = None
    ) -> bool:
        """Admit ``value`` under ``(namespace, key)``; returns False if
        rejected (oversized). Eviction, never an error, restores the
        budget afterwards."""
        if nbytes is None:
            nbytes = estimate_nbytes(value)
        cost = int(nbytes) + KEY_OVERHEAD_BYTES
        with self._lock:
            space = self._space(namespace)
            if cost > max(self._max_bytes // _ADMISSION_FRACTION, 1):
                space.stats["rejected"] += 1
                return False
            existing = space.entries.pop(key, None)
            if existing is not None:
                self._charge(space, -existing[1])
            self._clock += 1
            space.entries[key] = (value, cost, self._clock)
            self._charge(space, cost)
            space.stats["puts"] += 1
            self._evict_to_budget()
            return True

    def clear(self, namespace: str | None = None, counters: bool = True) -> None:
        """Drop entries (one namespace or all); optionally zero counters.

        Clearing a namespace that was never used is a no-op: it does not
        register the name.
        """
        with self._lock:
            if namespace is None:
                spaces = list(self._namespaces.values())
            elif namespace in self._namespaces:
                spaces = [self._namespaces[namespace]]
            else:
                return
            for space in spaces:
                space.entries.clear()
                self._charge(space, -space.stats["bytes"])
                if counters:
                    space.stats = _zero_namespace_stats()

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def stats(self, namespace: str | None = None) -> dict:
        """Counters and sizes — per namespace, or the full picture.

        Read-only: asking about a namespace that was never used returns
        zeroed counters without registering it.
        """
        with self._lock:
            if namespace is not None:
                space = self._namespaces.get(namespace) or _Namespace()
                return space.describe()
            spaces = self._namespaces
            return {
                "max_bytes": self._max_bytes,
                "total_bytes": self._total_bytes,
                "entries": sum(len(s.entries) for s in spaces.values()),
                "evictions": sum(s.stats["evictions"] for s in spaces.values()),
                "namespaces": {
                    ns: spaces[ns].describe() for ns in sorted(spaces)
                },
            }

    def total_bytes(self) -> int:
        """Charged bytes currently held (payload + key overhead)."""
        with self._lock:
            return self._total_bytes

    @property
    def lock(self) -> threading.RLock:
        """The cache's lock — callers co-locate their own counters under
        it so read-and-reset stays atomic against puts (see
        ``repro.ml.preprocessing`` / ``repro.detect.fd``)."""
        return self._lock

    # ------------------------------------------------------------------ #
    # internals (lock held)
    # ------------------------------------------------------------------ #
    def _space(self, namespace: str) -> _Namespace:
        space = self._namespaces.get(namespace)
        if space is None:
            space = self._namespaces[namespace] = _Namespace()
        return space

    def _charge(self, space: _Namespace, delta: int) -> None:
        space.stats["bytes"] += delta
        self._total_bytes += delta

    def _evict_to_budget(self) -> None:
        # Floors first: namespaces at/below their floor are spared while
        # any other namespace can give; then the budget is a hard bound.
        while self._total_bytes > self._max_bytes:
            victim = self._oldest_head(spare_floors=True)
            if victim is None:
                victim = self._oldest_head(spare_floors=False)
            __, (__, cost, __) = victim.entries.popitem(last=False)
            self._charge(victim, -cost)
            victim.stats["evictions"] += 1

    def _oldest_head(self, spare_floors: bool) -> _Namespace | None:
        """The namespace whose LRU entry is globally oldest, or ``None``."""
        oldest, oldest_tick = None, 0
        for space in self._namespaces.values():
            if not space.entries:
                continue
            if spare_floors and space.stats["bytes"] <= space.floor:
                continue
            tick = space.head_tick()
            if oldest is None or tick < oldest_tick:
                oldest, oldest_tick = space, tick
        return oldest


# ---------------------------------------------------------------------- #
# the process-wide instance
# ---------------------------------------------------------------------- #
_SHARED = SharedCache()


def shared_cache() -> SharedCache:
    """The process-wide cache every memoization layer shares."""
    return _SHARED


def cache_stats() -> dict:
    """Global + per-namespace counters of the shared cache (the service's
    ``status`` verb reports this payload verbatim)."""
    return _SHARED.stats()


def set_cache_budget(
    max_bytes: int | None = None, floors: dict[str, int] | None = None
) -> None:
    """Set the process-wide byte budget (and optional per-namespace
    floors); over-budget entries are evicted immediately. ``None`` leaves
    the current budget untouched."""
    _SHARED.configure(max_bytes=max_bytes, floors=floors)


def clear_shared_cache(namespace: str | None = None) -> None:
    """Drop cached entries (one namespace, or everything) and counters."""
    _SHARED.clear(namespace)
