"""Consistent hashing: which shard owns a ``(family, die)`` key.

The router must send every verification of a given die to the same
shard, so that the die's history and audit trail accumulate in one
registry — and it must keep doing so as shards come and go.  A modulo
hash fails the second half (evicting one shard remaps nearly every
key); a consistent-hash ring remaps only the evicted shard's arc.

Classic construction (Karger et al.): each shard projects
``replicas`` virtual nodes onto a 64-bit ring at
``sha256(shard_id + "#" + i)`` positions; a key lands at
``sha256(key)`` and walks clockwise to the first virtual node.
:meth:`HashRing.candidates` returns shards in walk order, so a caller
with a health predicate takes the first healthy one — the next shard
in walk order is exactly where a failed shard's keys re-route.

Everything here is pure and deterministic: the same shard set and the
same key always map identically, across processes and runs, which is
what lets the soak compare a fleet's verdicts byte-for-byte against a
single server's.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Callable, Iterable, List, Optional, Tuple

__all__ = ["HashRing", "routing_key"]

#: Virtual nodes per shard.  128 keeps the per-shard load imbalance
#: under ~10% for small fleets while the ring stays tiny (N * 128
#: 8-byte points).
DEFAULT_REPLICAS = 128


def _point(label: str) -> int:
    """A label's 64-bit position on the ring."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def routing_key(family: str, die_id: str) -> str:
    """The canonical routing key of one verification request.

    ``die_id`` is the wire-form hex string (``"0x00000000002A"``).  A
    verify request without it never reaches the ring: the router
    answers ``400``.
    """
    return f"{family}|{die_id}"


class HashRing:
    """An immutable consistent-hash ring over shard ids."""

    def __init__(
        self,
        shard_ids: Iterable[str],
        *,
        replicas: int = DEFAULT_REPLICAS,
    ):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.shard_ids: Tuple[str, ...] = tuple(shard_ids)
        if not self.shard_ids:
            raise ValueError("a hash ring needs at least one shard")
        if len(set(self.shard_ids)) != len(self.shard_ids):
            raise ValueError("shard ids must be unique")
        self.replicas = replicas
        points: List[Tuple[int, str]] = []
        for shard_id in self.shard_ids:
            for i in range(replicas):
                points.append((_point(f"{shard_id}#{i}"), shard_id))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [s for _, s in points]

    def __len__(self) -> int:
        return len(self.shard_ids)

    def owner(self, key: str) -> str:
        """The shard owning ``key``, health questions aside."""
        return self.candidates(key)[0]

    def candidates(self, key: str) -> List[str]:
        """Every shard in ring-walk order from ``key``'s position.

        The first entry is the owner; each subsequent entry is where
        the key re-routes if everything before it is unhealthy.  All
        shards appear exactly once.
        """
        start = bisect.bisect_right(self._points, _point(key))
        seen: List[str] = []
        n = len(self._owners)
        for i in range(n):
            shard = self._owners[(start + i) % n]
            if shard not in seen:
                seen.append(shard)
                if len(seen) == len(self.shard_ids):
                    break
        return seen

    def route(
        self,
        key: str,
        healthy: Optional[Callable[[str], bool]] = None,
    ) -> Optional[str]:
        """The first healthy shard in walk order, or None if the whole
        fleet is unhealthy."""
        for shard in self.candidates(key):
            if healthy is None or healthy(shard):
                return shard
        return None

    def load_map(self, keys: Iterable[str]) -> dict:
        """``shard_id -> key count`` over a key sample (balance
        diagnostics for ``repro fleet topology``)."""
        counts = {shard: 0 for shard in self.shard_ids}
        for key in keys:
            counts[self.owner(key)] += 1
        return counts
