"""State-space partitioning (§4.2).

FTC simplifies lock management "using state space partitioning, by
using the hash of state variable keys to map keys to partitions, each
with its own lock.  The state partitioning is consistent across all
replicas, and to reduce contention, the number of partitions is
selected to exceed the maximum number of CPU cores."

The hash must therefore be *stable*: identical at the head and at every
replica, and across simulation runs.  We use CRC-32 over a canonical
encoding of the key rather than Python's salted ``hash``.
"""

from __future__ import annotations

import zlib
from typing import Dict, Hashable

__all__ = ["PartitionSpace", "DEFAULT_PARTITIONS"]

#: Paper guidance: more partitions than the server's core count; the
#: testbed CPUs have 8 cores, we default comfortably above that.
DEFAULT_PARTITIONS = 64


def _canonical(key: Hashable) -> bytes:
    """A deterministic byte encoding of a state key."""
    if isinstance(key, bytes):
        return key
    if isinstance(key, str):
        return key.encode()
    if isinstance(key, int):
        try:
            return b"i" + key.to_bytes(16, "big", signed=True)
        except OverflowError:
            # Keys beyond 128 bits get a length-prefixed encoding; the
            # common fixed-width path keeps its historical mapping.
            n = (key.bit_length() + 8) // 8
            return b"I" + n.to_bytes(4, "big") + \
                key.to_bytes(n, "big", signed=True)
    if isinstance(key, tuple):
        parts = bytearray(b"t")
        for element in key:
            encoded = _canonical(element)
            parts += len(encoded).to_bytes(4, "big") + encoded
        return bytes(parts)
    # Fall back to repr for exotic-but-hashable keys (e.g. dataclasses).
    return repr(key).encode()


#: Leaf types whose encoding is a function of the value alone and
#: that never compare equal to a key encoded differently (``True``
#: encodes as ``1``).  Not ``float``: ``1.0 == 1`` but encodes by repr.
_MEMOISABLE = frozenset((str, bytes, int, bool))


class PartitionSpace:
    """Maps state keys to a fixed number of lock partitions."""

    def __init__(self, n_partitions: int = DEFAULT_PARTITIONS):
        if n_partitions < 1:
            raise ValueError("need at least one partition")
        self.n_partitions = n_partitions
        #: key -> partition, for the keys a dict lookup cannot conflate
        #: with a differently-encoded equal (flat tuples of, or bare,
        #: ``_MEMOISABLE`` leaves -- which is what middleboxes use).
        #: Bounded by the key population of the store it partitions.
        self._memo: Dict[Hashable, int] = {}

    def partition_of(self, key: Hashable) -> int:
        kind = type(key)
        if (_MEMOISABLE.issuperset(map(type, key)) if kind is tuple
                else kind in _MEMOISABLE):
            partition = self._memo.get(key)
            if partition is None:
                partition = self._memo[key] = self._hash(key)
            return partition
        return self._hash(key)

    def _hash(self, key: Hashable) -> int:
        return zlib.crc32(_canonical(key)) % self.n_partitions

    def partitions_of(self, keys) -> frozenset:
        return frozenset(map(self.partition_of, keys))

    def __eq__(self, other):
        if not isinstance(other, PartitionSpace):
            return NotImplemented
        return self.n_partitions == other.n_partitions

    def __repr__(self):
        return f"<PartitionSpace n={self.n_partitions}>"
