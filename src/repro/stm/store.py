"""State stores.

A :class:`StateStore` holds one middlebox's state as a key-value map.
Replicas keep one store per middlebox they replicate (§5); recovery
copies stores wholesale.  Values are opaque to the store but must be
cheap to copy; keys may be any hashable (flow tuples, counter names).

Deletions are represented by a tombstone so they replicate through
piggyback logs exactly like writes.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Hashable, Iterator, Tuple

__all__ = ["StateStore", "TOMBSTONE"]


class _Tombstone:
    """Marks a deleted key inside updates (singleton)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "<TOMBSTONE>"


TOMBSTONE = _Tombstone()


class StateStore:
    """A middlebox's key-value state."""

    def __init__(self, name: str = "store"):
        self.name = name
        self._data: Dict[Hashable, Any] = {}
        self.writes_applied = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        return self._data.get(key, default)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def apply(self, key: Hashable, value: Any) -> None:
        """Apply one replicated update (TOMBSTONE deletes)."""
        if value is TOMBSTONE:
            self._data.pop(key, None)
        else:
            self._data[key] = value
        self.writes_applied += 1

    def apply_many(self, updates: Dict[Hashable, Any]) -> None:
        data = self._data
        for key, value in updates.items():
            if value is TOMBSTONE:
                data.pop(key, None)
            else:
                data[key] = value
        self.writes_applied += len(updates)

    def items(self) -> Iterator[Tuple[Hashable, Any]]:
        return iter(self._data.items())

    def snapshot(self) -> Dict[Hashable, Any]:
        """A deep copy of the contents (used for state transfer)."""
        return copy.deepcopy(self._data)

    def load(self, contents: Dict[Hashable, Any]) -> None:
        """Replace contents wholesale (recovery)."""
        self._data = copy.deepcopy(contents)

    def state_bytes(self, value_size: int = 32) -> int:
        """Rough serialized size, for recovery transfer-time modelling."""
        return len(self._data) * value_size

    def fingerprint(self) -> int:
        """Order-independent digest for equality checks in tests."""
        return hash(frozenset((k, _freeze(v)) for k, v in self._data.items()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, StateStore):
            return NotImplemented
        return self._data == other._data

    def __repr__(self):
        return f"<StateStore {self.name} keys={len(self._data)}>"


def _freeze(value: Any) -> Any:
    if isinstance(value, dict):
        return frozenset((k, _freeze(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, set):
        return frozenset(_freeze(v) for v in value)
    return value
