"""Software transactional memory for packet transactions (§4.2)."""

from .._lazy import surface

__getattr__, __dir__, __all__ = surface(__name__, {
    "locks": ("LockStats", "PartitionLock", "TransactionWounded"),
    "partition": ("DEFAULT_PARTITIONS", "PartitionSpace"),
    "store": ("StateStore", "TOMBSTONE"),
    "transaction": (
        "Transaction", "TransactionContext", "TransactionManager",
        "TransactionResult",
    ),
})
