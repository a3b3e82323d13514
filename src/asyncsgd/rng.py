"""Seeded, splittable random streams.

All randomness in the simulator flows through named Philox streams so that
any run can be replayed bit-identically from ``(seed, config)``.  Philox is
a 64-bit counter-based generator; we derive one independent stream per
purpose (partition, assignment, per-node sampling, event interleaving) by
hashing ``(seed, purpose, index)`` into the Philox key.
"""
from __future__ import annotations

import hashlib

import numpy as np

# Stream purposes used across the package.  Keeping them in one place makes
# replay contracts auditable.
PARTITION = "partition"
ASSIGNMENT = "assignment"
NODE_SAMPLING = "node"
INTERLEAVE = "interleave"


def stream_key(seed: int, purpose: str, index: int = 0) -> int:
    """Derive a 128-bit Philox key from (seed, purpose, index)."""
    raw = f"{seed}:{purpose}:{index}".encode()
    digest = hashlib.sha256(raw).digest()
    return int.from_bytes(digest[:16], "little")


def stream(seed: int, purpose: str, index: int = 0) -> np.random.Generator:
    """Return an independent generator for the given purpose.

    The same (seed, purpose, index) triple always yields the same stream,
    on any platform.
    """
    return np.random.Generator(np.random.Philox(key=stream_key(seed, purpose, index)))
