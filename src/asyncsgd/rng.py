"""Seeded, splittable random streams.

All randomness in the simulator flows through named Philox streams so that
any run can be replayed bit-identically from ``(seed, config)``.  Philox is
a 64-bit counter-based generator; we derive one independent stream per
purpose (partition, assignment, per-node sampling, event interleaving) by
hashing ``(seed, purpose, index)`` into the Philox key.

The engine reads the interleave stream as its raw 64-bit Philox words,
one word per draw (see `words`): a tie-break is a word, and a delay in
[0, hi) is ``word * hi >> 64``, each value with a probability within a
factor 1 +- hi / 2**64 of 1/hi.  The event order therefore depends only on
the raw word stream, which numpy keeps stable, and not on numpy's
``Generator`` algorithms, which NEP 19 allows to change between versions.
"""
from __future__ import annotations

import hashlib
import itertools

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
    return stream_at(stream_key(seed, purpose, index), 0)


def stream_at(key: int, word: int) -> np.random.Generator:
    """The generator of Philox key `key` after its first `word` 64-bit
    words: word // 4 counts of four words skipped, word % 4 words read."""
    bitgen = np.random.Philox(key=key)
    bitgen.advance(word // 4)
    bitgen.random_raw(word % 4)
    return np.random.Generator(bitgen)


def words(seed: int, purpose: str, index: int = 0):
    """The stream's raw 64-bit words, as Python ints: each call returns the
    next one.  Words are read ahead in chunks of 1024."""
    bitgen = stream(seed, purpose, index).bit_generator
    chunks = iter(lambda: bitgen.random_raw(1024).tolist(), None)
    return itertools.chain.from_iterable(chunks).__next__
