"""Seeded, splittable random streams.

All randomness in the simulator flows through named Philox streams so that
any run can be replayed bit-identically from ``(seed, config)``.  Philox is
a 64-bit counter-based generator; we derive one independent stream per
purpose (partition, assignment, per-node sampling, event interleaving) by
hashing ``(seed, purpose, index)`` into the Philox key.

Replay contract of the interleave stream: the event engine draws its
scalars through `Replay`, which reads the raw 64-bit Philox words and
re-implements numpy's scalar ``random()`` and ``integers(0, hi)`` in pure
Python.  It returns exactly the values that ``Generator.random()`` and
``Generator.integers(0, hi)`` return on the same stream (tests/test_rng.py
checks this against the installed numpy).  The event order therefore
depends only on the raw Philox word stream, which numpy keeps stable, and
no longer on numpy's ``Generator`` algorithms, which NEP 19 allows to
change between versions.  Only the generator's final state differs from
scalar draws, because words are read ahead in chunks.
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

# Raw words a Replay reads ahead from its bit generator at a time.
_RAW_CHUNK = 1024
_MASK32 = 0xFFFFFFFF
_TWO_M53 = 2.0 ** -53


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


class Replay:
    """Scalar draws of `gen`, replayed in pure Python from its raw words.

    ``random()`` and ``integers(hi)`` return what ``random()`` and
    ``integers(0, hi)`` on `gen` would, in any interleaving; `gen` must not
    be drawn from directly once wrapped.  Like numpy's Philox, 32-bit draws
    take the low half of a fresh 64-bit word and cache the high half for
    the next 32-bit draw.
    """

    __slots__ = ("_word", "_half")

    def __init__(self, gen: np.random.Generator):
        bitgen = gen.bit_generator
        state = bitgen.state
        self._half = state["uinteger"] if state["has_uint32"] else None
        chunks = iter(lambda: bitgen.random_raw(_RAW_CHUNK).tolist(), None)
        self._word = itertools.chain.from_iterable(chunks).__next__

    def random(self) -> float:
        """Generator.random(): the top 53 bits of a word, scaled to [0, 1)."""
        return (self._word() >> 11) * _TWO_M53

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._word()
        self._half = word >> 32
        return word & _MASK32

    def integers(self, hi: int) -> int:
        """Generator.integers(0, hi) for 1 <= hi <= 2**32: Lemire rejection.

        ``hi == 1`` consumes nothing; ``hi == 2**32`` returns the raw 32-bit
        word, since its low product word and threshold are both 0.
        """
        if not 1 <= hi <= 1 << 32:
            raise ValueError(f"Replay.integers supports 1 <= hi <= 2**32, "
                             f"not {hi}")
        if hi == 1:
            return 0
        m = self._uint32() * hi
        if m & _MASK32 < hi:
            threshold = ((1 << 32) - hi) % hi
            while m & _MASK32 < threshold:
                m = self._uint32() * hi
        return m >> 32
