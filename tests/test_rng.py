"""The interleave stream's replay: exact against numpy's Generator."""

import pytest
from hypothesis import given, settings, strategies as st

from asyncsgd import rng

# a draw is either None (random()) or an exclusive bound hi (integers(0, hi))
draws = st.lists(st.one_of(st.none(), st.integers(1, 2 ** 32),
                           st.sampled_from([1, 2, 2 ** 31 + 1, 3_000_000_000,
                                            2 ** 32 - 1, 2 ** 32])),
                 max_size=300)


def pair(seed):
    return (rng.stream(seed, rng.INTERLEAVE),
            rng.Replay(rng.stream(seed, rng.INTERLEAVE)))


def assert_same(gen, rep, calls):
    for hi in calls:
        if hi is None:
            assert rep.random() == gen.random()
        else:
            got = rep.integers(0, hi)
            assert type(got) is int
            assert got == int(gen.integers(0, hi))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32), calls=draws)
def test_replay_matches_generator_any_interleaving(seed, calls):
    gen, rep = pair(seed)
    assert_same(gen, rep, calls)


def test_replay_crosses_raw_chunks():
    gen, rep = pair(7)
    assert_same(gen, rep, [None, 1000, 5] * 2000)


def test_hi_one_consumes_nothing():
    gen, rep = pair(1)
    assert rep.integers(0, 1) == 0
    assert rep.integers(0, 1) == 0
    assert rep.random() == gen.random()
    # an odd number of 32-bit draws leaves the cached high half in use
    assert rep.integers(0, 10) == gen.integers(0, 10)
    assert rep.integers(0, 1) == 0
    assert rep.integers(0, 10) == gen.integers(0, 10)


def test_full_32_bit_range_returns_raw_words():
    gen, rep = pair(2)
    word = int(rng.stream(2, rng.INTERLEAVE).bit_generator.random_raw())
    first, second = rep.integers(0, 2 ** 32), rep.integers(0, 2 ** 32)
    assert (first, second) == (word & 0xFFFFFFFF, word >> 32)
    assert [int(gen.integers(0, 2 ** 32)) for _ in range(2)] == [first, second]
    assert_same(gen, rep, [2 ** 32] * 100)


def test_rejection_heavy_bound():
    # 2**32 - 3e9 = 1,294,967,296 of the 2**32 words are rejected (30%)
    gen, rep = pair(3)
    assert_same(gen, rep, [3_000_000_000] * 5000 + [None, 3_000_000_000] * 50)


def test_bounds_outside_32_bits_rejected():
    _gen, rep = pair(4)
    for lo, hi in ((0, 2 ** 32 + 1), (0, 2 ** 40), (0, 0), (1, 5)):
        with pytest.raises(ValueError):
            rep.integers(lo, hi)


def test_replay_continues_a_used_generator():
    # a generator with a cached 32-bit half hands that half out first
    gen, used = rng.stream(5, rng.INTERLEAVE), rng.stream(5, rng.INTERLEAVE)
    gen.integers(0, 7)
    used.integers(0, 7)
    assert_same(gen, rng.Replay(used), [9, None, 9, 9, None])
