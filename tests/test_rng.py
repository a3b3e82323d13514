"""The interleave stream's read: raw 64-bit Philox words, one per call."""

from asyncsgd import rng


def test_words_cross_raw_chunks():
    # words are read ahead 1024 at a time; the chunk seams leave no trace
    word = rng.words(7, rng.INTERLEAVE)
    raw = rng.stream(7, rng.INTERLEAVE).bit_generator.random_raw(3 * 1024 + 5)
    got = [word() for _ in range(3 * 1024 + 5)]
    assert all(type(w) is int for w in got)
    assert got == raw.tolist()


def test_interleave_words_are_pinned():
    """The first words of seed 0's interleave stream: a change to the key
    derivation or to numpy's raw Philox output shows here, apart from every
    other part of the engine."""
    word = rng.words(0, rng.INTERLEAVE)
    assert [word() for _ in range(4)] == [
        15544318727738998189, 2690695536027909066,
        11745644640779722918, 13974087028456492486]
