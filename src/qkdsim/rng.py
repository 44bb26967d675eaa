"""Deterministic random source used by every sampling operation.

All randomness in the package flows through :class:`Rng` so that a
session is a pure function of its seed.  The generator is the Mersenne
Twister behind :class:`random.Random`.  Scalar draws consume its
``random()`` output -- the one primitive whose sequence CPython
guarantees to be reproducible for a given seed across versions and
platforms -- and every scalar helper below (coins, bounded integers,
permutations) is built on it.  Bulk draws consume the same twister's
raw 32-bit words through numpy's legacy stream, which NEP 19 freezes,
so transcripts replay bit-for-bit anywhere.

A scalar draw, ``rng.uniform()``, is that primitive itself: each
:class:`Rng` binds its generator's own ``random`` method as the
instance attribute ``uniform``, so the draws stage 1 makes per pulse go
through the :class:`Rng` without a Python frame of its own.

Bulk draws go through numpy and take raw words.  :meth:`Rng.bulk` lends
the stream: it hands the same MT19937 state to the
``numpy.random.RandomState`` that each :class:`Rng` keeps, whose
``bytes`` method (a stream NEP 19 freezes) gives the next words'
little-endian bytes, the words ``getrandbits(32)`` returns in turn, and
hands the advanced state back when the loan ends, also when it ends in
an error.  A bulk draw of ``k`` words is therefore the same sequence as
``k`` calls of ``getrandbits(32)``, and two words are what one
``random()`` takes, so :func:`shuffle` makes ``permutation``'s draws
from a loan's words.  :meth:`Rng.bulk` is the only bridge between the
two generators; :meth:`Rng.words` is one draw under one loan.  While
the stream is lent, the ``random.Random`` state is stale: no scalar
draw may be made until the loan ends, or it would repeat the lent
words and then be overwritten.
"""

import contextlib
import random

import numpy as np


class Rng:
    """Seeded random stream with the handful of draws the protocols need."""

    __slots__ = ("seed", "_random", "uniform", "_twister")

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._random = random.Random(self.seed).random
        # One draw in [0, 1): the generator's bound random(), called with no wrapper frame.
        self.uniform = self._random
        self._twister = None  # built by the first bulk(); numpy.random costs ~2 MB to load

    @contextlib.contextmanager
    def bulk(self):
        """Lend the stream to numpy; yields a ``words(k)`` of the next ``k`` raw words.

        ``words(k)`` returns a ``<u4`` array, the values ``k`` calls of
        ``getrandbits(32)`` return.

        On entry the generator's state goes to this stream's numpy
        twister; on exit, also on an error, the advanced state comes
        back, so the ``random.Random`` behind ``_random`` (still the
        same object) continues right after the last lent draw.  No
        scalar draw may be made inside the ``with``.
        """
        generator = self._random.__self__
        version, internal, gauss_next = generator.getstate()
        twister = self._twister
        if twister is None:
            twister = self._twister = np.random.RandomState(0)  # seeded only to skip reading OS entropy
        twister.set_state(("MT19937", np.array(internal[:-1], dtype=np.uint32), internal[-1]))

        def words(k):
            if not k:  # bytes(0) would still take a word
                return np.empty(0, dtype="<u4")
            return np.frombuffer(twister.bytes(4 * k), dtype="<u4")

        try:
            yield words
        finally:
            _, key, pos = twister.get_state()[:3]
            generator.setstate((version, (*key.tolist(), pos), gauss_next))

    def words(self, k: int) -> np.ndarray:
        """``k`` raw words, the values ``k`` calls of ``getrandbits(32)`` return."""
        with self.bulk() as words:
            return words(k)

    def coin(self) -> int:
        """Fair bit: 1 with probability 1/2."""
        return 1 if self._random() < 0.5 else 0

    def below(self, n: int) -> int:
        """Integer in [0, n). Bias from the float path is ~2**-53, irrelevant here."""
        v = int(self._random() * n)
        return n - 1 if v >= n else v

    def pick_weighted(self, weights) -> int:
        """Index drawn by cumulative-probability inversion, in list order.

        The last bucket absorbs any rounding slack so a draw always lands.
        """
        u = self._random()
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if u < acc:
                return i
        return len(weights) - 1

    def permutation(self, n: int) -> list:
        """Fisher-Yates shuffle of range(n)."""
        order = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.below(i + 1)
            order[i], order[j] = order[j], order[i]
        return order

    def sample_positions(self, n: int, m: int) -> list:
        """m distinct positions out of range(n), returned in ascending order."""
        return sorted(self.permutation(n)[:m])


def shuffle(words, n: int) -> list:
    """:meth:`Rng.permutation` of range(n), its draws taken from ``words(k)`` of a loan.

    Each swap index takes two words ``a``, ``b`` and builds the double
    ``random()`` builds from them, ``((a >> 5) * 2**26 + (b >> 6)) * 2**-53``
    (exact in floating point), then ``j = min(int(u * (i + 1)), i)`` as
    :meth:`Rng.below` does.  So under one :meth:`Rng.bulk` this is the
    order, and the same ``2 * (n - 1)`` words, that ``permutation(n)``
    gives; ``n < 2`` draws nothing.
    """
    order = list(range(n))
    if n < 2:
        return order
    pairs = words(2 * (n - 1)).reshape(-1, 2)
    u = ((pairs[:, 0] >> 5) * 67108864.0 + (pairs[:, 1] >> 6)) * (1.0 / 9007199254740992.0)
    spans = np.arange(n, 1, -1)  # i + 1 for i = n - 1 ... 1
    js = np.minimum((u * spans).astype(np.int64), spans - 1)
    for i, j in zip(range(n - 1, 0, -1), js.tolist()):
        order[i], order[j] = order[j], order[i]
    return order
