"""Deterministic random source used by every sampling operation.

All randomness in the package flows through :class:`Rng` so that a
session is a pure function of its seed.  The generator is the Mersenne
Twister behind :class:`random.Random`, and only its ``random()`` output
is consumed -- the one primitive whose sequence CPython guarantees to be
reproducible for a given seed across versions and platforms.  Every
helper below (coins, bounded integers, permutations) is built on that
single primitive, so transcripts replay bit-for-bit anywhere.

:meth:`Rng.uniforms` draws in bulk through numpy: it hands the same
MT19937 state to ``numpy.random.RandomState``, whose ``random_sample``
builds each double from the next two 32-bit words exactly as
``random()`` does (``(a >> 5) * 2**26 + (b >> 6)``, over ``2**53``), and
hands the advanced state back.  A bulk draw is therefore the same
sequence as that many ``random()`` calls, and the guarantee above holds.
"""

import random

import numpy as np


class Rng:
    """Seeded random stream with the handful of draws the protocols need."""

    __slots__ = ("seed", "_random")

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._random = random.Random(self.seed).random

    def uniform(self) -> float:
        """One draw in [0, 1)."""
        return self._random()

    def uniforms(self, k: int) -> np.ndarray:
        """``k`` draws in [0, 1), the same values ``k`` calls of :meth:`uniform` return.

        The generator's state goes to numpy and comes back advanced; the
        ``random.Random`` behind ``_random`` stays the same object.
        """
        generator = self._random.__self__
        version, internal, gauss_next = generator.getstate()
        twister = np.random.RandomState(0)  # seeded only to skip reading OS entropy
        twister.set_state(("MT19937", np.array(internal[:-1], dtype=np.uint32), internal[-1]))
        draws = twister.random_sample(k)
        _, key, pos = twister.get_state()[:3]
        generator.setstate((version, (*key.tolist(), pos), gauss_next))
        return draws

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
