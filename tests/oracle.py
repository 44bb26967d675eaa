"""Per-slot stage 1 as a reference for the session engine's.

This is the quantum stage with nothing decided once per session: every
projective measurement checks its basis, passed as a plain tuple, by
building a ``Basis`` from it; the translucent tap finds each pulse's row by
``states_equal``; and the POVM probabilities are :func:`quad_form` of
each element.  It draws from the stream in the engine's documented
order, so on equal seeds the engine must give the same record, the same
tap record and the same final stream state.

It also holds a plain Fisher-Yates shuffle, the reference for
``Rng.permutation``, ``Rng.sample_positions`` and ``rng.shuffle``, and
reconciliation over Python lists, the reference for ``distill.reconcile``:
it draws its shuffles through ``Rng.permutation`` and each subset row
under a loan of its own, and posts each parity as it is compared.
"""

import random

import numpy as np

from qkdsim import (
    Basis,
    OpaqueEve,
    PhotonSplitEve,
    PovmOutcome,
    b92_alphabet,
    build_povm,
    inner,
    oblique_alphabet,
    states_equal,
    vh_alphabet,
)
from qkdsim.channel import flip_state
from qkdsim.distill import MAX_PASSES, N_CLEAN, DistillAccounting, _draw_rows, default_block_policy
from qkdsim.errors import NotHermitian, StateNotInAlphabet
from qkdsim.protocol import Stage1Record
from qkdsim.quantum import OPERATOR_TOL, quad_form


def measure_projective(state, basis, rng):
    b0, b1 = Basis(*basis)
    p0 = abs(inner(b0, state)) ** 2
    bit = 0 if rng.uniform() < p0 else 1
    return bit, (b0 if bit == 0 else b1)


def measure_povm(state, povm, rng):
    probs = tuple(quad_form(el, state) for el in povm.elements())
    if not abs(sum(probs) - 1.0) <= OPERATOR_TOL:
        raise NotHermitian(f"POVM probabilities sum to {sum(probs)!r}")
    return PovmOutcome(rng.pick_weighted(probs))


class Tap:
    """What :class:`~qkdsim.eve.EveTap` does to a pulse, and the record it keeps."""

    def __init__(self, strategy, protocol, rng, theta):
        self.strategy = strategy
        self.rng = rng
        self.record = {}
        if isinstance(strategy, OpaqueEve):
            if protocol == "bb84":
                self.menu = (("+", tuple(vh_alphabet())), ("x", tuple(oblique_alphabet())))
            else:
                alpha = b92_alphabet(theta)
                plus, minus = alpha[1], alpha[0]
                self.menu = (("m", (minus, minus.orthogonal())), ("p", (plus.orthogonal(), plus)))
        elif not isinstance(strategy, PhotonSplitEve):
            alpha = b92_alphabet(theta)
            self.table = tuple((alpha[bit], *strategy.coupling[bit]) for bit in (1, 0))

    def apply(self, slot, photons, state):
        """(photons, state) forwarded for a pulse of ``photons`` in ``state`` at ``slot``."""
        if isinstance(self.strategy, OpaqueEve):
            if self.rng.uniform() >= self.strategy.fraction:
                return photons, state
            choice, basis = self.menu[self.rng.coin()]
            bit, collapsed = measure_projective(state, basis, self.rng)
            self.record[slot] = (choice, bit)
            return photons, collapsed
        if isinstance(self.strategy, PhotonSplitEve):
            if photons < 2:
                return photons, state
            self.record[slot] = state
            return photons - 1, state
        for code_state, forwarded, probe in self.table:
            if states_equal(state, code_state):
                self.record[slot] = probe
                return photons, forwarded
        raise StateNotInAlphabet(f"incoming state {state!r} is not a +-theta code state")


def _transmit(slot, state, noise, tap, rng):
    """Source, tap, flip and loss of one slot: the delivered state, or None."""
    photons = 2 if rng.uniform() < noise.multi_p else 1
    if tap is not None:
        photons, state = tap.apply(slot, photons, state)
    if rng.uniform() < noise.flip_p:
        state = flip_state(state)
    if rng.uniform() < noise.loss_p:
        return None
    return state


def run_stage1_bb84(cfg, rng, tap) -> Stage1Record:
    alphabets = (vh_alphabet(), oblique_alphabet())
    alice_bits, alice_alphas, bob_alphas, bob_bits, received = [], [], [], [], []
    for slot in range(cfg.n_pulses):
        bit = rng.coin()
        alpha = rng.coin()
        alice_bits.append(bit)
        alice_alphas.append(alpha)
        delivered = _transmit(slot, alphabets[alpha][bit], cfg.noise, tap, rng)
        if delivered is None:
            received.append(False)
            bob_alphas.append(None)
            bob_bits.append(None)
            continue
        b_alpha = rng.coin()
        bob_alphas.append(b_alpha)
        bit_out, _ = measure_projective(delivered, alphabets[b_alpha], rng)
        bob_bits.append(bit_out)
        received.append(True)
    return Stage1Record(alice_bits, received, bob_bits, alice_alphabets=alice_alphas, bob_alphabets=bob_alphas)


def run_stage1_b92(cfg, rng, tap) -> Stage1Record:
    alphabet = b92_alphabet(cfg.theta)
    povm = build_povm(cfg.theta)
    alice_bits, received, bob_bits = [], [], []
    for slot in range(cfg.n_pulses):
        bit = rng.coin()
        alice_bits.append(bit)
        delivered = _transmit(slot, alphabet[bit], cfg.noise, tap, rng)
        if delivered is None:
            received.append(False)
            bob_bits.append(None)
            continue
        outcome = measure_povm(delivered, povm, rng)
        received.append(True)
        bob_bits.append(None if outcome == PovmOutcome.INCONCLUSIVE else int(outcome))
    return Stage1Record(alice_bits, received, bob_bits)


def permutation(seed, n, offset=0):
    """Fisher-Yates shuffle of range(n) over ``random.Random(seed).random``, and that ``random``.

    The shuffle starts after ``offset`` calls of ``getrandbits(32)``.
    Each swap index is ``int(u * (i + 1))``, clamped to ``i`` as ``Rng.below`` clamps it.
    """
    generator = random.Random(seed)
    for _ in range(offset):
        generator.getrandbits(32)
    draw = generator.random
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = min(int(draw() * (i + 1)), i)
        order[i], order[j] = order[j], order[i]
    return order, draw


def _parity(key, positions) -> int:
    p = 0
    for i in positions:
        p ^= key[i]
    return p


class _Reconciler:
    def __init__(self, key_a, key_b, transcript, acct):
        self.key_a = key_a
        self.key_b = key_b
        self.alive = [True] * len(key_a)
        self.transcript = transcript
        self.acct = acct

    def alive_positions(self):
        return [i for i, ok in enumerate(self.alive) if ok]

    def compare(self, positions) -> bool:
        """Post both parities over ``positions``, then discard the last position.

        Returns True when the parities disagree.
        """
        pa = _parity(self.key_a, positions)
        pb = _parity(self.key_b, positions)
        self.transcript.post("alice", "parity", str(pa))
        self.transcript.post("bob", "parity", str(pb))
        self.acct.parity_bits_disclosed += 1
        self.alive[positions[-1]] = False
        self.acct.bits_discarded += 1
        return pa != pb

    def bisect(self, positions, depth=1) -> None:
        """Locate and delete one erroneous bit among ``positions``.

        The error may already have fallen to a discard, in which case
        some level finds both halves agreeing and the search stops.
        """
        self.acct.max_bisection_depth = max(self.acct.max_bisection_depth, depth)
        if not positions:
            return
        if len(positions) == 1:
            self.compare(positions)
            return
        mid = len(positions) // 2
        left, right = positions[:mid], positions[mid:]
        left_bad = self.compare(left)
        right_bad = self.compare(right)
        if left_bad:
            self.bisect(left[:-1], depth + 1)
        elif right_bad:
            self.bisect(right[:-1], depth + 1)

    def check(self, positions) -> bool:
        """Compare parities over ``positions``; on a disagreement, bisect out one error.

        Returns True when the parities disagreed.
        """
        if not self.compare(positions):
            return False
        self.bisect(positions[:-1])
        self.acct.bisections += 1
        return True


def reconcile_oracle(key_a, key_b, rate, rng, transcript):
    """``distill.reconcile`` over lists, with scalar shuffles and one loan per subset row.

    Runs ``MAX_PASSES`` block passes, then random-subset checks until
    ``N_CLEAN`` consecutive ones agree.  Both phases check a unit with
    the same step: compare its parities and, if they disagree, bisect
    out one error.  Every check discards a live bit, so the subset phase
    ends within ``len(key_a)`` checks.

    Parameters
    ----------
    key_a, key_b : sequences of 0/1
        The two remnant raw keys.
    rate : float
        The error-rate estimate driving :func:`default_block_policy`.
    rng : Rng
        Shared stream for permutations and subset draws.
    transcript : PublicTranscript
        Every permutation, subset, and parity lands here.

    Returns
    -------
    (rec_a, rec_b, accounting)
        Equal-length output keys and the exchange bookkeeping.
    """
    if len(key_a) != len(key_b):
        raise ValueError("keys must have equal length")
    acct = DistillAccounting()
    state = _Reconciler(list(key_a), list(key_b), transcript, acct)

    for _ in range(MAX_PASSES):
        positions = state.alive_positions()
        if not positions:
            break
        length = default_block_policy(rate, len(positions))
        perm = rng.permutation(len(positions))
        transcript.post("alice", "perm", ",".join(map(str, perm)))
        order = [positions[j] for j in perm]
        for start in range(0, len(order), length):
            state.check(order[start : start + length])

    clean = 0
    while clean < N_CLEAN:
        positions = state.alive_positions()
        if not positions:
            break
        rows = ()
        while not len(rows):  # an empty row is redrawn, as in privacy amplification
            rows, _ = _draw_rows(rng.words, len(positions), 1)
        transcript.post("bob", "subset", rows[0].tobytes().hex())
        rel = np.flatnonzero(np.unpackbits(rows[0], count=len(positions))).tolist()
        clean = 0 if state.check([positions[j] for j in rel]) else clean + 1

    rec_a = [state.key_a[i] for i, ok in enumerate(state.alive) if ok]
    rec_b = [state.key_b[i] for i, ok in enumerate(state.alive) if ok]
    return rec_a, rec_b, acct
