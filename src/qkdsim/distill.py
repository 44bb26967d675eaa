"""Key distillation: parity-exchange reconciliation, then privacy amplification.

Reconciliation runs a fixed number of permute-and-partition passes.  In
each pass the remnant keys are publicly permuted, cut into blocks whose
length is set so a block is unlikely to hold more than one error, and
block parities are compared over the transcript.  Every compared unit
(block, subblock, or subset) gives up its rightmost bit, so each posted
parity is paid for with one discarded bit and leaks nothing about the
bits that remain.  A disagreeing parity triggers a bisective search:
both halves are compared (and docked a bit each) and the search follows
the disagreeing half until the erroneous bit is located and deleted.
After the passes, random-subset parity checks with the same bisective
repair run until ``n_clean`` consecutive checks agree.

Privacy amplification then maps the reconciled key of length ``n`` to
``n - k - s`` bits, where ``k`` bounds what an eavesdropper may know and
``s`` is the security parameter: that many random nonempty subsets are
posted (indices only) and the new key is their undisclosed parities.
"""

import math
from dataclasses import dataclass, field

from .errors import KeyExhausted, ReconciliationFailed


def default_block_policy(rate: float, key_len: int) -> int:
    """Block length with at most ~0.73 expected errors: ceil(0.73/R), clamped to [4, key_len]."""
    raw = math.ceil(0.73 / max(rate, 0.01))
    return max(4, min(raw, key_len))


@dataclass(frozen=True)
class ReconcileParams:
    """Knobs for the reconciliation phase.

    ``block_policy`` maps (error rate, key length) to the block length;
    ``n_clean`` is how many consecutive clean subset checks end the
    procedure; ``max_passes`` is the number of permutation passes.
    """

    block_policy: object = default_block_policy
    n_clean: int = 10
    max_passes: int = 4

    def __post_init__(self):
        if self.n_clean < 1:
            raise ValueError("n_clean must be at least 1")
        if self.max_passes < 0:
            raise ValueError("max_passes must be non-negative")


@dataclass
class DistillAccounting:
    """Public-exchange bookkeeping across reconciliation and amplification."""

    parity_bits_disclosed: int = 0
    bits_discarded: int = 0
    bisections: int = 0
    max_bisection_depth: int = 0
    k: int | None = None
    subsets: list = field(default_factory=list)


def _parity(key, positions) -> int:
    p = 0
    for i in positions:
        p ^= key[i]
    return p


class _Reconciler:
    def __init__(self, key_a, key_b, rng, transcript, acct):
        self.key_a = key_a
        self.key_b = key_b
        self.alive = [True] * len(key_a)
        self.rng = rng
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


def reconcile(key_a, key_b, rate, params, rng, transcript):
    """Remove the errors between two equal-length keys via public parities.

    Parameters
    ----------
    key_a, key_b : sequences of 0/1
        The two remnant raw keys.
    rate : float
        The error-rate estimate driving the block-length policy.
    params : ReconcileParams
    rng : Rng
        Shared stream for permutations and subset draws.
    transcript : PublicTranscript
        Every permutation, subset, and parity lands here.

    Returns
    -------
    (rec_a, rec_b, accounting)
        Equal-length output keys and the exchange bookkeeping.

    Raises
    ------
    ReconciliationFailed
        If the subset phase exhausts its safety budget without reaching
        ``n_clean`` consecutive clean checks.
    """
    if len(key_a) != len(key_b):
        raise ValueError("keys must have equal length")
    acct = DistillAccounting()
    state = _Reconciler(list(key_a), list(key_b), rng, transcript, acct)

    for _ in range(params.max_passes):
        positions = state.alive_positions()
        if not positions:
            break
        length = params.block_policy(rate, len(positions))
        perm = rng.permutation(len(positions))
        transcript.post("alice", "perm", ",".join(map(str, perm)))
        order = [positions[j] for j in perm]
        for start in range(0, len(order), length):
            block = order[start : start + length]
            if state.compare(block):
                state.bisect(block[:-1])
                acct.bisections += 1

    clean = 0
    budget = 50 * params.n_clean + 2 * len(key_a) + 100
    checks = 0
    while clean < params.n_clean:
        positions = state.alive_positions()
        if not positions:
            break
        checks += 1
        if checks > budget:
            raise ReconciliationFailed(f"subset phase did not converge within {budget} checks")
        rel = rng.nonempty_subset(len(positions))
        subset = [positions[j] for j in rel]
        transcript.post("bob", "subset", ",".join(map(str, rel)))
        if state.compare(subset):
            clean = 0
            state.bisect(subset[:-1])
            acct.bisections += 1
        else:
            clean += 1

    rec_a = [state.key_a[i] for i, ok in enumerate(state.alive) if ok]
    rec_b = [state.key_b[i] for i, ok in enumerate(state.alive) if ok]
    return rec_a, rec_b, acct


def leaked_bits_bound(rate: float, n: int, acct: DistillAccounting | None = None) -> int:
    """Upper bound on the reconciled-key bits known to an eavesdropper.

    The default model charges 2*R*n bits: at the full-interception error
    signature the opaque attack yields one known bit per two sifted
    bits, and the discard rule zeroes out parity leakage.  The small
    epsilon keeps ceil() from inflating exact products like 0.01 * 2000.
    """
    k = min(n, max(0, math.ceil(2.0 * rate * n - 1e-9)))
    if acct is not None:
        acct.k = k
    return k


def privacy_amplify(key, k: int, s: int, rng, transcript, acct: DistillAccounting | None = None):
    """Compress ``key`` to ``len(key) - k - s`` random-subset parities.

    The subset index lists are posted to the transcript (contents never
    are); each output bit is the parity of the key over one subset.

    Returns
    -------
    (final, subsets)
        The final key bits and the index subsets that produced them.

    Raises
    ------
    KeyExhausted
        If fewer than one output bit would remain.
    """
    n = len(key)
    m = n - k - s
    if m < 1:
        raise KeyExhausted(f"n - k - s = {n} - {k} - {s} leaves no key")
    subsets = []
    final = []
    for _ in range(m):
        subset = rng.nonempty_subset(n)
        transcript.post("alice", "pa-subset", ",".join(map(str, subset)))
        subsets.append(subset)
        final.append(_parity(key, subset))
    if acct is not None:
        acct.subsets = subsets
    return final, subsets


def apply_subsets(key, subsets):
    """Recompute subset parities of ``key`` (the receiving side of amplification)."""
    return [_parity(key, subset) for subset in subsets]
