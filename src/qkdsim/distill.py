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
After ``MAX_PASSES`` passes, random-subset parity checks with the same
bisective repair run until ``N_CLEAN`` consecutive checks agree.  Each
check discards a live bit, so this phase ends before the key runs out.

Privacy amplification then maps the reconciled key of length ``n`` to
``n - k - s`` bits, where ``k`` bounds what an eavesdropper may know and
``s`` is the security parameter: that many random nonempty subsets are
posted (which positions, never the bits there) and the new key is their
undisclosed parities.  A subset is a row of ``n`` bits, drawn from
exactly ``ceil(n / 32)`` raw words of the stream: the words'
little-endian bytes, cut to ``ceil(n / 8)`` bytes, read as an
``np.packbits`` row (key position ``i`` is bit ``7 - i % 8`` of byte
``i // 8``), with the bits from ``n`` up cleared.  An empty row is
dropped and the next row takes its place.  Reconciliation's subset
checks draw their rows by the same rule, one row at a time from
:meth:`Rng.words`; amplification draws its rows a chunk at a time, at
most ``PA_CHUNK_BYTES`` of words, all under one loan of the stream,
:meth:`Rng.bulk`.  Every row takes the same number of words, so the
chunk size cannot change a byte of output, and the last chunk draws
only the rows still wanted.

A posted subset's payload is its row's hex.  A chunk's accepted rows
are kept as one block of packed rows beside the rows' sizes, and the
chunk is posted as one transcript entry that keeps only the block and
renders each row's hex, one row at a time, when the transcript hashes
or reads it.  Sizes and both parties' parities come from the blocks
through 256-entry byte tables: a row ANDed with the packed key,
XOR-folded to one byte, gives its parity.  The blocks are thus the only
copy of the subsets, and :class:`PackedSubsets` hands them out as
:class:`SubsetRow` views that know their sizes without unpacking.
"""

import functools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import KeyExhausted

N_CLEAN = 10  # consecutive clean subset checks that end reconciliation
MAX_PASSES = 4  # permute-and-partition passes before the subset checks
PA_CHUNK_BYTES = 1 << 20  # at most this many bytes of words per chunk of amplification rows
_BYTE_SIZE = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)
_BYTE_PARITY = _BYTE_SIZE & 1
# What a row byte becomes in a transcript line: the hex of its hex.
_BYTE_HEX_HEX = np.array([f"{b:02x}".encode().hex() for b in range(256)], dtype="S4")


def default_block_policy(rate: float, key_len: int) -> int:
    """Block length with at most ~0.73 expected errors: ceil(0.73/R), clamped to [4, key_len]."""
    raw = math.ceil(0.73 / max(rate, 0.01))
    return max(4, min(raw, key_len))


@dataclass
class DistillAccounting:
    """Public-exchange bookkeeping of one reconciliation."""

    parity_bits_disclosed: int = 0
    bits_discarded: int = 0
    bisections: int = 0
    max_bisection_depth: int = 0


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


def reconcile(key_a, key_b, rate, rng, transcript):
    """Remove the errors between two equal-length keys via public parities.

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


def leaked_bits_bound(rate: float, n: int) -> int:
    """Upper bound on the reconciled-key bits known to an eavesdropper.

    The default model charges 2*R*n bits: at the full-interception error
    signature the opaque attack yields one known bit per two sifted
    bits, and the discard rule zeroes out parity leakage.  The small
    epsilon keeps ceil() from inflating exact products like 0.01 * 2000.
    """
    return min(n, max(0, math.ceil(2.0 * rate * n - 1e-9)))


class SubsetRow:
    """One subset of ``range(n)``, held as a packed bit row.

    ``len()`` is the stored size; iterating unpacks the row and yields
    its indices in ascending order.
    """

    __slots__ = ("bits", "size", "n")

    def __init__(self, bits, size: int, n: int):
        self.bits = bits
        self.size = size
        self.n = n

    def __len__(self):
        return self.size

    def __iter__(self):
        return iter(np.flatnonzero(np.unpackbits(self.bits, count=self.n).view(bool)).tolist())


class PackedSubsets:
    """Subsets of ``range(n)`` as blocks of packed bit rows, with each row's size.

    ``blocks[c]`` is one ``np.packbits(rows, axis=1)`` array and
    ``sizes[c]`` its rows' subset sizes.  Iterating yields
    :class:`SubsetRow` views of the rows, in block order.
    """

    __slots__ = ("n", "blocks", "sizes")

    def __init__(self, n: int, blocks, sizes):
        self.n = n
        self.blocks = blocks
        self.sizes = sizes

    @classmethod
    def pack(cls, subsets, n: int):
        """One block of rows from plain index lists over ``range(n)``.

        A ValueError names the subset and the index for an index outside
        ``range(n)`` or repeated within its subset.
        """
        rows = np.zeros((len(subsets), n), dtype=bool)
        for number, (row, subset) in enumerate(zip(rows, subsets)):
            indices = list(subset)
            if indices and not 0 <= min(indices) <= max(indices) < n:
                index = next(i for i in indices if not 0 <= i < n)
                raise ValueError(f"subset {number} holds index {index!r}, outside range({n})")
            row[indices] = True
            if np.count_nonzero(row) < len(indices):
                index = next(i for i, count in Counter(indices).items() if count > 1)
                raise ValueError(f"subset {number} holds index {index!r} more than once")
        return cls(n, [np.packbits(rows, axis=1)], [np.count_nonzero(rows, axis=1)])

    def __len__(self):
        return sum(len(block) for block in self.blocks)

    def __iter__(self):
        for block, sizes in zip(self.blocks, self.sizes):
            for bits, size in zip(block, sizes.tolist()):
                yield SubsetRow(bits, size, self.n)


def _draw_rows(words, n: int, count: int):
    """``count`` rows of ``n`` bits from ``words(k)``, the empty ones dropped: (packed rows, their sizes).

    Each row is ``ceil(n / 32)`` raw words, whose little-endian bytes
    are cut to ``ceil(n / 8)`` and cleared from bit ``n`` on.
    """
    row_words = -(-n // 32)
    raw = words(count * row_words).view(np.uint8).reshape(count, 4 * row_words)
    block = raw[:, : -(-n // 8)].copy()
    block[:, -1] &= (0xFF << (-n % 8)) & 0xFF
    sizes = _BYTE_SIZE[block].sum(axis=1)
    kept = sizes > 0  # an empty row is rejected; the next row is its redraw
    return block[kept], sizes[kept]


def _parities(block, packed_key) -> list:
    """Parity of the packed key over each row of ``block``."""
    return _BYTE_PARITY[np.bitwise_xor.reduce(block & packed_key, axis=1)].tolist()


def _row_hex(block):
    """Each row's payload hex, one row at a time, looked up byte by byte in ``_BYTE_HEX_HEX``."""
    for row in block:
        yield (_BYTE_HEX_HEX.take(row),)


def privacy_amplify(key, k: int, s: int, rng, transcript):
    """Compress ``key`` to ``len(key) - k - s`` random-subset parities.

    The subsets are posted to the transcript as their rows' hex
    (contents never are); each output bit is the parity of the key over
    one subset.  Rows are drawn in chunks of at most ``PA_CHUNK_BYTES``
    of words and at most the rows still wanted, so the stream stops
    right after the last accepted subset.  Each chunk's accepted rows
    are packed into one block and posted with
    :meth:`PublicTranscript.post_lines`.

    Returns
    -------
    (final, subsets)
        The final key bits and the subsets that produced them, as
        :class:`PackedSubsets` over the chunks' blocks.

    Raises
    ------
    KeyExhausted
        If fewer than one output bit would remain.
    """
    n = len(key)
    m = n - k - s
    if m < 1:
        raise KeyExhausted(f"n - k - s = {n} - {k} - {s} leaves no key")
    packed_key = np.packbits(np.asarray(key, dtype=bool))
    rows_per_chunk = max(1, PA_CHUNK_BYTES // (4 * -(-n // 32)))
    blocks, sizes, final = [], [], []
    with rng.bulk() as words:
        while len(final) < m:
            block, row_sizes = _draw_rows(words, n, min(m - len(final), rows_per_chunk))
            final.extend(_parities(block, packed_key))
            transcript.post_lines("alice", "pa-subset", functools.partial(_row_hex, block))
            blocks.append(block)
            sizes.append(row_sizes)
    return final, PackedSubsets(n, blocks, sizes)


def apply_subsets(key, subsets):
    """Recompute subset parities of ``key`` (the receiving side of amplification).

    ``subsets`` is what :func:`privacy_amplify` returns, or plain lists
    of indices, which are first packed into the same rows.
    """
    if not isinstance(subsets, PackedSubsets):
        subsets = PackedSubsets.pack(subsets, len(key))
    if subsets.n != len(key):
        raise ValueError(f"subsets of range({subsets.n}) applied to a {len(key)}-bit key")
    packed_key = np.packbits(np.asarray(key, dtype=bool))
    return [parity for block in subsets.blocks for parity in _parities(block, packed_key)]
