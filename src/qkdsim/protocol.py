"""Session engine: quantum transmission, sifting, error estimation, distillation.

A session is a pure function of its :class:`SessionConfig` (seed
included).  One :class:`~qkdsim.rng.Rng` drives everything in a fixed
per-slot draw order -- sender bit, sender alphabet (BB84 only), then
:func:`~qkdsim.channel.transmit`'s source multi-photon draw, tap draws,
flip draw and loss draw, then receiver alphabet and measurement
(delivered states only) -- followed by the estimation sample,
reconciliation and amplification draws.  Each slot's state goes through
the channel as a plain :class:`~qkdsim.quantum.Ket2`.  Eve's guess is taken
right after sifting from her own stream, seeded from the transcript's
sifting announcements, so it consumes no session draw.  The noise-free
mode is the same engine with all noise probabilities at zero.  A protocol
failure is an exception that :func:`run_session` turns into an aborted
report in one place.

Transcript message kinds (sender, tag):

* bob ``alphabets`` -- one character per slot: ``+``/``x``, or ``-`` for
  a slot with no reception (BB84).
* alice ``kept`` -- ascending slots surviving the sift (BB84).
* bob ``conclusive`` -- ascending slots with a conclusive readout (B92).
* bob ``sample`` / alice+bob ``sample-bits`` -- error-estimation
  disclosure.
* alice ``perm`` / ``parity`` / bob ``subset`` / ``parity`` -- see
  :mod:`qkdsim.distill`; a ``subset`` is the hex of its packed row.
* alice ``pa-subset`` -- an amplification subset, the hex of its packed
  row over the reconciled key.
* alice ``abort`` -- the measured rate, when estimation aborts the run.
"""

import math
import numbers
import operator
import time
from dataclasses import dataclass, field

from .alphabets import BB84_ALPHABETS
from .channel import NoiseModel, PublicTranscript, transmit
from .distill import apply_subsets, leaked_bits_bound, privacy_amplify, reconcile
from .errors import EmptySiftedKey, KeyExhausted, RestartRequired
from .eve import EveTap, NoEve, eve_guess, is_translucent
from .otp import bits_to_string
from .quantum import PovmOutcome, b92_alphabet, build_povm, measure_povm, measure_projective
# Unused here, but perfbench/tracing.py wraps protocol.measure_povm_carrier by name.
from .quantum import measure_povm_carrier  # noqa: F401
from .rng import Rng

INCONCLUSIVE = PovmOutcome.INCONCLUSIVE


@dataclass(frozen=True, eq=False)
class SessionConfig:
    """Everything that defines one protocol run."""

    protocol: str
    n_pulses: int
    theta: float = math.pi / 8
    noise: NoiseModel = field(default_factory=NoiseModel)
    eve: object = field(default_factory=NoEve)
    sample_fraction: float = 0.1
    r_max: float = 0.12
    sec_param: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.protocol not in ("bb84", "b92"):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        for name in ("n_pulses", "sec_param", "seed"):
            value = getattr(self, name)  # any operator.index value but a bool, stored as an int
            if isinstance(value, bool) or not hasattr(type(value), "__index__"):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, operator.index(value))
        for name in ("theta", "sample_fraction", "r_max"):
            value = getattr(self, name)  # any real but a bool, stored as a float
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.n_pulses < 1:
            raise ValueError("n_pulses must be at least 1")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta!r}")
        if self.protocol == "b92":
            b92_alphabet(self.theta)  # ThetaOutOfRange outside (0, pi/4)
        if not 0.0 < self.sample_fraction < 1.0:
            raise ValueError("sample_fraction must lie in (0, 1)")
        if not 0.0 <= self.r_max <= 1.0:
            raise ValueError("r_max must lie in [0, 1]")
        if self.sec_param < 0:
            raise ValueError("sec_param must be non-negative")
        if self.seed < 0:
            # random.Random seeds with |seed|: a negative seed would replay its positive twin.
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")
        if is_translucent(self.eve, self.protocol):
            if abs(self.eve.theta - self.theta) > 1e-12:
                raise ValueError("strategy theta differs from the session theta")
            if self.noise.multi_p > 0.0:
                raise ValueError("translucent strategies assume single-photon pulses")


@dataclass
class Stage1Record:
    """Per-slot outcome of the quantum stage (parallel lists, one entry per slot)."""

    alice_bits: list
    received: list
    bob_bits: list  # None where not received / inconclusive
    alice_alphabets: list | None = None  # BB84: coin values, indexing alphabets.BB84_ALPHABETS
    bob_alphabets: list | None = None


@dataclass(frozen=True)
class SiftResult:
    raw_alice: list
    raw_bob: list
    slots: list


@dataclass
class RunReport:
    """Summary statistics of a completed (or aborted) session."""

    protocol: str
    n_pulses: int
    seed: int
    sifted_count: int = 0
    disclosed_count: int = 0
    error_rate: float | None = None
    aborted: bool = False
    abort_reason: str | None = None
    reconciled_length: int | None = None
    leaked_bits: int | None = None
    final_key_length: int = 0
    final_key_alice: str = ""
    final_key_bob: str = ""
    eve_guess_accuracy: float | None = None
    eve_final_key_info_estimate: float | None = None
    timings: dict = field(default_factory=dict)
    transcript: PublicTranscript | None = field(default=None, repr=False, compare=False)


def make_tap(cfg: SessionConfig, rng: Rng):
    """Build the channel tap for the configured strategy; None when Eve is absent."""
    if isinstance(cfg.eve, NoEve):
        return None
    return EveTap(cfg.eve, cfg.protocol, rng, theta=cfg.theta)


def run_stage1_bb84(cfg: SessionConfig, rng: Rng, tap) -> Stage1Record:
    """Quantum stage of BB84: coin-flipped bits and alphabets, one pulse per slot."""
    # Each alphabet's code states, a Basis checked when it is built, indexed by the alphabet coin.
    bases = tuple(basis for _, basis in BB84_ALPHABETS)
    noise = cfg.noise
    coin = rng.coin
    alice_bits = []
    alice_alphas = []
    bob_alphas = []
    bob_bits = []
    received = []
    for slot in range(cfg.n_pulses):
        bit = coin()
        alpha = coin()
        alice_bits.append(bit)
        alice_alphas.append(alpha)
        delivered = transmit(slot, bases[alpha][bit], noise, tap, rng)
        b_alpha = b_bit = None
        if delivered is not None:
            b_alpha = coin()
            b_bit = measure_projective(delivered, bases[b_alpha], rng)[0]
        received.append(delivered is not None)
        bob_alphas.append(b_alpha)
        bob_bits.append(b_bit)
    return Stage1Record(alice_bits, received, bob_bits, alice_alphabets=alice_alphas, bob_alphabets=bob_alphas)


def run_stage1_b92(cfg: SessionConfig, rng: Rng, tap) -> Stage1Record:
    """Quantum stage of B92: one alphabet, POVM receiver per delivered state."""
    alphabet = b92_alphabet(cfg.theta)
    povm = build_povm(cfg.theta)
    noise = cfg.noise
    coin = rng.coin
    alice_bits = []
    received = []
    bob_bits = []
    for slot in range(cfg.n_pulses):
        bit = coin()
        alice_bits.append(bit)
        delivered = transmit(slot, alphabet[bit], noise, tap, rng)
        b_bit = None
        if delivered is not None:
            outcome = measure_povm(delivered, povm, rng)
            b_bit = None if outcome == INCONCLUSIVE else int(outcome)
        received.append(delivered is not None)
        bob_bits.append(b_bit)
    return Stage1Record(alice_bits, received, bob_bits)


def sift_bb84(record: Stage1Record, transcript: PublicTranscript) -> SiftResult:
    """Keep received slots with matching alphabets; announce everything needed.

    Bob posts his per-slot alphabet (with ``-`` marking non-receptions),
    Alice posts the kept slots.  Keys come out in ascending slot order.
    """
    chars = []
    for got, alpha in zip(record.received, record.bob_alphabets):
        chars.append(BB84_ALPHABETS[alpha][0] if got else "-")
    transcript.post("bob", "alphabets", "".join(chars))
    slots = zip(record.received, record.alice_alphabets, record.bob_alphabets)
    kept = [slot for slot, (got, alice, bob) in enumerate(slots) if got and alice == bob]
    transcript.post("alice", "kept", ",".join(map(str, kept)))
    if not kept:
        raise EmptySiftedKey("no slot survived sifting")
    raw_alice = [record.alice_bits[s] for s in kept]
    raw_bob = [record.bob_bits[s] for s in kept]
    return SiftResult(raw_alice, raw_bob, kept)


def sift_b92(record: Stage1Record, transcript: PublicTranscript) -> SiftResult:
    """Keep slots with conclusive readouts, announced by Bob."""
    kept = [slot for slot, bit in enumerate(record.bob_bits) if bit is not None]
    transcript.post("bob", "conclusive", ",".join(map(str, kept)))
    if not kept:
        raise EmptySiftedKey("no conclusive slot survived sifting")
    raw_alice = [record.alice_bits[s] for s in kept]
    raw_bob = [record.bob_bits[s] for s in kept]
    return SiftResult(raw_alice, raw_bob, kept)


def estimate_error(raw_alice, raw_bob, size, rng, transcript, r_max):
    """Disclose a random sample of the raw keys and estimate the error rate.

    ``size`` positions, between 1 and the keys' length, are drawn from
    the shared session stream; :func:`run_session` passes the report's
    ``disclosed_count``.  The positions and both parties' sample bits go
    on the transcript; the disclosed positions are then deleted from
    both keys.

    Returns
    -------
    (rate, tentative_alice, tentative_bob)

    Raises
    ------
    RestartRequired
        When the measured rate exceeds ``r_max``.  The exception
        carries the rate; an abort notice goes on the transcript.
    """
    if len(raw_alice) != len(raw_bob) or not raw_alice:
        raise ValueError("raw keys must be non-empty and equally long")
    sample = rng.sample_positions(len(raw_alice), size)
    transcript.post("bob", "sample", ",".join(map(str, sample)))
    bits_a = [raw_alice[i] for i in sample]
    bits_b = [raw_bob[i] for i in sample]
    transcript.post("alice", "sample-bits", bits_to_string(bits_a))
    transcript.post("bob", "sample-bits", bits_to_string(bits_b))
    disagreements = sum(1 for a, b in zip(bits_a, bits_b) if a != b)
    rate = disagreements / size
    if rate > r_max:
        transcript.post("alice", "abort", repr(rate))
        raise RestartRequired(rate)
    chosen = set(sample)
    tent_a = [b for i, b in enumerate(raw_alice) if i not in chosen]
    tent_b = [b for i, b in enumerate(raw_bob) if i not in chosen]
    return rate, tent_a, tent_b


def _eve_accuracy(tap, transcript, sift: SiftResult):
    if tap is None:
        return None
    guesses = eve_guess(tap, transcript)
    if not guesses:
        return None
    alice_by_slot = dict(zip(sift.slots, sift.raw_alice))
    hits = sum(1 for slot, (bit, _) in guesses.items() if alice_by_slot.get(slot) == bit)
    return hits / len(guesses)


def run_session(cfg: SessionConfig) -> RunReport:
    """Execute a full session: stage 1, sifting, estimation, distillation.

    Aborts (threshold exceeded, empty sift, exhausted key, final keys
    that differ) produce a report with ``aborted=True`` and a reason; they
    are protocol outcomes, not errors.  Each failure exception becomes its
    reason in one place, the ``except`` clauses below.  Reconciliation
    always ends, so it has no abort of its own.  Eve's guess is taken
    right after sifting, from her own transcript-seeded stream: it
    consumes no session draw.
    """
    started = time.perf_counter()
    rng = Rng(cfg.seed)
    transcript = PublicTranscript()
    tap = make_tap(cfg, rng)
    report = RunReport(cfg.protocol, cfg.n_pulses, cfg.seed, transcript=transcript)
    abort_reason = None
    try:
        if cfg.protocol == "bb84":
            sift = sift_bb84(run_stage1_bb84(cfg, rng, tap), transcript)
        else:
            sift = sift_b92(run_stage1_b92(cfg, rng, tap), transcript)
        report.sifted_count = len(sift.slots)
        report.disclosed_count = math.ceil(cfg.sample_fraction * report.sifted_count)
        report.eve_guess_accuracy = _eve_accuracy(tap, transcript, sift)
        rate, tent_a, tent_b = estimate_error(
            sift.raw_alice, sift.raw_bob, report.disclosed_count, rng, transcript, r_max=cfg.r_max
        )
        report.error_rate = rate
        rec_a, rec_b, _ = reconcile(tent_a, tent_b, rate, rng, transcript)
        report.reconciled_length = len(rec_a)
        report.leaked_bits = leaked_bits_bound(rate, len(rec_a))
        final_a, subsets = privacy_amplify(rec_a, report.leaked_bits, cfg.sec_param, rng, transcript)
        final_b = apply_subsets(rec_b, subsets)
        if final_a != final_b:
            abort_reason = "key_mismatch"
        else:
            report.final_key_length = len(final_a)
            report.final_key_alice = bits_to_string(final_a)
            report.final_key_bob = bits_to_string(final_b)
            report.eve_final_key_info_estimate = 2.0 ** (-cfg.sec_param) / math.log(2.0)
    except EmptySiftedKey:
        abort_reason = "empty_sifted_key"
    except RestartRequired as abort:
        report.error_rate = abort.rate
        abort_reason = "error_rate_exceeds_threshold"
    except KeyExhausted:
        abort_reason = "key_exhausted"
    report.aborted = abort_reason is not None
    report.abort_reason = abort_reason
    report.timings = {"total_seconds": time.perf_counter() - started}
    return report


def session_transcript(report: RunReport):
    """Transcript of the session that produced the report (None if it was built by hand)."""
    return report.transcript
