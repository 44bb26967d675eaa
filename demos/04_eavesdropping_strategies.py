# The four eavesdropping strategies and their signatures.
#
# Opaque interception leaves a loud error-rate fingerprint; translucent
# probes trade disturbance for information; photon-number splitting is
# invisible in the error rate but only reads multi-photon pulses.

import math

from qkdsim import (
    NoiseModel,
    OpaqueEve,
    PhotonSplitEve,
    SessionConfig,
    entangling_swap_attack,
    run_session,
    translucent_swap_attack,
    validate_interaction,
)

theta = math.pi / 8


def describe(title, cfg):
    report = run_session(cfg)
    rate = "n/a" if report.error_rate is None else f"{report.error_rate:.4f}"
    acc = "n/a" if report.eve_guess_accuracy is None else f"{report.eve_guess_accuracy:.4f}"
    print(f"{title:<28} error rate {rate:<8} eve accuracy {acc:<8} aborted {report.aborted}")


describe("no eavesdropper (bb84)", SessionConfig("bb84", 8000, seed=1))

# Opaque: intercept, measure in a coin-flipped alphabet, resend.  Error
# rate grows linearly with the intercepted fraction, saturating at 25%.
for fraction in (0.25, 0.5, 1.0):
    describe(
        f"opaque fraction {fraction}",
        SessionConfig("bb84", 8000, eve=OpaqueEve(fraction), r_max=1.0, seed=2),
    )

# Translucent: a unitary coupling moves the code-state distinguishability
# into a probe.  The swap variant erases the carrier entirely, which is
# why the receiver's conclusive bits turn to coin flips.
strategy = translucent_swap_attack(theta)
validate_interaction(strategy)  # raises if the coupling could not be unitary
describe("translucent swap (b92)", SessionConfig("b92", 10_000, eve=strategy, r_max=1.0, seed=3))
print(f"  (probe readout ceiling: (1 + sin 2 theta)/2 = {(1 + math.sin(2 * theta)) / 2:.4f})")

# Entangling form of the same idea: the coupling mixes the two forwarded
# carriers with amplitudes a, b; its output is still a product state, so
# the tap forwards a qubit and keeps the probe, measured after sifting.
describe(
    "entangling swap (b92)",
    SessionConfig("b92", 10_000, eve=entangling_swap_attack(theta), r_max=1.0, seed=4),
)

# Photon-number splitting: divert one photon whenever the weak source
# emits two.  The error rate stays at the quiet baseline; the cost is
# that a fraction multi_p of slots is read perfectly.
describe(
    "photon splitting (bb84)",
    SessionConfig(
        "bb84", 8000, noise=NoiseModel(multi_p=1 / 200), eve=PhotonSplitEve(), seed=5
    ),
)
