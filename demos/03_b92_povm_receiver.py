# The B92 receiver: unambiguous discrimination of two non-orthogonal states.
#
# The single alphabet encodes 1 and 0 as polarizations at +theta and
# -theta.  The three-element POVM either identifies the state with
# certainty or answers "inconclusive"; it never answers wrongly.

import math

from qkdsim import (
    PovmOutcome,
    Rng,
    SessionConfig,
    b92_alphabet,
    build_povm,
    measure_povm,
    povm_probabilities,
    run_session,
)

theta = math.pi / 8
alpha = b92_alphabet(theta)
povm = build_povm(theta)

# Outcome probabilities straight from the quadratic forms.
for bit in (0, 1):
    p_zero, p_one, p_inc = povm_probabilities(alpha[bit], povm)
    print(f"sent {bit}: P(read 0)={p_zero:.4f}  P(read 1)={p_one:.4f}  P(?)={p_inc:.4f}")
print(f"conclusive probability 1 - cos(2 theta) = {1 - math.cos(2 * theta):.4f}")

# Sampling agrees, and the forbidden outcome never fires.
rng = Rng(3)
draws = 50_000
outcomes = [measure_povm(alpha[1], povm, rng) for _ in range(draws)]
print("sampled ONE rate   ", outcomes.count(PovmOutcome.ONE) / draws)
print("sampled wrong reads", outcomes.count(PovmOutcome.ZERO))

# Larger angles separate the states more and read out more often.
print("conclusive fraction by angle:")
for t in (0.15, 0.30, 0.45, 0.60, 0.75):
    report = run_session(SessionConfig("b92", 4000, theta=t, seed=5))
    print(f"  theta={t:.2f}  measured {report.sifted_count / 4000:.4f}"
          f"  closed form {1 - math.cos(2 * t):.4f}")
