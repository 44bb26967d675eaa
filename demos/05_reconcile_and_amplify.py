# Key distillation: parity-exchange reconciliation, then subset-parity
# compression of whatever an eavesdropper might know out of the key.

import math

from qkdsim import (
    PublicTranscript,
    Rng,
    apply_subsets,
    leaked_bits_bound,
    privacy_amplify,
    reconcile,
)

# Two 4096-bit keys disagreeing in ~3% of positions.
rng = Rng(11)
key_a = [rng.coin() for _ in range(4096)]
key_b = [b ^ 1 if rng.uniform() < 0.03 else b for b in key_a]
print("initial disagreements:", sum(1 for a, b in zip(key_a, key_b) if a != b))

# Reconciliation posts block parities over the public transcript,
# paying one discarded bit per posted parity, and bisects to each error.
transcript = PublicTranscript()
rec_a, rec_b, acct = reconcile(key_a, key_b, 0.03, Rng(12), transcript)
print("keys equal after reconciliation:", rec_a == rec_b)
print("parities posted:", acct.parity_bits_disclosed, "bits discarded:", acct.bits_discarded)
print("remaining length:", len(rec_a), f"({acct.bits_discarded / 4096:.1%} consumed)")

# The leak bound charges 2*R*n bits to the eavesdropper; privacy
# amplification then keeps n - k - s subset parities.
k = leaked_bits_bound(0.03, len(rec_a))
s = 10
final_a, subsets = privacy_amplify(rec_a, k, s, Rng(13), transcript)
final_b = apply_subsets(rec_b, subsets)
print("leak bound k:", k, " security parameter s:", s)
print("final key length:", len(final_a), " parties agree:", final_a == final_b)
print("expected eavesdropper information < 2^-s/ln 2 =", f"{2**-s / math.log(2):.2e}", "bits")

# Desk-scale check of that bound: with 12 key bits of which 4 are known,
# enumerate every assignment of the unknown 8 to get the eavesdropper's
# posterior over a 5-bit final key.
from collections import Counter

rng = Rng(14)
true_bits = [rng.coin() for _ in range(12)]
_, subsets = privacy_amplify(true_bits, 4, 3, rng, PublicTranscript())
known = true_bits[:4]
posterior = Counter()
for x in range(2**8):
    unknown = [(x >> i) & 1 for i in range(8)]
    bits = known + unknown
    posterior[tuple(apply_subsets(bits, subsets))] += 1
top = posterior.most_common(1)[0]
print(f"posterior spreads {2**8} assignments over {len(posterior)} final keys "
      f"(most likely one holds {top[1] / 2**8:.1%} of the mass)")
