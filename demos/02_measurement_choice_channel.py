"""Anatomy of one signalling round: the sender's measurement choice is
the message, and the receiver reads it from her half of an entangled
pair without any classical announcement."""

import numpy as np

from mubsig.bases import Family, basis_alphabet, pair_outcome_labels
from mubsig.harness import analytic_outcome_distribution
from mubsig.oracle import run_round

d = 3
rng = np.random.default_rng(7)

# Alice holds the (0,0) entangled pair and sends one half to Bob.  Bob
# encodes his message by choosing one of the d+1 plain bases and
# measuring.  Alice then measures the pair in her entangled basis; the
# outcome (c, r) either names Bob's basis or is inconclusive.
print(f"exact outcome distributions, d = {d}")
labels = pair_outcome_labels(d)
header = "".join(f"{f'({c},{r})':>8}" for c, r in labels)
print(f"{'basis':8s}{header}")
for basis in basis_alphabet(d):
    dist = analytic_outcome_distribution(d, basis)
    row = "".join(f"{p:8.3f}" for p in dist.probabilities)
    print(f"{basis.text():8s}{row}")
print()
print("each basis owns d disjoint conclusive outcomes of weight 1/d;")
print("(0,0) is always inconclusive with weight 1/d.")
print()

# A few live rounds.  Alice's decode is a code: -1 when inconclusive,
# otherwise the index of the basis it names in the alphabet above.
print("ten rounds, Bob signalling q1 every time:")
sent = 2
basis = basis_alphabet(d)[sent]
for i in range(10):
    rec = run_round(d, Family.PLAIN, basis, rng)
    code = rec.alice_decode
    named = "inconclusive" if code < 0 else basis_alphabet(d)[code].text()
    print(f"  round {i}: alice outcome {rec.alice_outcome} -> {named}")
print()

# Over many rounds every conclusive decode is correct and a 1/d
# fraction is discarded.
n, hits, conclusive = 3000, 0, 0
for _ in range(n):
    rec = run_round(d, Family.PLAIN, basis, rng)
    if rec.alice_decode >= 0:
        conclusive += 1
        hits += rec.alice_decode == sent
print(f"{n} rounds: {conclusive} conclusive, "
      f"{hits} correct, inconclusive fraction {(n - conclusive) / n:.3f} "
      f"(exactly 1/d = {1 / d:.3f} in expectation)")
