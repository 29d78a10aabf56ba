"""Tour of the measurement bases: two families of d+1 mutually unbiased
bases per prime dimension, the second obtained by transporting the first
with a square root of the Fourier matrix."""

import numpy as np

from mubsig.bases import (
    Family,
    basis_alphabet,
    hadamard_root,
    measurement_basis,
)

d = 3

print(f"dimension d = {d}")
print()

# The plain family: the computational basis plus d quadratic-phase bases.
print("plain family kets (columns), basis q1:")
m = measurement_basis(d, basis_alphabet(d)[2])
with np.printoptions(precision=3, suppress=True):
    print(m)
print()

# Any two distinct bases of one family are mutually unbiased: every
# cross overlap has squared magnitude exactly 1/d.
for family in (Family.PLAIN, Family.HAT):
    ids = basis_alphabet(d, (family,))
    worst = 0.0
    for i in range(len(ids)):
        a = measurement_basis(d, ids[i])
        for j in range(i + 1, len(ids)):
            b = measurement_basis(d, ids[j])
            overlaps = np.abs(a.conj().T @ b) ** 2
            worst = max(worst, np.abs(overlaps - 1.0 / d).max())
    print(f"{family.value:5s} family: {len(ids)} bases, "
          f"worst |overlap^2 - 1/d| = {worst:.2e}")
print()

# The hat family comes from a matrix h with h @ h = Fourier matrix.
h = hadamard_root(d)
f = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / np.sqrt(d)
print(f"hadamard root check: max |h@h - F| = {np.abs(h @ h - f).max():.2e}")

# The two families are close cousins but not interchangeable: a hat ket
# is neither equal nor unbiased to the computational kets.
overlaps = np.abs(measurement_basis(d, basis_alphabet(d, (Family.HAT,))[0])) ** 2
print(f"hat-comp vs comp overlaps^2 (would all be {1/d:.3f} if unbiased):")
with np.printoptions(precision=3, suppress=True):
    print(overlaps)
