"""Built-in invariant suite.

Re-derives the structural facts the package relies on (orthonormality,
unbiasedness, post-measurement structure, decode soundness, attack
detectability, stream determinism) by brute force for one dimension,
and reports one result per named check; a check that raises fails
with the exception as its detail, and the others still run.
Post-measurement states are read off the collapsed pure branches of
:mod:`mubsig.oracle` and the branch amplitudes it caches, never off the
compiled tables or a dense density operator.  The CLI exposes this as
``mubsig verify``; the test suite runs it as a meta-check.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .bases import (
    BasisId,
    Family,
    _pair_amplitudes,
    basis_alphabet,
    hadamard_root,
    hat_unitary,
    measurement_basis,
    omega_power,
    pair_outcome_labels,
)
from .finite_field import PrimeDim
from .harness import (
    EveMode,
    HarnessConfig,
    Protocol,
    analytic_outcome_distribution,
    dual_family_detection_probability,
    run_trials,
)
from .oracle import _amplitudes, _branches, _forward_basis, _Measured, run_round_original
from .protocol import (
    _FAMILIES,
    _INCONCLUSIVE_CODE,
    _decode_codes,
    _inverses,
    _prep_pair,
    _pretest_partners,
    decode,
)
from .quantum import TOLERANCE
from .streams import derive_round_stream

__all__ = ["CheckResult", "run_invariant_suite"]

_SHOWN_FAILURES = 3   # a result's detail names at most this many failures


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named invariant check."""

    name: str
    passed: bool
    assertions: int
    detail: str = ""


class _Check:
    """Collects assertions for one named check.

    A failure's detail text is built only when the assertion fails, and
    only for the first few failures, which are all a result shows.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.assertions = 0
        self.failures: list[str] = []

    def expect(self, condition: bool, detail: str, *args: object) -> None:
        """One assertion; its text on failure is ``detail.format(*args)``."""
        self.assertions += 1
        if not condition and len(self.failures) < _SHOWN_FAILURES:
            self.failures.append(detail.format(*args))

    def close(self, value: float, target: float, detail: str, *args: object,
              tol: float = 1e-9) -> None:
        """One assertion that ``value`` lies within ``tol`` of ``target``."""
        if abs(value - target) <= tol:
            self.assertions += 1
        else:
            self.expect(False, "{}: {!r} != {!r}", detail.format(*args), value, target)

    def expect_all(self, ok: np.ndarray, describe: Callable[..., str]) -> None:
        """One assertion per cell of the boolean array ``ok``.

        A failing cell at index ``(i, j, ...)`` reads ``describe(i, j, ...)``;
        failures are taken in row-major order.
        """
        self.assertions += ok.size
        for index in np.argwhere(~ok)[:_SHOWN_FAILURES - len(self.failures)]:
            self.failures.append(describe(*index.tolist()))

    def result(self) -> CheckResult:
        return CheckResult(self.name, not self.failures, self.assertions,
                           "; ".join(self.failures))


# Pure-state route: the (0,0) pair of a family after its travelling half is
# measured, as the weights w_m and collapsed branches v_m = b_m (x) phi_m
# of mubsig.oracle._branches, or their amplitudes a[m, k] = <e_k|v_m> in
# the family's entangled basis, as held by mubsig.oracle._amplitudes.


def _pair_coefficients(measured: _Measured) -> np.ndarray:
    """<e_k| rho |e_l> of the measured pair rho = sum_m w_m |v_m><v_m|,
    that is sum_m w_m a_m^T a_m^*."""
    return (measured.amps.T * measured.weights) @ measured.amps.conj()


def _outcome_probs(measured: _Measured) -> np.ndarray:
    """Born probabilities <e_k| rho |e_k> of the measured pair."""
    return measured.weights @ np.abs(measured.amps) ** 2


def _travelling_state(weights: np.ndarray, collapsed: np.ndarray) -> np.ndarray:
    """Reduced state of the travelling half of sum_m w_m |v_m><v_m|."""
    return np.einsum("m,mij,mkj->ik", weights, collapsed, collapsed.conj())


def _reduced_states(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced states of both halves of the pure pair with amplitude matrix
    ``psi``: Psi Psi^H for the first half, Psi^T Psi^* for the second."""
    return psi @ psi.conj().T, psi.T @ psi.conj()


def _off_diagonal(coeffs: np.ndarray) -> float:
    magnitude = np.abs(coeffs)
    np.fill_diagonal(magnitude, 0.0)
    return magnitude.max()


def _check_field_arithmetic(c: _Check, d: int) -> None:
    """The int64 residue arithmetic of :func:`decode`, and its table of
    inverses, against Python's integers: ``%`` and ``pow(a, -1, d)``."""
    x = np.arange(d, dtype=np.int64)
    inverses = _inverses(d)
    c.expect_all((x + 0) % d == x, lambda a: f"additive identity at {a}")
    c.expect_all(((-x) % d == [(-a) % d for a in range(d)]) & ((x + (-x) % d) % d == 0),
                 lambda a: f"additive inverse at {a}")
    c.expect_all((inverses[1:] == [pow(a, -1, d) for a in range(1, d)])
                 & (x[1:] * inverses[1:] % d == 1),
                 lambda a: f"multiplicative inverse at {a + 1}")
    c.expect_all((x[:, None] - x) % d == [[(a - b) % d for b in range(d)] for a in range(d)],
                 lambda a, b: f"sub {a}-{b}")
    c.expect_all(x[:, None] * x % d == [[a * b % d for b in range(d)] for a in range(d)],
                 lambda a, b: f"mul {a}*{b}")


def _check_root_of_unity(c: _Check, d: int) -> None:
    period = 4 if d == 2 else d
    for k in range(2 * period):
        c.close(abs(omega_power(d, k)), 1.0, "modulus at power {}", k)
        c.close(abs(omega_power(d, k) - omega_power(d, k + period)), 0.0,
                "period at power {}", k)
    total = sum(omega_power(d, k) for k in range(period))
    c.close(abs(total), 0.0, "powers over one period sum to 0")


def _check_single_orthonormality(c: _Check, d: int) -> None:
    for basis_id in basis_alphabet(d, _FAMILIES):
        basis = measurement_basis(d, basis_id)
        gram = basis.conj().T @ basis
        c.close(np.abs(gram - np.eye(d)).max(), 0.0,
                "gram deviation for {}", basis_id.text(), tol=TOLERANCE)


def _check_unbiasedness(c: _Check, d: int) -> None:
    for family in _FAMILIES:
        bases = [(b, measurement_basis(d, b)) for b in basis_alphabet(d, (family,))]
        for i, (first, u) in enumerate(bases):
            for second, v in bases[i + 1:]:
                overlaps = np.abs(u.conj().T @ v) ** 2
                c.expect_all(np.abs(overlaps - 1.0 / d) <= 1e-9, lambda m, mp: (
                    f"|<{first.text()},{m}|{second.text()},{mp}>|^2: "
                    f"{float(overlaps[m, mp])!r} != {1.0 / d!r}"))


def _pair_kets(d: int, s: int) -> np.ndarray:
    """The plain pair kets |c,r;s> from their definition, as d x d amplitude
    matrices ``kets[c, r]``, travelling index first: entry [n, r] of q_s,
    w^(s n^2 - 2 r n) / sqrt(d), on |n, c - n>."""
    c, r, n = np.ix_(*(np.arange(d),) * 3)
    kets = np.zeros((d, d, d, d), dtype=complex)
    kets[c, r, n, (c - n) % d] = measurement_basis(d, BasisId(Family.PLAIN, s))[n, r]
    return kets


def _block_gram_deviation(d: int, kets: np.ndarray) -> float:
    """How far the plain pair kets ``kets[c, r]`` are from orthonormal,
    block by block.

    Each ket |c,r;s> may be nonzero only on the entries [n, (c - n) mod d],
    so the kets are orthonormal exactly when each c's d x d block of
    those entries is, and every entry off the blocks is zero.  Returns the
    larger of the worst block Gram deviation and the largest entry off
    the blocks.
    """
    e = kets.transpose(0, 2, 3, 1)   # [c, n, n', r]
    n = np.arange(d)
    cc = n[:, None]
    support = (cc, n, (cc - n) % d)
    blocks = e[support]   # [c, n, r]
    gram = blocks.conj().transpose(0, 2, 1) @ blocks
    off = np.abs(e)
    off[support] = 0.0
    return float(max(np.abs(gram - np.eye(d)).max(), off.max()))


def _check_entangled_basis(c: _Check, d: int) -> None:
    """Every pair basis is orthonormal, and :func:`mubsig.bases._pair_amplitudes`
    maps each s = 0 ket of either family to its own unit vector.  That
    routine is linear and the kets span the pair space, so this proves it
    reads every pair state right."""
    eye = np.eye(d * d)
    plain, u = _pair_kets(d, 0), hat_unitary(d)
    for family, kets in ((Family.PLAIN, plain), (Family.HAT, u @ plain @ u.T)):
        if family is Family.PLAIN:
            deviation = _block_gram_deviation(d, kets)
        else:   # the hat kets (u (x) u)|c,r;0>, u Psi u^T, fill whole matrices
            flat = kets.reshape(d * d, d * d)
            deviation = np.abs(flat.conj() @ flat.T - eye).max()
        read = _pair_amplitudes(d, family, kets.reshape(d * d, d, d))
        c.close(max(deviation, np.abs(read - eye).max()), 0.0,
                "{} pair basis gram and amplitudes", family.value, tol=TOLERANCE)
    for s in range(1, d):
        c.close(_block_gram_deviation(d, _pair_kets(d, s)), 0.0,
                "pair basis gram at s={}", s, tol=TOLERANCE)


def _check_pair_reduced_states(c: _Check, d: int) -> None:
    mixed = np.eye(d) / d
    for (cc, r, s) in [(0, 0, 0), (1 % d, 0, 0), (0, 1 % d, 0), (1 % d, 1 % d, (d - 1) % d)]:
        psi = _pair_kets(d, s)[cc, r]
        for keep, reduced in zip((1, 2), _reduced_states(psi)):
            c.close(np.abs(reduced - mixed).max(), 0.0,
                    "reduced side {} of ({},{};{})", keep, cc, r, s, tol=TOLERANCE)


def _check_hadamard_root(c: _Check, d: int) -> None:
    h = hadamard_root(d)
    f = np.array([[omega_power(d, (2 if d == 2 else 1) * m * n) for n in range(d)]
                  for m in range(d)]) / np.sqrt(d)
    c.close(np.abs(h @ h - f).max(), 0.0, "h squares to the transform",
            tol=TOLERANCE)
    c.close(np.abs(h @ h.conj().T - np.eye(d)).max(), 0.0, "h unitary",
            tol=TOLERANCE)
    u = hat_unitary(d)
    c.close(np.abs(u @ u.conj().T - np.eye(d)).max(), 0.0,
            "hat transport unitary", tol=TOLERANCE)


def _check_measurement_backaction(c: _Check, d: int) -> None:
    """Measuring the travelling half leaves the pair diagonal in the
    matching entangled basis, with the expected support."""
    labels = pair_outcome_labels(d)
    for family in _FAMILIES:
        for bob in basis_alphabet(d, (family,)):
            coeffs = _pair_coefficients(_amplitudes(d, family, bob))
            c.close(_off_diagonal(coeffs), 0.0,
                    "{}/{} off-diagonal", family.value, bob.text(), tol=TOLERANCE)
            diag = np.diag(coeffs).real
            support = np.flatnonzero(diag > TOLERANCE)
            found = {labels[i] for i in support}
            if bob.quad is None:
                expected = {(0, r) for r in range(d)}
            else:
                expected = {(cc, (-bob.quad * cc) % d) for cc in range(d)}
            c.expect(found == expected, "{}/{} support {}",
                     family.value, bob.text(), sorted(found))
            c.expect_all(np.abs(diag[support] - 1.0 / d) <= TOLERANCE, lambda i: (
                f"{family.value}/{bob.text()} weight {labels[support[i]]}: "
                f"{diag[support[i]]!r} != {1.0 / d!r}"))


def _check_pretest_partners(c: _Check, d: int) -> None:
    """Once Bob reads m in basis b, Alice's conditional ket phi_m is, up to a
    phase, the partner ket a_m' the pre-test sampler assigns: |<a_m'|phi_m>|^2
    = <phi_m|phi_m>.  Her other bases are unbiased to a (``mutual-unbiasedness``),
    so in them she reads uniformly, as the sampler draws."""
    alphabet = basis_alphabet(d)
    partners = _pretest_partners(d)[1].reshape(d + 1, d) % ((d + 1) * d)   # a d + m'
    pair = _prep_pair(d, Family.PLAIN)
    for b, basis in enumerate(alphabet):
        phi = measurement_basis(d, basis).conj().T @ pair   # row m: phi_m
        a, mp = np.divmod(partners[b], d)
        kets = np.array([measurement_basis(d, alphabet[i])[:, j] for i, j in zip(a, mp)])
        overlap = np.abs((kets.conj() * phi).sum(axis=1)) ** 2
        norm = (np.abs(phi) ** 2).sum(axis=1)
        c.expect_all(np.abs(overlap - norm) <= TOLERANCE, lambda m: (
            f"{basis.text()} outcome {m}: Alice's ket is not {alphabet[a[m]].text()} "
            f"outcome {mp[m]} ({float(overlap[m])!r} != {float(norm[m])!r})"))


def _check_decode_soundness(c: _Check, d: int) -> None:
    """Every supported outcome of every basis choice decodes back to it."""
    labels = np.array(pair_outcome_labels(d))
    for code, bob in enumerate(basis_alphabet(d, (Family.PLAIN,))):
        probs = _outcome_probs(_amplitudes(d, Family.PLAIN, bob))
        support = np.flatnonzero(probs > TOLERANCE)
        got = decode(d, (0, 0, 0), labels[support].T)
        # (0,0) must stay inconclusive; every other outcome names Bob's basis
        c.expect_all(got == np.where(support == 0, _INCONCLUSIVE_CODE, code), lambda i: (
            f"{bob.text()} outcome {tuple(labels[support[i]].tolist())} -> code {got[i]}"))
        c.close(probs[0], 1.0 / d, "inconclusive weight for {}", bob.text(),
                tol=TOLERANCE)


def _decode_cell(cc: int, r: int, s: int, cp: int, rp: int) -> str:
    if cp == cc and rp == r:
        return f"exact hit at {(cc, r, s)}"
    if cp == cc:
        return f"same-c outcome at {(cc, r, s)}->{(cp, rp)}"
    return f"cross-c outcome at {(cc, r, s)}->{(cp, rp)}"


def _check_decode_completeness(c: _Check, d: int) -> None:
    """The decode table the sessions use is total and consistent on every
    preparation (c, r, s) and outcome (c', r'), and :func:`decode` agrees
    with it everywhere.

    The table decodes the outcomes of the preparation (0, 0, 0).  Shifting
    a preparation (c, r, s) to it moves the outcome by (-c, -r) and the
    quadratic label by s.  A quadratic label b must satisfy the defining
    relation (s - b)(c - c') = r - r' (mod d).  One preparation c is
    checked at a time, on the whole (r, s, c', r') grid.
    """
    table = _decode_codes(d).reshape(d, d)
    r, s, cp, rp = np.ix_(*(np.arange(d),) * 4)
    for cc in range(d):
        shifted = table[(cp - cc) % d, (rp - r) % d]
        code = np.where(shifted > 0, 1 + (shifted - 1 + s) % d, shifted)
        related = ((s - (code - 1)) * (cc - cp) - (r - rp)) % d == 0
        ok = np.where(cp != cc, (code > 0) & related,
                      code == np.where(rp == r, _INCONCLUSIVE_CODE, 0))
        ok &= code == decode(d, (cc, r, s), (cp, rp))
        c.expect_all(ok, lambda *cell: _decode_cell(cc, *cell))
        c.expect_all((code == _INCONCLUSIVE_CODE).sum(axis=(2, 3)) == 1,
                     lambda *rs: f"one inconclusive cell at {(cc, *rs)}")


def _check_travelling_privacy(c: _Check, d: int) -> None:
    """The qudit in transit reveals nothing about the basis choice."""
    mixed = np.eye(d) / d
    for family in _FAMILIES:
        for bob in basis_alphabet(d, (family,)):
            back = _travelling_state(*_branches(d, family, bob))
            c.close(np.abs(back - mixed).max(), 0.0,
                    "returning state after {}/{}", family.value, bob.text(),
                    tol=TOLERANCE)


def _check_cross_family_visibility(c: _Check, d: int) -> None:
    """A plain-family interceptor of hat-family rounds holds a state that
    is visibly non-diagonal in her pair basis (and vice versa)."""
    for eve_family, bob_family in ((Family.PLAIN, Family.HAT),
                                   (Family.HAT, Family.PLAIN)):
        worst = np.inf
        for bob in basis_alphabet(d, (bob_family,)):
            worst = min(worst, _off_diagonal(_pair_coefficients(_amplitudes(d, eve_family, bob))))
        c.expect(worst > 1e-6,
                 "{} interceptor sees {} rounds as diagonal (max off-diag {:.2e})",
                 eve_family.value, bob_family.value, worst)


def _check_analytic_normalization(c: _Check, d: int) -> None:
    for family in _FAMILIES:
        for bob in basis_alphabet(d, (family,)):
            dist = analytic_outcome_distribution(d, bob)
            c.close(dist.probabilities.sum(), 1.0,
                    "normalization for {}", bob.text(), tol=TOLERANCE)
            c.expect(dist.probabilities.min() >= 0.0,
                     "negative probability for {}", bob.text())


def _check_born_rule_consistency(c: _Check, d: int) -> None:
    """Born probabilities |B^H psi|^2 agree with explicit projector
    expectations <b_m|psi><psi|b_m>."""
    rng = derive_round_stream(2024, 0)
    raw = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi = raw / np.linalg.norm(raw)
    rho = np.outer(psi, psi.conj())
    for bob in basis_alphabet(d, _FAMILIES):
        basis = measurement_basis(d, bob)
        probs = np.abs(basis.conj().T @ psi) ** 2
        for m in range(d):
            v = basis[:, m]
            direct = float(np.real(np.vdot(v, rho @ v)))
            c.close(probs[m], direct, "{} outcome {}", bob.text(), m, tol=TOLERANCE)
        c.close(probs.sum(), 1.0, "{} completeness", bob.text(), tol=TOLERANCE)


def _check_attack_statistics(c: _Check, d: int) -> None:
    """Single-round attack bookkeeping is internally consistent."""
    rng = derive_round_stream(7, 0)
    for _ in range(200):
        bob = basis_alphabet(d, (Family.PLAIN,))[int(rng.integers(d + 1))]
        record = run_round_original(d, bob, rng, eve=True)
        c.expect(record.eve_active, "eve record missing")
        if record.eve_decode != _INCONCLUSIVE_CODE:
            c.expect(record.eve_forward_basis is not None,
                     "conclusive eve must resend")
        else:
            c.expect(record.eve_forward_basis is None,
                     "inconclusive eve must stay passive")
            c.expect(tuple(map(int, record.alice_outcome)) == (0, 0),
                     "untouched pair must read (0,0)")


def _summed_detection_probability(d: int, eve_family: Family) -> float:
    """The quantity of :func:`dual_family_detection_probability`, with
    Bob's bases equally likely, summed over the collapsed branches instead
    of read from the compiled tables.

    Eve's outcome on her decoy after Bob's measurement fixes the basis she
    resends in (None: the stolen qudit goes back untouched); Alice, who
    prepared Bob's family, then measures her own pair.
    """
    codes = _decode_codes(d)
    conclusive = codes != _INCONCLUSIVE_CODE
    resends: dict[BasisId | None, list[int]] = {}
    for k, code in enumerate(codes.tolist()):
        resends.setdefault(_forward_basis(eve_family, code), []).append(k)
    kept = mismatch = 0.0
    for family in _FAMILIES:
        alice = {f: _outcome_probs(_amplitudes(d, family, f)) for f in resends}
        for code, bob in enumerate(basis_alphabet(d, (family,))):
            wrong = conclusive & (codes != code)
            eve = _outcome_probs(_amplitudes(d, eve_family, bob))
            for f, outcomes in resends.items():
                q = eve[outcomes].sum()
                kept += q * alice[f][conclusive].sum()
                mismatch += q * alice[f][wrong].sum()
    return float(mismatch / kept)


def _check_dual_attack_detectability(c: _Check, d: int) -> None:
    """The dual-family defence catches either single-family attack, and the
    compiled tables and the collapsed branches agree on how often."""
    for eve_family in _FAMILIES:
        p = dual_family_detection_probability(d, eve_family)
        summed = _summed_detection_probability(d, eve_family)
        c.expect(0.0 < p < 1.0 and abs(p - summed) <= 1e-12,
                 "{} attack detection probability {} (summed over branches: {})",
                 eve_family.value, p, summed)


def _check_session_determinism(c: _Check, d: int) -> None:
    config = HarnessConfig(d=d, protocol=Protocol.ORIGINAL, rounds=4000,
                           eve=EveMode.INTERCEPT, seed=99)
    first = run_trials(config, workers=1)
    second = run_trials(config, workers=3)
    c.expect(first == second, "reports differ across worker counts")
    third = run_trials(HarnessConfig(d=d, protocol=Protocol.ORIGINAL,
                                     rounds=4000, eve=EveMode.INTERCEPT,
                                     seed=100), workers=1)
    c.expect(first != third, "distinct seeds must differ")


def _check_stream_derivation(c: _Check, d: int) -> None:
    a = derive_round_stream(5, 1).integers(1 << 32, size=8)
    b = derive_round_stream(5, 1).integers(1 << 32, size=8)
    other = derive_round_stream(5, 2).integers(1 << 32, size=8)
    c.expect(bool((a == b).all()), "same (seed, index) must replay")
    c.expect(bool((a != other).any()), "distinct indices must decouple")


# The checks by name, in the order the suite runs and reports them.
_CHECKS: dict[str, Callable[[_Check, int], None]] = {
    "field-arithmetic": _check_field_arithmetic,
    "root-of-unity": _check_root_of_unity,
    "single-basis-orthonormality": _check_single_orthonormality,
    "mutual-unbiasedness": _check_unbiasedness,
    "entangled-basis": _check_entangled_basis,
    "pair-reduced-states": _check_pair_reduced_states,
    "hadamard-root": _check_hadamard_root,
    "measurement-backaction": _check_measurement_backaction,
    "pretest-partners": _check_pretest_partners,
    "decode-soundness": _check_decode_soundness,
    "decode-completeness": _check_decode_completeness,
    "travelling-privacy": _check_travelling_privacy,
    "cross-family-visibility": _check_cross_family_visibility,
    "analytic-distributions": _check_analytic_normalization,
    "born-rule-consistency": _check_born_rule_consistency,
    "attack-bookkeeping": _check_attack_statistics,
    "dual-attack-detectability": _check_dual_attack_detectability,
    "session-determinism": _check_session_determinism,
    "stream-derivation": _check_stream_derivation,
}


def _run_check(name: str, d: int) -> CheckResult:
    """Run the check ``name``; one that raises fails, its exception the detail.

    A MemoryError is not a failed invariant but a dimension too large for
    this process, so it leaves the suite (``mubsig verify`` exits 2).
    """
    c = _Check(name)
    try:
        _CHECKS[name](c, d)
    except MemoryError:
        raise
    except Exception as exc:
        c.failures.append(f"raised {type(exc).__name__}: {exc}")
    return c.result()


def run_invariant_suite(d: int) -> tuple[CheckResult, ...]:
    """Run every invariant check for dimension ``d``.

    Returns one result per check, in a stable order.  All checks run
    even if early ones fail or raise.
    """
    PrimeDim(d)
    return tuple(_run_check(name, d) for name in _CHECKS)
