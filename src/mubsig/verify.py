"""Built-in invariant suite.

Re-derives the structural facts the package relies on (orthonormality,
unbiasedness, post-measurement structure, decode soundness, attack
detectability, stream determinism) by brute force for one dimension,
and reports one result per named check.  The CLI exposes this as
``mubsig verify``; the test suite runs it as a meta-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .bases import (
    BasisId,
    Family,
    basis_alphabet,
    entangled_basis,
    entangled_ket,
    hadamard_root,
    hat_entangled_ket,
    hat_unitary,
    measurement_basis,
    omega_power,
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
from .oracle import run_round_original
from .protocol import decode, pair_outcome_labels
from .quantum import (
    TOLERANCE,
    DensityOperator,
    Ket,
    born_probabilities,
    nonselective_measure,
    partial_trace,
)
from .streams import derive_round_stream

__all__ = ["CheckResult", "run_invariant_suite"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named invariant check."""

    name: str
    passed: bool
    assertions: int
    detail: str = ""


class _Check:
    """Collects assertions for one named check."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.assertions = 0
        self.failures: list[str] = []

    def expect(self, condition: bool, detail: str) -> None:
        self.assertions += 1
        if not condition:
            self.failures.append(detail)

    def close(self, value: float, target: float, detail: str,
              tol: float = 1e-9) -> None:
        self.expect(abs(value - target) <= tol,
                    f"{detail}: {value!r} != {target!r}")

    def result(self) -> CheckResult:
        return CheckResult(self.name, not self.failures, self.assertions,
                           "; ".join(self.failures[:3]))


def _check_field_arithmetic(d: int) -> CheckResult:
    c = _Check("field-arithmetic")
    dim = PrimeDim(d)
    for a in range(d):
        x = dim.element(a)
        c.expect(int(x + dim.element(0)) == a, f"additive identity at {a}")
        c.expect(int(x - x) == 0, f"additive inverse at {a}")
        if a:
            c.expect(int(x * x.inverse()) == 1, f"multiplicative inverse at {a}")
        for b in range(d):
            y = dim.element(b)
            c.expect(int(x + y) == (a + b) % d, f"add {a}+{b}")
            c.expect(int(x * y) == (a * b) % d, f"mul {a}*{b}")
    return c.result()


def _check_root_of_unity(d: int) -> CheckResult:
    c = _Check("root-of-unity")
    period = 4 if d == 2 else d
    for k in range(2 * period):
        c.close(abs(omega_power(d, k)), 1.0, f"modulus at power {k}")
        c.close(abs(omega_power(d, k) - omega_power(d, k + period)), 0.0,
                f"period at power {k}")
    total = sum(omega_power(d, k) for k in range(period))
    c.close(abs(total), 0.0, "powers over one period sum to 0")
    return c.result()


def _check_single_orthonormality(d: int) -> CheckResult:
    c = _Check("single-basis-orthonormality")
    for basis_id in basis_alphabet(d, (Family.PLAIN, Family.HAT)):
        basis = measurement_basis(d, basis_id)
        gram = basis.matrix.conj().T @ basis.matrix
        c.close(np.abs(gram - np.eye(d)).max(), 0.0,
                f"gram deviation for {basis_id.text()}", tol=TOLERANCE)
    return c.result()


def _check_unbiasedness(d: int) -> CheckResult:
    c = _Check("mutual-unbiasedness")
    for family in (Family.PLAIN, Family.HAT):
        ids = basis_alphabet(d, (family,))
        for i, first in enumerate(ids):
            for second in ids[i + 1:]:
                gram = (measurement_basis(d, first).matrix.conj().T
                        @ measurement_basis(d, second).matrix)
                overlaps = (np.abs(gram) ** 2).tolist()
                for m, mp in product(range(d), repeat=2):
                    c.close(overlaps[m][mp], 1.0 / d,
                            f"|<{first.text()},{m}|{second.text()},{mp}>|^2",
                            tol=1e-9)
    return c.result()


def _check_entangled_basis(d: int) -> CheckResult:
    c = _Check("entangled-basis")
    for family in (Family.PLAIN, Family.HAT):
        basis = entangled_basis(d, family=family)
        gram = basis.matrix.conj().T @ basis.matrix
        c.close(np.abs(gram - np.eye(d * d)).max(), 0.0,
                f"{family.value} pair basis gram", tol=TOLERANCE)
    for s in range(1, d):
        basis = entangled_basis(d, s=s)
        gram = basis.matrix.conj().T @ basis.matrix
        c.close(np.abs(gram - np.eye(d * d)).max(), 0.0,
                f"pair basis gram at s={s}", tol=TOLERANCE)
    return c.result()


def _check_pair_reduced_states(d: int) -> CheckResult:
    c = _Check("pair-reduced-states")
    mixed = np.eye(d) / d
    for (cc, r, s) in [(0, 0, 0), (1 % d, 0, 0), (0, 1 % d, 0), (1 % d, 1 % d, (d - 1) % d)]:
        rho = DensityOperator.from_ket(entangled_ket(d, cc, r, s))
        for keep in (1, 2):
            reduced = partial_trace(rho, keep=keep)
            c.close(np.abs(reduced.matrix - mixed).max(), 0.0,
                    f"reduced side {keep} of ({cc},{r};{s})", tol=TOLERANCE)
    return c.result()


def _check_hadamard_root(d: int) -> CheckResult:
    c = _Check("hadamard-root")
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
    return c.result()


def _check_measurement_backaction(d: int) -> CheckResult:
    """Measuring the travelling half leaves the pair diagonal in the
    matching entangled basis, with the expected support."""
    c = _Check("measurement-backaction")
    labels = pair_outcome_labels(d)
    for family in (Family.PLAIN, Family.HAT):
        prep = DensityOperator.from_ket(
            hat_entangled_ket(d, 0, 0) if family is Family.HAT
            else entangled_ket(d, 0, 0, 0))
        pair_basis = entangled_basis(d, family=family)
        for bob in basis_alphabet(d, (family,)):
            post = nonselective_measure(prep, 1, measurement_basis(d, bob))
            coeffs = pair_basis.matrix.conj().T @ post.matrix @ pair_basis.matrix
            off = coeffs - np.diag(np.diag(coeffs))
            c.close(np.abs(off).max(), 0.0,
                    f"{family.value}/{bob.text()} off-diagonal", tol=TOLERANCE)
            support = {labels[i] for i in range(d * d)
                       if coeffs[i, i].real > TOLERANCE}
            if bob.quad is None:
                expected = {(0, r) for r in range(d)}
            else:
                expected = {(cc, (-bob.quad * cc) % d) for cc in range(d)}
            c.expect(support == expected,
                     f"{family.value}/{bob.text()} support {sorted(support)}")
            for lab in support:
                idx = labels.index(lab)
                c.close(coeffs[idx, idx].real, 1.0 / d,
                        f"{family.value}/{bob.text()} weight {lab}",
                        tol=TOLERANCE)
    return c.result()


def _check_decode_soundness(d: int) -> CheckResult:
    """Every supported outcome of every basis choice decodes back to it."""
    c = _Check("decode-soundness")
    dim = PrimeDim(d)
    prep = tuple(dim.element(0) for _ in range(3))
    pair = DensityOperator.from_ket(entangled_ket(d, 0, 0, 0))
    pair_basis = entangled_basis(d)
    for bob in basis_alphabet(d, (Family.PLAIN,)):
        probs = dict(zip(pair_outcome_labels(d), born_probabilities(
            nonselective_measure(pair, 1, measurement_basis(d, bob)), pair_basis)))
        for (cc, r), p in probs.items():
            if p <= TOLERANCE:
                continue
            res = decode(prep, (dim.element(cc), dim.element(r)))
            if cc == 0 and r == 0:
                c.expect(not res.is_conclusive, "(0,0) must stay inconclusive")
            else:
                c.expect(res.is_conclusive and res.matches_label(bob),
                         f"{bob.text()} outcome ({cc},{r}) -> {res.text()}")
        c.close(probs[(0, 0)], 1.0 / d,
                f"inconclusive weight for {bob.text()}", tol=TOLERANCE)
    return c.result()


def _check_decode_completeness(d: int) -> CheckResult:
    """decode() is total and consistent on all preparations and outcomes."""
    c = _Check("decode-completeness")
    elements = PrimeDim(d).elements()
    inverse = [0] + [pow(x, -1, d) for x in range(1, d)]
    outcomes = [(cp, rp, (elements[cp], elements[rp]))
                for cp, rp in product(range(d), repeat=2)]
    for cc, r, s in product(range(d), repeat=3):
        prep = (elements[cc], elements[r], elements[s])
        seen_inconclusive = 0
        for cp, rp, outcome in outcomes:
            res = decode(prep, outcome)
            if cp == cc and rp == r:
                c.expect(res.kind == "inconclusive", f"exact hit at {(cc, r, s)}")
                seen_inconclusive += 1
            elif cp == cc:
                c.expect(res.kind == "computational",
                         f"same-c outcome at {(cc, r, s)}->{(cp, rp)}")
            else:
                b = (s - (r - rp) * inverse[(cc - cp) % d]) % d
                c.expect(res.kind == "quadratic" and res.quad == b,
                         f"cross-c outcome at {(cc, r, s)}->{(cp, rp)}")
        c.expect(seen_inconclusive == 1, f"one inconclusive cell at {(cc, r, s)}")
    return c.result()


def _check_travelling_privacy(d: int) -> CheckResult:
    """The qudit in transit reveals nothing about the basis choice."""
    c = _Check("travelling-privacy")
    mixed = np.eye(d) / d
    for family in (Family.PLAIN, Family.HAT):
        rho = DensityOperator.from_ket(
            hat_entangled_ket(d, 0, 0) if family is Family.HAT
            else entangled_ket(d, 0, 0, 0))
        for bob in basis_alphabet(d, (family,)):
            post = nonselective_measure(rho, 1, measurement_basis(d, bob))
            back = partial_trace(post, keep=1)
            c.close(np.abs(back.matrix - mixed).max(), 0.0,
                    f"returning state after {family.value}/{bob.text()}",
                    tol=TOLERANCE)
    return c.result()


def _check_cross_family_visibility(d: int) -> CheckResult:
    """A plain-family interceptor of hat-family rounds holds a state that
    is visibly non-diagonal in her pair basis (and vice versa)."""
    c = _Check("cross-family-visibility")
    for eve_family, bob_family in ((Family.PLAIN, Family.HAT),
                                   (Family.HAT, Family.PLAIN)):
        decoy = DensityOperator.from_ket(
            hat_entangled_ket(d, 0, 0) if eve_family is Family.HAT
            else entangled_ket(d, 0, 0, 0))
        pair_basis = entangled_basis(d, family=eve_family)
        worst = np.inf
        for bob in basis_alphabet(d, (bob_family,)):
            post = nonselective_measure(decoy, 1, measurement_basis(d, bob))
            coeffs = pair_basis.matrix.conj().T @ post.matrix @ pair_basis.matrix
            off = np.abs(coeffs - np.diag(np.diag(coeffs))).max()
            worst = min(worst, off)
        c.expect(worst > 1e-6,
                 f"{eve_family.value} interceptor sees {bob_family.value} "
                 f"rounds as diagonal (max off-diag {worst:.2e})")
    return c.result()


def _check_analytic_normalization(d: int) -> CheckResult:
    c = _Check("analytic-distributions")
    for family in (Family.PLAIN, Family.HAT):
        for bob in basis_alphabet(d, (family,)):
            dist = analytic_outcome_distribution(d, bob)
            c.close(dist.probabilities.sum(), 1.0,
                    f"normalization for {bob.text()}", tol=TOLERANCE)
            c.expect(dist.probabilities.min() >= 0.0,
                     f"negative probability for {bob.text()}")
    return c.result()


def _check_born_rule_consistency(d: int) -> CheckResult:
    """Born probabilities agree with explicit projector expectations."""
    c = _Check("born-rule-consistency")
    rng = derive_round_stream(2024, 0)
    raw = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi = Ket.normalized(raw)
    rho = DensityOperator.from_ket(psi)
    for bob in basis_alphabet(d, (Family.PLAIN, Family.HAT)):
        basis = measurement_basis(d, bob)
        probs = born_probabilities(rho, basis)
        for m in range(d):
            v = basis.matrix[:, m]
            direct = float(np.real(np.vdot(v, rho.matrix @ v)))
            c.close(probs[m], direct, f"{bob.text()} outcome {m}", tol=TOLERANCE)
        c.close(probs.sum(), 1.0, f"{bob.text()} completeness", tol=TOLERANCE)
    return c.result()


def _check_attack_statistics(d: int) -> CheckResult:
    """Single-round attack bookkeeping is internally consistent."""
    c = _Check("attack-bookkeeping")
    rng = derive_round_stream(7, 0)
    for _ in range(200):
        bob = basis_alphabet(d, (Family.PLAIN,))[int(rng.integers(d + 1))]
        record = run_round_original(d, bob, rng, eve=True)
        c.expect(record.eve_active and record.eve_outcome is not None,
                 "eve record missing")
        if record.eve_decode.is_conclusive:
            c.expect(record.eve_forward_basis is not None,
                     "conclusive eve must resend")
        else:
            c.expect(record.eve_forward_basis is None,
                     "inconclusive eve must stay passive")
            c.expect(tuple(map(int, record.alice_outcome)) == (0, 0),
                     "untouched pair must read (0,0)")
    return c.result()


def _check_dual_attack_detectability(d: int) -> CheckResult:
    c = _Check("dual-attack-detectability")
    for eve_family in (Family.PLAIN, Family.HAT):
        p = dual_family_detection_probability(d, eve_family)
        c.expect(0.0 < p < 1.0,
                 f"{eve_family.value} attack detection probability {p}")
    return c.result()


def _check_session_determinism(d: int) -> CheckResult:
    c = _Check("session-determinism")
    config = HarnessConfig(d=d, protocol=Protocol.ORIGINAL, rounds=4000,
                           eve=EveMode.INTERCEPT, seed=99)
    first = run_trials(config, workers=1)
    second = run_trials(config, workers=3)
    c.expect(first == second, "reports differ across worker counts")
    third = run_trials(HarnessConfig(d=d, protocol=Protocol.ORIGINAL,
                                     rounds=4000, eve=EveMode.INTERCEPT,
                                     seed=100), workers=1)
    c.expect(first != third, "distinct seeds must differ")
    return c.result()


def _check_stream_derivation(d: int) -> CheckResult:
    c = _Check("stream-derivation")
    a = derive_round_stream(5, 1).integers(1 << 32, size=8)
    b = derive_round_stream(5, 1).integers(1 << 32, size=8)
    other = derive_round_stream(5, 2).integers(1 << 32, size=8)
    c.expect(bool((a == b).all()), "same (seed, index) must replay")
    c.expect(bool((a != other).any()), "distinct indices must decouple")
    return c.result()


_CHECKS = (
    _check_field_arithmetic,
    _check_root_of_unity,
    _check_single_orthonormality,
    _check_unbiasedness,
    _check_entangled_basis,
    _check_pair_reduced_states,
    _check_hadamard_root,
    _check_measurement_backaction,
    _check_decode_soundness,
    _check_decode_completeness,
    _check_travelling_privacy,
    _check_cross_family_visibility,
    _check_analytic_normalization,
    _check_born_rule_consistency,
    _check_attack_statistics,
    _check_dual_attack_detectability,
    _check_session_determinism,
    _check_stream_derivation,
)


def run_invariant_suite(d: int) -> tuple[CheckResult, ...]:
    """Run every invariant check for dimension ``d``.

    Returns one result per check, in a stable order.  All checks run
    even if early ones fail.
    """
    PrimeDim(d)
    return tuple(check(d) for check in _CHECKS)
