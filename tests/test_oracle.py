import ast
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mubsig import oracle
from mubsig.bases import (
    BasisId,
    Family,
    basis_alphabet,
    measurement_basis,
    pair_outcome_labels,
)
from mubsig.protocol import decode
from mubsig.quantum import TOLERANCE
from dense import (
    born_probabilities,
    density,
    entangled_basis,
    nonselective_measure,
    sample_outcome,
)

FAMILIES = (Family.PLAIN, Family.HAT)


def test_oracle_never_reads_the_compiled_tables():
    """The single-round path must reach its statistics on its own."""
    tree = ast.parse(Path(oracle.__file__).read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update({node.name, node.asname})
    assert not used & {"_outcome_rows", "pair_outcome_probs", "analytic_outcome_distribution",
                        "_inverse_cdf", "_InverseCdf", "_table_lookup", "_draws"}


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_collapse_route_sums_to_the_nonselective_measurement(d):
    """Summing the branches' Born probabilities |<e_k|v_m>|^2 over m, weighted
    by ||phi_m||^2, gives the dense density-operator route for every
    preparation and basis; an untouched pair (basis None) gives its own."""
    for family in FAMILIES:
        prep = density(oracle._prep_pair(d, family))
        pair_basis = entangled_basis(d, 0, family)
        for basis in (None, *basis_alphabet(d, FAMILIES)):
            measured = oracle._amplitudes(d, family, basis)
            assert_allclose(measured.weights.sum(), 1.0, rtol=0, atol=1e-12)
            route = measured.weights @ np.abs(measured.amps) ** 2
            state = prep if basis is None else nonselective_measure(
                prep, 1, measurement_basis(d, basis))
            dense = born_probabilities(state, pair_basis)
            assert_allclose(route, dense, rtol=0, atol=1e-12, err_msg=f"{family} {basis}")
            assert (route[dense < TOLERANCE] < TOLERANCE).all(), (family, basis)


def test_amplitudes_refuse_writes():
    """Every caller shares the cached arrays, CDFs included, so none may
    change them."""
    for basis in (None, BasisId(Family.PLAIN, 0)):
        measured = oracle._amplitudes(3, Family.HAT, basis)
        for array in (measured.weights, measured.amps, *measured.cdfs):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


def test_collapsed_branches_are_product_states():
    d = 5
    basis_id = basis_alphabet(d)[2]
    basis = measurement_basis(d, basis_id)
    _, collapsed = oracle._branches(d, Family.HAT, basis_id)
    for m, v in enumerate(collapsed):   # b_m (x) a unit vector
        b_m = basis[:, m]
        assert_allclose(np.outer(b_m, b_m.conj() @ v), v, rtol=0, atol=1e-12)
        assert_allclose(np.linalg.norm(v), 1.0, rtol=0, atol=1e-12)


def _record_fields(record):
    def text(basis):
        return None if basis is None else basis.text()

    def pair(outcome):
        return None if outcome is None else [int(x) for x in outcome]

    return {"bob": record.bob_basis.text(), "alice_family": record.alice_prep_family.value,
            "alice_outcome": pair(record.alice_outcome), "alice_decode": int(record.alice_decode),
            "eve_outcome": pair(record.eve_outcome),
            "eve_decode": None if record.eve_decode is None else int(record.eve_decode),
            "eve_forward": text(record.eve_forward_basis), "sifted": record.sifted}


def _pinned_records():
    records = []
    for d in (2, 3, 5):
        rng = np.random.default_rng(1000 + d)
        for alice in FAMILIES:
            for bob in basis_alphabet(d, FAMILIES):
                for eve in (None, *FAMILIES):
                    for _ in range(3):
                        records.append(oracle.run_protocol2_round(d, alice, bob, rng,
                                                                  eve_family=eve))
        for bob in basis_alphabet(d, (Family.PLAIN,)):
            for eve in (False, True):
                records.append(oracle.run_round_original(d, bob, rng, eve=eve))
    return [_record_fields(r) for r in records]


# sha256 of the canonical JSON of _pinned_records(), taken before the
# round path was folded into one measurement helper.
ROUND_RECORDS_SHA256 = "cd8282490e6c277bb3a42d30debbb4dc47bac9a3dca2467b2635b2a66df1e668"


def test_round_records_are_pinned():
    """Fixed-seed rounds keep every outcome, decode and draw in place."""
    text = json.dumps(_pinned_records(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == ROUND_RECORDS_SHA256


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_cached_draws_replay_sample_outcome(d):
    """A round's two draws, read off the cached CDFs, equal sample_outcome
    on the weights and then on |amps[m]|^2, on an identically seeded
    generator: the same outcomes, codes and final generator state."""
    for family in FAMILIES:
        for basis in (None, *basis_alphabet(d, FAMILIES)):
            measured = oracle._amplitudes(d, family, basis)
            rng, replay = np.random.default_rng(d), np.random.default_rng(d)
            for _ in range(200):
                outcome, code = oracle._measure(d, family, basis, rng)
                m = 0 if basis is None else sample_outcome(measured.weights, replay)
                k = sample_outcome(np.abs(measured.amps[m]) ** 2, replay)
                assert outcome == pair_outcome_labels(d)[k], (family, basis)
                assert code == decode(d, (0, 0, 0), outcome)
            assert rng.bit_generator.state == replay.bit_generator.state
