import ast
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mubsig import oracle
from mubsig.bases import Family, basis_alphabet, entangled_basis, measurement_basis
from mubsig.quantum import TOLERANCE
from dense import born_probabilities, density, nonselective_measure

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
    assert not used & {"_tables", "pair_outcome_probs", "analytic_outcome_distribution",
                        "_inverse_cdf", "_InverseCdf", "_table_lookup", "_draws"}


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_collapse_route_sums_to_the_nonselective_measurement(d):
    """Summing the collapsed branches over m, weighted by ||phi_m||^2, gives
    the dense density-operator route for every preparation and basis."""
    for family in FAMILIES:
        pair = oracle._prep_pair(d, family)
        prep = density(pair)
        for basis in basis_alphabet(d, FAMILIES):
            weights, collapsed = oracle._travelling_branches(pair, measurement_basis(d, basis))
            assert_allclose(weights.sum(), 1.0, rtol=0, atol=1e-12)
            route = sum(w * oracle._pair_probs(d, family, v)
                        for w, v in zip(weights, collapsed))
            dense = born_probabilities(
                nonselective_measure(prep, 1, measurement_basis(d, basis)),
                entangled_basis(d, 0, family))
            assert_allclose(route, dense, rtol=0, atol=1e-12, err_msg=f"{family} {basis}")
            assert (route[dense < TOLERANCE] < TOLERANCE).all(), (family, basis)


def test_collapsed_branches_are_product_states():
    d = 5
    pair = oracle._prep_pair(d, Family.HAT)
    basis = measurement_basis(d, basis_alphabet(d)[2])
    _, collapsed = oracle._travelling_branches(pair, basis)
    for m, v in enumerate(collapsed):   # b_m (x) a unit vector
        b_m = basis[:, m]
        assert_allclose(np.outer(b_m, b_m.conj() @ v), v, rtol=0, atol=1e-12)
        assert_allclose(np.linalg.norm(v), 1.0, rtol=0, atol=1e-12)
