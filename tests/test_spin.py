import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mtdirac.spin import (
    chiral_pair_projector,
    embed,
    epsilon_gamma_pair,
    exchange,
    gamma,
    gamma5,
)
from probes import ADJOINT_METRIC, clifford_defect, slot_commutator_defect

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)


def test_clifford_relations_hold_exactly():
    assert clifford_defect(1) == 0.0
    assert clifford_defect(2) == 0.0


def test_slot_operators_commute_exactly():
    assert slot_commutator_defect() == 0.0


def test_gamma_matrices_are_the_documented_kron_forms():
    assert np.array_equal(gamma(0, 1), np.kron(SIGMA1, np.eye(2)))
    assert np.array_equal(gamma(0, 2), np.kron(np.eye(2), SIGMA1))
    assert np.array_equal(gamma(1, 1), np.kron(SIGMA1 @ SIGMA3, np.eye(2)))
    assert np.array_equal(gamma(1, 2), np.kron(np.eye(2), SIGMA1 @ SIGMA3))


def test_gamma_squares_match_metric():
    for p in (1, 2):
        assert np.array_equal(gamma(0, p) @ gamma(0, p), np.eye(4))
        assert np.array_equal(gamma(1, p) @ gamma(1, p), -np.eye(4))


def test_invalid_indices_raise():
    with pytest.raises(ValueError):
        gamma(2, 1)
    with pytest.raises(ValueError):
        gamma(0, 3)
    with pytest.raises(ValueError):
        embed(SIGMA1, 0)


def test_gamma5_is_i_sigma3_in_slot():
    assert np.array_equal(gamma5(1), np.kron(1j * SIGMA3, np.eye(2)))
    assert np.array_equal(gamma5(2), np.kron(np.eye(2), 1j * SIGMA3))


def test_dirac_adjoint_pairs_opposite_corners():
    # the adjoint row spinor is psi^dagger gamma_1^0 gamma_2^0
    e1 = np.array([1, 0, 0, 0], dtype=complex)
    assert np.array_equal(e1 @ ADJOINT_METRIC, np.array([0, 0, 0, 1], dtype=complex))
    psi = np.array([1 + 2j, 0.5j, -1.0, 3.0])
    bar = psi.conj() @ ADJOINT_METRIC
    # psi-bar psi = 2 Re(psi1* psi4 + psi2* psi3)
    expected = 2.0 * ((1 - 2j) * 3.0 + (-0.5j) * (-1.0)).real
    assert bar @ psi == pytest.approx(expected)


cvals = st.tuples(
    st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False)
).map(lambda p: complex(*p))


@given(st.tuples(cvals, cvals, cvals, cvals))
def test_exchange_is_an_involution_swapping_middle_components(vals):
    psi = np.array(vals)
    sw = exchange(psi)
    assert sw[0] == psi[0] and sw[3] == psi[3]
    assert sw[1] == psi[2] and sw[2] == psi[1]
    assert np.array_equal(exchange(sw), psi)


def test_epsilon_contraction_closed_form():
    m = epsilon_gamma_pair()
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 2] = 2.0
    expected[2, 1] = -2.0
    assert np.array_equal(m, expected)


def test_epsilon_contraction_against_index_loop():
    eps = np.array([[0.0, 1.0], [-1.0, 0.0]])
    total = np.zeros((4, 4), dtype=complex)
    for mu in range(2):
        for nu in range(2):
            total += eps[mu, nu] * gamma(mu, 1) @ gamma(nu, 2)
    assert np.array_equal(total, epsilon_gamma_pair())


def test_chiral_pair_projector_diagonal():
    assert np.array_equal(chiral_pair_projector(), np.diag([0.0, 2.0, 2.0, 0.0]))
