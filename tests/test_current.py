import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mtdirac.current import (
    SIGN_TABLE,
    coincidence_flux,
    continuity_residual,
    levi_civita_contraction,
    tensor_current,
)
from mtdirac.geometry import sample_spacelike
from mtdirac.scenario import NULL_SIGNS
from mtdirac.solver import StencilError
from mtdirac.spin import gamma
from probes import ADJOINT_METRIC

cvals = st.tuples(
    st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False)
).map(lambda p: complex(*p))
spinors = st.tuples(cvals, cvals, cvals, cvals).map(np.array)


def gamma_current(psi):
    """Oracle: the complex bilinears adj(psi) gamma_1^mu gamma_2^nu psi, shape
    (2, 2) + value shape, computed from the gamma matrices."""
    psi = np.asarray(psi, dtype=complex)
    return np.array(
        [
            [
                np.einsum(
                    "i...,ij,j...->...",
                    psi.conj(),
                    ADJOINT_METRIC @ gamma(mu, 1) @ gamma(nu, 2),
                    psi,
                )
                for nu in range(2)
            ]
            for mu in range(2)
        ]
    )


def test_gamma_bilinears_are_the_sign_table():
    # each component is a simultaneous velocity eigenstate: psi_i is constant
    # along z_k + s_k t_k, so particle k moves with v_k = -s_k on it
    for mu in range(2):
        for nu in range(2):
            m = ADJOINT_METRIC @ gamma(mu, 1) @ gamma(nu, 2)
            assert np.array_equal(m, np.diag(np.diag(m)))
            expected = [(-s1) ** mu * (-s2) ** nu for s1, s2 in NULL_SIGNS.values()]
            assert np.array_equal(np.diag(m), expected)
            assert np.array_equal(SIGN_TABLE[2 * mu + nu], expected)


@given(spinors)
def test_current_matches_gamma_bilinear(psi):
    raw = gamma_current(psi)
    assert np.abs(raw.imag).max() <= 1e-13 * np.sum(np.abs(psi) ** 2)
    assert np.abs(tensor_current(psi).as_matrix() - raw.real).max() <= 1e-12


def test_basis_spinor_currents():
    e1 = np.array([1, 0, 0, 0], dtype=complex)
    j = tensor_current(e1)
    assert (j.j00, j.j01, j.j10, j.j11) == (1.0, 1.0, 1.0, 1.0)
    e2 = np.array([0, 1, 0, 0], dtype=complex)
    j = tensor_current(e2)
    assert (j.j00, j.j01, j.j10, j.j11) == (1.0, -1.0, 1.0, -1.0)
    assert levi_civita_contraction(j) == -2.0


@given(spinors)
def test_current_diagonal_formulas(psi):
    # each component is a simultaneous velocity eigenstate: particle 1 moves
    # with +1 on psi1/psi2 and -1 on psi3/psi4, particle 2 with +1 on psi1/psi3
    p = np.abs(psi) ** 2
    j = tensor_current(psi)
    assert j.j00 == pytest.approx(p.sum(), abs=1e-12)
    assert j.j01 == pytest.approx(p[0] - p[1] + p[2] - p[3], abs=1e-12)
    assert j.j10 == pytest.approx(p[0] + p[1] - p[2] - p[3], abs=1e-12)
    assert j.j11 == pytest.approx(p[0] - p[1] - p[2] + p[3], abs=1e-12)
    assert levi_civita_contraction(j) == pytest.approx(2 * (p[2] - p[1]), abs=1e-12)


def test_current_batched_and_matrix_layout():
    rng = np.random.default_rng(2)
    psi = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
    j = tensor_current(psi)
    m = j.as_matrix()
    assert m.shape == (2, 2, 6)
    for k in range(6):
        jk = tensor_current(psi[:, k])
        assert np.allclose(m[:, :, k], [[jk.j00, jk.j01], [jk.j10, jk.j11]])


def test_current_rejects_wrong_shape():
    with pytest.raises(ValueError):
        tensor_current(np.ones(3, dtype=complex))


def test_continuity_residual_small_on_smooth_data(packet, rich):
    rng = np.random.default_rng(17)
    h = 1e-4
    for s in (packet, rich):
        t1, z1, t2, z2 = sample_spacelike(rng, 25, (-1.5, 1.5), (-3.5, 3.5), margin=4 * h)
        d1, d2 = continuity_residual(s, t1, z1, t2, z2, h=h)
        assert max(float(np.abs(d1).max()), float(np.abs(d2).max())) < 1e-5


def test_continuity_residual_guards():
    from mtdirac.scenario import InitialData, Scenario, ZERO2

    s = Scenario(initial=InitialData(half1=(ZERO2,) * 4, half2=(ZERO2,) * 4))
    with pytest.raises(StencilError, match=r"^1 of 1 configurations lack room"):
        continuity_residual(s, 0.0, 0.0, 0.0, 1e-6)
    with pytest.raises(ValueError):
        continuity_residual(s, 0.0, 0.0, 0.0, 1.0, h=-1.0)
    with pytest.raises(StencilError, match=r"^1 of 2 configurations have a non-finite"):
        continuity_residual(s, [0.0, np.nan], 0.0, 0.0, 1.0)


def test_coincidence_flux_cancels_for_phase_jump(packet, rich):
    t = np.linspace(-2.0, 2.0, 33)
    z = np.linspace(-3.0, 3.0, 33)
    for s in (packet, rich):
        for side in (1, 2):
            flux = coincidence_flux(s, t[:, None], z[None, :], side)
            assert np.abs(flux).max() <= 1e-12


def test_coincidence_flux_detects_absorbing_boundary(leaky):
    # with the t > 0 re-emission map zeroed, whatever reaches the diagonal
    # during the overlap epoch is swallowed: strictly incoming flux
    z = np.linspace(-1.5, 1.5, 61)
    flux = coincidence_flux(leaky, 0.7, z, 1)
    assert flux.max() <= 1e-15
    assert flux.min() < -1e-3
