"""Tensor probability current and its conservation identities.

The bilinear j^{mu nu} = adj(psi) gamma_1^mu gamma_2^nu psi (with the
Dirac adjoint adj(psi) = psi^dagger gamma_1^0 gamma_2^0) is real for every
spinor; j^{00} = |psi|^2 is the configuration-space density.  It obeys one
continuity equation per particle, and its antisymmetric contraction
eps_{mu nu} j^{mu nu} = j^{01} - j^{10} is the net probability flux into
the coincidence set, which the jump condition must cancel.

In the spinor basis of the spin module the bilinear is diagonal: psi_i is
constant along z_k + s_k t_k with (s1, s2) = scenario.NULL_SIGNS[i], so
particle k moves with velocity v_k = -s_k on it and, with v^0 = 1, v^1 = v,

    j^{mu nu} = sum_i v1_i^mu v2_i^nu |psi_i|^2 = SIGN_TABLE @ |psi|^2,

with the rows of SIGN_TABLE ordered (mu, nu) = 00, 01, 10, 11.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import NULL_SIGNS
from .solver import boundary_trace_fields, evaluate_fields, stencil_derivatives

# velocities v_k = -s_k of particles 1 and 2 on psi_1 .. psi_4
_V1, _V2 = -np.array([NULL_SIGNS[i] for i in (1, 2, 3, 4)], dtype=float).T
SIGN_TABLE = np.array([_V1**mu * _V2**nu for mu in (0, 1) for nu in (0, 1)])


@dataclass(frozen=True)
class TensorCurrent:
    """The four real components j^{mu nu}; scalars or arrays of equal shape."""

    j00: np.ndarray
    j01: np.ndarray
    j10: np.ndarray
    j11: np.ndarray

    def as_matrix(self) -> np.ndarray:
        """Stack into shape (2, 2) + value shape, indexed [mu, nu]."""
        return np.stack(
            [np.stack([self.j00, self.j01]), np.stack([self.j10, self.j11])]
        )


def tensor_current(psi: np.ndarray) -> TensorCurrent:
    """j^{mu nu} at one spinor value or a batch with components on axis 0."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[0] != 4:
        raise ValueError("psi must have 4 components on axis 0")
    j = np.tensordot(SIGN_TABLE, psi.real**2 + psi.imag**2, axes=1)
    return TensorCurrent(j00=j[0], j01=j[1], j10=j[2], j11=j[3])


def levi_civita_contraction(j: TensorCurrent) -> np.ndarray:
    """eps_{mu nu} j^{mu nu} with eps_{01} = +1; equals 2(|psi3|^2 - |psi2|^2)."""
    return j.j01 - j.j10


def continuity_residual(
    s, t1, z1, t2, z2, h: float = 1e-4
) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference residuals of the two continuity equations, elementwise.

    Returns (d1, d2), each of shape (2,) + the broadcast coordinate shape:

        d1[nu] = D_t1 j^{0 nu} + D_z1 j^{1 nu}
        d2[mu] = D_t2 j^{mu 0} + D_z2 j^{mu 1}

    D is the symmetric difference of solver.stencil_derivatives, the same
    stencil as the field residual probe.
    """
    d_t1, d_z1, d_t2, d_z2 = stencil_derivatives(  # each indexed [mu, nu]
        lambda *p: tensor_current(evaluate_fields(s, *p)).as_matrix(), t1, z1, t2, z2, h
    )
    d1 = d_t1[0] + d_z1[1]  # indexed by nu
    d2 = d_t2[:, 0] + d_z2[:, 1]  # indexed by mu
    return d1, d2


def coincidence_flux(s, t, z, side: int) -> np.ndarray:
    """Net flux j^{01} - j^{10} carried by the one-sided trace at (t, z).

    Vanishes for every trace satisfying the modulus-preserving jump
    condition |psi2| = |psi3|; a nonzero value certifies probability
    leaking through the coincidence set.
    """
    tr = boundary_trace_fields(s, t, z, side)
    return levi_civita_contraction(tensor_current(tr.values))
