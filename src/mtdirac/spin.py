"""Spinor algebra for two massless Dirac particles in 1+1 dimensions.

Conventions
-----------
Single-particle spinor space is C^2 with basis (e1, e2).  The two-particle
space is C^2 (x) C^2 with the ordered product basis

    B = (e1(x)e1, e1(x)e2, e2(x)e1, e2(x)e2),

so a spinor array psi[0..3] = (psi1, psi2, psi3, psi4) carries the
spin-index dictionary

    psi1 = psi^{-1,-1},  psi2 = psi^{-1,+1},  psi3 = psi^{+1,-1},
    psi4 = psi^{+1,+1}.

Gamma matrices (metric g = diag(1, -1)):

    gamma^0 = sigma1,  gamma^1 = sigma1 sigma3,

acting on particle k through the slot embeddings A -> A(x)Id and
A -> Id(x)A.  All 4x4 operators below are plain complex ndarrays in the
basis B; nothing in this module ever reorders that basis.
"""

from __future__ import annotations

import numpy as np

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)

GAMMA0 = SIGMA1
GAMMA1 = SIGMA1 @ SIGMA3


def embed(op: np.ndarray, particle: int) -> np.ndarray:
    """Lift a 2x2 single-particle operator into the tensor slot of one particle."""
    if particle == 1:
        return np.kron(op, ID2)
    if particle == 2:
        return np.kron(ID2, op)
    raise ValueError("particle must be 1 or 2")


def gamma(mu: int, particle: int) -> np.ndarray:
    """gamma^mu acting on the given particle, mu in {0, 1}."""
    if mu == 0:
        return embed(GAMMA0, particle)
    if mu == 1:
        return embed(GAMMA1, particle)
    raise ValueError("mu must be 0 or 1")


def gamma5(particle: int) -> np.ndarray:
    """Chirality operator i*gamma^0*gamma^1 of one particle; equals i*sigma3 in its slot."""
    return embed(1j * GAMMA0 @ GAMMA1, particle)


EXCHANGE_INDEX = np.array([0, 2, 1, 3])


def exchange(psi: np.ndarray) -> np.ndarray:
    """Swap the two tensor slots: psi^{s1 s2} -> psi^{s2 s1} (components 2 and 3)."""
    psi = np.asarray(psi)
    return psi[EXCHANGE_INDEX]


def epsilon_gamma_pair() -> np.ndarray:
    """The contraction eps_{mu nu} gamma_1^mu gamma_2^nu with eps_{01} = +1."""
    return gamma(0, 1) @ gamma(1, 2) - gamma(1, 1) @ gamma(0, 2)


def chiral_pair_projector() -> np.ndarray:
    """Id + gamma_1^5 gamma_2^5; annihilates psi1/psi4, doubles psi2/psi3."""
    return ID4 + gamma5(1) @ gamma5(2)
