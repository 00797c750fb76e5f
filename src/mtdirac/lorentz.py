"""Boost covariance of solutions, currents and the jump condition.

A boost of rapidity beta acts on spacetime points by

    t' = t cosh(beta) + z sinh(beta),  z' = t sinh(beta) + z cosh(beta)

and on each particle's spinor slot by the exact exponential of the boost
generator S01 = [gamma^0, gamma^1]/4 = sigma3/2:

    S_k = exp(beta S01_k),

diagonal in our basis with entries exp(+-beta/2).  The product S1 S2 =
diag(e^beta, 1, 1, e^-beta) leaves the middle components untouched, which
is why the coincidence jump condition keeps its form with the scalar-
transported phase theta' = theta o inverse-boost.

A transformed solution psi'(x1, x2) = S1 S2 psi(L^-1 x1, L^-1 x2) is again
a solution; the probe here verifies that numerically rather than assume it.
The jump condition's boost and manifest form are identities on 4x4 matrices
(solver.bc_defect alone reads traces).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .current import tensor_current
from .geometry import spacelike_margin
from .scenario import Phase, Scenario
from .solver import evaluate_fields, field_residual, jump_residual
from .spin import chiral_pair_projector, epsilon_gamma_pair, gamma


@dataclass(frozen=True)
class Boost:
    beta: float

    @property
    def matrix(self) -> np.ndarray:
        ch = np.cosh(self.beta)
        sh = np.sinh(self.beta)
        return np.array([[ch, sh], [sh, ch]])

    def inverse(self) -> "Boost":
        return Boost(-self.beta)

    def point(self, t, z) -> tuple[np.ndarray, np.ndarray]:
        t = np.asarray(t, dtype=float)
        z = np.asarray(z, dtype=float)
        ch = np.cosh(self.beta)
        sh = np.sinh(self.beta)
        return t * ch + z * sh, t * sh + z * ch


def generator(particle: int) -> np.ndarray:
    """Boost generator [gamma^0, gamma^1]/4 in one slot; diagonal sigma3/2."""
    g0 = gamma(0, particle)
    g1 = gamma(1, particle)
    return 0.25 * (g0 @ g1 - g1 @ g0)


def spinor_factor(b: Boost, particle: int) -> np.ndarray:
    """exp(beta * generator), computed exactly on the diagonal."""
    return np.diag(np.exp(b.beta * np.diag(generator(particle))))


def pair_factor(b: Boost) -> np.ndarray:
    """S1 S2 = diag(e^beta, 1, 1, e^-beta)."""
    return spinor_factor(b, 1) @ spinor_factor(b, 2)


def commutation_defect(b: Boost) -> float:
    """Max norm of gamma^mu S - S Lambda^mu_nu gamma^nu over mu and particles."""
    lam = b.matrix
    worst = 0.0
    for particle in (1, 2):
        s = spinor_factor(b, particle)
        for mu in range(2):
            lhs = gamma(mu, particle) @ s
            rhs = s @ (lam[mu, 0] * gamma(0, particle) + lam[mu, 1] * gamma(1, particle))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def manifest_sign(phase: Phase) -> int | None:
    """Sign s in the manifest condition eps_{mu nu} gamma1^mu gamma2^nu psi
    = s * i * (Id + gamma1^5 gamma2^5) psi; None if the phase has none.

    The jump factor exp(-i theta) = +i (the constant theta = -pi/2, preset
    plus_i) corresponds to s = -1 and exp(-i theta) = -i (theta = +pi/2,
    minus_i) to s = +1; no other phase has this form.
    """
    return {-0.5 * math.pi: -1, 0.5 * math.pi: +1}.get(phase.value) if phase.fn is None else None


def manifest_defect(phase: Phase) -> float:
    """max |(M - s i P) - w (x) r| with M = epsilon_gamma_pair(), P =
    chiral_pair_projector(), s = manifest_sign(phase), w = (0, -2 s i, -2, 0)
    and r = (0, 1, -exp(-i theta), 0), the functional jump_residual applies.

    At zero the manifest residual of every spinor is w times its jump
    residual: on any trace the two forms hold together.
    """
    sign = manifest_sign(phase)
    if sign is None:
        raise ValueError("manifest form needs a constant phase of -pi/2 or +pi/2")
    r = jump_residual(phase, 0.0, 0.0, np.eye(4, dtype=complex))
    w = np.array([0.0, -2j * sign, -2.0, 0.0])
    lhs = epsilon_gamma_pair() - sign * 1j * chiral_pair_projector()
    return float(np.max(np.abs(lhs - np.outer(w, r))))


def transformed_fields(s: Scenario, b: Boost, t1, z1, t2, z2) -> np.ndarray:
    """psi'(x1, x2) = S1 S2 psi(L^-1 x1, L^-1 x2), the boosted solution."""
    inv = b.inverse()
    psi = evaluate_fields(s, *inv.point(t1, z1), *inv.point(t2, z2))
    return np.einsum("ij,j...->i...", pair_factor(b), psi)


@dataclass(frozen=True)
class CovarianceReport:
    pde_max: float
    samples: int


COVARIANCE_STEP = 1e-4  # the stencil step of covariance_report's residual probe


def covariance_report(s: Scenario, b: Boost, configurations) -> CovarianceReport:
    """Residuals of the transformed solution against the transformed system.

    configurations (t1, z1, t2, z2) are the caller's source-frame points,
    mapped through the boost, so the probe lands on the boosted image of
    wherever the caller sampled the field.  Configurations whose image lacks
    stencil room are dropped; samples counts those kept.
    """
    t1, z1, t2, z2 = configurations
    c = np.array([*b.point(t1, z1), *b.point(t2, z2)])
    c = c[:, spacelike_margin(*c) > 4.0 * COVARIANCE_STEP]
    r = field_residual(partial(transformed_fields, s, b), *c, COVARIANCE_STEP)
    pde_max = float(np.max(np.abs(r), initial=0.0))  # a NaN residual stays NaN
    return CovarianceReport(pde_max=pde_max, samples=c.shape[1])


def jump_covariance_defect(b: Boost) -> float:
    """Max distance of the psi2 and psi3 rows of S1 S2 from c times the
    identity's, c = (S1 S2)_22.

    An orthochronous boost keeps the coincidence set and the side of each
    one-sided limit, and theta' = theta o L^-1, so at zero the jump residual
    of S1 S2 psi at (t, z) is c times that of psi at L^-1 (t, z), for every
    spinor and phase.
    """
    rows = pair_factor(b)[1:3]  # psi2', psi3' in terms of psi1..psi4
    return float(np.max(np.abs(rows - rows[0, 1] * np.eye(4)[1:3])))


def current_covariance_defect(b: Boost) -> float:
    """Max difference between the current of S1 S2 psi and the tensor
    transform Lambda Lambda j(psi), over the four basis spinors.

    S1 S2 is diagonal and j is linear in the |psi_i|^2, so both sides are
    the same combination of their basis-spinor values for every psi: the
    identity on the basis is the identity on every spinor, live field or not.
    """
    basis = np.eye(4, dtype=complex)  # column k is the basis spinor e_k
    j_prime = tensor_current(pair_factor(b) @ basis).as_matrix()
    lam = b.matrix
    pushed = np.einsum("mr,ns,rs...->mn...", lam, lam, tensor_current(basis).as_matrix())
    return float(np.max(np.abs(j_prime - pushed)))
