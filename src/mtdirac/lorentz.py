"""Boost covariance of solutions, currents and boundary conditions.

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
a solution; the probes here verify that numerically rather than assume it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .current import tensor_current
from .geometry import spacelike_margin
from .scenario import Phase, Scenario
from .solver import (
    boundary_trace_fields,
    evaluate_fields,
    field_residual,
    jump_residual,
)
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


def manifest_sign(phase: Phase) -> int:
    """Sign s in the manifest condition eps_{mu nu} gamma1^mu gamma2^nu psi
    = s * i * (Id + gamma1^5 gamma2^5) psi.

    The jump factor exp(-i theta) = +i (preset plus_i) corresponds to
    s = -1 and exp(-i theta) = -i to s = +1; expanding both sides in
    components shows the manifest sign is opposite to the jump-factor sign.
    """
    if phase.kind == "plus_i":
        return -1
    if phase.kind == "minus_i":
        return +1
    raise ValueError("manifest form needs a plus_i or minus_i phase")


def manifest_defect(s: Scenario, t, z, side: int) -> np.ndarray:
    """Residual of the manifest (matrix) form of the jump condition on a trace."""
    sign = manifest_sign(s.phase.on(side))
    tr = boundary_trace_fields(s, t, z, side)
    m = epsilon_gamma_pair()
    p = chiral_pair_projector()
    lhs = np.einsum("ij,j...->i...", m, tr.values)
    rhs = sign * 1j * np.einsum("ij,j...->i...", p, tr.values)
    return np.max(np.abs(lhs - rhs), axis=0)


@dataclass(frozen=True, eq=False)
class TransformedSolution:
    """psi'(x1, x2) = S1 S2 psi(L^-1 x1, L^-1 x2) with transported phases."""

    base: Scenario
    boost: Boost

    def evaluate_fields(self, t1, z1, t2, z2) -> np.ndarray:
        inv = self.boost.inverse()
        it1, iz1 = inv.point(t1, z1)
        it2, iz2 = inv.point(t2, z2)
        psi = evaluate_fields(self.base, it1, iz1, it2, iz2)
        return np.einsum("ij,j...->i...", pair_factor(self.boost), psi)

    def bc_defect(self, t, z, side: int) -> np.ndarray:
        """Jump-condition residual psi2' - exp(-i theta') psi3' on a trace.

        An orthochronous boost maps the coincidence set to itself and
        preserves the spatial order of the one-sided limits, so the trace is
        the boosted trace of the base solution, and the phase is transported
        as a scalar: both are read at L^-1 (t, z), theta' = theta o L^-1.
        """
        it, iz = self.boost.inverse().point(t, z)
        tr = boundary_trace_fields(self.base, it, iz, side)
        values = np.einsum("ij,j...->i...", pair_factor(self.boost), tr.values)
        return jump_residual(self.base.phase.on(side), it, iz, values)


@dataclass(frozen=True)
class CovarianceReport:
    pde_max: float
    bc_max: float
    samples: int


COVARIANCE_STEP = 1e-4  # the stencil step of covariance_report's residual probe


def covariance_report(
    s: Scenario, b: Boost, configurations, coincidences
) -> CovarianceReport:
    """Residuals of the transformed solution against the transformed system.

    configurations (t1, z1, t2, z2) and coincidences (t, z) are the caller's
    source-frame points, mapped through the boost, so the probes land on the
    boosted image of wherever the caller sampled the field.  Configurations
    whose image lacks stencil room are dropped; samples counts those kept.
    """
    t1, z1, t2, z2 = configurations
    c = np.array([*b.point(t1, z1), *b.point(t2, z2)])
    c = c[:, spacelike_margin(*c) > 4.0 * COVARIANCE_STEP]
    trans = TransformedSolution(s, b)
    r = field_residual(trans.evaluate_fields, *c, COVARIANCE_STEP)
    pde_max = float(np.max(np.abs(r), initial=0.0))  # a NaN residual stays NaN
    bt, bz = b.point(*coincidences)
    bc = [trans.bc_defect(bt, bz, side) for side in (1, 2)]
    bc_max = float(np.max(np.abs(bc), initial=0.0))
    return CovarianceReport(pde_max=pde_max, bc_max=bc_max, samples=c.shape[1])


def current_covariance_defect(s: Scenario, b: Boost, t1, z1, t2, z2) -> float:
    """Max difference between the current of the transformed solution and the
    tensor transform Lambda Lambda j(L^-1 c) of the original current."""
    inv = b.inverse()
    it1, iz1 = inv.point(t1, z1)
    it2, iz2 = inv.point(t2, z2)
    psi = evaluate_fields(s, it1, iz1, it2, iz2)
    moved = np.einsum("ij,j...->i...", pair_factor(b), psi)
    j_prime = tensor_current(moved).as_matrix()
    j_base = tensor_current(psi).as_matrix()
    lam = b.matrix
    pushed = np.einsum("mr,ns,rs...->mn...", lam, lam, j_base)
    return float(np.max(np.abs(j_prime - pushed)))
