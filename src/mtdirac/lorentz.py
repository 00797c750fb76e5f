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
from .geometry import sample_spacelike, spacelike_margin
from .scenario import Phase, Scenario
from .solver import boundary_trace_fields, evaluate_fields, field_residual
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
    phase = s.phase.theta1 if side == 1 else s.phase.theta2
    sign = manifest_sign(phase)
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

    def theta(self, side: int) -> Phase:
        base_phase = self.base.phase.theta1 if side == 1 else self.base.phase.theta2
        inv = self.boost.inverse()

        def fn(t, z):
            it, iz = inv.point(t, z)
            return base_phase(it, iz)

        return Phase("custom", fn=fn)

    def trace_values(self, t, z, side: int) -> np.ndarray:
        """One-sided coincidence limits of the transformed solution.

        An orthochronous boost maps the coincidence set to itself and
        preserves the spatial order of the one-sided limits, so the trace
        is the boosted trace of the base solution.
        """
        inv = self.boost.inverse()
        it, iz = inv.point(t, z)
        tr = boundary_trace_fields(self.base, it, iz, side)
        return np.einsum("ij,j...->i...", pair_factor(self.boost), tr.values)

    def bc_defect(self, t, z, side: int) -> np.ndarray:
        values = self.trace_values(t, z, side)
        theta = self.theta(side)
        t = np.asarray(t, dtype=float)
        z = np.asarray(z, dtype=float)
        return values[1] - np.exp(-1j * theta(t, z)) * values[2]


@dataclass(frozen=True)
class CovarianceReport:
    pde_max: float
    bc_max: float
    samples: int


# the stencil step of covariance_report's residual probe, and the width by
# which its sampling windows extend the support hull
COVARIANCE_STEP = 1e-4
COVARIANCE_SPAN = 6.0


def covariance_report(
    s: Scenario, b: Boost, samples: int = 200, seed: int = 0
) -> CovarianceReport:
    """Residuals of the transformed solution against the transformed system.

    Interior points are sampled where the field can actually be nonzero:
    drawn in the source frame over the evolving support, then mapped through
    the boost so the probes land on live field in the boosted frame.  Points
    whose boosted image lacks stencil room are redrawn.  Coincidence points
    for the jump condition are sampled on the boosted image of the data
    window.
    """
    hull = s.initial.support_hull() or (-1.0, 1.0)
    t_half = 0.5 * (hull[1] - hull[0]) + COVARIANCE_SPAN / 6.0
    rng = np.random.default_rng(seed)
    trans = TransformedSolution(s, b)
    kept = []
    attempts = 0
    while len(kept) < samples and attempts < 50 * samples:
        attempts += 1
        st1, sz1, st2, sz2 = sample_spacelike(
            rng, 1, (-t_half, t_half), (hull[0] - 1.0, hull[1] + 1.0)
        )
        c = (*b.point(st1[0], sz1[0]), *b.point(st2[0], sz2[0]))
        if spacelike_margin(*c) <= 4.0 * COVARIANCE_STEP:
            continue
        kept.append(c)
    points = np.reshape(kept, (-1, 4)).T
    r = field_residual(trans.evaluate_fields, *points, COVARIANCE_STEP)
    pde_max = float(np.max(np.abs(r), initial=0.0))  # a NaN residual stays NaN
    scale = float(np.exp(abs(b.beta)))
    halfwidth = scale * (max(abs(hull[0]), abs(hull[1])) + COVARIANCE_SPAN / 2.0)
    tt = rng.uniform(-halfwidth, halfwidth, samples)
    zz = rng.uniform(-halfwidth, halfwidth, samples)
    bc_max = 0.0
    for side in (1, 2):
        bc_max = max(bc_max, float(np.max(np.abs(trans.bc_defect(tt, zz, side)))))
    return CovarianceReport(pde_max=pde_max, bc_max=bc_max, samples=len(kept))


def current_covariance_defect(s: Scenario, b: Boost, t1, z1, t2, z2) -> float:
    """Max difference between the current of the transformed solution and the
    tensor transform Lambda Lambda j(L^-1 c) of the original current."""
    trans = TransformedSolution(s, b)
    j_prime = tensor_current(trans.evaluate_fields(t1, z1, t2, z2)).as_matrix()
    inv = b.inverse()
    it1, iz1 = inv.point(t1, z1)
    it2, iz2 = inv.point(t2, z2)
    j_base = tensor_current(evaluate_fields(s, it1, iz1, it2, iz2)).as_matrix()
    lam = b.matrix
    pushed = np.einsum("mr,ns,rs...->mn...", lam, lam, j_base)
    return float(np.max(np.abs(j_prime - pushed)))
