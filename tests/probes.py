"""Identity probes and conveniences that only the test suite calls.

The acceptance lines "characteristic constancy", "spinor algebra" and
"boost covariance" check the paper's structure with these: the start point
of the characteristic through a configuration, the Clifford relations and
slot commutation of the two-particle gamma matrices, and the commutation of
the boost pair factor with the matrices of the manifest jump condition, and
that condition's residual on traces, the reference for lorentz.manifest_defect.
The tests also evaluate and boost single configurations and read the
order-0 compatibility gap through here, and the gamma-bilinear oracle of the current takes its adjoint pairing from here.
The acceptance line "interaction verdict" reads `is_interacting`: a product
initial slice whose Schmidt spectrum gains a second value under evolution.
`slice_of` makes a slice of a given matrix, for the spectrum's own tests.
"""

from dataclasses import dataclass

import numpy as np

from mtdirac.geometry import Configuration
from mtdirac.interaction import (
    SingleTimeSlice,
    default_slice_grid,
    schmidt_spectrum,
    single_time_slice,
)
from mtdirac.lorentz import Boost, manifest_sign, pair_factor
from mtdirac.scenario import (
    BRANCH_MAPS,
    NULL_SIGNS,
    coincidence_point,
    initial_branch,
    null_pair,
)
from mtdirac.solver import boundary_trace_fields, check_compatibility, evaluate_fields
from mtdirac.spin import (
    ID4,
    SIGMA1,
    SIGMA3,
    chiral_pair_projector,
    embed,
    epsilon_gamma_pair,
    gamma,
)

def evaluate(s, c: Configuration) -> np.ndarray:
    """Spinor psi(c) as a shape-(4,) complex array."""
    return evaluate_fields(s, c.t1, c.z1, c.t2, c.z2)


def compatibility_gap(s) -> float:
    """The largest order-0 gap of check_compatibility; 0.0 for zero data."""
    return max((float(m[0]) for m in check_compatibility(s).values()), default=0.0)


def boosted_config(b: Boost, c: Configuration) -> Configuration:
    """The configuration c with both points boosted by b."""
    t1, z1 = b.point(c.t1, c.z1)
    t2, z2 = b.point(c.t2, c.z2)
    return Configuration(float(t1), float(z1), float(t2), float(z2))


# gamma_1^0 gamma_2^0 = sigma1 (x) sigma1, the pairing that makes bilinears real.
ADJOINT_METRIC = np.kron(SIGMA1, SIGMA1)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
METRIC = np.array([[1.0, 0.0], [0.0, -1.0]])


def characteristic_anchor(component, t1, z1, t2, z2, region_sign):
    """Vectorized start points of the characteristic through each configuration.

    region_sign is -1 on Omega1 and +1 on Omega2 (the sign of z1 - z2).
    Returns (s_t1, s_z1, s_t2, s_z2, boundary_case).
    """
    if component not in NULL_SIGNS:
        raise ValueError("component must be in 1..4")
    half = 1 if region_sign < 0 else 2
    x, y = null_pair(component, *(np.asarray(a, dtype=float) for a in (t1, z1, t2, z2)))
    if (component, half) not in BRANCH_MAPS:
        zero = np.zeros_like(x)
        return zero, x, zero, y, np.zeros(x.shape, dtype=bool)
    boundary = ~initial_branch(half, x, y)
    ts, zs = coincidence_point(component, x, y)
    s_t = np.where(boundary, ts, 0.0)
    return s_t, np.where(boundary, zs, x), s_t, np.where(boundary, zs, y), boundary


def clifford_defect(particle):
    """Max norm of gamma^mu gamma^nu + gamma^nu gamma^mu - 2 g^{mu nu} Id."""
    worst = 0.0
    for mu in range(2):
        for nu in range(2):
            g_mu = gamma(mu, particle)
            g_nu = gamma(nu, particle)
            d = g_mu @ g_nu + g_nu @ g_mu - 2.0 * METRIC[mu, nu] * ID4
            worst = max(worst, float(np.max(np.abs(d))))
    return worst


def slot_commutator_defect():
    """Max norm of [A(x)Id, Id(x)B] over the generating sigma set; must be 0."""
    worst = 0.0
    for a in (SIGMA1, SIGMA2, SIGMA3):
        for b in (SIGMA1, SIGMA2, SIGMA3):
            c = embed(a, 1) @ embed(b, 2) - embed(b, 2) @ embed(a, 1)
            worst = max(worst, float(np.max(np.abs(c))))
    return worst


def manifest_commutant_defect(b):
    """S1 S2 must commute with the two matrices of the manifest jump condition."""
    s12 = pair_factor(b)
    worst = 0.0
    for m in (epsilon_gamma_pair(), chiral_pair_projector()):
        worst = max(worst, float(np.max(np.abs(s12 @ m - m @ s12))))
    return worst


def manifest_trace_residual(s, t, z, side):
    """eps_{mu nu} gamma1^mu gamma2^nu psi - s i (Id + gamma1^5 gamma2^5) psi
    on the one-sided traces, shape (4,) + the broadcast shape of (t, z)."""
    sign = manifest_sign(s.phase.on(side))
    if sign is None:
        raise ValueError("manifest form needs a plus_i or minus_i phase")
    tr = boundary_trace_fields(s, t, z, side)
    lhs = np.einsum("ij,j...->i...", epsilon_gamma_pair(), tr.values)
    rhs = sign * 1j * np.einsum("ij,j...->i...", chiral_pair_projector(), tr.values)
    return lhs - rhs


@dataclass(frozen=True)
class InteractionVerdict:
    interacting: bool
    witness_time: float | None
    initial_sigma2: float
    max_sigma2: float
    max_ratio: float


def is_interacting(s, times, tol=1e-8) -> InteractionVerdict:
    """Certify interaction: product initial slice, entangled later slice.

    Requires the slice at t = 0 to be a product within tol
    (sigma2 <= tol), else the criterion does not apply and a ValueError is
    raised.  The verdict is positive iff some sampled time has sigma2 > tol;
    the first such time is reported together with the largest sigma2 and
    sigma2/sigma1 encountered.  All slices share the default grid points.
    """
    times = [float(t) for t in np.atleast_1d(times)]
    z = default_slice_grid(s, [0.0, *times])
    first = schmidt_spectrum(single_time_slice(s, 0.0, z))
    if first[1] > tol:
        raise ValueError(f"initial slice is not a product state (sigma2 = {first[1]:.3e})")
    witness = None
    max_sigma2 = 0.0
    max_ratio = 0.0
    for t in times:
        sigma = schmidt_spectrum(single_time_slice(s, t, z))
        if sigma[1] > max_sigma2:
            max_sigma2 = float(sigma[1])
            max_ratio = float(sigma[1] / sigma[0])
        if witness is None and sigma[1] > tol:
            witness = t
    return InteractionVerdict(
        interacting=witness is not None,
        witness_time=witness,
        initial_sigma2=float(first[1]),
        max_sigma2=max_sigma2,
        max_ratio=max_ratio,
    )


def slice_of(matrix: np.ndarray) -> SingleTimeSlice:
    """The slice whose matrix is matrix: the block of its rows and columns
    that are not all zero, as single_time_slice keeps it."""
    rows, cols = (np.flatnonzero(matrix.any(axis=k)) for k in (1, 0))
    block = matrix[np.ix_(rows, cols)]
    return SingleTimeSlice(block=block, rows=rows, cols=cols, shape=matrix.shape)
