"""Normalization integrals over space-like hypersurface pairs.

The conserved quantity is the integral of the current two-form over the
set of pairs (x1, x2) of points on a common space-like graph hypersurface
t = f(z), |f'| < 1.  Pulled back to the (z1, z2) parameter plane it reads

    F(z1, z2) = j00 - j01 f'(z2) - j10 f'(z1) + j11 f'(z1) f'(z2)
              = sum_i |psi_i|^2 (1 + s1_i f'(z1)) (1 + s2_i f'(z2))

with (s1_i, s2_i) = scenario.NULL_SIGNS[i]: 1 + s f'(z) is d/dz of the null
coordinate z + s f(z), so each |psi_i|^2 is weighted by the Jacobian of the
two null coordinates it is constant along.  Each term is integrated over
z1 != z2 and the four totals are summed.  F is smooth on each half
z1 < z2 and z1 > z2 of a compliant scenario but generally jumps across the
diagonal, so panels are never allowed to straddle it: diagonal panels are
split into two triangles, each mapped to a square by a collapsing (Duffy)
transform whose nodes stay strictly off the diagonal.

Every panel uses Gauss-Legendre nodes of order GAUSS_ORDER, on each axis
and on the collapsed triangles.  The off-diagonal panel blocks are one
tensor grid of the axis nodes: surf.f and surf.fprime are evaluated on
those N nodes and the region masks on the N x N pairs.  One reducer
(_add_densities) turns field values into densities, on that grid and on
the flat point lists of the triangles alike: psi is evaluated per
(component, half, branch) (solver._branch_values), on the grid on one
index rectangle only, and each value is written as its density into a
zeroed array; every other density stays +0.

Truncation is lossless.  Data vanish exactly outside the open supports of
their profiles, and the two null coordinates z -+ f(z) of a graph point
are strictly increasing in z, so inverting them at the support hull
endpoints yields a box outside which the integrand is exactly zero.  Inside
it, a factored initial branch px(a) py(b) is nonzero only on the rows and
columns whose axis null coordinates pass each profile's own test
lo < a < hi.  The boundary branch of psi2/psi3 reads the partner datum at
z* -+ t*, z* +- t*, which is (y, x) in exact arithmetic and within one ulp
of the largest null coordinate of the grid after rounding (the proof is in
solver._branch_rectangle): it lives on the partner's rectangle,
transposed and widened by that ulp.  Data given by a function, custom
phases and overridden boundary maps get the whole grid.  A density is
|psi_i|^2 times positive Jacobians, so a signed zero squares to +0 and the
densities outside the rectangles are +0 on the full grid too: the totals
are the same bits.  Panel contributions are accumulated with math.fsum, so
the result is independent of chunking and thread count (MTDIRAC_THREADS
splits the grid by row blocks and the triangles by point ranges).
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import region_masks
from .scenario import NULL_SIGNS, Scenario
from .solver import _branch_values

MAX_SLOPE = 1.0 - 1e-6
GAUSS_ORDER = 8
_GAUSS = np.polynomial.legendre.leggauss(GAUSS_ORDER)


@dataclass(frozen=True, eq=False)
class Hypersurface:
    """Space-like graph t = f(z) with uniformly bounded slope.

    s_max is an upper bound for |f'|; construction fails if it exceeds
    1 - 1e-6.  The bound is what makes every off-diagonal pair of surface
    points space-like: |f(z1) - f(z2)| <= s_max |z1 - z2| < |z1 - z2|.
    """

    f: Callable[[np.ndarray], np.ndarray]
    fprime: Callable[[np.ndarray], np.ndarray]
    s_max: float
    label: str = "custom"

    def __post_init__(self) -> None:
        if not 0.0 <= self.s_max <= MAX_SLOPE:
            raise ValueError(
                f"slope bound {self.s_max} outside [0, {MAX_SLOPE}]; surface too steep"
            )


def flat(t0: float) -> Hypersurface:
    t0 = float(t0)
    return Hypersurface(
        f=lambda z: np.full_like(np.asarray(z, dtype=float), t0),
        fprime=lambda z: np.zeros_like(np.asarray(z, dtype=float)),
        s_max=0.0,
        label="flat",
    )


def boosted_flat(beta: float, t0: float = 0.0) -> Hypersurface:
    """Image of the flat surface t = t0 under a boost of rapidity beta."""
    beta = float(beta)
    t0 = float(t0)
    slope = math.tanh(beta)
    offset = t0 / math.cosh(beta)
    return Hypersurface(
        f=lambda z: offset + slope * np.asarray(z, dtype=float),
        fprime=lambda z: np.full_like(np.asarray(z, dtype=float), slope),
        s_max=abs(slope),
        label="boosted_flat",
    )


def bump_surface(center: float, height: float, width: float) -> Hypersurface:
    """Flat surface with a smooth compactly supported bump of given height."""
    center = float(center)
    height = float(height)
    width = float(width)
    if width <= 0:
        raise ValueError("width must be positive")
    half = 0.5 * width

    def shape(z):
        u = (np.asarray(z, dtype=float) - center) / half
        out = np.zeros_like(u)
        inner = np.abs(u) < 1.0
        ui = u[inner]
        out[inner] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
        return out

    def shape_prime(z):
        u = (np.asarray(z, dtype=float) - center) / half
        out = np.zeros_like(u)
        inner = np.abs(u) < 1.0
        ui = u[inner]
        d = 1.0 - ui * ui
        out[inner] = np.exp(1.0 - 1.0 / d) * (-2.0 * ui / (d * d)) / half
        return out

    # |d/du exp(1 - 1/d)| = exp(1 - 1/d) 2|u| / d^2, d = 1 - u^2, peaks where its
    # log-derivative vanishes: 1 - 3 u^4 = 0.  The factor 1 + 1e-12 covers rounding.
    u2 = 1.0 / math.sqrt(3.0)
    d = 1.0 - u2
    peak = math.exp(1.0 - 1.0 / d) * 2.0 * math.sqrt(u2) / (d * d)
    return Hypersurface(
        f=lambda z: height * shape(z),
        fprime=lambda z: height * shape_prime(z),
        s_max=abs(height) / half * peak * (1.0 + 1e-12),
        label="bump",
    )


@dataclass(frozen=True)
class QuadratureSpec:
    """Panelized product quadrature on the truncation box.

    Each of the panels per axis carries GAUSS_ORDER Gauss-Legendre nodes;
    the diagonal panels are split into two triangles under the collapsing
    map.  box overrides the automatic support truncation; it must be finite
    with lo < hi.
    """

    panels: int = 64
    box: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.panels < 1:
            raise ValueError("need panels >= 1")
        if self.box is not None:
            lo, hi = self.box
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                msg = f"quadrature box {self.box} must be finite with lo < hi"
                raise ValueError(msg)

    def doubled(self) -> "QuadratureSpec":
        return QuadratureSpec(2 * self.panels, self.box)


def _invert_increasing(u: Callable, target: float) -> float:
    """Solve u(z) = target for a strictly increasing scalar map by bisection."""
    lo, hi = -1.0, 1.0
    span = 1.0
    while u(lo) > target:
        lo -= span
        span *= 2.0
    span = 1.0
    while u(hi) < target:
        hi += span
        span *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if u(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, abs(lo), abs(hi)):
            break
    return 0.5 * (lo + hi)


def truncation_box(s: Scenario, surf: Hypersurface) -> tuple[float, float] | None:
    """Interval of z outside which the integrand vanishes exactly.

    A surface point contributes only if one of its null coordinates
    z - f(z) or z + f(z) lands in the support hull of the data; both maps
    are strictly increasing, so inverting them at the hull endpoints bounds
    the contributing window.  None means the data are identically zero.
    """
    hull = s.initial.support_hull()
    if hull is None:
        return None

    def u_minus(z: float) -> float:
        return z - float(surf.f(np.asarray(z)))

    def u_plus(z: float) -> float:
        return z + float(surf.f(np.asarray(z)))

    lo = min(_invert_increasing(u_minus, hull[0]), _invert_increasing(u_plus, hull[0]))
    hi = max(_invert_increasing(u_minus, hull[1]), _invert_increasing(u_plus, hull[1]))
    pad = 1e-9 * max(1.0, abs(lo), abs(hi))
    return (lo - pad, hi + pad)


def worker_count() -> int:
    """Thread cap from MTDIRAC_THREADS (default 1); results never depend on it."""
    raw = os.environ.get("MTDIRAC_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n >= 1:
        return n
    msg = f"MTDIRAC_THREADS={raw!r} is not a positive integer; using 1 thread"
    warnings.warn(msg, RuntimeWarning, stacklevel=2)
    return 1


def _axis_nodes(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-panel Gauss nodes and weights, shapes (panels, GAUSS_ORDER)."""
    a = edges[:-1, None]
    b = edges[1:, None]
    x, w = _GAUSS
    return 0.5 * (a + b) + 0.5 * (b - a) * x[None, :], 0.5 * (b - a) * w[None, :]


def _threaded(evaluate, n: int, points: int) -> list:
    """evaluate(sl) over slices of range(n); threaded from 4096 points to evaluate."""
    workers = worker_count()
    if workers == 1 or points < 4096:
        return [evaluate(slice(0, n))]
    bounds = np.linspace(0, n, workers + 1).astype(int)
    pieces = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(evaluate, pieces))


def _density(comp: int, v: np.ndarray, fp1, fp2) -> np.ndarray:
    """The term |psi_comp|^2 (1 + s1 f'(z1)) (1 + s2 f'(z2)) of F at values v."""
    s1, s2 = NULL_SIGNS[comp]
    d = np.square(v.real)
    d += np.square(v.imag)
    d *= 1.0 + s1 * fp1
    d *= 1.0 + s2 * fp2
    return d


def _component_densities(psi: np.ndarray, fp1, fp2) -> np.ndarray:
    """The four terms of F at field values psi of shape (4, ...), psi1..psi4."""
    return np.stack([_density(comp, v, fp1, fp2) for comp, v in zip(NULL_SIGNS, psi)])


def _on_surface(surf: Hypersurface, z: np.ndarray) -> np.ndarray:
    """The rows t = f(z), z and f'(z) of the graph points over z."""
    return np.stack([surf.f(z), z, surf.fprime(z)])


def _add_densities(s: Scenario, dens, where, leg1, leg2, rectangles=False) -> int:
    """Write the terms of F at the pairs where into dens; return the excluded count.

    leg1 and leg2 hold the rows t, z, f'(z) (_on_surface) of the two points
    of each pair: flat rows are a list of pairs, a column and a row a tensor
    grid, on which rectangles evaluates each branch on its support rectangle
    only.  where is a mask of the pairs, or True for all.  dens has shape
    (4,) + the shape of the pairs and holds zeros; a term is written only
    where its branch is evaluated.  Excluded pairs are those of where that
    are not space-like; they stay zero.
    """
    (t1, z1, fp1), (t2, z2, fp2) = leg1, leg2
    m1, m2, bad = region_masks(t1, z1, t2, z2)
    halves = ((1, m1 & where), (2, m2 & where))
    for comp, win, mask, values in _branch_values(s, halves, t1, z1, t2, z2, rectangles):
        f1, f2 = (fp1[win[0]], fp2[:, win[1]]) if win else (fp1, fp2)
        fp_at = (np.broadcast_to(f, mask.shape)[mask] for f in (f1, f2))
        dens[comp - 1][win][mask] = _density(comp, values, *fp_at)
    return int(np.count_nonzero(bad & where))


def _integrate(
    s: Scenario, surf: Hypersurface, q: QuadratureSpec
) -> tuple[np.ndarray, int, tuple[float, float] | None, int]:
    """The four per-component integrals of F over off-diagonal pairs, the
    count of excluded pairs (zero by the slope bound), the box and the
    number of nodes."""
    box = q.box if q.box is not None else truncation_box(s, surf)
    if box is None:
        return np.zeros(4), 0, None, 0
    edges = np.linspace(box[0], box[1], q.panels + 1)
    nodes, weights = _axis_nodes(edges)  # (panels, m)
    p, m = nodes.shape

    # off-diagonal panel blocks: one tensor grid of the axis nodes, reduced
    # by row blocks straight into vals
    axis = _on_surface(surf, nodes.reshape(-1))
    n = axis.shape[1]
    panel = np.repeat(np.arange(p), m)
    vals = np.zeros((4, n, n))

    def grid_rows(rows):
        offdiag = panel[rows, None] != panel[None, :]
        column, row = axis[:, rows, None], axis[:, None, :]
        return _add_densities(s, vals[:, rows], offdiag, column, row, rectangles=True)

    excluded = sum(_threaded(grid_rows, n, n * n))
    block = np.einsum("io,jp,kiojp->kij", weights, weights, vals.reshape(4, p, m, p, m))

    # diagonal panels: two collapsed triangles each
    x, w = _GAUSS
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    U = u[:, None]
    V = u[None, :]
    WUV = (wu[:, None] * wu[None, :]) * U  # collapse jacobian factor u
    a = edges[:-1]
    width = edges[1:] - edges[:-1]
    corner = a[:, None, None]
    span = width[:, None, None]
    zu = (corner + span * np.broadcast_to(U, (m, m))).reshape(-1)
    zv = (corner + span * (U * V)).reshape(-1)
    tri = []
    # upper triangle: z1 <= z2 (half 1); lower: z2 <= z1 (half 2)
    for z1t, z2t in ((zv, zu), (zu, zv)):
        on1, on2 = _on_surface(surf, z1t), _on_surface(surf, z2t)
        red = np.zeros((4, z1t.size))

        def triangle(sl):
            return _add_densities(s, red[:, sl], True, on1[:, sl], on2[:, sl])

        excluded += sum(_threaded(triangle, z1t.size, z1t.size))
        red = red.reshape(4, p, m, m)
        tri.append(np.einsum("uv,kpuv->kp", WUV, red) * (width * width)[None, :])

    parts = np.concatenate([block.reshape(4, -1), *tri], axis=1)
    totals = np.array([math.fsum(row) for row in parts])
    return totals, excluded, box, n * n - p * m * m + 2 * p * m * m


@dataclass(frozen=True)
class SurfaceIntegral:
    value: float
    excluded_pairs: int
    box: tuple[float, float] | None
    node_count: int


def normalization_report(
    s: Scenario, surf: Hypersurface, q: QuadratureSpec = QuadratureSpec()
) -> SurfaceIntegral:
    totals, excluded, box, nodes = _integrate(s, surf, q)
    return SurfaceIntegral(
        value=math.fsum(totals), excluded_pairs=excluded, box=box, node_count=nodes
    )


def component_masses(
    s: Scenario, t: float, q: QuadratureSpec = QuadratureSpec()
) -> np.ndarray:
    """Equal-time masses (integral of |psi_i|^2 dz1 dz2) per component at time t.

    These are the per-component totals of the normalization integral on
    the flat surface t, whose value is their math.fsum.
    """
    totals, _, _, _ = _integrate(s, flat(t), q)
    return totals


def acceptance_family() -> list[Hypersurface]:
    """The standard five-surface comparison family."""
    return [
        flat(0.0),
        flat(0.7),
        boosted_flat(0.3),
        boosted_flat(-0.5),
        bump_surface(0.0, 0.3, 5.0),
    ]
