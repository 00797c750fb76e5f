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

The off-diagonal panel blocks are one tensor grid of the axis nodes:
surf.f and surf.fprime are evaluated on those N nodes and the region masks
on the N x N pairs.  psi and its densities are evaluated per (component,
half, branch) on one index rectangle of that grid only
(solver._branch_values); every other density stays +0.  The shared panel
edges of the Simpson rule, which lie on the diagonal, take the one-sided
trace of their half.  The triangles of the diagonal panels are evaluated
point by point.

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
splits the grid by row blocks).
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
from .solver import _branch_values, boundary_trace_fields, evaluate_fields

MAX_SLOPE = 1.0 - 1e-6


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

    rule "gauss" uses Gauss-Legendre nodes of the given order per panel and
    axis; "simpson" uses the 3-node Simpson rule per panel.  Diagonal panels
    always use Gauss nodes under the triangle-collapsing map regardless of
    rule, because Simpson nodes would land exactly on the diagonal.  box
    overrides the automatic support truncation; it must be finite with
    lo < hi.
    """

    rule: str = "gauss"
    order: int = 8
    panels: int = 64
    box: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.rule not in ("gauss", "simpson"):
            raise ValueError(f"unknown rule {self.rule!r}")
        if self.order < 2 or self.panels < 1:
            raise ValueError("need order >= 2 and panels >= 1")
        if self.box is not None:
            lo, hi = self.box
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                msg = f"quadrature box {self.box} must be finite with lo < hi"
                raise ValueError(msg)

    def doubled(self) -> "QuadratureSpec":
        return QuadratureSpec(self.rule, self.order, 2 * self.panels, self.box)


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


def _axis_nodes(edges: np.ndarray, q: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-panel nodes and weights, shapes (panels, m)."""
    a = edges[:-1, None]
    b = edges[1:, None]
    if q.rule == "gauss":
        x, w = np.polynomial.legendre.leggauss(q.order)
        nodes = 0.5 * (a + b) + 0.5 * (b - a) * x[None, :]
        weights = 0.5 * (b - a) * w[None, :]
    else:
        nodes = np.concatenate([a, 0.5 * (a + b), b], axis=1)
        weights = (b - a) / 6.0 * np.array([1.0, 4.0, 1.0])[None, :]
    return nodes, weights


def _threaded(evaluate, n: int, points: int) -> list:
    """evaluate(sl) over slices of range(n); threaded from 4096 points to evaluate."""
    workers = worker_count()
    if workers == 1 or points < 4096:
        return [evaluate(slice(0, n))]
    bounds = np.linspace(0, n, workers + 1).astype(int)
    pieces = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(evaluate, pieces))


def _values_on_surface(
    s: Scenario, surf: Hypersurface, z1: np.ndarray, z2: np.ndarray
) -> tuple[np.ndarray, int]:
    """psi at graph pairs, shape (4, n), and the count of non-space-like pairs.

    Those pairs, which the slope bound rules out off the diagonal, stay zero.
    """
    t1 = surf.f(z1)
    t2 = surf.f(z2)
    m1, m2, bad = region_masks(t1, z1, t2, z2)
    ok = m1 | m2
    t1, z1, t2, z2 = (a[ok] for a in (t1, z1, t2, z2))
    parts = _threaded(
        lambda sl: evaluate_fields(s, t1[sl], z1[sl], t2[sl], z2[sl]),
        t1.size,
        t1.size,
    )
    psi = np.zeros((4, ok.size), dtype=complex)
    psi[:, ok] = np.concatenate(parts, axis=1)
    return psi, int(np.count_nonzero(bad))


def _component_densities(
    psi: np.ndarray, fp1: np.ndarray, fp2: np.ndarray, comps=(1, 2, 3, 4)
) -> np.ndarray:
    """The terms |psi_i|^2 (1 + s1_i f'(z1)) (1 + s2_i f'(z2)) of F.

    Axis 0 of psi and of the result runs over the components comps.
    """
    dens = np.empty(psi.shape)
    for d, v, comp in zip(dens, psi, comps):  # one at a time: no (4, n) temporaries
        s1, s2 = NULL_SIGNS[comp]
        np.square(v.real, out=d)
        d += np.square(v.imag)
        d *= 1.0 + s1 * fp1
        d *= 1.0 + s2 * fp2
    return dens


def _integrate(
    s: Scenario, surf: Hypersurface, q: QuadratureSpec
) -> tuple[np.ndarray, int, tuple[float, float] | None, int]:
    """Per-component integrals of _component_densities over off-diagonal pairs.

    Returns the four totals, the count of excluded (non-space-like,
    off-diagonal) pairs, which the slope bound makes provably zero, the box
    and the number of nodes.
    """
    box = q.box if q.box is not None else truncation_box(s, surf)
    if box is None:
        return np.zeros(4), 0, None, 0
    edges = np.linspace(box[0], box[1], q.panels + 1)
    nodes, weights = _axis_nodes(edges, q)  # (panels, m)
    p, m = nodes.shape

    # off-diagonal panel blocks: one tensor grid of the axis nodes, split by
    # row blocks; each branch is evaluated and reduced on its support
    # rectangle only, and every other density stays +0
    z = nodes.reshape(-1)
    t = surf.f(z)
    fp = surf.fprime(z)
    panel = np.repeat(np.arange(p), m)
    vals = np.zeros((4, z.size, z.size))

    def grid_rows(rows):
        col, row = (t[rows, None], z[rows, None]), (t[None, :], z[None, :])
        m1, m2, bad = region_masks(*col, *row)
        offdiag = panel[rows, None] != panel[None, :]
        dens = vals[:, rows]
        fp1, fp2 = fp[rows, None], fp[None, :]
        halves = ((1, m1 & offdiag), (2, m2 & offdiag))
        blocks = _branch_values(s, halves, *col, *row, rectangles=True)
        for comp, (r, c), mask, values in blocks:
            fp_at = (np.broadcast_to(f, mask.shape)[mask] for f in (fp1[r], fp2[:, c]))
            dens[comp - 1, r, c][mask] = _component_densities(
                values[None], *fp_at, (comp,)
            )[0]
        # shared edges of the Simpson rule put nodes on the diagonal: not
        # excluded pairs, they take the trace of the half their panel lies
        # in (z1 below z2: half 1)
        edge = offdiag & (z[rows, None] == z[None, :])
        i, j = np.nonzero(edge)
        for side, sel in ((1, i + rows.start < j), (2, i + rows.start > j)):
            if sel.any():
                trace = boundary_trace_fields(s, t[j[sel]], z[j[sel]], side)
                dens[:, i[sel], j[sel]] = _component_densities(
                    trace.values, fp1[i[sel], 0], fp2[0, j[sel]]
                )
        return np.count_nonzero(bad & offdiag & ~edge)

    excluded = sum(int(n) for n in _threaded(grid_rows, z.size, z.size * z.size))
    block = np.einsum("io,jp,kiojp->kij", weights, weights, vals.reshape(4, p, m, p, m))

    # diagonal panels: two collapsed triangles each, Gauss nodes only
    x, w = np.polynomial.legendre.leggauss(max(q.order, 4))
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    U = u[:, None]
    V = u[None, :]
    WUV = (wu[:, None] * wu[None, :]) * U  # collapse jacobian factor u
    a = edges[:-1]
    width = edges[1:] - edges[:-1]
    tri = []
    uu = np.broadcast_to(U, (u.size, u.size))
    for lower in (False, True):
        # lower triangle: z2 <= z1 (half 2); upper: z1 <= z2 (half 1)
        zu = a[:, None, None] + width[:, None, None] * uu[None, :, :]
        zv = a[:, None, None] + width[:, None, None] * (U * V)[None, :, :]
        z1t = (zu if lower else zv).reshape(-1)
        z2t = (zv if lower else zu).reshape(-1)
        psi_t, exc_t = _values_on_surface(s, surf, z1t, z2t)
        excluded += exc_t
        red = _component_densities(psi_t, surf.fprime(z1t), surf.fprime(z2t))
        red = red.reshape(4, p, u.size, u.size)
        tri.append(np.einsum("uv,kpuv->kp", WUV, red) * (width * width)[None, :])

    parts = np.concatenate([block.reshape(4, -1), *tri], axis=1)
    totals = np.array([math.fsum(row) for row in parts])
    return totals, excluded, box, z.size**2 - p * m * m + 2 * p * u.size * u.size


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
