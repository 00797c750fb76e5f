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
and on the collapsed triangles.  The off-diagonal panel blocks pair the N
axis nodes; surf.f and surf.fprime are evaluated on those N nodes only.

Off the diagonal panels the method of characteristics makes the integral
separable.  psi_i is constant along one null coordinate of each particle,
so for factored data each branch has |psi_i|^2 = c a(x) b(y), x read at the
particle-1 node and y at the particle-2 node (solver._branch_factors), and
its term of F is a product A_i B_j of one number per node of each axis.
The pairs of half 1 are the nodes of the later panels and those of half 2
the earlier ones; on psi2/psi3 the seam x < y (x > y on half 2) is a
staircase that a binary search in the sorted y finds.  So each row sums B
over one index interval of a prefix or suffix sum: O(N log N) for the
whole block instead of N^2 pairs (_moment_terms).  Branches share
profiles (a boundary branch carries its partner's, a mirrored datum its
source's), and each profile is read once per null coordinate.  This needs a
certificate, checked exactly on the stored axis floats (_certified): both
null coordinates z -+ f(z) strictly increase over the nodes, with a margin
that makes every off-diagonal pair space-like as computed.  Branches that
do not factor (data given by a function, function phases, overridden
boundary maps), and every branch where the certificate fails, are reduced
on the whole N x N grid of node pairs, which counts excluded pairs.

Truncation is lossless.  Data vanish exactly outside the open supports of
their profiles, and the two null coordinates z -+ f(z) of a graph point
are strictly increasing in z, so inverting them at the support hull
endpoints yields a box outside which the integrand is exactly zero; the
moments of nodes outside it are exact zeros.  One reducer (_add_densities)
turns field values into densities, on the grid and on the flat point lists
of the diagonal triangles alike.  It evaluates a factored branch only at
the pairs whose null pair lies in its solver.branch_support box: elsewhere
|psi|^2 is +0, and so is its term, the Jacobians 1 +- f' being positive.
So the pruned pairs change no bit of any sum, and neither the excluded
pairs nor the node count.  All parts (grid blocks, triangle panels
and moment rows) are accumulated per component with math.fsum, so the
result is independent of chunking and thread count (the grid is split by
row blocks, one thread per usable CPU from THREAD_ROWS rows each; the
triangles are one call each).  The moments change the summation order of
the off-diagonal terms, not their set: they differ from the grid by
rounding of the prefix sums, at most ~2 N u (sum A)(sum B) per branch.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import region_masks
from .profiles import gauss_panels, unit_bump
from .scenario import BRANCH_MAPS, BRANCHES, NULL_SIGNS, Scenario
from .solver import _branch_factors, _branch_values

MAX_SLOPE = 1.0 - 1e-6
GAUSS_ORDER = 8
# the rule on [0, 1], for the collapsed triangles of the diagonal panels
_UNIT_RULE = tuple(a[0] for a in gauss_panels(np.array([0.0, 1.0]), GAUSS_ORDER))


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

    def shape(z, prime=False):
        u = (np.asarray(z, dtype=float) - center) / half
        out = np.zeros_like(u)
        inner, v = unit_bump(u)
        if prime:  # d/dz exp(1 - 1/d) = exp(1 - 1/d) (-2 u / d^2) / half, d = 1 - u^2
            ui = u[inner]
            d = 1.0 - ui * ui
            v = v * (-2.0 * ui / (d * d)) / half
        out[inner] = v
        return out

    # |d/du exp(1 - 1/d)| = exp(1 - 1/d) 2|u| / d^2, d = 1 - u^2, peaks where its
    # log-derivative vanishes: 1 - 3 u^4 = 0.  The factor 1 + 1e-12 covers rounding.
    u2 = 1.0 / math.sqrt(3.0)
    d = 1.0 - u2
    peak = math.exp(1.0 - 1.0 / d) * 2.0 * math.sqrt(u2) / (d * d)
    return Hypersurface(
        f=lambda z: height * shape(z),
        fprime=lambda z: height * shape(z, prime=True),
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


def _invert_increasing(u: Callable, target: list[float]) -> list[float]:
    """Solve u(z) = target entrywise for strictly increasing maps by bisection.

    u maps an array of z to one value per entry of target.  Each entry has
    its own bracket, grown from [-1, 1] by doubling steps, and its own stop
    (a bracket within 1e-13 relative, or 200 halvings); all entries share
    one call of u per step.  The brackets are Python floats: for a handful
    of entries that is cheaper than a numpy call per update.
    """
    lo, hi = [-1.0] * len(target), [1.0] * len(target)
    for end, step, outside in ((lo, -1.0, operator.gt), (hi, 1.0, operator.lt)):
        span = [1.0] * len(target)
        while out := [
            k for k, v in enumerate(u(np.array(end)).tolist()) if outside(v, target[k])
        ]:
            for k in out:
                end[k] += step * span[k]
                span[k] *= 2.0
    mid = [0.5 * (a + b) for a, b in zip(lo, hi)]
    live = set(range(len(target)))
    for _ in range(200):
        for k, v in enumerate(u(np.array(mid)).tolist()):
            if k in live:
                if v < target[k]:
                    lo[k] = mid[k]
                else:
                    hi[k] = mid[k]
                if hi[k] - lo[k] <= 1e-13 * max(1.0, abs(lo[k]), abs(hi[k])):
                    live.discard(k)
                mid[k] = 0.5 * (lo[k] + hi[k])
        if not live:
            break
    return mid


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
    # the pairs (z - f(z), hull lo), (z + f(z), hull lo), then both at hull hi
    sign = np.array([-1.0, 1.0, -1.0, 1.0])
    ends = _invert_increasing(lambda z: z + sign * surf.f(z), [hull[0]] * 2 + [hull[1]] * 2)
    lo, hi = min(ends[:2]), max(ends[2:])
    pad = 1e-9 * max(1.0, abs(lo), abs(hi))
    return (lo - pad, hi + pad)


# node-grid rows per thread: on 2 CPUs two threads beat one in 10 of 10
# alternating rounds at 224 and 256 rows each (56 and 64 panels), in 8 of 10
# at 192, 5 of 10 at 160 and 3 of 10 at 96
THREAD_ROWS = 256


def worker_count() -> int:
    """Usable CPUs (os.sched_getaffinity; 1 where it does not exist)."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _threaded(evaluate, n: int) -> list:
    """evaluate(sl) over slices of range(n) rows: one per usable CPU, each of
    THREAD_ROWS rows or more."""
    workers = min(worker_count(), n // THREAD_ROWS)
    if workers <= 1:
        return [evaluate(slice(0, n))]
    bounds = np.linspace(0, n, workers + 1).astype(int)
    pieces = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    # imported only here: no bundled config reaches the pool, and the
    # module with the logging and threading it pulls in costs ~7 ms to load
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(evaluate, pieces))


def _abs2(v: np.ndarray) -> np.ndarray:
    """|v|^2 of complex values v."""
    d = np.square(v.real)
    d += np.square(v.imag)
    return d


def _density(comp: int, v: np.ndarray, fp1, fp2) -> np.ndarray:
    """The term |psi_comp|^2 (1 + s1 f'(z1)) (1 + s2 f'(z2)) of F at values v."""
    s1, s2 = NULL_SIGNS[comp]
    d = _abs2(v)
    d *= 1.0 + s1 * fp1
    d *= 1.0 + s2 * fp2
    return d


def _on_surface(surf: Hypersurface, z: np.ndarray) -> np.ndarray:
    """The rows t = f(z), z and f'(z) of the graph points over z."""
    return np.stack([surf.f(z), z, surf.fprime(z)])


def _add_densities(s: Scenario, dens, where, leg1, leg2, branches=BRANCHES) -> int:
    """Write the terms of F at the pairs where into dens; return the excluded count.

    leg1 and leg2 hold the rows t, z, f'(z) (_on_surface) of the two points
    of each pair: flat rows are a list of pairs, a column and a row a tensor
    grid.  where is a mask of the pairs, or True for all.  dens has shape
    (4,) + the shape of the pairs and holds zeros; a term is written only
    where one of the branches named in branches is evaluated, inside its
    branch_support box (the term is +0 outside it).  Excluded pairs are
    those of where that are not space-like; they stay zero.
    """
    (t1, z1, fp1), (t2, z2, fp2) = leg1, leg2
    m1, m2, bad = region_masks(t1, z1, t2, z2)
    halves = ((1, m1 & where), (2, m2 & where))
    terms = _branch_values(s, halves, t1, z1, t2, z2, branches, on_support=True)
    for comp, mask, values in terms:
        fp_at = (np.broadcast_to(f, mask.shape)[mask] for f in (fp1, fp2))
        dens[comp - 1][mask] = _density(comp, values, *fp_at)
    return int(np.count_nonzero(bad & where))


_MARGIN = 1.0 - 2.0**-40


def _certified(t: np.ndarray, z: np.ndarray) -> bool:
    """Whether the sorted axis nodes z, t = f(z), admit the moments.

    Checked in floats on the stored values: z increases in steps
    dz >= 2^-500 over a span <= 2^500, and each step of t is at most
    (1 - 2^-40) dz.  With the rounding of the check (a factor
    (1 + u)^2 / (1 - u), u = 2^-53) the exact steps obey
    |dt| <= (1 - 2^-41) dz, so by the triangle inequality every pair i < j
    has |t_j - t_i| <= (1 - 2^-41) (z_j - z_i).  geometry.region_masks
    compares the rounded differences, not their squares.  z_j - z_i lies
    in [2^-500, 2^500], a normal number, so fl(z_j - z_i) >= (1 - u)
    (z_j - z_i); and |fl(t_j - t_i)| <= (1 + u) |t_j - t_i| (a subnormal
    difference is exact).  Since (1 + u) (1 - 2^-41) < 1 - u, the rounded
    |dt| < dz: every pair of distinct nodes is space-like under
    geometry.region_masks, in half 1 exactly when i < j.  Both null
    coordinates z -+ t strictly increase, and rounding is monotone, so their
    computed values are sorted.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        dz = np.diff(z)
        return bool(
            np.all(dz >= 2.0**-500)
            and z[-1] - z[0] <= 2.0**500
            and np.all(np.abs(np.diff(t)) <= _MARGIN * dz)
        )


def _moment_terms(key, a, b, x, y, m) -> np.ndarray:
    """The off-diagonal integral of one factored branch, as N row terms A_i S_i.

    With |psi|^2 = c |pa(x)|^2 |pb(y)|^2 (solver._branch_factors), the term
    of F is A_i B_j, where a holds A_i = c w_i J1_i |pa(x_i)|^2 and b holds
    B_j = w_j J2_j |pb(y_j)|^2 on the nodes (J the null Jacobians 1 + s f';
    x and y the null coordinates of the nodes).  Row i pairs with the nodes
    of the later panels on half 1 and of the earlier ones on half 2
    (_certified makes the half the node order), and on psi2/psi3 its initial
    branch takes the y_j past x_i (initial_branch: x < y on half 1, x > y on
    half 2; a tie goes to the boundary branch), found by binary search in
    the sorted y.  S_i sums B over that index interval: a plain prefix or
    suffix sum where the interval reaches an end, else the difference of the
    prefix or the suffix sums, whichever has the smaller operands.
    """
    comp, half, initial = key
    prefix = np.concatenate(([0.0], np.cumsum(b)))  # prefix[k] = sum of b[:k]
    suffix = np.concatenate((np.cumsum(b[::-1])[::-1], [0.0]))  # sum of b[k:]
    first = np.arange(x.size) // m * m  # the first node of the row's panel
    lo, hi = (first + m, x.size) if half == 1 else (0, first)
    if (comp, half) in BRANCH_MAPS:
        k = np.searchsorted(y, x, side="right" if half == 1 else "left")
        if half == 1:
            lo, hi = (np.maximum(lo, k), hi) if initial else (lo, np.maximum(lo, k))
        else:
            lo, hi = (lo, np.minimum(hi, k)) if initial else (np.minimum(hi, k), hi)
    if np.isscalar(hi):  # the interval reaches an end of the axis
        return a * suffix[lo]
    if np.isscalar(lo):
        return a * prefix[hi]
    inner = np.where(
        prefix[hi] <= suffix[lo], prefix[hi] - prefix[lo], suffix[lo] - suffix[hi]
    )
    return a * inner


def _integrate(
    s: Scenario, surf: Hypersurface, q: QuadratureSpec
) -> tuple[np.ndarray, int, tuple[float, float] | None, int]:
    """The four per-component integrals of F over off-diagonal pairs, the
    count of excluded pairs, the box and the number of nodes.

    Off the diagonal panels each factored branch is integrated from moments
    on the N axis nodes (_moment_terms) when _certified holds; then no
    off-diagonal pair is excluded, by its proof.  The other branches, and
    all of them where the certificate fails, are reduced on the N x N grid
    of node pairs, whose excluded pairs region_masks counts.  A component
    with a non-finite term (data that read NaN or inf) raises ValueError,
    and so does a box whose panel area overflows (a time near 1e160).
    """
    box = q.box if q.box is not None else truncation_box(s, surf)
    if box is None:
        return np.zeros(4), 0, None, 0
    width = (box[1] - box[0]) / q.panels
    if not math.isfinite(width * width):  # not width**2, which raises OverflowError
        raise ValueError(
            f"the panels of box [{box[0]!r}, {box[1]!r}] on surface {surf.label} "
            "have a non-finite area; no integral"
        )
    edges = np.linspace(box[0], box[1], q.panels + 1)
    nodes, weights = gauss_panels(edges, GAUSS_ORDER)  # (panels, m)
    p, m = nodes.shape
    axis = _on_surface(surf, nodes.reshape(-1))
    n = axis.shape[1]
    pieces = [[] for _ in NULL_SIGNS]  # per component, arrays of terms to fsum

    factored = {}
    if _certified(axis[0], axis[1]):
        factored = {key: _branch_factors(s, *key) for key in BRANCHES}
    t, z, fp = axis
    w = weights.reshape(-1)
    null = {-1: z - t, 1: z + t}  # the null coordinates z + sign t of the nodes
    reads = {}  # |p(z + sign t)|^2 per (profile, sign): each is read once

    def read(profile, sign):
        key = (id(profile), sign)
        if key not in reads:
            reads[key] = _abs2(profile(null[sign]))
        return reads[key]

    for key, factors in factored.items():
        if factors is not None and factors[0] != 0.0:
            c, pa, pb = factors
            s1, s2 = NULL_SIGNS[key[0]]
            a = c * (w * (1.0 + s1 * fp)) * read(pa, s1)
            b = w * (1.0 + s2 * fp) * read(pb, s2)
            terms = _moment_terms(key, a, b, null[s1], null[s2], m)
            pieces[key[0] - 1].append(terms)

    # the other branches: one tensor grid of the axis nodes, reduced by row
    # blocks straight into vals
    grid = tuple(key for key in BRANCHES if factored.get(key) is None)
    excluded = 0
    if grid:
        panel = np.repeat(np.arange(p), m)
        vals = np.zeros((4, n, n))

        def grid_rows(rows):
            offdiag = panel[rows, None] != panel[None, :]
            column, row = axis[:, rows, None], axis[:, None, :]
            return _add_densities(s, vals[:, rows], offdiag, column, row, grid)

        excluded = sum(_threaded(grid_rows, n))
        blocks = vals.reshape(4, p, m, p, m)
        block = np.einsum("io,jp,kiojp->kij", weights, weights, blocks)
        for k in range(4):
            pieces[k].append(block[k].reshape(-1))

    # diagonal panels: two collapsed triangles each
    u, wu = _UNIT_RULE
    U = u[:, None]
    V = u[None, :]
    WUV = (wu[:, None] * wu[None, :]) * U  # collapse jacobian factor u
    a = edges[:-1]
    width = edges[1:] - edges[:-1]
    corner = a[:, None, None]
    span = width[:, None, None]
    zu = (corner + span * np.broadcast_to(U, (m, m))).reshape(-1)
    zv = (corner + span * (U * V)).reshape(-1)
    # upper triangle: z1 <= z2 (half 1); lower: z2 <= z1 (half 2)
    for z1t, z2t in ((zv, zu), (zu, zv)):
        red = np.zeros((4, z1t.size))
        on1, on2 = _on_surface(surf, z1t), _on_surface(surf, z2t)
        excluded += _add_densities(s, red, True, on1, on2)
        red = red.reshape(4, p, m, m)
        tri = np.einsum("uv,kpuv->kp", WUV, red) * (width * width)[None, :]
        for k in range(4):
            pieces[k].append(tri[k])

    totals = [math.fsum(np.concatenate(row).tolist()) for row in pieces]
    for k, total in enumerate(totals):
        if not math.isfinite(total):  # fsum carried a NaN or inf term
            bad = sum(np.count_nonzero(~np.isfinite(piece)) for piece in pieces[k])
            raise ValueError(
                f"psi{k + 1} has {bad} non-finite entries (NaN or inf) among its "
                f"quadrature terms on surface {surf.label}; no integral"
            )
    return np.array(totals), excluded, box, n * n - p * m * m + 2 * p * m * m


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
