"""Closed-form solution of the two-time transport system on space-like pairs.

The two evolution equations

    i d_t1 psi = -i (sigma3 (x) Id) d_z1 psi
    i d_t2 psi = -i (Id (x) sigma3) d_z2 psi

decouple componentwise into one-dimensional transport along null lines, so
psi_i is constant on the null pair (x, y) = (z1 + s1 t1, z2 + s2 t2), where
(s1, s2) is its spin label: (-,-), (-,+), (+,-), (+,+) for psi1..psi4.

On the half h the characteristics of psi1 and psi4 always reach the initial
surface t1 = t2 = 0 inside the same half, so psi1 = g1(x, y) and
psi4 = g4(x, y).  psi2 and psi3 take the initial branch g_i(x, y) where
x < y on half 1 (x > y on half 2); otherwise their characteristic hits the
coincidence set first, at t* = s1 (x - y) / 2, z* = (x + y) / 2, and the
boundary branch is the half's boundary map at (t*, z*), which carries the
partner datum in with the jump phase: on half 1 the minus map (t* <= 0)
for psi2 and the plus map (t* >= 0) for psi3, on half 2 the reverse.  The
inequality is strict: a tie (x = y, on the seam) goes to the boundary
branch, where compatible data agree anyway.  scenario.NULL_SIGNS and
scenario.BRANCH_MAPS hold this table; every evaluator here reads it there.

Everything here is evaluated from the scenario data; there is no time
stepping.  evaluate_fields takes points: array arguments broadcast, and
field values come back as an array of shape (4,) + broadcast shape,
indexed psi1..psi4.  evaluate_grid takes the points of each particle and
fills the tensor grid of their pairs.  There each null coordinate is a
vector along one axis, so a separable datum (scenario.Factors) is
evaluated on the axis points only; both read the branch table in one loop
and agree bit for bit.  On a grid that loop can also skip everything
outside the index rectangle where a branch can be nonzero; the surface
quadrature reduces the branches that way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Configuration, DomainError, region_masks, spacelike_margin
from .scenario import (
    BRANCH_MAPS,
    NULL_SIGNS,
    Component2D,
    Scenario,
    boundary_maps,
    coincidence_point,
    initial_branch,
    null_pair,
)
from .spin import SIGMA3, embed


class StencilError(ValueError):
    """A finite-difference stencil would cross a branch seam or leave the domain."""


def _index_range(inside: np.ndarray) -> slice | None:
    """The slice from the first to the last True of a 1-D mask; None if none."""
    k = np.flatnonzero(inside)
    return slice(int(k[0]), int(k[-1]) + 1) if k.size else None


_WHOLE_GRID = (slice(None), slice(None))


def _datum_rectangle(g: Component2D, a: np.ndarray, b: np.ndarray, margin: float):
    """Index ranges of the vectors a, b outside which g(a_i, b_j) is exactly 0.

    A factored datum with finite constants is zero wherever one profile
    reads a point outside its open support, so each range covers the points
    of its vector inside the support of the profile that reads it
    (Profile1D.inside when margin is 0, else the support widened by margin
    and closed).  Unfactored data give the whole grid, the zero datum None.
    """
    if g.is_zero:
        return None
    f = g.factors
    if f is None or not np.isfinite(f.pre).all():
        return _WHOLE_GRID
    pa, pb = (f.py, f.px) if f.swapped else (f.px, f.py)
    ranges = []
    for v, p in ((a, pa), (b, pb)):
        if margin == 0.0:
            inside = p.inside(v)
        else:
            inside = (v - p.lo >= -margin) & (v - p.hi <= margin)
        ranges.append(_index_range(inside))
    return None if None in ranges else tuple(ranges)


def _branch_rectangle(s: Scenario, comp: int, half: int, initial: bool, x, y):
    """Index rectangle of the grid (column x, row y) holding a branch's support.

    psi_comp on that branch of the half is exactly zero outside the rows and
    columns returned; None means it is zero on the whole grid.  The initial
    branch is the datum g(x, y) itself.  The boundary branch of psi2/psi3
    is the half's derived boundary map, which reads the partner datum (the
    other component of the half in BRANCH_MAPS) at z* -+ t*, z* +- t*: at
    (y, x) in exact arithmetic.

    Rounded, each read argument is within u = ulp(max(|x|, |y|)) of y or x.
    Of x + y and y - x at most one reaches the binade above that maximum,
    so they round by at most u and u/2, and the exact halvings leave at most
    3u/4 on z* -+ t*.  The last rounding keeps that within u: where floats
    are spaced by u/2 or less it adds at most u/4; where they are spaced by
    u, the result and y (or x), multiples of u/2 there, are at most 5u/4 and
    so at most u apart; past the top of the binade the sum rounds down to
    the power of two, within 3u/4.  So the partner's rectangle is transposed
    and its supports widened to closed intervals by U, the ulp of the
    largest null coordinate of the grid: if fl(v - lo) < -U then v < lo - U
    and the read point is below lo (likewise at hi).  U is floored at the
    ulp of 2^-1020, 2^-1072; below that, halvings round by at most 2^-1075
    each, which the floor covers.  An overridden boundary map, or a custom or
    non-finite phase, may be nonzero anywhere (NaN times a zero read is NaN):
    the whole grid.
    """
    if initial:
        return _datum_rectangle(s.initial.component(comp, half), x[:, 0], y[0], 0.0)
    theta = s.phase.theta1 if half == 1 else s.phase.theta2
    if (
        s.boundary_override is not None
        or theta.kind == "custom"
        or not np.isfinite(theta(0.0, 0.0))
    ):
        return _WHOLE_GRID
    (partner,) = (c for c, h in BRANCH_MAPS if h == half and c != comp)
    scale = max(float(np.abs(x).max()), float(np.abs(y).max()), 2.0**-1020)
    g = s.initial.component(partner, half)
    cols_rows = _datum_rectangle(g, y[0], x[:, 0], float(np.spacing(scale)))
    return None if cols_rows is None else cols_rows[::-1]


def _on_mask(mask: np.ndarray, x, y) -> tuple[np.ndarray, np.ndarray]:
    """x and y at the points mask, broadcast to the shape of mask first."""
    return tuple(np.broadcast_to(a, mask.shape)[mask] for a in (x, y))


def _branch_values(s: Scenario, halves, t1, z1, t2, z2, rectangles=False):
    """Yield (comp, win, mask, values): psi_comp on one branch of one half.

    halves holds (half, where) pairs, where masking the points of that half.
    The coordinates broadcast to the shape of the masks; flat arrays are a
    list of points, a column (t1, z1) and a row (t2, z2) a tensor grid.
    values holds psi_comp at the points mask of the window win of the
    arrays; psi is zero off every yielded mask.  win is () (the whole
    arrays), or with rectangles on a grid the (rows, columns) slices of
    _branch_rectangle, so that each branch is evaluated only where it can
    be nonzero.  On a grid a factored datum fills its initial branch from
    its profiles on the axes; every other value (unfactored data, the
    boundary branch of psi2/psi3) is evaluated pointwise on its mask.
    """
    maps = boundary_maps(s)
    for half, where in halves:
        if not where.any():
            continue
        for comp in NULL_SIGNS:
            x, y = null_pair(comp, t1, z1, t2, z2)
            g = s.initial.component(comp, half)
            seam = (comp, half) in BRANCH_MAPS
            for initial in (True, False) if seam else (True,):
                if initial and g.is_zero:
                    continue
                win = ()
                if rectangles:
                    win = _branch_rectangle(s, comp, half, initial, x, y)
                if win is None:
                    continue
                xw, yw, mask = x, y, where
                if win:
                    xw, yw, mask = x[win[0]], y[:, win[1]], where[win]
                if seam:
                    on_initial = initial_branch(half, xw, yw)
                    mask = mask & (on_initial if initial else ~on_initial)
                if not mask.any():
                    continue
                # values are yielded, not kept: no branch's arrays outlive it
                if initial and g.factors is not None and xw.shape != yw.shape:
                    yield comp, win, mask, g.factors.at(xw, yw)[mask]  # a column, a row
                elif initial:
                    yield comp, win, mask, g(*_on_mask(mask, xw, yw))
                else:
                    hmap = getattr(maps, BRANCH_MAPS[(comp, half)])
                    yield comp, win, mask, hmap(
                        *coincidence_point(comp, *_on_mask(mask, xw, yw))
                    )


def _eval_halves(s: Scenario, halves, t1, z1, t2, z2) -> np.ndarray:
    """psi on the points of each (half, where) of halves, zero elsewhere.

    The result has shape (4,) + the shape of the masks.
    """
    shape = np.broadcast_shapes(t1.shape, t2.shape)
    out = np.zeros((4,) + shape, dtype=complex)
    for comp, win, mask, values in _branch_values(s, halves, t1, z1, t2, z2):
        out[comp - 1][win][mask] = values
        del values  # not held while the next branch is evaluated
    return out


def evaluate_fields(s: Scenario, t1, z1, t2, z2) -> np.ndarray:
    """Field values at space-like configurations, shape (4,) + broadcast shape.

    Raises DomainError if any configuration is not space-like (light-like
    and time-like pairs, including coincidence points, are outside the
    domain; one-sided coincidence values come from boundary_trace_fields).
    """
    t1, z1, t2, z2 = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (t1, z1, t2, z2))
    )
    shape = t1.shape
    t1f, z1f, t2f, z2f = (a.reshape(-1) for a in (t1, z1, t2, z2))
    m1, m2, bad = region_masks(t1f, z1f, t2f, z2f)
    if bad.any():
        k = int(np.argmax(bad))
        raise DomainError(
            f"{int(bad.sum())} of {bad.size} configurations are not space-like, "
            f"first at (t1={t1f[k]}, z1={z1f[k]}, t2={t2f[k]}, z2={z2f[k]})"
        )
    out = _eval_halves(s, ((1, m1), (2, m2)), t1f, z1f, t2f, z2f)
    return out.reshape((4,) + shape)


def evaluate_grid(s: Scenario, t1, z1, t2, z2) -> tuple[np.ndarray, np.ndarray]:
    """psi on the tensor grid (t1_i, z1_i) x (t2_j, z2_j), shape (4, n1, n2).

    (t1, z1) are the n1 points of particle 1 and (t2, z2) the n2 points of
    particle 2.  Also returns the (n1, n2) mask of the entries that are not
    space-like (geometry.region_masks); psi is zero there.  The space-like
    entries equal evaluate_fields on the flattened grid bit for bit, but the
    data profiles are evaluated on the axis points, not on every pair: each
    null coordinate z + s t depends on one particle only.
    """
    t1, z1 = (np.asarray(a, dtype=float).reshape(-1, 1) for a in (t1, z1))
    t2, z2 = (np.asarray(a, dtype=float).reshape(1, -1) for a in (t2, z2))
    if t1.shape != z1.shape or t2.shape != z2.shape:
        raise ValueError("each particle needs as many times as positions")
    m1, m2, bad = region_masks(t1, z1, t2, z2)
    return _eval_halves(s, ((1, m1), (2, m2)), t1, z1, t2, z2), bad


# ---------------------------------------------------------------------------
# Boundary traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryTrace:
    """One-sided limit of psi at a coincidence point (t, z).

    side = 1 is the limit from z1 < z2 (evaluation at (t, z - eps, t, z + eps)),
    side = 2 from z1 > z2.  values has shape (4,) + shape(t).
    """

    side: int
    t: np.ndarray
    z: np.ndarray
    values: np.ndarray


def boundary_trace_fields(s: Scenario, t, z, side: int) -> BoundaryTrace:
    """Analytic one-sided coincidence limits (no small epsilon involved)."""
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    t, z = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(z, dtype=float))
    tf = t.reshape(-1)
    zf = z.reshape(-1)
    values = _eval_halves(s, ((side, np.ones(tf.size, dtype=bool)),), tf, zf, tf, zf)
    return BoundaryTrace(side=side, t=t, z=z, values=values.reshape((4,) + t.shape))


def bc_defect(s: Scenario, t, z, side: int) -> np.ndarray:
    """Residual psi2 - exp(-i theta_side) psi3 of the jump condition on a trace."""
    tr = boundary_trace_fields(s, t, z, side)
    theta = s.phase.theta1 if side == 1 else s.phase.theta2
    return tr.values[1] - np.exp(-1j * theta(tr.t, tr.z)) * tr.values[2]


# ---------------------------------------------------------------------------
# Finite-difference probes
# ---------------------------------------------------------------------------

_SIGMA3_SLOT1 = embed(SIGMA3, 1)
_SIGMA3_SLOT2 = embed(SIGMA3, 2)


def require_stencil_room(c: Configuration, h: float) -> None:
    """Reject configurations whose 2h-neighborhood crosses a seam or leaves the domain."""
    m = spacelike_margin(*c.as_tuple())
    if m <= 2.0 * h:
        raise StencilError(f"margin {m:.3e} too small for stencil step {h:.3e}")


def stencil_derivatives(
    evaluate_fn, c: Configuration, h: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric differences (D_t1, D_z1, D_t2, D_z2) of a field at c.

    evaluate_fn maps the (t1, z1, t2, z2) arrays of the 8 stencil points to
    values with the stencil on the last axis.  Steps are h/4 on the time
    axes and h/8 on the space axes.  Equal steps would make the two
    truncation terms cancel identically along the null directions every
    exact field follows, collapsing a residual to rounding noise that grows
    as h shrinks; unequal steps keep the estimator consistent while its
    value on exact solutions shows the genuine O(h^2) third-derivative
    scale.  The full stencil must stay inside one branch: points closer
    than 2h to a branch seam or to the light-like boundary are rejected.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    require_stencil_room(c, h)
    ht = 0.25 * h
    hz = 0.125 * h
    f = evaluate_fn(
        c.t1 + np.array([ht, -ht, 0, 0, 0, 0, 0, 0]),
        c.z1 + np.array([0, 0, hz, -hz, 0, 0, 0, 0]),
        c.t2 + np.array([0, 0, 0, 0, ht, -ht, 0, 0]),
        c.z2 + np.array([0, 0, 0, 0, 0, 0, hz, -hz]),
    )
    return tuple(
        (f[..., 2 * k] - f[..., 2 * k + 1]) / (2 * step)
        for k, step in enumerate((ht, hz, ht, hz))
    )


def field_residual(
    evaluate_fn, c: Configuration, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference residuals of the two evolution equations at c.

    evaluate_fn is a field evaluator as in stencil_derivatives, so the same
    probe serves a scenario and a boosted solution.  Returns (r1, r2) with

        r1 = i D_t1 psi + i (sigma3 (x) Id) D_z1 psi
        r2 = i D_t2 psi + i (Id (x) sigma3) D_z2 psi

    where D is the symmetric difference of stencil_derivatives.
    """
    d_t1, d_z1, d_t2, d_z2 = stencil_derivatives(evaluate_fn, c, h)
    r1 = 1j * d_t1 + 1j * (_SIGMA3_SLOT1 @ d_z1)
    r2 = 1j * d_t2 + 1j * (_SIGMA3_SLOT2 @ d_z2)
    return r1, r2


def pde_residual(
    s: Scenario, c: Configuration, h: float = 1e-4
) -> tuple[np.ndarray, np.ndarray]:
    """field_residual of the scenario's field at c."""
    return field_residual(lambda *p: evaluate_fields(s, *p), c, h)


def seam_mismatch(
    s: Scenario, component: int, half: int, v, order: int = 2, delta: float = 1e-3
) -> np.ndarray:
    """Finite-difference probe of branch matching across the seam, orders 0..order.

    For psi2/psi3 the initial and boundary branches are two closed-form
    functions of the pair of null coordinates that meet along the seam
    x = y.  Both extend smoothly past the seam, so the k-th derivative of
    their difference across it can be probed by central differences at
    seam points (v, v).  Returns an array of shape (order+1,) + shape(v)
    with the absolute mismatch per derivative order.  Zero data give zero;
    compatible smooth data give mismatches at finite-difference error level.
    """
    if component not in (2, 3):
        raise ValueError("only psi2 and psi3 have a branch seam")
    if half not in (1, 2):
        raise ValueError("half must be 1 or 2")
    if order < 0 or order > 4:
        raise ValueError("order must be in 0..4")
    v = np.asarray(v, dtype=float)
    g = s.initial.component(component, half)
    hmap = getattr(boundary_maps(s), BRANCH_MAPS[(component, half)])

    def gap(shift):
        x = v + shift
        y = v - shift
        return g(x, y) - hmap(*coincidence_point(component, x, y))

    # central coefficients for d^k/ds^k on the 5-point stencil {-2h..2h}
    stencils = {
        0: ((0,), (1.0,)),
        1: ((-1, 1), (-0.5, 0.5)),
        2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
        3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
        4: ((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0)),
    }
    rows = []
    for k in range(order + 1):
        offsets, coeffs = stencils[k]
        acc = np.zeros(v.shape, dtype=complex)
        for off, w in zip(offsets, coeffs):
            acc += w * gap(off * delta)
        rows.append(np.abs(acc) / delta**k)
    return np.stack(rows)
