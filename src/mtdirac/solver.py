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
coincidence set first, at t* = s1 (x - y) / 2, z* = (x + y) / 2, where the
jump condition hands it the partner datum (g3 for psi2, g2 for psi3) times
the jump factor exp(-+ i theta(t*, z*)).  The partner's null pair at that
point is (y, x), so the boundary branch is the partner's phase mirror read
at the swapped pair: a datum of (x, y) like the initial one,
scenario.boundary_datum, which every reader here takes (an overridden
boundary map is read at (t*, z*) instead).  The inequality is strict: a tie
(x = y, on the seam) goes to the boundary branch, where compatible data
agree anyway.  scenario holds this table (NULL_SIGNS, BRANCH_MAPS, PARTNER,
BRANCHES) and each branch's datum (branch_datum); every evaluator here reads
them there.

Everything here is evaluated from the scenario data; there is no time
stepping.  evaluate_fields takes points: array arguments broadcast, and
field values come back as an array of shape (4,) + broadcast shape,
indexed psi1..psi4.  evaluate_grid takes the points of each particle and
fills the tensor grid of their pairs, into the caller's arrays if it gives
them (an equal-time slice gives its matrix's quadrants).  There each null
coordinate is a vector along one axis, so a separable datum
(scenario.Factors), initial or boundary, is evaluated on the axis points
only; both walk the branches in one loop and agree bit for bit.  The loop
can skip branches: the surface quadrature integrates the branches whose
|psi|^2 is a product of one function of x and one of y (_branch_factors)
from their axis values alone and evaluates only the others on its grid.

A factored branch is an exact zero outside the product of its two
profiles' open supports: branch_support gives that box in the null pair.
The surface quadrature evaluates a branch only inside it, and the
equal-time slice only on the rows and columns it reaches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import DomainError, region_masks, spacelike_margin
from .profiles import within
from .scenario import (
    BRANCH_MAPS,
    BRANCHES,
    Phase,
    Scenario,
    branch_datum,
    initial_branch,
    null_pair,
)
from .spin import SIGMA3, embed


class StencilError(ValueError):
    """A finite-difference stencil would cross a branch seam or leave the domain."""


def _branch_factors(s: Scenario, comp: int, half: int, initial: bool):
    """(c, pa, pb) with |psi_comp|^2 = c |pa(x)|^2 |pb(y)|^2 on a branch of a half.

    (x, y) is the null pair of the component and g(x, y) the branch datum
    (scenario.branch_datum).  It factors when the datum does, with finite
    constants: c = |pre|^2.  c = 0 means the branch is zero.  None means it
    does not factor: a datum given by its function (data, function phases,
    overridden boundary maps) or a non-finite constant (NaN times a zero read
    is NaN).
    """
    g = branch_datum(s, comp, half, initial)
    if g.is_zero:
        return 0.0, None, None
    f = g.factors
    if f is None:
        return None
    c = 1.0
    for k in f.pre:
        c *= abs(k) * abs(k)  # overflows to inf, not to an exception
    if not math.isfinite(c):
        return None
    # g(a, b) = pre px(a) py(b) with (a, b) = (x, y), or (y, x) when swapped
    return (c, f.py, f.px) if f.swapped else (c, f.px, f.py)


def branch_support(s: Scenario, comp: int, half: int, initial: bool):
    """The open box ((x_lo, x_hi), (y_lo, y_hi)) in the null pair (x, y) of
    a branch outside which the branch reads an exact zero, or None where
    that zero is not proven.

    The box is the product of the open supports of the two profiles of
    _branch_factors, in (x, y) order: outside it one profile reads +0, and
    the finite constants keep the product a zero (of either sign).  None is
    for the branches that do not factor, by _branch_factors' rule: data
    given by a function, function phases, overridden boundary maps and
    non-finite constants.  A zero branch gives an empty box.  The box of a
    datum (Component2D.box) is not read: a config's support can be narrower
    than its data.  The profiles are taken to be finite on their supports,
    as every bundled shape with finite parameters is: a profile that read
    NaN would make the product NaN, not zero, across the other one's zeros.
    """
    f = _branch_factors(s, comp, half, initial)
    if f is None:
        return None
    _, pa, pb = f
    if pa is None:
        return (0.0, 0.0), (0.0, 0.0)
    return pa.support(), pb.support()


def _branch_values(
    s: Scenario, halves, t1, z1, t2, z2, branches=BRANCHES, on_support=False
):
    """Yield (comp, mask, values): psi_comp on one branch of one half.

    halves holds (half, where) pairs, where masking the points of that half.
    The coordinates broadcast to the shape of the masks; flat arrays are a
    list of points, a column (t1, z1) and a row (t2, z2) a tensor grid.
    values holds psi_comp at the points mask; psi is zero off every yielded
    mask.  branches holds the (comp, half, initial) keys to evaluate, in the
    order of BRANCHES.  Each branch reads its datum at the null pair: on a
    grid a factored datum is filled from its profiles on the axes, every
    other one is evaluated pointwise on its mask.  With on_support, a mask
    also leaves out the points whose null pair lies outside the branch's
    branch_support box: the zeros there are not read, so their signs are
    lost.
    """
    live = {half: where for half, where in halves if where.any()}
    pair = {}  # the null pair of one component: branches come component by component
    for comp, half, initial in branches:
        if half not in live:
            continue
        g = branch_datum(s, comp, half, initial)
        if g.is_zero:
            continue
        if comp not in pair:
            pair = {comp: null_pair(comp, t1, z1, t2, z2)}
        x, y = pair[comp]
        mask = live[half]
        if (comp, half) in BRANCH_MAPS:
            on_initial = initial_branch(half, x, y)
            mask = mask & (on_initial if initial else ~on_initial)
        if on_support and (box := branch_support(s, comp, half, initial)) is not None:
            mask = mask & within(x, box[0]) & within(y, box[1])
        if not mask.any():
            continue
        # values are yielded, not kept: no branch's arrays outlive it
        if g.factors is not None and x.shape != y.shape:
            yield comp, mask, g.factors.at(x, y)[mask]  # a column, a row
        else:
            yield comp, mask, g(*(np.broadcast_to(a, mask.shape)[mask] for a in (x, y)))


def _eval_halves(s: Scenario, halves, t1, z1, t2, z2, out=None, branches=BRANCHES):
    """psi on the points of each (half, where) of halves, zero elsewhere.

    The result has shape (4,) + the shape of the masks.  With out, four
    complex arrays of that shape holding zeros (views into a larger matrix
    will do), psi1..psi4 are written into them and out is returned: no
    second copy of psi is made.  Only the branches named in branches are
    evaluated.
    """
    if out is None:
        shape = np.broadcast_shapes(t1.shape, t2.shape)
        out = np.zeros((4,) + shape, dtype=complex)
    for comp, mask, values in _branch_values(s, halves, t1, z1, t2, z2, branches):
        out[comp - 1][mask] = values
        del values  # not held while the next branch is evaluated
    return out


def _first_at(bad: np.ndarray, t1, z1, t2, z2, what: str) -> str:
    """'n of m configurations <what>, first at (...)' for the flat mask bad."""
    k = int(np.argmax(bad))
    first = f"first at (t1={t1[k]}, z1={z1[k]}, t2={t2[k]}, z2={z2[k]})"
    return f"{int(bad.sum())} of {bad.size} configurations {what}, {first}"


def evaluate_fields(s: Scenario, t1, z1, t2, z2) -> np.ndarray:
    """Field values at space-like configurations, shape (4,) + broadcast shape.

    Raises DomainError if any configuration is not space-like (light-like
    and time-like pairs, including coincidence points, are outside the
    domain; one-sided coincidence values come from boundary_trace_fields)
    or has a coordinate difference that is not finite; the error names
    the latter cause first.
    """
    t1, z1, t2, z2 = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (t1, z1, t2, z2))
    )
    shape = t1.shape
    t1f, z1f, t2f, z2f = (a.reshape(-1) for a in (t1, z1, t2, z2))
    m1, m2, bad = region_masks(t1f, z1f, t2f, z2f)
    if bad.any():
        with np.errstate(over="ignore", invalid="ignore"):
            nonfinite = ~(np.isfinite(t1f - t2f) & np.isfinite(z1f - z2f))
        if nonfinite.any():
            what = "have a coordinate difference that is not finite"
            raise DomainError(_first_at(nonfinite, t1f, z1f, t2f, z2f, what))
        raise DomainError(_first_at(bad, t1f, z1f, t2f, z2f, "are not space-like"))
    out = _eval_halves(s, ((1, m1), (2, m2)), t1f, z1f, t2f, z2f)
    return out.reshape((4,) + shape)


def evaluate_grid(s: Scenario, t1, z1, t2, z2, out=None, branches=BRANCHES):
    """psi on the tensor grid (t1_i, z1_i) x (t2_j, z2_j), shape (4, n1, n2).

    (t1, z1) are the n1 points of particle 1 and (t2, z2) the n2 points of
    particle 2.  Also returns the (n1, n2) mask of the entries that are not
    space-like (geometry.region_masks); psi is zero there.  The space-like
    entries equal evaluate_fields on the flattened grid bit for bit, but the
    data profiles are evaluated on the axis points, not on every pair: each
    null coordinate z + s t depends on one particle only.  With out, four
    zeroed complex (n1, n2) arrays, psi_i is written into out[i - 1] and out
    is returned in place of a new (4, n1, n2) array.  branches, keys of
    BRANCHES, limits the evaluation to those branches: the others are left
    zero, and out[i - 1] may be None for a component none of them names.
    """
    t1, z1 = (np.asarray(a, dtype=float).reshape(-1, 1) for a in (t1, z1))
    t2, z2 = (np.asarray(a, dtype=float).reshape(1, -1) for a in (t2, z2))
    if t1.shape != z1.shape or t2.shape != z2.shape:
        raise ValueError("each particle needs as many times as positions")
    m1, m2, bad = region_masks(t1, z1, t2, z2)
    return _eval_halves(s, ((1, m1), (2, m2)), t1, z1, t2, z2, out, branches), bad


# ---------------------------------------------------------------------------
# Boundary traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryTrace:
    """One-sided limit of psi at a coincidence point (t, z).

    Side 1 is the limit from z1 < z2 (evaluation at (t, z - eps, t, z + eps)),
    side 2 from z1 > z2.  values has shape (4,) + the broadcast shape of (t, z).
    """

    values: np.ndarray


def boundary_trace_fields(s: Scenario, t, z, side: int) -> BoundaryTrace:
    """Analytic one-sided coincidence limits (no small epsilon involved)."""
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    t, z = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(z, dtype=float))
    tf = t.reshape(-1)
    zf = z.reshape(-1)
    values = _eval_halves(s, ((side, np.ones(tf.size, dtype=bool)),), tf, zf, tf, zf)
    return BoundaryTrace(values=values.reshape((4,) + t.shape))


def jump_residual(theta: Phase, t, z, values) -> np.ndarray:
    """Residual psi2 - exp(-i theta(t, z)) psi3 of the jump condition.

    values holds the one-sided trace psi1..psi4 at the coincidence points
    (t, z) on the side whose phase is theta.
    """
    return values[1] - np.exp(-1j * theta(t, z)) * values[2]


# ---------------------------------------------------------------------------
# Finite-difference probes
# ---------------------------------------------------------------------------

SEAM_STEP = 1e-3  # the central-difference step of seam_mismatch
STENCIL_STEP = 1e-4  # the step h of the residual probes that verify runs
_SIGMA3_SLOT1 = embed(SIGMA3, 1)
_SIGMA3_SLOT2 = embed(SIGMA3, 2)


def require_stencil_room(t1, z1, t2, z2, h: float) -> None:
    """Reject configurations whose 2h-neighborhood crosses a seam or leaves the domain.

    Elementwise; the error counts the rejected configurations and names the
    first.  A non-finite coordinate is named as such, not left to a NaN margin.
    """
    t1, z1, t2, z2 = (a.reshape(-1) for a in np.broadcast_arrays(t1, z1, t2, z2))
    bad = ~np.isfinite([t1, z1, t2, z2]).all(axis=0)
    if bad.any():
        first = _first_at(bad, t1, z1, t2, z2, "have a non-finite coordinate")
        raise StencilError(first)
    m = spacelike_margin(t1, z1, t2, z2)
    bad = m <= 2.0 * h
    if bad.any():
        first = _first_at(bad, t1, z1, t2, z2, f"lack room for stencil step {h:.3e}")
        raise StencilError(f"{first} with margin {m[bad][0]:.3e}")


def _stencil(t1, z1, t2, z2, h: float):
    """stencil_derivatives' points, four arrays of shape S + (8,), and its
    differences, a function of values of shape V + S + (8,) on them."""
    if h <= 0:
        raise ValueError("h must be positive")
    require_stencil_room(t1, z1, t2, z2, h)
    ht = 0.25 * h
    hz = 0.125 * h
    points = (
        np.expand_dims(t1, -1) + np.array([ht, -ht, 0, 0, 0, 0, 0, 0]),
        np.expand_dims(z1, -1) + np.array([0, 0, hz, -hz, 0, 0, 0, 0]),
        np.expand_dims(t2, -1) + np.array([0, 0, 0, 0, ht, -ht, 0, 0]),
        np.expand_dims(z2, -1) + np.array([0, 0, 0, 0, 0, 0, hz, -hz]),
    )

    def differences(f: np.ndarray) -> tuple[np.ndarray, ...]:
        return tuple(
            (f[..., 2 * k] - f[..., 2 * k + 1]) / (2 * step)
            for k, step in enumerate((ht, hz, ht, hz))
        )

    return points, differences


def stencil_derivatives(
    evaluate_fn, t1, z1, t2, z2, h: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric differences (D_t1, D_z1, D_t2, D_z2) of a field, elementwise.

    The coordinates broadcast to a shape S.  evaluate_fn maps the four
    arrays of shape S + (8,) that hold each configuration's stencil points
    on the last axis to values of shape V + S + (8,), so one call serves
    every configuration; each difference has shape V + S.  Steps are h/4
    on the time axes and h/8 on the space axes.  Equal steps would make the
    two truncation terms cancel identically along the null directions every
    exact field follows, collapsing a residual to rounding noise that grows
    as h shrinks; unequal steps keep the estimator consistent while its
    value on exact solutions shows the genuine O(h^2) third-derivative
    scale.  The full stencil must stay inside one branch: points closer
    than 2h to a branch seam or to the light-like boundary are rejected.
    """
    points, differences = _stencil(t1, z1, t2, z2, h)
    return differences(evaluate_fn(*points))


def _field_equations(d_t1, d_z1, d_t2, d_z2) -> tuple[np.ndarray, np.ndarray]:
    """field_residual's (r1, r2) from the differences of psi."""
    r1 = 1j * d_t1 + 1j * np.tensordot(_SIGMA3_SLOT1, d_z1, axes=1)
    r2 = 1j * d_t2 + 1j * np.tensordot(_SIGMA3_SLOT2, d_z2, axes=1)
    return r1, r2


def field_residual(
    evaluate_fn, t1, z1, t2, z2, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference residuals of the two evolution equations, elementwise.

    evaluate_fn is a field evaluator as in stencil_derivatives, so the same
    probe serves a scenario and a boosted solution.  Returns (r1, r2), each
    of shape (4,) + the broadcast shape of the coordinates, with

        r1 = i D_t1 psi + i (sigma3 (x) Id) D_z1 psi
        r2 = i D_t2 psi + i (Id (x) sigma3) D_z2 psi

    where D is the symmetric difference of stencil_derivatives.
    """
    return _field_equations(*stencil_derivatives(evaluate_fn, t1, z1, t2, z2, h))


def pde_residual(
    s: Scenario, t1, z1, t2, z2, h: float = STENCIL_STEP
) -> tuple[np.ndarray, np.ndarray]:
    """field_residual of the scenario's field at the configurations (t1, z1, t2, z2)."""
    return field_residual(lambda *p: evaluate_fields(s, *p), t1, z1, t2, z2, h)


def seam_mismatch(s: Scenario, component: int, half: int, v) -> np.ndarray:
    """Finite-difference probe of branch matching across the seam, orders 0..2.

    For psi2/psi3 the initial and boundary branches are two closed-form
    functions of the pair of null coordinates that meet along the seam
    x = y.  Both extend smoothly past the seam, so the k-th derivative of
    their difference across it can be probed by central differences of step
    SEAM_STEP at seam points (v, v).  Returns an array of shape (3,) +
    shape(v) with the absolute mismatch per derivative order.  Zero data
    give zero; compatible smooth data give mismatches at finite-difference
    error level.
    """
    if component not in (2, 3):
        raise ValueError("only psi2 and psi3 have a branch seam")
    if half not in (1, 2):
        raise ValueError("half must be 1 or 2")
    v = np.asarray(v, dtype=float)
    initial, boundary = (branch_datum(s, component, half, b) for b in (True, False))

    def gap(k):
        x = v + k * SEAM_STEP
        y = v - k * SEAM_STEP
        return initial(x, y) - boundary(x, y)

    below, at, above = gap(-1), gap(0), gap(1)
    return np.stack(
        [
            np.abs(at),
            np.abs(-0.5 * below + 0.5 * above) / SEAM_STEP,
            np.abs(below - 2.0 * at + above) / SEAM_STEP**2,
        ]
    )


def check_compatibility(s: Scenario) -> dict[str, np.ndarray]:
    """The compatibility conditions at t = 0, as seam_mismatch maxima.

    At t = 0 the data of each (component, half) of BRANCH_MAPS must match
    its boundary branch on the seam x = y, in value and in derivatives;
    order 0 is g(z, z) = map(0, z).  Returns, per condition
    "g<c>_half<h>_vs_<map>", the maxima of orders 0..2 over 512 seam points
    spanning the support hull padded by 5%; zero data give {}.  Violations
    are reported, never raised: incompatible data still define branchwise
    values and the flag is the caller's to act on.
    """
    hull = s.initial.support_hull()
    if hull is None:
        return {}
    pad = 0.05 * (hull[1] - hull[0])
    v = np.linspace(hull[0] - pad, hull[1] + pad, 512)
    return {
        f"g{comp}_half{half}_vs_{name}": seam_mismatch(s, comp, half, v).max(axis=1)
        for (comp, half), name in BRANCH_MAPS.items()
    }
