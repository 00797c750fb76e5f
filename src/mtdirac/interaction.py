"""Scattering scenarios, equal-time slices and entanglement witnesses.

The head-on packet scenario starts with all amplitude in psi2 (particle 1
right-moving in [a, b], particle 2 left-moving in [c, d], a < b < c < d).
The packets meet at the coincidence set and reappear swapped in psi3 with
the jump phase attached; the closed-form expression for the whole history
is transcribed here independently of the solver for cross-checking.

Equal-time slices collect psi at (t, z_i, t, z_j) over grid points into a
matrix indexed by (spin, position) per particle; its singular values are
the Schmidt coefficients of the state at that time.  A scenario whose
initial slice is a product but develops sigma_2 > 0 under evolution
interacts: free dynamics preserve product form.  Compact data leave most
rows and columns of that matrix zero, so a slice holds only its nonzero
block, evaluated on the rows and columns the branches' supports reach.
The spectrum's norm is a numpy sum and its SVD runs at one BLAS thread,
so that its bytes do not depend on the thread count OpenBLAS starts with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import region_masks
from .profiles import Profile1D, smooth_bump
from .scenario import (
    BRANCHES,
    NULL_SIGNS,
    ZERO2,
    BoundaryPhase,
    InitialData,
    Phase,
    Scenario,
    ZERO_HALF,
    ScenarioConfigError,
    config_float,
    config_object,
    null_pair,
    parse_phase,
    parse_profile,
    product2,
)
from .solver import _within, branch_support, evaluate_grid


def wavepacket_scenario(
    a: float,
    b: float,
    c: float,
    d: float,
    phi: Profile1D | None = None,
    chi: Profile1D | None = None,
    theta1: Phase = Phase(),
) -> Scenario:
    """Head-on scattering data: psi2 = phi(z1) chi(z2) on half 1, rest zero.

    phi must be supported on [a, b] and chi on [c, d] with a < b < c < d;
    omitted profiles default to normalized smooth bumps.  Half 2 is empty
    and stays empty for all times.
    """
    if not a < b < c < d:
        raise ValueError("need a < b < c < d")
    phi = phi if phi is not None else smooth_bump(a, b, normalize=True)
    chi = chi if chi is not None else smooth_bump(c, d, normalize=True)
    if phi.support() != (a, b):
        raise ValueError(f"phi must be supported on [{a}, {b}]")
    if chi.support() != (c, d):
        raise ValueError(f"chi must be supported on [{c}, {d}]")
    half1 = (ZERO2, product2(phi, chi), ZERO2, ZERO2)
    return Scenario(
        initial=InitialData(half1=half1, half2=ZERO_HALF),
        phase=BoundaryPhase(theta1=theta1),
    )


def wavepacket_scenario_from_config(params: dict) -> Scenario:
    config_object(params, "params", {*"abcd", "phi", "chi", "theta1"})
    try:
        a, b, c, d = (config_float(params[k], f"params.{k}") for k in "abcd")
    except KeyError as err:
        raise ScenarioConfigError("wavepacket preset needs a, b, c, d") from err
    phi = parse_profile(params["phi"], "params.phi") if "phi" in params else None
    chi = parse_profile(params["chi"], "params.chi") if "chi" in params else None
    theta1 = parse_phase(params.get("theta1"), "params.theta1")
    try:
        return wavepacket_scenario(a, b, c, d, phi, chi, theta1)
    except ValueError as err:
        raise ScenarioConfigError(str(err)) from err


def spin_product_scenario(
    a: float,
    b: float,
    c: float,
    d: float,
    phi: tuple[Profile1D, Profile1D] | None = None,
    chi: tuple[Profile1D, Profile1D] | None = None,
    theta1: Phase = Phase(),
) -> Scenario:
    """Product data phi (x) chi with both spin components per particle.

    phi = (phi_minus, phi_plus) lives on [a, b], chi on [c, d]; component
    g_i is the product matching the spin dictionary (g1 = phi- chi-,
    g2 = phi- chi+, g3 = phi+ chi-, g4 = phi+ chi+).  Because the supports
    are disjoint the coincidence compatibility conditions hold trivially
    and the initial equal-time state is an exact product; evolution through
    the contact interaction entangles it, which is what the interaction
    witness detects.
    """
    if not a < b < c < d:
        raise ValueError("need a < b < c < d")
    if phi is None:
        phi = (
            smooth_bump(a, b, normalize=True),
            smooth_bump(a, b, momentum=1.5, normalize=True),
        )
    if chi is None:
        chi = (
            smooth_bump(c, d, momentum=-1.0, normalize=True),
            smooth_bump(c, d, momentum=0.5, normalize=True),
        )
    for p, (lo, hi), name in ((phi[0], (a, b), "phi[0]"), (phi[1], (a, b), "phi[1]"),
                              (chi[0], (c, d), "chi[0]"), (chi[1], (c, d), "chi[1]")):
        if p.support() != (lo, hi):
            raise ValueError(f"{name} must be supported on [{lo}, {hi}]")
    half1 = (
        product2(phi[0], chi[0]),
        product2(phi[0], chi[1]),
        product2(phi[1], chi[0]),
        product2(phi[1], chi[1]),
    )
    return Scenario(
        initial=InitialData(half1=half1, half2=ZERO_HALF),
        phase=BoundaryPhase(theta1=theta1),
    )


def spin_product_scenario_from_config(params: dict) -> Scenario:
    config_object(params, "params", {*"abcd", "phi1", "phi2", "chi1", "chi2", "theta1"})
    try:
        a, b, c, d = (config_float(params[k], f"params.{k}") for k in "abcd")
    except KeyError as err:
        raise ScenarioConfigError("spin_product preset needs a, b, c, d") from err
    pairs = {}  # phi and chi: both spin profiles, or neither for the default
    for name in ("phi", "chi"):
        keys = [f"{name}1", f"{name}2"]
        given = [k for k in keys if k in params]
        if given and given != keys:
            raise ScenarioConfigError(f"spin_product preset needs both {' and '.join(keys)}")
        pairs[name] = tuple(parse_profile(params[k], f"params.{k}") for k in given) or None
    theta1 = parse_phase(params.get("theta1"), "params.theta1")
    try:
        return spin_product_scenario(a, b, c, d, pairs["phi"], pairs["chi"], theta1)
    except (ValueError, KeyError) as err:
        raise ScenarioConfigError(str(err)) from err


def closed_form_packet(
    phi: Profile1D,
    chi: Profile1D,
    theta1: Phase,
    t1,
    z1,
    t2,
    z2,
    heaviside: bool = True,
) -> np.ndarray:
    """Direct transcription of the scattering solution for cross-checks.

    Independent of the solver's branch machinery: indicator factors and
    step functions are applied literally.  With heaviside=False the step
    factors are dropped; the result must not change, since they only kill
    points where the profile factors vanish anyway.
    """
    a, b = phi.support()
    c, d = chi.support()
    t1, z1, t2, z2 = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (t1, z1, t2, z2))
    )
    m1, m2, bad = region_masks(t1, z1, t2, z2)
    if bad.any():
        raise ValueError("closed form defined on space-like configurations only")

    def ind(lo, hi, x):
        return ((x >= lo) & (x <= hi)).astype(float)

    psi2 = (
        phi(z1 - t1)
        * chi(z2 + t2)
        * ind(a + t1, b + t1, z1)
        * ind(c - t2, d - t2, z2)
    )
    ts = 0.5 * (z1 - z2 + t1 + t2)
    zs = 0.5 * (z1 + z2 + t1 - t2)
    psi3 = (
        np.exp(1j * theta1(ts, zs))
        * phi(z2 - t2)
        * chi(z1 + t1)
        * ind(a + t2, b + t2, z2)
        * ind(c - t1, d - t1, z1)
    )
    if heaviside:
        psi2 = psi2 * np.where(-z1 + t1 + z2 + t2 >= 0, 1.0, 0.0)
        psi3 = psi3 * np.where(z1 + t1 - z2 + t2 >= 0, 1.0, 0.0)
    zero = np.zeros_like(psi2)
    out = np.stack([zero, psi2, psi3, zero])
    out[:, m2] = 0.0
    return out


# ---------------------------------------------------------------------------
# Equal-time slices and Schmidt spectra
# ---------------------------------------------------------------------------


def default_slice_grid(s: Scenario, times, n: int = 256) -> np.ndarray:
    """n uniform points covering the support propagated to the largest |t| requested.

    Without data (no support) the points cover [-8, 8].  A span too wide
    for a double (|t| near 1e308) raises ValueError.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 slice grid points, got {n}")
    hull = s.initial.support_hull()
    if hull is None:
        return np.linspace(-8.0, 8.0, n)
    reach = max((abs(float(t)) for t in np.atleast_1d(times)), default=0.0)
    pad = reach + (hull[1] - hull[0]) / (n - 1)
    lo, hi = hull[0] - pad, hull[1] + pad
    if not np.isfinite(hi - lo):
        msg = f"the slice grid at time {reach!r} spans [{lo!r}, {hi!r}], too wide for a double"
        raise ValueError(msg)
    return np.linspace(lo, hi, n)


@dataclass(frozen=True, eq=False)
class SingleTimeSlice:
    """psi sampled at (t, z_i, t, z_j) as a (spin, z) x (spin, z) matrix,
    held as its nonzero block.

    The matrix has shape shape, (2n, 2n) on n points: row index s1 * n + i
    with s1 = 0 for spin -1 and 1 for spin +1; columns likewise for
    particle 2.  Diagonal pairs z_i = z_j are not space-like and their
    entries are zero.  block holds the entries at the rows rows and the
    columns cols (increasing indices into the matrix), and no row or column
    of it is all zero; every entry of the matrix outside it is zero.
    """

    block: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    shape: tuple[int, int]

    @property
    def matrix(self) -> np.ndarray:
        """The full matrix, built anew on each read: +0.0 outside the block."""
        m = np.zeros(self.shape, dtype=complex)
        m[np.ix_(self.rows, self.cols)] = self.block
        return m


def single_time_slice(s: Scenario, t: float, z) -> SingleTimeSlice:
    """The slice at time t on the points z of each particle.

    A point is reached, on a spin of a particle, when its null coordinate
    z + s t lies in the branch_support box of a branch of that spin (every
    point, for a branch with no proven box).  Elsewhere its row or column
    of the matrix is exactly zero.  evaluate_grid fills each component on
    the points reached (psi1 reached rows of spin -1 by reached columns of
    spin -1, psi2 the same rows by the columns of spin +1, ...), so the
    reached rows by the reached columns hold the entries of the full
    matrix bit for bit.  Their all-zero rows and columns are dropped, and
    the slice keeps what remains.
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    n = z.size
    tz = np.full(n, float(t))
    reached = np.zeros((2, 2, n), dtype=bool)  # particle, spin (- then +), point
    for comp, half, initial in BRANCHES:
        box = branch_support(s, comp, half, initial)
        x, y = null_pair(comp, tz, z, tz, z)
        on = [np.ones(n, dtype=bool)] * 2 if box is None else [
            _within(v, interval) for v, interval in zip((x, y), box)
        ]
        if on[0].any() and on[1].any():  # a branch with no point reached adds none
            for particle, sign in enumerate(NULL_SIGNS[comp]):
                reached[particle, int(sign > 0)] |= on[particle]
    # per particle and spin, the points reached; their rows (columns) in the
    # matrix come spin by spin, and so do their offsets in the block
    points = [[np.flatnonzero(spin) for spin in particle] for particle in reached]
    rows, cols = (np.concatenate((minus, n + plus)) for minus, plus in points)
    block = np.zeros((rows.size, cols.size), dtype=complex)
    for comp, (s1, s2) in NULL_SIGNS.items():
        i, j = points[0][int(s1 > 0)], points[1][int(s2 > 0)]
        r = points[0][0].size if s1 > 0 else 0
        c = points[1][0].size if s2 > 0 else 0
        out = [None] * 4
        out[comp - 1] = block[r:r + i.size, c:c + j.size]
        keys = tuple(key for key in BRANCHES if key[0] == comp)
        evaluate_grid(s, tz[i], z[i], tz[j], z[j], out=out, branches=keys)
    live_rows, live_cols = block.any(axis=1), block.any(axis=0)
    return SingleTimeSlice(
        block=block[np.ix_(live_rows, live_cols)],
        rows=rows[live_rows],
        cols=cols[live_cols],
        shape=(2 * n, 2 * n),
    )


def schmidt_spectrum(sl: SingleTimeSlice) -> np.ndarray:
    """Singular values of the slice over its Frobenius norm, min(shape) of them,
    descending (their squares sum to 1).

    Rows and columns that are all zero add only zero singular values, and
    compactly supported data leave most of them so; the SVD runs on the
    slice's block, which holds the others, and the rest of the spectrum is
    exact zeros.  The block over the norm is a copy: beyond the slice the
    call holds it and LAPACK's working copy of it.  The norm is numpy's
    pairwise sum of the block's squares, and the SVD runs at one BLAS
    thread (blas.one_thread), so that the values are the same bytes for any
    thread count OpenBLAS starts with.  A non-finite entry is named by its
    row and column in the full matrix.
    """
    from . import blas  # not compiled by evaluate, which imports this module

    block = sl.block
    finite = np.isfinite(block)
    if not finite.all():
        bad = np.argwhere(~finite)
        row, col = sl.rows[bad[0][0]], sl.cols[bad[0][1]]
        raise ValueError(
            f"slice has {len(bad)} non-finite entries (NaN or inf), "
            f"the first at row {row}, column {col}; no Schmidt spectrum"
        )
    norm = math.sqrt(float(np.sum(np.square(block.real)) + np.sum(np.square(block.imag))))
    if norm == 0.0:
        raise ValueError("slice is identically zero; no Schmidt spectrum")
    block = block / norm
    values = np.zeros(min(sl.shape))
    with blas.one_thread():
        sigma = np.linalg.svd(block, compute_uv=False)
    values[: sigma.size] = sigma
    return values
