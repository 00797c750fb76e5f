"""The branches' support boxes (solver.branch_support) and their two readers.

The surface quadrature evaluates a branch only at the pairs inside its box,
and the equal-time slice evaluates each component only on the rows and
columns its boxes reach and keeps the nonzero block.  Both give the bits
they give without the boxes: every test here compares the two, with
branch_support patched to prove no box, or with the full matrix of
evaluate_grid.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from mtdirac import blas, conservation, solver
from mtdirac.conservation import QuadratureSpec, _integrate, acceptance_family, bump_surface
from mtdirac.interaction import default_slice_grid, schmidt_spectrum, single_time_slice
from mtdirac.profiles import smooth_bump
from mtdirac.scenario import (
    BRANCHES,
    ZERO_HALF,
    BoundaryPhase,
    Component2D,
    Factors,
    InitialData,
    Phase,
    Scenario,
    load_scenario,
    phase_mirrored,
)
from mtdirac.solver import branch_support, evaluate_grid
from test_conservation import function_data
from test_interaction import nan_data
from test_solver import bits, grid_scenarios


def nan_phase(s: Scenario) -> Scenario:
    """s with theta1 NaN, and g3 on half 1 mirrored from g2 under it: the
    mirrored constants are NaN, so psi3 reads NaN on every point of its
    branches, inside the profiles' supports or not."""
    nan = Phase(math.nan)
    g1, g2, _, g4 = s.initial.half1
    half1 = (g1, g2, phase_mirrored(g2, nan, target=3), g4)
    return replace(
        s,
        initial=replace(s.initial, half1=half1),
        phase=BoundaryPhase(nan, s.phase.theta2),
    )


def overflowing_constant() -> Scenario:
    """A product whose constant 1e200 squares to inf: no proven box, though
    its values are finite (the profiles peak at 1e-100)."""
    px, py = (smooth_bump(lo, lo + 2.0, amplitude=1e-100) for lo in (-2.0, 0.5))
    g = Component2D(box=(px.support(), py.support()), factors=Factors(px, py, (1e200,)))
    return Scenario(InitialData(half1=(g, g, g, g), half2=ZERO_HALF))


def scenarios() -> dict[str, Scenario]:
    """Every kind of datum of test_solver.grid_scenarios, the three configs,
    a NaN phase, a constant that overflows and function data whose support
    boxes are narrower than the data."""
    cases = dict(grid_scenarios())
    for name in ("wavepacket", "spin_product", "mirror_bump"):
        with open(f"configs/{name}.json") as fh:
            cases[name], _ = load_scenario(fh.read())
    cases["nan_phase"] = nan_phase(cases["mirror_bump"])
    cases["overflowing_constant"] = overflowing_constant()
    cases["narrowed_functions"] = function_data(cases["narrowed"])
    return cases


SCENARIOS = scenarios()


def test_branch_support_is_the_profiles_box_by_the_factors_rule():
    s = SCENARIOS["mirror_bump"]
    for key in BRANCHES:
        factors = solver._branch_factors(s, *key)
        box = branch_support(s, *key)
        if factors is None:
            assert box is None, key
        elif factors[1] is None:  # a zero branch: nothing is reached
            assert box == ((0.0, 0.0), (0.0, 0.0)), key
        else:
            assert box == (factors[1].support(), factors[2].support()), key
    # function data, an overridden boundary map and a non-finite constant
    # prove no box; a narrowed support box of a datum is not read
    for name in ("custom2", "absorbing", "nan_phase", "overflowing_constant"):
        s = SCENARIOS[name]
        assert any(branch_support(s, *key) is None for key in BRANCHES), name
    g4 = SCENARIOS["narrowed"].initial.half1[3]
    assert branch_support(SCENARIOS["narrowed"], 4, 1, True) != g4.box
    assert branch_support(SCENARIOS["narrowed"], 4, 1, True) == (
        g4.factors.px.support(), g4.factors.py.support()
    )


def _outcome(s, surf, q):
    """_integrate's totals (as bits), excluded pairs, box and node count, or
    the message of its ValueError."""
    try:
        totals, excluded, box, nodes = _integrate(s, surf, q)
    except ValueError as err:
        return str(err)
    return bits(totals).tolist(), excluded, box, nodes


@pytest.mark.parametrize("panels", (16, 64))
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_quadrature_prune_changes_no_bit(name, panels, monkeypatch):
    # the five acceptance surfaces, and the bump once more with its
    # certificate refused: then every factored branch takes the whole grid
    s, q = SCENARIOS[name], QuadratureSpec(panels=panels)
    surfaces = [(surf, True) for surf in acceptance_family()]
    surfaces.append((bump_surface(0.0, 0.3, 5.0), False))
    for surf, certified in surfaces:
        with monkeypatch.context() as patch:
            if not certified:
                patch.setattr(conservation, "_certified", lambda t, z: False)
            pruned = _outcome(s, surf, q)
            patch.setattr(solver, "branch_support", lambda *key: None)
            assert pruned == _outcome(s, surf, q), (surf.label, certified)


def test_quadrature_evaluates_the_triangles_inside_the_boxes_only(monkeypatch):
    # mirror_bump at 128 panels: of the 49,152 (point, branch) pairs of each
    # surface's diagonal triangles, only 1,079 on flat(0.7) lie in a box
    s, q = SCENARIOS["mirror_bump"], QuadratureSpec(panels=128)
    values, evaluated = conservation._branch_values, []

    def counted(*args, **kwargs):
        for comp, mask, v in values(*args, **kwargs):
            evaluated[-1] += int(np.count_nonzero(mask))
            yield comp, mask, v

    monkeypatch.setattr(conservation, "_branch_values", counted)
    for prune in (True, False):
        if not prune:
            monkeypatch.setattr(solver, "branch_support", lambda *key: None)
        counts = []
        for surf in acceptance_family():
            evaluated.append(0)
            conservation.normalization_report(s, surf, q)
            counts.append(evaluated[-1])
        assert counts == ([0, 1079, 0, 0, 0] if prune else [49_152] * 5)


def full_matrix(s, t, z) -> np.ndarray:
    """The (2n, 2n) slice matrix of evaluate_grid, every entry evaluated."""
    tz = np.full(z.size, float(t))
    vals, _ = evaluate_grid(s, tz, z, tz, z)
    return np.block([[vals[0], vals[1]], [vals[2], vals[3]]])


def reference_spectrum(m: np.ndarray) -> np.ndarray:
    """The spectrum of m from its nonzero block, taken from the full matrix."""
    block = m[np.ix_(m.any(axis=1), m.any(axis=0))]
    norm = math.sqrt(float(np.sum(np.square(block.real)) + np.sum(np.square(block.imag))))
    values = np.zeros(min(m.shape))
    with blas.one_thread():
        sigma = np.linalg.svd(block / norm, compute_uv=False)
    values[: sigma.size] = sigma
    return values


@pytest.mark.parametrize("t", (0.0, 1.5))
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_slice_holds_the_nonzero_block_of_the_full_matrix(name, t):
    s = SCENARIOS[name]
    for n in (40, 256) if name in ("wavepacket", "spin_product", "mirror_bump") else (40,):
        z = default_slice_grid(s, [t], n=n)
        m = full_matrix(s, t, z)
        sl = single_time_slice(s, t, z)
        assert sl.shape == m.shape
        assert np.array_equal(sl.rows, np.flatnonzero(m.any(axis=1)))
        assert np.array_equal(sl.cols, np.flatnonzero(m.any(axis=0)))
        assert np.array_equal(bits(sl.block), bits(m[np.ix_(sl.rows, sl.cols)]))
        assert sl.block.any(axis=1).all() and sl.block.any(axis=0).all()
        if np.isfinite(m).all():
            assert np.array_equal(bits(schmidt_spectrum(sl)), bits(reference_spectrum(m)))


@pytest.mark.parametrize("case", ("nan_data", "nan_phase"))
def test_a_non_finite_slice_is_named_in_the_full_matrix(case):
    # the count and the first (row, column) of the full matrix, row major
    if case == "nan_data":
        s, z = nan_data(), np.linspace(-3.0, 3.0, 32)
    else:
        s = SCENARIOS["nan_phase"]
        z = default_slice_grid(s, [0.0], n=40)
    m = full_matrix(s, 0.0, z)
    bad = np.argwhere(~np.isfinite(m))
    row, col = bad[0]
    want = (
        f"slice has {len(bad)} non-finite entries (NaN or inf), "
        f"the first at row {row}, column {col}; no Schmidt spectrum"
    )
    with pytest.raises(ValueError) as err:
        schmidt_spectrum(single_time_slice(s, 0.0, z))
    assert str(err.value) == want


def test_matrix_is_built_only_when_read(monkeypatch, tmp_path):
    # a slice and its spectrum allocate no (2n, 2n) array, and verify and
    # scatter never read .matrix
    from mtdirac import interaction
    from mtdirac.cli import main

    s = SCENARIOS["mirror_bump"]
    z = default_slice_grid(s, [0.0], n=256)
    zeros, shapes = np.zeros, []

    def spy(shape, *args, **kwargs):
        shapes.append(tuple(np.atleast_1d(shape)))
        return zeros(shape, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "zeros", spy)
        sl = single_time_slice(s, 0.0, z)
        schmidt_spectrum(sl)
        assert (512, 512) not in shapes
        assert sl.matrix.shape == (512, 512) and shapes[-1] == (512, 512)

    def unread(self):
        raise AssertionError("the full slice matrix was built")

    monkeypatch.setattr(interaction.SingleTimeSlice, "matrix", property(unread))
    config = "configs/mirror_bump.json"
    for argv in (["verify"], ["scatter", "--panels", "8", "--times=0:2:3"]):
        assert main([*argv, "--scenario", config, "--out", str(tmp_path)]) == 0, argv
