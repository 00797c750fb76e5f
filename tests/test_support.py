"""The branches' support boxes (solver.branch_support) and their two readers.

The surface quadrature evaluates a branch only at the pairs inside its box,
and the equal-time slice evaluates each component only on the rows and
columns its boxes reach and keeps the nonzero block.  Both give the bits
they give without the boxes: every test here compares the two, with
branch_support patched to prove no box, or with the full matrix of
evaluate_grid.  The spectrum splits that block further into its
independent blocks; the tests at the end check the split against a
union-find and against one SVD of the whole block.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from mtdirac import blas, conservation, solver
from mtdirac.conservation import QuadratureSpec, _integrate, acceptance_family, bump_surface
from hypothesis import given
from hypothesis import strategies as st

from mtdirac import interaction
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
from probes import independent_blocks, slice_of
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


def block_norm(block: np.ndarray) -> float:
    """The Frobenius norm as schmidt_spectrum takes it: numpy sums of squares."""
    return math.sqrt(float(np.sum(np.square(block.real)) + np.sum(np.square(block.imag))))


def reference_spectrum(m: np.ndarray) -> np.ndarray:
    """The spectrum of m as the union of its independent blocks' spectra,
    each block taken from the full matrix over the norm of its nonzero block."""
    block = m[np.ix_(m.any(axis=1), m.any(axis=0))]
    norm = block_norm(block)
    sigma = []
    with blas.one_thread():
        for rows, cols in independent_blocks(m):
            if rows.size and cols.size:
                sigma.append(np.linalg.svd(m[np.ix_(rows, cols)] / norm, compute_uv=False))
    values = np.zeros(min(m.shape))
    values[: sum(s.size for s in sigma)] = np.sort(np.concatenate(sigma))[::-1]
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


U = 2.0**-53  # the unit roundoff of a double


def whole_block_spectrum(sl) -> np.ndarray:
    """The spectrum from one SVD of the slice's whole block over its norm."""
    block = sl.block
    norm = block_norm(block)
    values = np.zeros(min(sl.shape))
    with blas.one_thread():
        sigma = np.linalg.svd(block / norm, compute_uv=False)
    values[: sigma.size] = sigma
    return values


def assert_within_the_whole_block_bound(sl, spectrum) -> None:
    """The split spectrum lies within 2 max(m, n) u sigma_1 of the whole
    block's, for an m x n block A over its norm.

    LAPACK's SVD is backward stable: its values are the exact values of
    its input plus E with ||E||_2 <= p u ||input||_2, p a modestly growing
    function of the shape (LAPACK Users' Guide, error bounds for the SVD),
    taken here as max(rows, columns) <= max(m, n).  The blocks' values
    together are the exact values of A plus the direct sum of their E,
    whose 2-norm is the largest of theirs, at most max(m, n) u ||A||_2;
    the whole block's are those of A plus its own E.  By Weyl each sorted
    value moves by at most the 2-norm of the perturbation, so the two
    differ by at most 2 max(m, n) u sigma_1, sigma_1 = ||A||_2 (here the
    larger of the two computed values).
    """
    whole = whole_block_spectrum(sl)
    bound = 2 * max(sl.block.shape) * U * max(whole[0], spectrum[0])
    assert np.max(np.abs(spectrum - whole)) <= bound


def assert_split_by_union_find(m: np.ndarray) -> None:
    """The spectrum of slice_of(m) splits its block as union-find does, is
    the union of those blocks' spectra bit for bit, and keeps the bound."""
    sl = slice_of(m)
    labels = interaction._components(sl.block != 0)
    expected = independent_blocks(sl.block)
    assert len(labels) == len(expected)
    for (rows, cols), (want_rows, want_cols) in zip(labels, expected):
        assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
    spectrum = schmidt_spectrum(sl)
    assert np.array_equal(bits(spectrum), bits(reference_spectrum(m)))
    assert_within_the_whole_block_bound(sl, spectrum)


def embedded_direct_sum(shapes, seed: int, sparsity: float, margin: int) -> np.ndarray:
    """Random complex blocks of the shapes along a diagonal, a share
    sparsity of their entries made zero (one kept), then their rows and
    columns scattered over a matrix with margin more of each, all zero."""
    rng = np.random.default_rng(seed)
    n_rows, n_cols = (sum(shape[k] for shape in shapes) for k in (0, 1))
    direct = np.zeros((n_rows, n_cols), dtype=complex)
    r = c = 0
    for a, b in shapes:
        direct[r:r + a, c:c + b] = rng.normal(size=(a, b)) + 1j * rng.normal(size=(a, b))
        r, c = r + a, c + b
    keep = direct[0, 0]
    direct[rng.random(direct.shape) < sparsity] = 0.0
    direct[0, 0] = keep
    m = np.zeros((n_rows + margin, n_cols + margin), dtype=complex)
    rows = rng.permutation(n_rows + margin)[:n_rows]
    cols = rng.permutation(n_cols + margin)[:n_cols]
    m[np.ix_(rows, cols)] = direct
    return m


@given(
    st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7)), min_size=1, max_size=5),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.3, 0.7]),
    st.integers(0, 9),
)
def test_a_direct_sum_is_split_into_its_blocks(shapes, seed, sparsity, margin):
    assert_split_by_union_find(embedded_direct_sum(shapes, seed, sparsity, margin))


def test_a_long_chain_is_one_block_in_few_rounds(monkeypatch):
    # a bidiagonal 300 x 300 pattern, rows and columns permuted: one chain
    # of 600 nodes, which a propagation by hops would cross in 599 rounds;
    # the labelling's two masked minima a round stay within its bound
    rng = np.random.default_rng(7)
    n = 300
    chain = np.diag(rng.normal(size=n) + 1j) + np.diag(rng.normal(size=n - 1) - 1j, 1)
    m = np.zeros((n + 5, n + 5), dtype=complex)
    m[np.ix_(rng.permutation(n + 5)[:n], rng.permutation(n + 5)[:n])] = chain
    assert_split_by_union_find(m)
    minima, calls = np.min, []

    def counted(*args, **kwargs):
        calls.append(1)
        return minima(*args, **kwargs)

    monkeypatch.setattr(np, "min", counted)
    (rows, cols), = interaction._components(slice_of(m).block != 0)
    assert rows.size == cols.size == n
    assert len(calls) // 2 <= 2 * math.ceil(math.log2(2 * n)) + 1


@pytest.mark.parametrize("name", ("wavepacket", "spin_product", "mirror_bump"))
def test_split_spectrum_is_within_the_bound_of_one_svd(name):
    s = SCENARIOS[name]
    for t in (0.0, 0.75, 1.5, 2.0, 3.0):
        sl = single_time_slice(s, t, default_slice_grid(s, [t], n=256))
        assert_within_the_whole_block_bound(sl, schmidt_spectrum(sl))

