import tracemalloc

import numpy as np
import pytest

from mtdirac.conservation import QuadratureSpec, component_masses
from mtdirac.geometry import sample_spacelike
from mtdirac.interaction import (
    closed_form_packet,
    default_slice_grid,
    schmidt_spectrum,
    single_time_slice,
    spin_product_scenario,
    spin_product_scenario_from_config,
    wavepacket_scenario,
)
from mtdirac.profiles import smooth_bump
from mtdirac.scenario import (
    ZERO2,
    Component2D,
    InitialData,
    Scenario,
    ScenarioConfigError,
    load_scenario,
)
from mtdirac.solver import evaluate_fields, evaluate_grid
from probes import compatibility_gap, is_interacting, slice_of

BOUNDS = (-3.0, -1.0, 1.0, 3.0)


def test_wavepacket_scenario_validation():
    with pytest.raises(ValueError):
        wavepacket_scenario(-1.0, -3.0, 1.0, 3.0)
    with pytest.raises(ValueError):
        wavepacket_scenario(*BOUNDS, phi=smooth_bump(-2.5, -1.0))
    with pytest.raises(ValueError):
        wavepacket_scenario(*BOUNDS, chi=smooth_bump(0.5, 3.0))
    s = wavepacket_scenario(*BOUNDS)
    assert s.initial.component(2, 1).box == ((-3.0, -1.0), (1.0, 3.0))
    for idx in (1, 3, 4):
        assert s.initial.component(idx, 1).is_zero


def test_closed_form_matches_solver(packet, packet_profiles):
    phi, chi, theta = packet_profiles
    rng = np.random.default_rng(23)
    t1, z1, t2, z2 = sample_spacelike(rng, 2000, (-3.5, 3.5), (-5.0, 5.0))
    direct = closed_form_packet(phi, chi, theta, t1, z1, t2, z2)
    solved = evaluate_fields(packet, t1, z1, t2, z2)
    assert np.abs(direct - solved).max() <= 1e-13


def test_closed_form_step_factors_are_removable(packet_profiles):
    phi, chi, theta = packet_profiles
    rng = np.random.default_rng(5)
    t1, z1, t2, z2 = sample_spacelike(rng, 1000, (-3.5, 3.5), (-5.0, 5.0))
    with_steps = closed_form_packet(phi, chi, theta, t1, z1, t2, z2, heaviside=True)
    without = closed_form_packet(phi, chi, theta, t1, z1, t2, z2, heaviside=False)
    assert np.array_equal(with_steps, without)


def test_closed_form_rejects_non_spacelike(packet_profiles):
    phi, chi, theta = packet_profiles
    with pytest.raises(ValueError):
        closed_form_packet(phi, chi, theta, 0.0, 0.0, 1.0, 1.0)


def test_closed_form_structure(packet_profiles):
    phi, chi, theta = packet_profiles
    rng = np.random.default_rng(6)
    t1, z1, t2, z2 = sample_spacelike(rng, 500, (-2.0, 2.0), (-4.0, 4.0))
    out = closed_form_packet(phi, chi, theta, t1, z1, t2, z2)
    assert not out[0].any() and not out[3].any()
    dz = z1 - z2
    assert not out[:, dz > 0].any()  # nothing ever lives on z1 > z2


def test_packet_epochs(packet):
    # psi3 appears only after the fronts meet at t = (c - b)/2 = 1; psi2 is
    # gone once the tails have crossed at t = (d - a)/2 = 3
    q = QuadratureSpec(panels=48)
    masses = np.stack([component_masses(packet, t, q) for t in (0.0, 0.5, 2.0, 3.2)])
    assert masses.shape == (4, 4)
    assert masses[0, 1] == pytest.approx(1.0, abs=1e-6)
    assert masses[0, 2] == 0.0
    assert masses[1, 2] == 0.0  # still before the packets touch
    assert masses[2, 1] > 1e-3 and masses[2, 2] > 1e-3  # mid swap
    assert masses[3, 1] == 0.0  # swap complete
    assert masses[3, 2] == pytest.approx(1.0, abs=1e-6)
    totals = masses.sum(axis=1)
    assert np.abs(totals - 1.0).max() < 1e-6


def test_default_slice_grid_covers_propagated_support(packet):
    z = default_slice_grid(packet, [2.5], n=128)
    assert z.shape == (128,) and np.all(np.diff(z) > 0)
    assert z[0] <= -3.0 - 2.5 and z[-1] >= 3.0 + 2.5
    # zero scenario falls back to a fixed window
    zero = Scenario(initial=InitialData(half1=(ZERO2,) * 4, half2=(ZERO2,) * 4))
    assert np.array_equal(default_slice_grid(zero, [1.0]), np.linspace(-8.0, 8.0, 256))


def test_default_slice_grid_rejects_too_few_points(packet):
    # the check comes before the grid spacing hull / (n - 1) is formed
    for n in (1, 0):
        with pytest.raises(ValueError, match="n >= 2"):
            default_slice_grid(packet, [0.0], n=n)


def test_single_time_slice_layout(packet):
    z = np.linspace(-5.0, 5.0, 48)
    sl = single_time_slice(packet, 1.5, z)
    n = z.size
    assert sl.matrix.shape == (2 * n, 2 * n)
    block2 = sl.matrix[:n, n:]  # psi2: spin -1 for particle 1, +1 for particle 2
    off = ~np.eye(n, dtype=bool)
    direct = np.zeros((n, n), dtype=complex)
    z1 = np.broadcast_to(z[:, None], (n, n))
    z2 = np.broadcast_to(z[None, :], (n, n))
    direct[off] = evaluate_fields(packet, 1.5, z1[off], 1.5, z2[off])[1]
    assert np.array_equal(block2, direct)
    assert not np.diag(block2).any()

    # the quadrants of evaluate_grid, psi1 top left to psi4 bottom right: the
    # block holds their entries bit for bit, on every kind of datum and each
    # config, and every entry outside it is zero, of either sign
    from test_solver import bits, grid_scenarios

    cases = dict(grid_scenarios())
    for name in ("wavepacket", "spin_product", "mirror_bump"):
        with open(f"configs/{name}.json") as fh:
            cases[name], _ = load_scenario(fh.read())
    for name, s in cases.items():
        for t in (0.0, 1.5):
            z = default_slice_grid(s, [t], n=40)
            tz = np.full(z.size, t)
            vals, _ = evaluate_grid(s, tz, z, tz, z)
            full = np.block([[vals[0], vals[1]], [vals[2], vals[3]]])
            sl = single_time_slice(s, t, z)
            inside = np.ix_(sl.rows, sl.cols)
            assert np.array_equal(bits(sl.block), bits(full[inside])), (name, t)
            outside = np.ones(full.shape, dtype=bool)
            outside[inside] = False
            assert not full[outside].any(), (name, t)
            assert np.array_equal(bits(sl.matrix), bits(np.where(outside, 0.0, full)))


def test_slice_and_spectrum_hold_one_matrix_and_the_block(rich):
    """The slice holds its nonzero block only, 252 x 280 of the (2n, 2n)
    matrix at t = 0, and the SVD adds a copy of it and LAPACK's: the peak
    stays under one (2n, 2n) matrix, in which no part is ever built."""
    z = default_slice_grid(rich, [0.0], n=256)
    schmidt_spectrum(single_time_slice(rich, 0.0, z))  # warm: no first-call allocations
    tracemalloc.start()
    try:
        sl = single_time_slice(rich, 0.0, z)
        schmidt_spectrum(sl)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    matrix_bytes = (2 * z.size) ** 2 * np.dtype(complex).itemsize
    assert sl.block.shape == (252, 280)
    assert peak < matrix_bytes, peak / matrix_bytes


def test_schmidt_spectrum_properties(spin_pair):
    z = default_slice_grid(spin_pair, [2.0])
    spec = schmidt_spectrum(single_time_slice(spin_pair, 0.0, z))
    assert spec.shape == (2 * z.size,)
    assert np.all(np.diff(spec) <= 1e-15)
    assert np.sum(spec**2) == pytest.approx(1.0, abs=1e-12)
    assert spec[1] <= 1e-12  # exact product at t = 0
    later = schmidt_spectrum(single_time_slice(spin_pair, 2.0, z))
    assert later[1] > 0.1
    assert later[1] / later[0] > 0.1


def test_schmidt_needs_nonzero_slice():
    z = Scenario(initial=InitialData(half1=(ZERO2,) * 4, half2=(ZERO2,) * 4))
    with pytest.raises(ValueError):
        schmidt_spectrum(single_time_slice(z, 0.0, np.linspace(-8.0, 8.0, 32)))


def test_schmidt_spectrum_of_a_block_embedded_in_zeros():
    # the spectrum is taken on the rows and columns that are not all zero
    rng = np.random.default_rng(3)
    block = rng.normal(size=(7, 5)) + 1j * rng.normal(size=(7, 5))
    m = np.zeros((40, 60), dtype=complex)
    rows = np.sort(rng.choice(40, 7, replace=False))
    cols = np.sort(rng.choice(60, 5, replace=False))
    m[np.ix_(rows, cols)] = block
    spec = schmidt_spectrum(slice_of(m))
    expected = np.linalg.svd(block, compute_uv=False) / np.linalg.norm(block)
    assert spec.shape == (40,)
    assert np.all(np.abs(spec[:5] - expected) <= 4 * np.spacing(expected[0]))
    assert np.all(spec[5:] == 0.0)


def test_schmidt_spectrum_runs_its_svd_at_one_blas_thread(rich, monkeypatch):
    # the thread count is set for the SVD alone and restored after it; a
    # pin nested in another is a no-op
    from mtdirac import blas

    before = blas.threads()
    if before is None:
        pytest.skip("this numpy's BLAS thread count cannot be set")
    svd = np.linalg.svd
    seen = []

    def spy(a, *args, **kwargs):
        seen.append(blas.threads())
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    sl = single_time_slice(rich, 0.0, default_slice_grid(rich, [0.0], n=64))
    values = schmidt_spectrum(sl)
    assert seen == [1] and blas.threads() == before
    with blas.one_thread():
        assert np.array_equal(schmidt_spectrum(sl), values)
        assert blas.threads() == 1
    assert seen == [1, 1] and blas.threads() == before


def test_schmidt_spectrum_of_a_single_row():
    m = np.zeros((16, 16), dtype=complex)
    m[3, 2:9] = np.arange(1.0, 8.0) * (1 - 2j)
    spec = schmidt_spectrum(slice_of(m))
    assert spec[0] == pytest.approx(1.0, abs=1e-15)
    assert spec[1] == 0.0 and spec.shape == (16,)


def nan_data() -> Scenario:
    """Function data for psi2 that read NaN inside their box."""

    def nan_inside(x, y):
        return np.where((x > -2) & (x < -1) & (y > 1) & (y < 2), np.nan, 0.0)

    g = Component2D(fn=nan_inside, box=((-2.0, -1.0), (1.0, 2.0)))
    return Scenario(initial=InitialData(half1=(ZERO2, g, ZERO2, ZERO2), half2=(ZERO2,) * 4))


def test_schmidt_spectrum_rejects_a_non_finite_slice():
    # 25 entries of this slice fall in the box
    sl = single_time_slice(nan_data(), 0.0, np.linspace(-3.0, 3.0, 32))
    with pytest.raises(ValueError, match="slice has 25 non-finite entries"):
        schmidt_spectrum(sl)  # and no RuntimeWarning from dividing by a NaN norm


def test_interaction_verdict(spin_pair):
    verdict = is_interacting(spin_pair, [0.5, 1.5, 2.0])
    assert verdict.interacting
    assert verdict.witness_time == 1.5  # no contact yet at t = 0.5
    assert verdict.initial_sigma2 <= 1e-8
    assert verdict.max_sigma2 > 0.1
    assert verdict.max_ratio > 0.1


def test_interaction_criterion_requires_product_start(rich):
    with pytest.raises(ValueError):
        is_interacting(rich, [1.0])


def test_spin_product_scenario_structure(spin_pair):
    assert compatibility_gap(spin_pair) <= 1e-12
    for idx in range(1, 5):
        assert not spin_pair.initial.component(idx, 1).is_zero
        assert spin_pair.initial.component(idx, 2).is_zero
    with pytest.raises(ValueError):
        spin_product_scenario(1.0, -1.0, 2.0, 3.0)
    with pytest.raises(ValueError):
        spin_product_scenario(
            *BOUNDS, phi=(smooth_bump(-3.0, -1.0), smooth_bump(-2.0, -1.0))
        )


def test_spin_product_config_needs_paired_profiles():
    params = {
        "a": -3.0,
        "b": -1.0,
        "c": 1.0,
        "d": 3.0,
        "phi1": {"lo": -3.0, "hi": -1.0},
    }
    with pytest.raises(ScenarioConfigError):
        spin_product_scenario_from_config(params)
    params["phi2"] = {"lo": -3.0, "hi": -1.0, "momentum": 1.0}
    spin_product_scenario_from_config(params)
