import math
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mtdirac.conservation import (
    GAUSS_ORDER,
    Hypersurface,
    QuadratureSpec,
    _certified,
    _density,
    _integrate,
    acceptance_family,
    boosted_flat,
    bump_surface,
    component_masses,
    flat,
    normalization_report,
    truncation_box,
    worker_count,
)
from mtdirac.geometry import region_masks
from mtdirac.profiles import Profile1D, gauss_panels, smooth_bump
from mtdirac.scenario import (
    BoundaryPhase,
    InitialData,
    Phase,
    Scenario,
    ZERO2,
    antisymmetric_extension,
    load_scenario,
    phase_mirrored,
    product2,
)
from mtdirac.solver import evaluate_fields
from test_current import gamma_current
from test_solver import grid_scenarios
from test_solver import grid_scenarios


def normal_covector(surf, z):
    """Future-directed unit conormal n_mu = (1, -f'(z)) / sqrt(1 - f'^2)."""
    fp = np.asarray(surf.fprime(np.asarray(z, dtype=float)))
    return np.stack([np.ones_like(fp), -fp]) / np.sqrt(1.0 - fp * fp)


def covector_integrand(s, surf, z1, z2):
    """The pullback density written as n_mu(x1) n_nu(x2) j^{mu nu} times the
    induced length factors sqrt(1 - f'(z)^2) of both legs, with j taken from
    the gamma-matrix bilinear, not from the sign table."""
    psi = evaluate_fields(s, surf.f(z1), z1, surf.f(z2), z2)
    j = gamma_current(psi).real
    n1 = normal_covector(surf, z1)
    n2 = normal_covector(surf, z2)
    fp1 = surf.fprime(z1)
    fp2 = surf.fprime(z2)
    dens = np.einsum("m...,mn...,n...->...", n1, j, n2)
    return dens * np.sqrt(1.0 - fp1 * fp1) * np.sqrt(1.0 - fp2 * fp2)


def test_flat_surface():
    surf = flat(0.7)
    z = np.linspace(-3, 3, 7)
    assert np.array_equal(surf.f(z), np.full(7, 0.7))
    assert not surf.fprime(z).any()
    assert surf.s_max == 0.0
    n = normal_covector(surf, z)
    assert np.array_equal(n, np.stack([np.ones(7), np.zeros(7)]))


def test_boosted_flat_geometry():
    beta = 0.5
    surf = boosted_flat(beta, t0=0.2)
    z = np.linspace(-2, 2, 9)
    assert np.allclose(surf.f(z), 0.2 / math.cosh(beta) + math.tanh(beta) * z)
    assert np.allclose(surf.fprime(z), math.tanh(beta))
    assert surf.s_max == pytest.approx(math.tanh(beta))
    # unit future-directed conormal of a boosted slice
    n = normal_covector(surf, 0.0)
    assert n[0] == pytest.approx(math.cosh(beta))
    assert n[1] == pytest.approx(-math.sinh(beta))


def test_bump_surface_shape():
    surf = bump_surface(center=0.5, height=0.3, width=5.0)
    assert surf.f(0.5) == pytest.approx(0.3)
    z = np.array([0.5 - 2.5, 0.5 + 2.5, -10.0, 10.0])
    assert not surf.f(z).any() and not surf.fprime(z).any()
    zz = np.linspace(-1.8, 2.8, 41)
    h = 1e-6
    numeric = (surf.f(zz + h) - surf.f(zz - h)) / (2 * h)
    assert np.allclose(surf.fprime(zz), numeric, atol=1e-7)
    assert np.abs(surf.fprime(np.linspace(-2, 3, 5001))).max() <= surf.s_max < 1.0
    with pytest.raises(ValueError):
        bump_surface(0.0, 0.3, -1.0)


def test_bump_slope_bound_is_tight():
    for height in (0.3, -0.45):
        surf = bump_surface(center=0.5, height=height, width=5.0)
        largest = np.abs(surf.fprime(np.linspace(-2.0, 3.0, 200001))).max()
        assert largest <= surf.s_max
        assert surf.s_max - largest <= 1e-6 * surf.s_max


def test_slope_bound_enforced():
    with pytest.raises(ValueError):
        Hypersurface(f=lambda z: z, fprime=lambda z: np.ones_like(z), s_max=1.0)
    with pytest.raises(ValueError):
        Hypersurface(f=lambda z: z, fprime=lambda z: np.ones_like(z), s_max=-0.1)
    with pytest.raises(ValueError):
        bump_surface(0.0, 10.0, 2.0)
    surf = Hypersurface(
        f=lambda z: 0.5 * np.sin(z),
        fprime=lambda z: 0.5 * np.cos(z),
        s_max=0.5,
        label="wavy",
    )
    assert surf.s_max == 0.5 and surf.label == "wavy"


def test_quadrature_spec_validation():
    assert [f.name for f in fields(QuadratureSpec)] == ["panels", "box"]
    with pytest.raises(ValueError, match="panels >= 1"):
        QuadratureSpec(panels=0)
    q = QuadratureSpec(panels=32, box=(-1.0, 1.0))
    assert q.doubled() == QuadratureSpec(panels=64, box=(-1.0, 1.0))


@pytest.mark.parametrize(
    "box",
    [(4.0, -4.0), (0.0, 0.0), (math.nan, 4.0)],
    ids=["reversed", "empty", "nan"],
)
def test_quadrature_spec_rejects_a_bad_box(box, packet):
    with pytest.raises(ValueError, match=r"quadrature box \(.*\) must be finite"):
        QuadratureSpec(box=box)
    with pytest.raises(ValueError, match="quadrature box"):
        normalization_report(packet, flat(0.0), QuadratureSpec(box=box))


def test_truncation_box_covers_support(packet):
    hull = packet.initial.support_hull()
    for surf in acceptance_family():
        box = truncation_box(packet, surf)
        assert box is not None
        lo, hi = box
        # outside the box both null coordinates are outside the data hull
        f_lo = float(surf.f(np.asarray(lo)))
        f_hi = float(surf.f(np.asarray(hi)))
        assert lo - abs(f_lo) <= hull[0] + 1e-6
        assert hi + abs(f_hi) >= hull[1] - 1e-6


def _scalar_inversion(u, target):
    """One bisection per (map, target) pair with 0-d calls of u: the reference."""
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


@pytest.mark.parametrize(
    "config", ["wavepacket", "spin_product", "mirror_bump", "custom2"]
)
def test_truncation_box_equals_the_scalar_bisections(config):
    """The four inversions, bisected together, give the boxes of four scalar
    bisections bit for bit, on every acceptance surface and a few far off."""
    if config == "custom2":
        s = grid_scenarios()["custom2"]
    else:
        with open(f"configs/{config}.json") as fh:
            s, _ = load_scenario(fh.read())
    hull = s.initial.support_hull()
    surfaces = acceptance_family() + [flat(-30.0), boosted_flat(2.0, 9.0)]
    for surf in surfaces:
        ends = [
            _scalar_inversion(lambda z: z + sign * float(surf.f(np.asarray(z))), end)
            for end in hull
            for sign in (-1.0, 1.0)
        ]
        lo, hi = min(ends[:2]), max(ends[2:])
        pad = 1e-9 * max(1.0, abs(lo), abs(hi))
        got = truncation_box(s, surf)
        assert all(type(v) is float for v in got)
        assert got == (lo - pad, hi + pad), surf.label


def test_truncation_box_none_for_zero_scenario():
    s = Scenario(initial=InitialData(half1=(ZERO2,) * 4, half2=(ZERO2,) * 4))
    assert truncation_box(s, flat(0.0)) is None
    report = normalization_report(s, flat(0.0))
    assert report.value == 0.0 and report.box is None and report.node_count == 0


def test_widening_the_box_is_lossless(packet):
    # support vanishes exactly outside the hull, panel edges line up, and
    # fsum makes the accumulation order-independent: same bits
    n1 = normalization_report(
        packet, flat(0.35), QuadratureSpec(panels=64, box=(-4.0, 4.0))
    ).value
    n2 = normalization_report(
        packet, flat(0.35), QuadratureSpec(panels=128, box=(-8.0, 8.0))
    ).value
    assert n1 == n2


def test_normalization_is_one_and_splits_into_masses(packet, rich):
    q = QuadratureSpec(panels=64)
    total = normalization_report(packet, flat(0.0), q).value
    assert total == pytest.approx(1.0, abs=1e-9)
    masses = component_masses(packet, 0.0, q)
    assert masses.shape == (4,)
    assert masses[1] == pytest.approx(1.0, abs=1e-9)
    assert masses[0] == masses[3] == 0.0
    assert masses[2] == pytest.approx(0.0, abs=1e-12)
    # on a flat slice the pullback density is j00 = sum of |psi_i|^2, and the
    # normalization integral is the fsum of the per-component totals
    for s, t in ((packet, 0.0), (rich, 0.4)):
        assert normalization_report(s, flat(t), q).value == math.fsum(
            component_masses(s, t, q)
        )


def test_normalization_report_counts(packet):
    rep = normalization_report(packet, flat(0.2), QuadratureSpec(panels=32))
    assert rep.excluded_pairs == 0
    assert rep.node_count > 0
    assert rep.box is not None


def test_conserved_across_surface_pair(packet):
    a = normalization_report(packet, flat(0.0)).value
    b = normalization_report(packet, boosted_flat(0.3)).value
    assert abs(a - b) < 1e-6
    assert a == pytest.approx(1.0, abs=1e-6)


def densities(psi, fp1, fp2):
    """The four terms of F (_density) at field values psi of shape (4, ...)."""
    return np.stack([_density(comp, v, fp1, fp2) for comp, v in enumerate(psi, start=1)])


def test_pullback_equals_covector_density(packet):
    rng = np.random.default_rng(8)
    surf = boosted_flat(0.4)
    z1 = rng.uniform(-3, 3, 200)
    z2 = rng.uniform(-3, 3, 200)
    keep = np.abs(z1 - z2) > 1e-3
    z1, z2 = z1[keep], z2[keep]
    psi = evaluate_fields(packet, surf.f(z1), z1, surf.f(z2), z2)
    a = densities(psi, surf.fprime(z1), surf.fprime(z2)).sum(axis=0)
    b = covector_integrand(packet, surf, z1, z2)
    assert np.abs(a - b).max() <= 1e-12


def test_worker_count_env(monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # valid values never warn
        monkeypatch.delenv("MTDIRAC_THREADS", raising=False)
        assert worker_count() == 1
        monkeypatch.setenv("MTDIRAC_THREADS", "8")
        assert worker_count() == 8
    for bad in ("abc", "two", "0", "-3"):
        monkeypatch.setenv("MTDIRAC_THREADS", bad)
        with pytest.warns(RuntimeWarning, match=f"MTDIRAC_THREADS='{bad}'"):
            assert worker_count() == 1


def test_thread_count_never_changes_bits(packet, monkeypatch):
    monkeypatch.setenv("MTDIRAC_THREADS", "1")
    serial = normalization_report(packet, flat(0.3), QuadratureSpec(panels=48)).value
    monkeypatch.setenv("MTDIRAC_THREADS", "4")
    threaded = normalization_report(packet, flat(0.3), QuadratureSpec(panels=48)).value
    assert serial == threaded


def test_thread_count_never_changes_bits_at_128_panels(rich, monkeypatch):
    # 1024 axis nodes on 3 threads: row blocks of 341, 341 and 342
    q = QuadratureSpec(panels=128)
    surf = bump_surface(0.0, 0.3, 5.0)
    monkeypatch.setenv("MTDIRAC_THREADS", "1")
    serial = _integrate(rich, surf, q)
    monkeypatch.setenv("MTDIRAC_THREADS", "3")
    threaded = _integrate(rich, surf, q)
    assert np.array_equal(serial[0], threaded[0]) and serial[1:] == threaded[1:]
    assert serial[3] == 1_056_768
    rep = normalization_report(rich, surf, q)
    assert rep.value == math.fsum(serial[0]) and rep.node_count == serial[3]


def spacelike_fields(s, t1, z1, t2, z2):
    """evaluate_fields on the space-like pairs, zero on the others, and the
    count of the others."""
    _, _, bad = region_masks(t1, z1, t2, z2)
    psi = np.zeros((4, t1.size), dtype=complex)
    ok = ~bad
    psi[:, ok] = evaluate_fields(s, t1[ok], z1[ok], t2[ok], z2[ok])
    return psi, int(bad.sum())


def pointwise_integrate(s, surf, q):
    """_integrate assembled point by point: evaluate_fields on the flattened
    off-diagonal panel blocks and on the collapsed triangles of the diagonal
    panels, each with the Gauss order of the axis nodes.  Returns the
    totals, the box and the count of pairs that are not space-like."""
    box = q.box if q.box is not None else truncation_box(s, surf)
    edges = np.linspace(box[0], box[1], q.panels + 1)
    nodes, weights = gauss_panels(edges, GAUSS_ORDER)
    p, m = nodes.shape
    shape = (p, m, p, m)
    z1 = np.broadcast_to(nodes[:, :, None, None], shape)
    z2 = np.broadcast_to(nodes[None, None, :, :], shape)
    off = np.broadcast_to(~np.eye(p, dtype=bool)[:, None, :, None], shape)
    z1f, z2f = z1[off], z2[off]
    psi, excluded = spacelike_fields(s, surf.f(z1f), z1f, surf.f(z2f), z2f)
    vals = np.zeros((4,) + shape)
    vals[:, off] = densities(psi, surf.fprime(z1f), surf.fprime(z2f))
    parts = [np.einsum("io,jp,kiojp->kij", weights, weights, vals).reshape(4, -1)]
    x, w = np.polynomial.legendre.leggauss(m)
    u = 0.5 * (x + 1.0)
    wuv = (0.5 * w[:, None] * (0.5 * w)[None, :]) * u[:, None]
    a, width = edges[:-1], edges[1:] - edges[:-1]
    zu = a[:, None, None] + width[:, None, None] * np.broadcast_to(u[:, None], wuv.shape)
    zv = a[:, None, None] + width[:, None, None] * (u[:, None] * u[None, :])
    zu, zv = zu.reshape(-1), zv.reshape(-1)
    for z1t, z2t in ((zv, zu), (zu, zv)):
        psi_t, bad = spacelike_fields(s, surf.f(z1t), z1t, surf.f(z2t), z2t)
        excluded += bad
        red = densities(psi_t, surf.fprime(z1t), surf.fprime(z2t))
        tri = np.einsum("uv,kpuv->kp", wuv, red.reshape(4, p, u.size, u.size))
        parts.append(tri * (width * width)[None, :])
    parts = np.concatenate(parts, axis=1)
    return np.array([math.fsum(row) for row in parts]), box, excluded


def moment_scale(s, surf, q):
    """An upper bound M on the sum, over the branches _integrate takes from
    moments, of (sum_i A_i)(sum_j B_j), plus the oracle's scale.

    A factored datum c px(a) py(b) feeds two branches: its own initial one
    and the boundary branch of its partner (|exp(-+ i theta)|^2 = 1).  Each
    profile is read at one null coordinate z -+ f(z) of every node, and the
    Jacobians 1 +- f' are below 2, so sum_i A_i <= c sum_i 2 w_i
    max(|px(z_i - f_i)|^2, |px(z_i + f_i)|^2), and likewise for B."""
    box = q.box if q.box is not None else truncation_box(s, surf)
    edges = np.linspace(box[0], box[1], q.panels + 1)
    nodes, weights = gauss_panels(edges, GAUSS_ORDER)
    z = nodes.reshape(-1)
    t, w = surf.f(z), 2.0 * weights.reshape(-1)

    def mass(profile):
        return np.sum(w * np.maximum(np.abs(profile(z - t)), np.abs(profile(z + t))) ** 2)

    scale = 0.0
    for half in (1, 2):
        for comp in (1, 2, 3, 4):
            f = s.initial.component(comp, half).factors
            if f is not None:
                c = math.prod(abs(k) ** 2 for k in f.pre)
                scale += 2.0 * c * mass(f.px) * mass(f.py)
    return scale


def assert_within_moment_bound(totals, expected, s, surf, q):
    """|totals - expected| <= 5 N u (M + sum of |expected|) per component.

    Per factored branch the moments differ from the grid by the rounding of
    the prefix and suffix sums, at most 2 N u sum_j B_j for each S_i (an
    inner interval subtracts two of them), and by at most ~16 u per term in
    forming A_i B_j instead of the grid's |psi|^2 J1 J2 w_i w_j; the oracle's
    Gauss blocks add at most (m^2 + 16) u of its total, m = GAUSS_ORDER.  With
    N = panels * m >= 32 nodes per axis, 2 N + m^2 + 32 <= 5 N."""
    n = q.panels * GAUSS_ORDER
    scale = moment_scale(s, surf, q) + np.abs(expected).sum()
    bound = 5 * n * np.finfo(float).eps / 2 * scale
    assert np.abs(totals - expected).max() <= bound


@pytest.mark.parametrize("panels", [12, 25], ids=["gauss", "gauss25"])
@pytest.mark.parametrize("name", ["packet", "rich", "antisym", *grid_scenarios()])
def test_integrate_equals_pointwise_assembly(name, panels, request, monkeypatch):
    # custom2's data are all functions, so every branch takes the grid path:
    # the same bits as the oracle.  Every other scenario has factored
    # branches, which _integrate takes from moments: within the bound.
    # Both grids have at least 64 rows, so MTDIRAC_THREADS=3 splits them
    # into row blocks.  On flat(0) with the box (-2, 2) null coordinates are
    # the nodes themselves.
    s = grid_scenarios().get(name) or request.getfixturevalue(name)
    q = QuadratureSpec(panels=panels)
    cases = [(bump_surface(0.2, 0.3, 4.0), q), (boosted_flat(-0.4), q), (flat(1.1), q)]
    cases.append((flat(0.0), replace(q, box=(-2.0, 2.0))))
    for surf, qs in cases:
        expected, expected_box, expected_excluded = pointwise_integrate(s, surf, qs)
        for threads in ("1", "3"):
            monkeypatch.setenv("MTDIRAC_THREADS", threads)
            totals, excluded, box, nodes = _integrate(s, surf, qs)
            if name == "custom2":
                assert np.array_equal(totals, expected)
            else:
                assert_within_moment_bound(totals, expected, s, surf, qs)
            assert totals.any() and box == expected_box
            assert excluded == expected_excluded == 0
            assert nodes == (panels * GAUSS_ORDER) ** 2 + panels * GAUSS_ORDER**2


def test_moments_send_seam_ties_to_the_boundary_branch():
    # on t = -1/2 the Gauss nodes of the 4 panels of (-2, 2) give ties
    # x == y off the diagonal panels: psi2's x = z_i + 1/2 and y = z_j - 1/2
    # on half 1, psi3's on half 2.  g2 and g3 are not mirrored, so the two
    # branches differ on the seam, and a tie on the initial branch would
    # move the totals far past the bound
    g2 = product2(smooth_bump(-1.5, 1.5, momentum=0.7), smooth_bump(-1.5, 1.5))
    g3 = product2(smooth_bump(-1.5, 1.5, amplitude=0.3), smooth_bump(-1.5, 1.5))
    half = (ZERO2, g2, g3, ZERO2)
    s = Scenario(InitialData(half, half), BoundaryPhase(Phase("constant", 0.4)))
    q = QuadratureSpec(panels=4, box=(-2.0, 2.0))
    nodes, _ = gauss_panels(np.linspace(-2.0, 2.0, 5), GAUSS_ORDER)
    z = nodes.reshape(-1)
    i, j = np.nonzero((z + 0.5)[:, None] == (z - 0.5)[None, :])
    assert (i // GAUSS_ORDER < j // GAUSS_ORDER).sum() >= 10
    expected, _, _ = pointwise_integrate(s, flat(-0.5), q)
    totals, _, _, _ = _integrate(s, flat(-0.5), q)
    assert_within_moment_bound(totals, expected, s, flat(-0.5), q)


def test_moments_read_each_profile_once_per_null_coordinate(rich, monkeypatch):
    # a boundary branch carries its partner's profiles, and a mirrored datum
    # its source's: each (profile, null coordinate) on the axis nodes is read
    # once for all the branches that share it
    q = QuadratureSpec(panels=16)
    n = q.panels * GAUSS_ORDER
    reads = []
    call = Profile1D.__call__

    def recorded(self, x):
        if np.size(x) == n:
            reads.append((id(self), np.asarray(x).tobytes()))
        return call(self, x)

    monkeypatch.setattr(Profile1D, "__call__", recorded)
    totals, _, _, _ = _integrate(rich, bump_surface(0.0, 0.3, 5.0), q)
    assert totals.any() and reads
    assert len(set(reads)) == len(reads)


def test_certificate_failure_takes_the_grid_path(rich):
    # 32 Gauss nodes in a box 48 ulps wide: nodes collide in float, so the
    # moments are not certified and every branch takes the grid path, which
    # counts the pairs of equal nodes in different panels as excluded.  On
    # t = 1 psi2 reads g2 at (z - 1, z + 1), inside its support at z = 1/4
    lo = 0.25
    box = (lo, lo + 48 * float(np.spacing(lo)))
    q = QuadratureSpec(panels=4, box=box)
    nodes, _ = gauss_panels(np.linspace(*box, 5), GAUSS_ORDER)
    assert not _certified(np.ones(nodes.size), nodes.reshape(-1))
    expected, _, expected_excluded = pointwise_integrate(rich, flat(1.0), q)
    totals, excluded, _, _ = _integrate(rich, flat(1.0), q)
    assert np.array_equal(totals, expected) and totals.any()
    assert excluded == expected_excluded > 0


profiles = st.builds(
    lambda lo, width, momentum: smooth_bump(lo, lo + width, momentum=momentum),
    st.floats(-3.0, 2.0),
    st.floats(0.5, 3.0),
    st.floats(-4.0, 4.0),
)
products = st.builds(product2, profiles, profiles)
phases = st.one_of(
    st.builds(lambda v: Phase("constant", v), st.floats(-4.0, 4.0)),
    st.sampled_from([Phase("plus_i"), Phase("minus_i")]),
)
surfaces = st.one_of(
    st.builds(flat, st.floats(-1.5, 1.5)),
    st.builds(boosted_flat, st.floats(-0.8, 0.8), st.floats(-1.0, 1.0)),
    st.builds(
        lambda c, h, w: bump_surface(c, h * w, w),
        st.floats(-1.0, 1.0),
        st.floats(-0.2, 0.2),
        st.floats(2.0, 6.0),
    ),
)


@st.composite
def separable_scenarios(draw):
    """Factored data on both halves under preset phases: products, mirrors
    (which join the boundary branch smoothly) and antisymmetric extensions."""
    optional = st.one_of(st.just(ZERO2), products)
    th1, th2 = draw(phases), draw(phases)
    g2 = draw(products)
    g3 = draw(st.one_of(st.just(phase_mirrored(g2, th1, target=3)), products))
    half1 = (draw(optional), g2, g3, draw(optional))
    if draw(st.booleans()):
        return antisymmetric_extension(half1, th1)
    g3 = draw(products)
    g2 = draw(st.one_of(st.just(phase_mirrored(g3, th2, target=2)), products))
    half2 = (draw(optional), g2, g3, draw(optional))
    return Scenario(InitialData(half1, half2), BoundaryPhase(th1, th2))


@given(separable_scenarios(), surfaces, st.integers(4, 40))
def test_moments_match_the_pointwise_assembly(s, surf, panels):
    q = QuadratureSpec(panels=panels)
    expected, _, expected_excluded = pointwise_integrate(s, surf, q)
    totals, excluded, _, _ = _integrate(s, surf, q)
    assert_within_moment_bound(totals, expected, s, surf, q)
    assert excluded == expected_excluded == 0


def test_quadrature_memory_is_linear_in_the_nodes(rich):
    # 2048 nodes per axis: a (4, N, N) float grid would be 134 MB
    q = QuadratureSpec(panels=256)
    surf = bump_surface(0.0, 0.3, 5.0)
    tracemalloc.start()
    try:
        report = normalization_report(rich, surf, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.excluded_pairs == 0 and report.value > 0.0
    assert peak < 32e6


def test_absorbing_boundary_breaks_conservation(leaky):
    a = normalization_report(leaky, flat(0.0)).value
    b = normalization_report(leaky, flat(0.7)).value
    assert abs(a - b) > 1e-3


@pytest.mark.filterwarnings("error")
def test_quadrature_rejects_non_finite_field_values():
    from test_interaction import nan_data

    s = nan_data()  # NaN in a 1 x 1 box of psi2
    named = r"psi2 has \d+ non-finite entries \(NaN or inf\) among its quadrature terms"
    with pytest.raises(ValueError, match=named + " on surface flat"):
        component_masses(s, 0.5, QuadratureSpec(panels=4))
    with pytest.raises(ValueError, match=named + " on surface bump"):
        normalization_report(s, bump_surface(0.0, 0.3, 5.0), QuadratureSpec(panels=4))


def test_acceptance_family_contents():
    family = acceptance_family()
    assert len(family) == 5
    assert all(surf.s_max < 1.0 for surf in family)
    labels = [surf.label for surf in family]
    assert labels.count("flat") == 2
