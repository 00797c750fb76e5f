import functools
import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from probes import bc_defect, characteristic_anchor, compatibility_gap, evaluate
from tracing import reference_value

from mtdirac.current import continuity_residual
from mtdirac.geometry import (
    Configuration,
    DomainError,
    Region,
    classify,
    region_masks,
    sample_spacelike,
)
from mtdirac.interaction import wavepacket_scenario
from mtdirac.lorentz import Boost, transformed_fields
from mtdirac.profiles import Profile1D, poly_bump, smooth_bump
from mtdirac.scenario import (
    PHASE_PRESETS,
    BRANCH_MAPS,
    BoundaryPhase,
    Component2D,
    InitialData,
    Phase,
    Scenario,
    ZERO2,
    absorbing_override,
    antisymmetric_extension,
    boundary_maps,
    initial_branch,
    load_scenario,
    null_pair,
    phase_mirrored,
    product2,
)
from mtdirac.solver import (
    StencilError,
    _branch_factors,
    boundary_trace_fields,
    check_compatibility,
    evaluate_fields,
    evaluate_grid,
    field_residual,
    pde_residual,
    require_stencil_room,
    seam_mismatch,
)


def test_general_solution_slots():
    c = Configuration(1.0, 2.0, 0.5, 5.0)
    plane_data = {
        1: lambda x, y: x + 1j * y,
        2: lambda x, y: 10 * x + 1j * y,
        3: lambda x, y: 100 * x + 1j * y,
        4: lambda x, y: 1000 * x + 1j * y,
    }
    out = [f(*null_pair(i, *astuple(c))) for i, f in plane_data.items()]
    # slot arguments: (z1-t1, z2-t2), (z1-t1, z2+t2), (z1+t1, z2-t2), (z1+t1, z2+t2)
    assert out[0] == 1.0 + 4.5j
    assert out[1] == 10.0 + 5.5j
    assert out[2] == 300.0 + 4.5j
    assert out[3] == 3000.0 + 5.5j


def test_evaluate_matches_scalar_walk_back(packet, rich):
    rng = np.random.default_rng(42)
    for s in (packet, rich):
        t1, z1, t2, z2 = sample_spacelike(rng, 300, (-2.5, 2.5), (-4.0, 4.0))
        vals = evaluate_fields(s, t1, z1, t2, z2)
        worst = 0.0
        for k in range(t1.size):
            ref = reference_value(
                s, float(t1[k]), float(z1[k]), float(t2[k]), float(z2[k])
            )
            worst = max(worst, max(abs(vals[i][k] - ref[i]) for i in range(4)))
        assert worst <= 1e-12


def test_boundary_branch_matches_the_oracle_near_support_edges(rich):
    # the seeded mirror_bump rows of the evaluate --points digest, space-like
    # ones only; the boundary branch reads the partner at (y, x), as the
    # oracle does, so each psi2/psi3 value is within 1e-15 of it, relatively
    rng = np.random.default_rng(4)
    t1, t2 = rng.uniform(-3.25, 3.25, (2, 4096))
    z1, z2 = rng.uniform(-3.0, 3.5, (2, 4096))
    _, _, bad = region_masks(t1, z1, t2, z2)
    pts = [a[~bad] for a in (t1, z1, t2, z2)]
    vals = evaluate_fields(rich, *pts)
    ref = np.array([reference_value(rich, *map(float, c)) for c in zip(*pts)]).T
    assert ref[2].any()
    for i in (1, 2):
        assert np.all(np.abs(vals[i] - ref[i]) <= 1e-15 * np.abs(ref[i]))


def _incompatible_pair():
    # g2 overlaps the diagonal and g3 vanishes on both halves
    bump = smooth_bump(-2.0, 3.0)
    half = (ZERO2, product2(bump, bump), ZERO2, ZERO2)
    return Scenario(
        initial=InitialData(half1=half, half2=half),
        phase=BoundaryPhase(Phase(0.7), Phase(-0.3)),
    )


def test_seam_ties_take_the_boundary_branch():
    # the two branches of psi2 and psi3 differ on their seams; dyadic
    # coordinates make the ties exact
    s = _incompatible_pair()
    assert compatibility_gap(s) > 1e-12
    # (t1, z1, t2, z2, component on its seam, half)
    ties = [
        (-0.5, 0.25, -0.25, 1.0, 2, 1),  # z1 - t1 == z2 + t2
        (0.5, 0.25, 0.25, 1.0, 3, 1),  # z1 + t1 == z2 - t2
        (0.5, 1.0, 0.25, 0.25, 2, 2),
        (-0.5, 1.0, -0.25, 0.25, 3, 2),
    ]
    t1, z1, t2, z2 = (np.array([p[k] for p in ties]) for k in range(4))
    vals = evaluate_fields(s, t1, z1, t2, z2)
    for k, (*c, comp, half) in enumerate(ties):
        x, y = null_pair(comp, *c)
        assert x == y and classify(Configuration(*c)) is Region(f"Omega{half}")
        assert tuple(vals[:, k]) == reference_value(s, *c)
        assert vals[comp - 1, k] != s.initial.component(comp, half)(x, y)


def test_evaluate_shape_and_broadcast(packet):
    c = Configuration(0.2, -1.5, 0.1, 1.5)
    psi = evaluate(packet, c)
    assert psi.shape == (4,) and psi.dtype == complex
    t1 = np.full((3, 5), 0.2)
    vals = evaluate_fields(packet, t1, -1.5, 0.1, 1.5)
    assert vals.shape == (4, 3, 5)
    assert np.allclose(vals[:, 0, 0], psi)


def test_non_spacelike_configurations_rejected(packet):
    for c in (
        Configuration(0.0, 0.0, 1.0, 1.0),  # light-like
        Configuration(0.0, 0.0, 2.0, 1.0),  # time-like
        Configuration(0.3, 0.5, 0.3, 0.5),  # coincidence
    ):
        with pytest.raises(DomainError):
            evaluate(packet, c)
    # one bad point poisons a batch
    with pytest.raises(DomainError):
        evaluate_fields(packet, [0.0, 0.0], [0.0, 0.0], [0.0, 1.0], [1.0, 1.0])


@pytest.mark.parametrize(
    "point",
    [(0.0, 1.5e308, 0.0, -1.5e308), (0.0, math.inf, 0.0, 0.0)],
    ids=["overflowing", "infinite"],
)
def test_nonfinite_coordinate_difference_is_named(packet, point):
    # an overflowing or infinite difference is outside the domain, named as
    # such, not evaluated as Omega2 and not blamed on the interval
    with pytest.raises(DomainError) as err:
        evaluate_fields(packet, *(np.array([0.0, p]) for p in point))
    assert str(err.value) == (
        "1 of 2 configurations have a coordinate difference that is not finite, "
        f"first at (t1={point[0]}, z1={point[1]}, t2={point[2]}, z2={point[3]})"
    )


def test_time_zero_recovers_initial_data(packet):
    z1 = np.linspace(-2.9, -1.1, 25)
    z2 = np.linspace(1.1, 2.9, 25)
    vals = evaluate_fields(packet, 0.0, z1, 0.0, z2)
    ini = packet.initial
    assert np.array_equal(vals[0], ini.component(1, 1)(z1, z2))
    assert np.array_equal(vals[1], ini.component(2, 1)(z1, z2))
    assert np.array_equal(vals[2], ini.component(3, 1)(z1, z2))
    assert np.array_equal(vals[3], ini.component(4, 1)(z1, z2))


def test_zero_scenario_evaluates_to_zero():
    s = Scenario(initial=InitialData(half1=(ZERO2,) * 4, half2=(ZERO2,) * 4))
    rng = np.random.default_rng(1)
    pts = sample_spacelike(rng, 64, (-2, 2), (-3, 3))
    assert not evaluate_fields(s, *pts).any()
    r1, r2 = pde_residual(s, 0.2, -1.0, 0.1, 1.0)
    assert not r1.any() and not r2.any()


def test_pde_residual_small_on_smooth_data(packet, rich):
    rng = np.random.default_rng(9)
    h = 1e-4
    for s in (packet, rich):
        t1, z1, t2, z2 = sample_spacelike(rng, 40, (-1.5, 1.5), (-3.5, 3.5), margin=4 * h)
        r1, r2 = pde_residual(s, t1, z1, t2, z2, h=h)
        assert max(float(np.abs(r1).max()), float(np.abs(r2).max())) < 1e-6


def test_stencil_guard():
    c = (0.0, 0.0, 0.0, 1e-5)
    with pytest.raises(StencilError):
        require_stencil_room(*c, 1e-4)
    s = Scenario(initial=InitialData(half1=(ZERO2,) * 4, half2=(ZERO2,) * 4))
    with pytest.raises(StencilError):
        pde_residual(s, *c, h=1e-4)
    with pytest.raises(ValueError):
        pde_residual(s, 0.0, 0.0, 0.0, 1.0, h=0.0)
    # the error counts the configurations without room and names the first
    z2 = np.array([1.0, 1e-5, 2.0, 1e-6])
    with pytest.raises(StencilError) as err:
        pde_residual(s, 0.0, 0.0, 0.0, z2, h=1e-4)
    assert str(err.value) == (
        "2 of 4 configurations lack room for stencil step 1.000e-04, "
        "first at (t1=0.0, z1=0.0, t2=0.0, z2=1e-05) with margin 5.000e-06"
    )
    # a non-finite coordinate is named as such, not as a margin or the domain
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(StencilError) as err:
            pde_residual(s, 0.0, np.array([0.5, bad, bad]), 0.0, 2.0, h=1e-4)
        assert str(err.value) == (
            "2 of 3 configurations have a non-finite coordinate, "
            f"first at (t1=0.0, z1={bad}, t2=0.0, z2=2.0)"
        )


def test_batched_probes_equal_the_per_configuration_probes(rich):
    # one stencil call over K configurations gives the numbers of K calls
    rng = np.random.default_rng(21)
    h = 1e-4
    pts = sample_spacelike(rng, 12, (-1.5, 1.5), (-3.5, 3.5), margin=4 * h)
    trans = functools.partial(transformed_fields, rich, Boost(0.4))
    probes = [
        (4, lambda *c: pde_residual(rich, *c, h)),
        (2, lambda *c: continuity_residual(rich, *c, h)),
        (4, lambda *c: field_residual(trans, *c, h)),
    ]
    for rows, probe in probes:
        single = [probe(*c) for c in zip(*pts)]
        assert all(part.shape == (rows,) for parts in single for part in parts)
        stacked = [np.stack(parts, axis=-1) for parts in zip(*single)]
        batched = probe(*pts)
        assert len(batched) == 2 and all(map(np.array_equal, batched, stacked))
        grid = probe(*(a.reshape(3, 4) for a in pts))
        assert all(np.array_equal(g, b.reshape(rows, 3, 4)) for g, b in zip(grid, batched))


def test_boundary_trace_jump_condition(packet, rich):
    t = np.linspace(-2.0, 2.0, 41)
    z = np.linspace(-3.0, 3.0, 41)
    for s in (packet, rich):
        for side in (1, 2):
            d = bc_defect(s, t[:, None], z[None, :], side)
            assert np.abs(d).max() <= 1e-13


def test_boundary_trace_is_one_sided_limit(rich):
    eps = 1e-9
    for side, sgn in ((1, -1.0), (2, 1.0)):
        tr = boundary_trace_fields(rich, 0.35, 0.6, side)
        assert tr.values.shape == (4,)
        near = evaluate_fields(rich, 0.35, 0.6 + sgn * eps, 0.35, 0.6 - sgn * eps)
        assert np.abs(tr.values - near).max() < 1e-6


def test_boundary_trace_validates_side(packet):
    with pytest.raises(ValueError):
        boundary_trace_fields(packet, 0.0, 0.0, 3)


def test_one_sided_scenario_is_silent_on_the_empty_half(packet):
    # all packet data live on z1 < z2; the other half carries nothing
    tr = boundary_trace_fields(packet, np.linspace(-1, 1, 9), np.linspace(-2, 2, 9), 2)
    assert not tr.values.any()


def _start(component, c, region_sign):
    """Start of the characteristic through c, and whether it is on the boundary."""
    *start, boundary = characteristic_anchor(component, *astuple(c), region_sign)
    return Configuration(*map(float, start)), bool(boundary)


def _along(c, start, taus):
    """Points (1 - tau) * start + tau * c of the characteristic segment."""
    for tau in taus:
        yield Configuration(
            *(s + tau * (a - s) for s, a in zip(astuple(start), astuple(c)))
        )


def test_characteristic_curve_initial_case(packet):
    c = Configuration(0.25, -1.75, 0.5, 1.25)  # x1m = -2.0 < x2p = 1.75
    start, boundary = _start(2, c, -1.0)
    assert start == Configuration(0.0, -2.0, 0.0, 1.75) and not boundary
    ref = evaluate(packet, c)[1]
    for p in _along(c, start, (0.15, 0.5, 0.85, 1.0)):
        assert evaluate(packet, p)[1] == pytest.approx(ref, abs=1e-14)


def test_characteristic_curve_boundary_case(packet):
    c = Configuration(3.0, 1.0, 3.0, -1.0)  # Omega2, x1m = -2 <= x2p = 2
    start, boundary = _start(2, c, 1.0)
    assert start == Configuration(2.0, 0.0, 2.0, 0.0) and boundary
    assert classify(start) is Region.COINCIDENCE
    ref = evaluate(packet, c)[1]
    for p in _along(c, start, (0.2, 0.6, 1.0)):
        assert classify(p) is Region.OMEGA2
        assert evaluate(packet, p)[1] == pytest.approx(ref, abs=1e-14)


def test_characteristic_curve_components_1_and_4_start_at_time_zero():
    c = Configuration(0.4, -1.0, 0.7, 1.2)
    assert _start(1, c, -1.0) == (Configuration(0.0, -1.4, 0.0, 0.5), False)
    assert _start(4, c, -1.0) == (Configuration(0.0, -0.6, 0.0, 1.9), False)


def test_characteristic_curve_rejections():
    with pytest.raises(ValueError):
        characteristic_anchor(5, 0.0, 0.0, 0.0, 1.0, -1.0)


@given(st.integers(2, 3), st.integers(1, 2))
def test_seam_branches_match_to_second_order(comp, half):
    # fixture scope does not mix with hypothesis; rebuild the packet cheaply
    from mtdirac.interaction import wavepacket_scenario
    from mtdirac.scenario import Phase

    s = wavepacket_scenario(-3.0, -1.0, 1.0, 3.0, theta1=Phase(0.7))
    v = np.linspace(-2.5, 2.5, 21)
    m = seam_mismatch(s, comp, half, v)
    assert m.shape == (3, 21)
    assert m[0].max() <= 1e-14
    assert m[1].max() <= 1e-10
    assert m[2].max() <= 1e-7


def _compatibility_oracle(s) -> dict[str, float]:
    """|g(z, z) - map(0, z)| through boundary_maps, on 512 points spanning
    the support hull padded by 5%: the matching conditions read off the maps."""
    lo, hi = s.initial.support_hull()
    pad = 0.05 * (hi - lo)
    z = np.linspace(lo - pad, hi + pad, 512)
    maps = boundary_maps(s)
    return {
        f"g{comp}_half{half}_vs_{name}": float(
            np.max(
                np.abs(
                    s.initial.component(comp, half)(z, z)
                    - getattr(maps, name)(np.zeros_like(z), z)
                )
            )
        )
        for (comp, half), name in BRANCH_MAPS.items()
    }


def _diagonal_pair(theta: Phase, compatible: bool):
    # g2 overlaps the diagonal on [-0.5, 0.5]; g3 is its mirror, or zero
    g2 = product2(smooth_bump(-2.0, 0.5, momentum=0.6), smooth_bump(-0.5, 2.0))
    g3 = phase_mirrored(g2, theta, target=3) if compatible else ZERO2
    half = (ZERO2, g2, g3, ZERO2)
    return Scenario(InitialData(half, half), BoundaryPhase(theta, theta.negated()))


@pytest.mark.parametrize(
    "name",
    ["incompatible", "absorbing_override", "custom_phase", "custom_phase_incompatible"],
)
def test_compatibility_order_zero_is_the_boundary_map_gap(name):
    # the seam probe's order 0 is bit for bit the gap between the data and
    # the boundary map feeding them at t = 0
    custom = Phase(fn=lambda t, z: 0.3 + 0.2 * z - 0.7 * t)
    mirrored = _diagonal_pair(Phase(0.4), compatible=True)
    s = {
        "incompatible": _incompatible_pair(),
        "absorbing_override": absorbing_override(mirrored, "h1_plus"),
        "custom_phase": _diagonal_pair(custom, compatible=True),
        "custom_phase_incompatible": _diagonal_pair(custom, compatible=False),
    }[name]
    maxima = check_compatibility(s)
    oracle = _compatibility_oracle(s)
    assert sorted(maxima) == sorted(oracle)
    for key, gap in oracle.items():
        assert maxima[key].shape == (3,)
        assert maxima[key][0] == gap, key
    assert max(oracle.values()) > 0.0


def test_seam_mismatch_validates_arguments(packet):
    with pytest.raises(ValueError):
        seam_mismatch(packet, 1, 1, 0.0)
    with pytest.raises(ValueError):
        seam_mismatch(packet, 2, 3, 0.0)


# ---------------------------------------------------------------------------
# tensor grids
# ---------------------------------------------------------------------------


def wave(lo, hi, momentum):
    return smooth_bump(lo, hi, momentum=momentum)


def sharp(lo, hi, momentum):
    """A profile whose first value inside either end is not rounded to 0."""
    return poly_bump(lo, hi, smoothness=0, momentum=momentum)


def _mirrored_pair(kind1: str, kind2: str) -> Scenario:
    """Both halves populated; g3 mirrored from g2 on half 1, g2 from g3 on half 2."""
    th1, th2 = Phase(PHASE_PRESETS[kind1]), Phase(PHASE_PRESETS[kind2])
    g2 = product2(wave(-2.5, 0.5, 0.9), wave(-0.5, 2.5, 0.2))
    g3 = product2(smooth_bump(-0.5, 2.5, amplitude=0.5j), wave(-2.5, 0.5, 1.3))
    g1 = product2(wave(-2.0, 1.0, 0.6), wave(-1.0, 2.0, -0.7))
    return Scenario(
        initial=InitialData(
            half1=(g1, g2, phase_mirrored(g2, th1, target=3), ZERO2),
            half2=(ZERO2, phase_mirrored(g3, th2, target=2), g3, g1),
        ),
        phase=BoundaryPhase(th1, th2),
    )


@functools.cache
def grid_scenarios() -> dict[str, Scenario]:
    """Every kind of datum: factored products, exchanges and mirrors under
    each preset phase, and the pointwise-only ones (a datum given by its
    function, a custom phase, an overridden boundary map).  Also data whose
    supports end on the diagonal x = y = 0 and on the hull (-2, 2), with
    profiles that stay nonzero up to their ends, and mirror_bump with
    support boxes narrower than the profiles of g4 and of the partner g2 on
    half 2."""
    theta = Phase(0.8)
    wavy = Phase(fn=lambda t, z: 0.3 * t - 0.5 * z)
    # complex factors on both axes: a product of two real profiles would hide
    # a swapped operand order
    g2 = product2(wave(-2.5, 0.5, 1.1), wave(-0.5, 2.5, -0.6))
    g1 = product2(wave(-2.0, 0.0, 0.3), wave(0.0, 2.0, 0.4))

    def gauss(x, y):
        return np.exp(-x * x - 0.5j * y * y) * ((np.abs(x) < 2.5) & (np.abs(y) < 2.5))

    bumpy = Component2D(fn=gauss, box=((-2.5, 2.5), (-2.5, 2.5)))
    with open("configs/mirror_bump.json") as fh:
        rich, _ = load_scenario(fh.read())
    packet = wavepacket_scenario(-3.0, -1.0, 1.0, 3.0, theta1=Phase(0.7))
    edge2 = product2(sharp(-2.0, 0.0, 0.7), sharp(0.0, 2.0, -0.3))
    edge1 = product2(sharp(-2.0, 2.0, 0.2), sharp(0.0, 2.0, 0.5))
    g4, g2_2 = rich.initial.half1[3], rich.initial.half2[1]
    narrowed = InitialData(
        half1=(*rich.initial.half1[:3], replace(g4, box=((-1.0, -0.5), (1.5, 2.0)))),
        half2=(rich.initial.half2[0], replace(g2_2, box=((1.0, 1.5), (-1.5, -1.0))),
               *rich.initial.half2[2:]),
    )
    return {
        "product": packet,
        "mirrored_constant": rich,
        "mirrored_plus_i": _mirrored_pair("plus_i", "minus_i"),
        "mirrored_minus_i": _mirrored_pair("minus_i", "plus_i"),
        "antisymmetric": antisymmetric_extension(
            (g1, g2, phase_mirrored(g2, theta, target=3), ZERO2), theta
        ),
        "custom2": Scenario(
            initial=InitialData(
                half1=(bumpy, bumpy, phase_mirrored(bumpy, theta, target=3), ZERO2),
                half2=(ZERO2, ZERO2, bumpy, bumpy),
            ),
            phase=BoundaryPhase(theta, theta),
        ),
        "custom_phase": antisymmetric_extension(
            (g1, g2, phase_mirrored(g2, wavy, target=3), ZERO2), wavy
        ),
        "absorbing": absorbing_override(packet, "h1_plus"),
        "touching": antisymmetric_extension(
            (edge1, edge2, phase_mirrored(edge2, theta, target=3), ZERO2), theta
        ),
        "narrowed": replace(rich, initial=narrowed),
    }


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def assert_grid_is_pointwise(s, t1, z1, t2, z2):
    """evaluate_grid equals evaluate_fields on the flattened grid, signed zeros
    included, and is +0 on every entry that is not space-like, which its mask
    marks."""
    grid, grid_bad = evaluate_grid(s, t1, z1, t2, z2)
    assert grid.shape == (4, t1.size, t2.size)
    n1, n2 = t1.size, t2.size
    pts = (np.repeat(t1, n2), np.repeat(z1, n2), np.tile(t2, n1), np.tile(z2, n1))
    _, _, bad = region_masks(*pts)
    assert np.array_equal(grid_bad.reshape(-1), bad)
    flat = grid.reshape(4, -1)
    assert not bits(flat[:, bad]).any()
    ok = ~bad
    ref = evaluate_fields(s, *(a[ok] for a in pts))
    assert np.array_equal(bits(flat[:, ok]), bits(ref))
    return pts, ok


dyadic = st.integers(-24, 24).map(lambda k: k / 8)
legs = st.lists(st.tuples(dyadic, dyadic), min_size=1, max_size=10)


@given(st.sampled_from(sorted(grid_scenarios())), legs, legs)
def test_grid_equals_pointwise_bit_for_bit(name, leg1, leg2):
    t1, z1 = np.array(leg1).T
    t2, z2 = np.array(leg2).T
    assert_grid_is_pointwise(grid_scenarios()[name], t1, z1, t2, z2)


@pytest.mark.parametrize("name", sorted(grid_scenarios()))
def test_grid_on_dyadic_legs_with_ties(name):
    # 1/8-spaced times and positions: exact diagonals, light-like pairs and
    # seam ties x == y of every component occur on this grid
    k = np.arange(-20, 21)
    t = (k % 5 - 2) / 4
    z = k / 8
    (t1, z1, t2, z2), ok = assert_grid_is_pointwise(grid_scenarios()[name], t, z, t, z)
    assert (~ok).any() and ((t1 == t2) & (z1 == z2)).any()
    for comp in (2, 3):
        x, y = null_pair(comp, t1, z1, t2, z2)
        assert (ok & (x == y) & (z1 < z2)).any() and (ok & (x == y) & (z1 > z2)).any()
    assert evaluate_grid(grid_scenarios()[name], t, z, t, z)[0].any()


def test_grid_reads_each_profile_per_axis(rich, monkeypatch):
    # both branches of psi2/psi3 take their factors on the axes, so no
    # profile sees more points than one particle has
    sizes = []
    call = Profile1D.__call__

    def counted(self, x):
        sizes.append(np.size(x))
        return call(self, x)

    monkeypatch.setattr(Profile1D, "__call__", counted)
    n1, n2 = 64, 48
    t1, z1 = np.full(n1, 1.5), np.linspace(-3.0, 3.5, n1)
    t2, z2 = np.full(n2, 1.5), np.linspace(-3.2, 3.3, n2)
    psi, _ = evaluate_grid(rich, t1, z1, t2, z2)
    assert psi[1].any() and psi[2].any()
    assert sizes and max(sizes) <= max(n1, n2)


def test_grid_validates_legs(packet):
    with pytest.raises(ValueError):
        evaluate_grid(packet, [0.0, 0.1], [0.0], [0.0], [1.0])


@functools.cache
def hostile_scenarios() -> dict[str, Scenario]:
    """Factored data whose boundary branches do not factor: a map overridden
    by one nonzero everywhere, and phases that are not finite (NaN times a
    zero read is NaN)."""
    g2 = product2(wave(-2.5, 0.5, 1.1), wave(-0.5, 2.5, -0.6))

    def mirrored(theta):
        half = (ZERO2, g2, phase_mirrored(g2, theta, target=3), ZERO2)
        return Scenario(InitialData(half, half), BoundaryPhase(theta, theta))

    def everywhere(t, z):
        return np.exp(-0.1 * z * z + 0.5j * t)

    def holed(t, z):  # finite at the origin, NaN from |t| = 1/2 on
        return np.where(np.abs(t) < 0.5, 0.3 * t, np.nan)

    plain = mirrored(Phase(0.8))
    maps = replace(boundary_maps(plain), h1_plus=everywhere, h2_minus=everywhere)
    with np.errstate(invalid="ignore"):  # exp(1j * inf) is NaN
        infinite = mirrored(Phase(np.inf))
    return {
        "map_everywhere": replace(plain, boundary_override=maps),
        "nan_custom_phase": mirrored(Phase(fn=holed)),
        "inf_constant_phase": infinite,
    }


@pytest.mark.parametrize("name", sorted(grid_scenarios()) + sorted(hostile_scenarios()))
def test_rectangles_reproduce_the_grid(name):
    # every pair of a time in [-3/4, 3/4] and a position in [-3, 3], 1/4
    # apart: dyadic, so the boundary branch reads the partner at (y, x)
    # exactly.  Each branch with factors c, pa, pb is a rectangle in the null
    # coordinates, |psi|^2 = c |pa(x)|^2 |pb(y)|^2 on its part of the grid,
    # to rounding; a branch with a non-finite value has none
    s = {**grid_scenarios(), **hostile_scenarios()}[name]
    t = np.repeat(np.arange(-3, 4) / 4, 25)
    z = np.tile(np.arange(-12, 13) / 4, 7)
    col, row = (t[:, None], z[:, None]), (t[None, :], z[None, :])
    with np.errstate(invalid="ignore"):
        psi, _ = evaluate_grid(s, *col, *row)
    m1, m2, _ = region_masks(*col, *row)
    factored = 0
    for comp in (1, 2, 3, 4):
        x, y = null_pair(comp, *col, *row)
        for half, where in ((1, m1), (2, m2)):
            seam = (comp, half) in BRANCH_MAPS
            for initial in (True, False) if seam else (True,):
                mask = where
                if seam:
                    on_initial = initial_branch(half, x, y)
                    mask = where & (on_initial if initial else ~on_initial)
                dens = np.abs(psi[comp - 1][mask]) ** 2
                factors = _branch_factors(s, comp, half, initial)
                if factors is None:
                    continue
                assert np.isfinite(dens).all()
                c, pa, pb = factors
                if c == 0.0:
                    assert not dens.any()
                    continue
                got = c * (np.abs(pa(x)) ** 2 * np.abs(pb(y)) ** 2)[mask]
                assert np.allclose(got, dens, rtol=1e-14, atol=0.0)
                factored += dens.any()
    # only data given by their functions leave no nonzero branch factored
    assert (factored == 0) == (name == "custom2")
