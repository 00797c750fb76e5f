import math
from dataclasses import astuple, replace
from functools import partial

import numpy as np
import pytest

from mtdirac.current import tensor_current
from mtdirac.geometry import Configuration, sample_spacelike, spacelike_margin
from mtdirac.lorentz import (
    COVARIANCE_STEP,
    Boost,
    commutation_defect,
    covariance_report,
    current_covariance_defect,
    generator,
    jump_covariance_defect,
    manifest_defect,
    manifest_sign,
    pair_factor,
    spinor_factor,
    transformed_fields,
)
from mtdirac.interaction import wavepacket_scenario
from mtdirac.scenario import (
    PHASE_PRESETS,
    BoundaryPhase,
    Component2D,
    InitialData,
    Phase,
    ZERO2,
    boundary_maps,
)
from mtdirac.solver import (
    StencilError,
    bc_defect,
    boundary_trace_fields,
    evaluate_fields,
    field_residual,
    jump_residual,
)
from mtdirac.spin import SIGMA3, embed
from probes import boosted_config, manifest_commutant_defect, manifest_trace_residual

BETAS = (0.3, -0.3, 1.0, -1.0)


def test_boost_moves_points():
    b = Boost(math.log(2.0))
    t, z = b.point(0.0, 1.0)
    # cosh(ln 2) = 5/4, sinh(ln 2) = 3/4
    assert t == pytest.approx(0.75, abs=1e-15)
    assert z == pytest.approx(1.25, abs=1e-15)
    m = b.matrix
    assert m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] == pytest.approx(1.0, abs=1e-14)


def test_boost_group_law():
    a, b = Boost(0.4), Boost(-0.9)
    assert np.allclose(Boost(a.beta + b.beta).matrix, a.matrix @ b.matrix)
    assert np.allclose(a.matrix @ a.inverse().matrix, np.eye(2), atol=1e-15)
    c = Configuration(0.1, -0.5, 0.2, 0.8)
    roundtrip = boosted_config(a.inverse(), boosted_config(a, c))
    assert np.allclose(astuple(roundtrip), astuple(c), atol=1e-15)


def test_generator_is_half_sigma3_per_slot():
    assert np.array_equal(generator(1), 0.5 * embed(SIGMA3, 1))
    assert np.array_equal(generator(2), 0.5 * embed(SIGMA3, 2))


def test_spinor_factor_diagonal():
    beta = 0.8
    s1 = spinor_factor(Boost(beta), 1)
    e = math.exp(0.5 * beta)
    assert np.allclose(s1, np.diag([e, e, 1 / e, 1 / e]), rtol=1e-15)
    s2 = spinor_factor(Boost(beta), 2)
    assert np.allclose(s2, np.diag([e, 1 / e, e, 1 / e]), rtol=1e-15)
    pair = pair_factor(Boost(beta))
    assert np.allclose(
        pair, np.diag([math.exp(beta), 1.0, 1.0, math.exp(-beta)]), rtol=1e-14
    )


def test_gamma_commutation_with_boost():
    for beta in BETAS:
        assert commutation_defect(Boost(beta)) <= 1e-13


def test_gamma_commutation_independent_route():
    # same identity assembled from raw kron matrices, no package operators
    sigma1 = np.array([[0, 1], [1, 0]], dtype=complex)
    sigma3 = np.array([[1, 0], [0, -1]], dtype=complex)
    g = {0: np.kron(sigma1, np.eye(2)), 1: np.kron(sigma1 @ sigma3, np.eye(2))}
    beta = 0.7
    s = np.kron(
        np.diag([math.exp(0.5 * beta), math.exp(-0.5 * beta)]), np.eye(2)
    ).astype(complex)
    lam = np.array(
        [[math.cosh(beta), math.sinh(beta)], [math.sinh(beta), math.cosh(beta)]]
    )
    for mu in range(2):
        lhs = g[mu] @ s
        rhs = s @ (lam[mu, 0] * g[0] + lam[mu, 1] * g[1])
        assert np.abs(lhs - rhs).max() <= 1e-13
    assert np.allclose(s, spinor_factor(Boost(beta), 1))


def test_manifest_matrices_commute_with_pair_factor():
    for beta in BETAS:
        assert manifest_commutant_defect(Boost(beta)) <= 1e-13


def test_manifest_sign_mapping():
    # the value decides: a constant -pi/2 or +pi/2 has the form, preset or not
    assert manifest_sign(Phase(-0.5 * math.pi)) == -1
    assert manifest_sign(Phase(0.5 * math.pi)) == +1
    assert manifest_sign(Phase(PHASE_PRESETS["plus_i"])) == -1
    assert manifest_sign(Phase(PHASE_PRESETS["minus_i"])) == +1
    assert manifest_sign(Phase(0.7)) is None
    assert manifest_sign(Phase(fn=lambda t, z: np.full(np.shape(t), -0.5 * math.pi))) is None
    with pytest.raises(ValueError, match="manifest form needs"):
        manifest_defect(Phase(0.7))


def test_manifest_form_holds_on_traces(packet_plus_i):
    # the identity on 4x4 matrices, and on traces against the reference:
    # each trace's manifest residual is w times its jump residual
    t = np.linspace(-2.5, 2.5, 41)[:, None]
    z = np.linspace(-3.0, 3.0, 41)[None, :]
    for side in (1, 2):
        phase = packet_plus_i.phase.on(side)
        assert manifest_defect(phase) <= 1e-13
        residual = manifest_trace_residual(packet_plus_i, t, z, side)
        assert np.abs(residual).max() <= 1e-13
        w = np.array([0.0, -2j * manifest_sign(phase), -2.0, 0.0])
        jump = bc_defect(packet_plus_i, t, z, side)
        assert np.abs(residual - np.multiply.outer(w, jump)).max() <= 1e-13
    # the traces are live: psi2 is far from 0 on side 1
    assert np.abs(boundary_trace_fields(packet_plus_i, t, z, 1).values[1]).max() > 0.1


def test_manifest_form_detects_mislabeled_phase():
    # freeze the +i boundary maps, then claim the phase is -i: the traces
    # fail the jump condition, and with it the matrix form of the wrong sign
    s = wavepacket_scenario(-3.0, -1.0, 1.0, 3.0, theta1=Phase(PHASE_PRESETS["plus_i"]))
    minus_i = Phase(PHASE_PRESETS["minus_i"])
    wrong = replace(
        s,
        boundary_override=boundary_maps(s),
        phase=BoundaryPhase(theta1=minus_i, theta2=minus_i),
    )
    t, z = 2.0, np.linspace(-1.0, 1.0, 21)
    assert np.abs(bc_defect(wrong, t, z, 1)).max() > 0.1
    assert np.abs(manifest_trace_residual(wrong, t, z, 1)).max() > 0.1
    assert manifest_defect(minus_i) <= 1e-13  # the identity holds


def test_manifest_identity_catches_a_wrong_sign(monkeypatch):
    import mtdirac.lorentz as lorentz

    for kind in ("plus_i", "minus_i"):
        assert manifest_defect(Phase(PHASE_PRESETS[kind])) <= 1e-13
    monkeypatch.setattr(lorentz, "manifest_sign", lambda phase: -manifest_sign(phase))
    for kind in ("plus_i", "minus_i"):
        assert manifest_defect(Phase(PHASE_PRESETS[kind])) > 0.1


def test_transformed_solution_is_pair_factor_times_base(packet):
    b = Boost(0.6)
    rng = np.random.default_rng(4)
    t1, z1, t2, z2 = sample_spacelike(rng, 100, (-1.5, 1.5), (-3.5, 3.5))
    base = evaluate_fields(packet, t1, z1, t2, z2)
    bt1, bz1 = b.point(t1, z1)
    bt2, bz2 = b.point(t2, z2)
    moved = transformed_fields(packet, b, bt1, bz1, bt2, bz2)
    expected = np.einsum("ij,j...->i...", pair_factor(b), base)
    assert np.abs(moved - expected).max() <= 1e-12


def test_theta_transport(rich):
    # a phase that varies along the coincidence set: the boosted traces obey
    # the jump condition with theta' = theta o L^-1 and fail it with theta
    base = Phase(fn=lambda t, z: t + 2.0 * z)
    b = Boost(-0.4)
    s = replace(rich, phase=BoundaryPhase(theta1=base, theta2=base))
    assert jump_covariance_defect(b) == 0.0
    t, z = np.meshgrid(np.linspace(-4.0, 4.0, 81), np.linspace(-4.0, 4.0, 81))
    it, iz = b.inverse().point(t, z)
    for side in (1, 2):
        traces = boundary_trace_fields(s, it, iz, side).values
        values = np.einsum("ij,j...->i...", pair_factor(b), traces)
        live = (np.abs(values[1]) > 1e-3) & (np.abs(values[2]) > 1e-3)
        assert live.sum() >= 50
        # the boosted trace at (t, z) with theta' = theta o L^-1: the phase
        # read at the preimage
        transported = jump_residual(base, it, iz, values)
        assert np.abs(transported).max() <= 1e-13
        untransported = jump_residual(base, t, z, values)
        assert np.abs(untransported[live]).max() > 0.1


def test_covariance_report(packet):
    # source-frame configurations on the packet's box
    rng = np.random.default_rng(0)
    configurations = sample_spacelike(rng, 80, (-4.0, 4.0), (-4.0, 4.0), margin=4e-4)
    b = Boost(0.5)
    rep = covariance_report(packet, b, configurations)
    t1, z1, t2, z2 = configurations
    margin = spacelike_margin(*b.point(t1, z1), *b.point(t2, z2))
    assert rep.samples == int((margin > 4 * COVARIANCE_STEP).sum()) > 0
    # the probe reads live field, and it obeys the boosted system
    assert 0.0 < rep.pde_max < 1e-6
    # a NaN field value fails the report instead of dropping out of the maximum
    nan = Component2D(fn=lambda x, y: np.full(np.shape(x), np.nan), box=((-3, 3),) * 2)
    data = InitialData(half1=(nan,) + (ZERO2,) * 3, half2=(ZERO2,) * 4)
    broken = replace(packet, initial=data)
    rep = covariance_report(broken, b, configurations)
    assert math.isnan(rep.pde_max)


@pytest.mark.parametrize("beta", BETAS)
def test_jump_covariance_is_exact(beta):
    # S1 S2 = diag(e^beta, 1, 1, e^-beta): its psi2 and psi3 rows are the
    # identity's, bit for bit
    assert jump_covariance_defect(Boost(beta)) == 0.0


def _coupled(b):
    f = pair_factor(b).copy()
    f[1, 0] = 0.3  # psi2' takes a share of psi1
    return f


@pytest.mark.parametrize(
    "factor",
    [lambda b: np.diag(np.exp([b.beta, 0.5 * b.beta, 0.0, -b.beta])), _coupled],
    ids=["unequal_middle", "coupled"],
)
def test_jump_covariance_catches_a_wrong_pair_factor(monkeypatch, factor):
    import mtdirac.lorentz as lorentz

    monkeypatch.setattr(lorentz, "pair_factor", factor)
    assert jump_covariance_defect(Boost(0.5)) > 0.1


def test_current_transforms_as_a_tensor():
    b = Boost(-0.8)
    assert current_covariance_defect(b) <= 1e-12
    # the basis-spinor check covers every spinor: the identity holds on a
    # random batch, in the defect's own formula
    rng = np.random.default_rng(12)
    psi = rng.normal(size=(4, 150)) + 1j * rng.normal(size=(4, 150))
    j_prime = tensor_current(pair_factor(b) @ psi).as_matrix()
    lam = b.matrix
    pushed = np.einsum("mr,ns,rs...->mn...", lam, lam, tensor_current(psi).as_matrix())
    assert np.max(np.abs(j_prime - pushed)) <= 1e-12


def test_current_covariance_catches_a_wrong_pair_factor(monkeypatch):
    # e^(beta/2) in place of e^beta on psi1 and psi4
    import mtdirac.lorentz as lorentz

    def halved(b):
        return np.diag(np.exp([0.5 * b.beta, 0.0, 0.0, -0.5 * b.beta]))

    assert current_covariance_defect(Boost(0.5)) <= 1e-12
    monkeypatch.setattr(lorentz, "pair_factor", halved)
    assert current_covariance_defect(Boost(0.5)) > 0.1


def test_current_covariance_evaluates_no_field(monkeypatch):
    # the identity is decided on the basis spinors, not on a draw of the field
    import mtdirac.lorentz as lorentz

    calls = []

    def counted(s, *coords):
        calls.append(np.broadcast(*coords).size)
        return evaluate_fields(s, *coords)

    monkeypatch.setattr(lorentz, "evaluate_fields", counted)
    assert current_covariance_defect(Boost(0.7)) <= 1e-12
    assert jump_covariance_defect(Boost(0.7)) == 0.0
    assert calls == []


def test_field_residual_guards_stencil(packet):
    trans = partial(transformed_fields, packet, Boost(0.2))
    with pytest.raises(StencilError, match=r"^1 of 1 configurations lack room"):
        field_residual(trans, 0, 0, 0, 1e-6, 1e-4)
    with pytest.raises(StencilError, match=r"^1 of 1 configurations have a non-finite"):
        field_residual(trans, 0, 0, math.inf, 1.0, 1e-4)
