"""End-to-end acceptance checks, one test per guaranteed behavior.

Each test prints a single PASS/FAIL line with the measured figures and the
tolerances they are held to, then asserts on the same booleans.
"""
import time

import numpy as np

from mtdirac.conservation import (
    QuadratureSpec,
    acceptance_family,
    component_masses,
    normalization_report,
)
from mtdirac.current import levi_civita_contraction, tensor_current
from mtdirac.geometry import region_masks, sample_spacelike
from mtdirac.interaction import closed_form_packet
from mtdirac.lorentz import (
    Boost,
    commutation_defect,
    covariance_report,
    current_covariance_defect,
    jump_covariance_defect,
)
from mtdirac.solver import evaluate_fields, pde_residual
from mtdirac.spin import exchange
from probes import (
    bc_defect,
    characteristic_anchor,
    clifford_defect,
    coincidence_flux,
    is_interacting,
    manifest_commutant_defect,
    slot_commutator_defect,
)


def _verdict(ok: bool, name: str, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def test_components_constant_along_characteristics(rich):
    t_start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    scale = 1.0
    checked = 0
    draw = sample_spacelike(rng, 10_000, (-2.0, 2.0), (-3.0, 3.0), margin=0.2)
    in_omega1, _, _ = region_masks(*draw)
    for in_half, sign in ((in_omega1, -1.0), (~in_omega1, 1.0)):
        t1, z1, t2, z2 = (a[in_half] for a in draw)
        psi = evaluate_fields(rich, t1, z1, t2, z2)
        tau = rng.uniform(0.1, 0.95, t1.shape)
        for comp in (1, 2, 3, 4):
            st1, sz1, st2, sz2, _ = characteristic_anchor(comp, t1, z1, t2, z2, sign)
            pt = tuple(
                a + (1.0 - tau) * (s - a)
                for s, a in ((st1, t1), (sz1, z1), (st2, t2), (sz2, z2))
            )
            # free components 1 and 4 can have their t = 0 anchor in the
            # other region; constancy is a within-region statement, so keep
            # only curve points that stayed on this side
            m1, m2, bad = region_masks(*pt)
            keep = ~bad & (m1 if sign < 0 else m2)
            moved = evaluate_fields(rich, *(q[keep] for q in pt))[comp - 1]
            worst = max(worst, float(np.abs(moved - psi[comp - 1][keep]).max()))
            scale = max(scale, float(np.abs(psi[comp - 1]).max()))
            checked += int(keep.sum())
    rel = worst / scale
    elapsed = time.perf_counter() - t_start
    ok = rel <= 1e-13 and checked >= 10_000 and elapsed < 10.0
    assert _verdict(
        ok,
        "characteristic constancy",
        f"rel {rel:.3e} over {checked} curve points (tol 1e-13), {elapsed:.2f} s",
    )


def test_field_satisfies_evolution_equations(rich):
    rng = np.random.default_rng(3)
    pts = np.empty((4, 0))
    while pts.shape[1] < 30:
        p = np.stack(sample_spacelike(rng, 200, (-1.2, 1.2), (-2.6, 2.6), margin=0.2))
        live = np.abs(evaluate_fields(rich, *p)).max(axis=0) > 0.05
        pts = np.concatenate([pts, p[:, live]], axis=1)
    pts = pts[:, :30]
    steps = (1e-2, 1e-3, 1e-4)
    worst = [
        max(float(np.abs(r).max()) for r in pde_residual(rich, *pts, h)) for h in steps
    ]
    order = (np.log(worst[0]) - np.log(worst[-1])) / (
        np.log(steps[0]) - np.log(steps[-1])
    )
    ok = worst[-1] < 1e-6 and abs(order - 2.0) <= 0.2
    assert _verdict(
        ok,
        "evolution equation residuals",
        f"{worst[-1]:.3e} at h=1e-4 (tol 1e-06), order {order:.2f} (want 2 +/- 0.2)",
    )


def test_coincidence_jump_and_flux(packet, rich):
    rng = np.random.default_rng(11)
    worst_bc = 0.0
    worst_flux = 0.0
    for s in (packet, rich):
        t = rng.uniform(-2.5, 2.5, 1000)
        z = rng.uniform(-3.0, 3.0, 1000)
        for side in (1, 2):
            worst_bc = max(worst_bc, float(np.abs(bc_defect(s, t, z, side)).max()))
            worst_flux = max(
                worst_flux, float(np.abs(coincidence_flux(s, t, z, side)).max())
            )
    ok = worst_bc <= 1e-13 and worst_flux <= 1e-12
    assert _verdict(
        ok,
        "coincidence jump condition",
        f"bc {worst_bc:.3e} (tol 1e-13), contracted flux {worst_flux:.3e} (tol 1e-12)",
    )


def test_normalization_is_surface_independent(packet, leaky):
    family = acceptance_family()
    q = QuadratureSpec(panels=64)
    vals = [normalization_report(packet, f, q).value for f in family]
    drift = max(vals) - min(vals)
    fine = [normalization_report(packet, f, q.doubled()).value for f in family]
    drift_fine = max(fine) - min(fine)
    leaky_vals = [normalization_report(leaky, f, q).value for f in family]
    control = max(abs(v - leaky_vals[0]) for v in leaky_vals[1:])
    ok = drift < 1e-6 and drift_fine < 1e-8 and control > 1e-3
    assert _verdict(
        ok,
        "surface-independent normalization",
        f"drift {drift:.3e} (tol 1e-06), doubled {drift_fine:.3e} (tol 1e-08), "
        f"leaky control {control:.3e} (want > 1e-03)",
    )


def test_boost_covariance(packet):
    # one source-frame draw over the packet's box, mapped through each boost;
    # the jump condition's covariance is an identity on the pair factor
    rng = np.random.default_rng(5)
    configurations = sample_spacelike(rng, 60, (-4.0, 4.0), (-4.0, 4.0), margin=4e-4)
    pde = bc = algebra = current = 0.0
    for beta in (0.3, -0.3, 1.0, -1.0):
        b = Boost(beta)
        rep = covariance_report(packet, b, configurations)
        pde = max(pde, rep.pde_max)
        bc = max(bc, jump_covariance_defect(b))
        algebra = max(algebra, commutation_defect(b), manifest_commutant_defect(b))
        current = max(current, current_covariance_defect(b))
    ok = pde < 1e-6 and bc <= 1e-12 and algebra <= 1e-13 and current <= 1e-12
    assert _verdict(
        ok,
        "boost covariance",
        f"pde {pde:.3e} (tol 1e-06), bc {bc:.3e} (tol 1e-12), "
        f"algebra {algebra:.3e} (tol 1e-13), current {current:.3e} (tol 1e-12)",
    )


def test_scattering_matches_closed_form(packet, packet_profiles):
    phi, chi, theta = packet_profiles
    rng = np.random.default_rng(17)
    t1, z1, t2, z2 = sample_spacelike(rng, 10_000, (-3.5, 3.5), (-5.0, 5.0))
    direct = closed_form_packet(phi, chi, theta, t1, z1, t2, z2)
    via_solver = evaluate_fields(packet, t1, z1, t2, z2)
    mismatch = float(np.abs(direct - via_solver).max())
    q = QuadratureSpec(panels=48)
    masses = np.stack([component_masses(packet, t, q) for t in (0.0, 0.5, 2.0, 3.5)])
    totals = masses.sum(axis=1)
    total_drift = float(np.abs(totals - totals[0]).max())
    # swap epochs: all mass rides psi2 before the supports touch (t < 1),
    # all rides psi3 once they have fully crossed (t > 3)
    epochs = (
        masses[0, 2] == 0.0
        and masses[1, 2] == 0.0
        and abs(masses[0, 1] - 1.0) < 1e-5
        and masses[3, 1] == 0.0
        and abs(masses[3, 2] - 1.0) < 1e-5
    )
    ok = mismatch <= 1e-13 and epochs and total_drift < 1e-6
    assert _verdict(
        ok,
        "scattering closed form",
        f"mismatch {mismatch:.3e} at 10^4 points (tol 1e-13), "
        f"pre/post swap masses {masses[0, 1]:.6f}/{masses[3, 2]:.6f}, "
        f"total drift {total_drift:.3e} (tol 1e-06)",
    )


def test_entanglement_certifies_interaction(spin_pair):
    verdict = is_interacting(spin_pair, [1.5, 2.0, 2.5], tol=1e-10)
    ok = (
        verdict.interacting
        and verdict.initial_sigma2 < 1e-10
        and verdict.max_ratio > 0.1
    )
    assert _verdict(
        ok,
        "interaction verdict",
        f"initial sigma2 {verdict.initial_sigma2:.3e} (< 1e-10), "
        f"max sigma2/sigma1 {verdict.max_ratio:.3f} (> 0.1), "
        f"witness t={verdict.witness_time}",
    )


def test_opposite_phases_give_antisymmetric_solution(antisym):
    rng = np.random.default_rng(23)
    t1, z1, t2, z2 = sample_spacelike(rng, 10_000, (-2.0, 2.0), (-3.0, 3.0))
    direct = evaluate_fields(antisym, t1, z1, t2, z2)
    swapped = evaluate_fields(antisym, t2, z2, t1, z1)
    scale = max(1.0, float(np.abs(direct).max()))
    worst = float(np.abs(direct + exchange(swapped)).max()) / scale
    ok = worst <= 1e-13
    assert _verdict(
        ok,
        "exchange antisymmetry",
        f"rel {worst:.3e} over 10^4 configuration pairs (tol 1e-13)",
    )


def test_spinor_algebra_identities():
    cl = max(clifford_defect(1), clifford_defect(2))
    slots = slot_commutator_defect()
    rng = np.random.default_rng(29)
    psi = rng.standard_normal((4, 5000)) + 1j * rng.standard_normal((4, 5000))
    j = tensor_current(psi)
    target = 2.0 * (np.abs(psi[2]) ** 2 - np.abs(psi[1]) ** 2)
    scale = float(np.abs(target).max())
    contraction = float(np.abs(levi_civita_contraction(j) - target).max()) / scale
    ok = cl <= 1e-13 and slots <= 1e-13 and contraction <= 1e-13
    assert _verdict(
        ok,
        "spinor algebra",
        f"clifford {cl:.3e}, slot commutator {slots:.3e}, "
        f"contraction identity {contraction:.3e} (tol 1e-13)",
    )
