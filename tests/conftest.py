import pytest
from dataclasses import replace

from hypothesis import settings

from mtdirac.interaction import spin_product_scenario, wavepacket_scenario
from mtdirac.profiles import smooth_bump
from mtdirac.scenario import (
    PHASE_PRESETS,
    BoundaryPhase,
    Phase,
    absorbing_override,
    antisymmetric_extension,
    load_scenario,
)

settings.register_profile("suite", max_examples=40, deadline=None)
settings.load_profile("suite")

PACKET_BOUNDS = (-3.0, -1.0, 1.0, 3.0)


@pytest.fixture(scope="session")
def packet_profiles():
    phi = smooth_bump(PACKET_BOUNDS[0], PACKET_BOUNDS[1], normalize=True)
    chi = smooth_bump(PACKET_BOUNDS[2], PACKET_BOUNDS[3], normalize=True)
    return phi, chi, Phase(0.7)


@pytest.fixture(scope="session")
def packet(packet_profiles):
    phi, chi, theta = packet_profiles
    return wavepacket_scenario(*PACKET_BOUNDS, phi=phi, chi=chi, theta1=theta)


@pytest.fixture(scope="session")
def packet_plus_i():
    plus_i = Phase(PHASE_PRESETS["plus_i"])
    s = wavepacket_scenario(*PACKET_BOUNDS, theta1=plus_i)
    # half 2 is empty, but the matrix form of the jump condition still reads
    # theta2 to pick its sign; pin it to the same preset
    return replace(s, phase=BoundaryPhase(theta1=plus_i, theta2=plus_i))


@pytest.fixture(scope="session")
def spin_pair():
    return spin_product_scenario(*PACKET_BOUNDS, theta1=Phase(1.2))


@pytest.fixture(scope="session")
def antisym(spin_pair):
    return antisymmetric_extension(spin_pair.initial.half1, spin_pair.phase.theta1)


@pytest.fixture(scope="session")
def rich():
    # all four components populated on both halves, boundary data mirrored
    with open("configs/mirror_bump.json") as fh:
        s, _ = load_scenario(fh.read())
    return s


@pytest.fixture(scope="session")
def leaky():
    """Tight packet whose positive-time boundary map is forced to zero.

    Probability entering the coincidence set is silently dropped instead of
    re-emitted, so the normalization integral must visibly drift across
    surfaces that straddle the overlap epoch (which starts at t = 0.2 here).
    """
    base = wavepacket_scenario(-1.2, -0.2, 0.2, 1.2, theta1=Phase(0.7))
    return absorbing_override(base, "h1_plus")
