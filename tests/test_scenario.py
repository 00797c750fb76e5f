import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mtdirac.profiles import smooth_bump
from mtdirac.scenario import (
    ZERO2,
    BoundaryPhase,
    Component2D,
    InitialData,
    Phase,
    Scenario,
    ScenarioConfigError,
    antisymmetric_extension,
    boundary_maps,
    check_compatibility,
    exchanged_component,
    load_scenario,
    phase_mirrored,
    product2,
    scenario_from_dict,
)


def _bump_pair():
    return smooth_bump(-2.0, -0.5, momentum=0.8), smooth_bump(0.5, 2.0, momentum=-0.3)


def test_product_component_is_separable():
    px, py = _bump_pair()
    g = product2(px, py)
    x = np.linspace(-2.2, 2.2, 23)
    y = np.linspace(-2.2, 2.2, 23)
    assert np.allclose(g(x, y), px(x) * py(y))
    assert g.box == (px.support(), py.support())
    assert not g.is_zero


def test_zero_component():
    out = ZERO2(np.ones(5), np.zeros(5))
    assert out.shape == (5,) and not out.any()
    assert ZERO2.is_zero and ZERO2.box is None


def test_component_broadcasts():
    px, py = _bump_pair()
    g = product2(px, py)
    out = g(np.linspace(-2, -1, 4)[:, None], np.linspace(0.6, 1.9, 3)[None, :])
    assert out.shape == (4, 3)


def test_phase_presets():
    assert Phase("constant", 0.7)(0.0, 0.0) == 0.7
    # plus_i / minus_i pin the jump factor exp(-i theta) to +-i
    assert np.exp(-1j * Phase("plus_i")(0.0, 0.0)) == pytest.approx(1j)
    assert np.exp(-1j * Phase("minus_i")(0.0, 0.0)) == pytest.approx(-1j)
    custom = Phase("custom", fn=lambda t, z: t + 2 * z)
    assert custom(0.5, 1.0) == 2.5
    with pytest.raises(ValueError):
        Phase("wiggly")(0.0, 0.0)


def test_phase_negated():
    assert Phase("constant", 0.7).negated()(0, 0) == -0.7
    assert Phase("plus_i").negated().kind == "minus_i"
    assert Phase("minus_i").negated().kind == "plus_i"
    neg = Phase("custom", fn=lambda t, z: t).negated()
    assert neg(2.0, 0.0) == -2.0


def test_exchanged_component_swaps_arguments_and_box():
    px, py = _bump_pair()
    g = product2(px, py)
    ex = exchanged_component(g)
    x = np.linspace(0.6, 1.9, 9)
    y = np.linspace(-1.9, -0.6, 9)
    assert np.allclose(ex(x, y), -g(y, x))
    assert ex.box == (py.support(), px.support())
    assert exchanged_component(ZERO2) is ZERO2


def _one_sided(theta=Phase("constant", 0.9)):
    px, py = _bump_pair()
    g2 = product2(px, py)
    g3 = phase_mirrored(g2, theta, target=3)
    half1 = (ZERO2, g2, g3, ZERO2)
    return Scenario(
        initial=InitialData(half1=half1, half2=(ZERO2,) * 4),
        phase=BoundaryPhase(theta1=theta),
    )


def test_phase_mirrored_values():
    theta = Phase("constant", 0.9)
    px, py = _bump_pair()
    g2 = product2(px, py)
    g3 = phase_mirrored(g2, theta, target=3)
    x = np.linspace(0.5, 2.0, 11)
    y = np.linspace(-2.0, -0.5, 11)
    assert np.allclose(g3(x, y), np.exp(0.9j) * g2(y, x))
    back = phase_mirrored(g3, theta, target=2)
    assert np.allclose(back(y, x), g2(y, x), atol=1e-15)
    with pytest.raises(ValueError):
        phase_mirrored(g2, theta, target=4)
    assert phase_mirrored(ZERO2, theta, target=3) is ZERO2


def test_boundary_maps_formulas():
    s = _one_sided()
    maps = boundary_maps(s)
    g2 = s.initial.component(2, 1)
    g3 = s.initial.component(3, 1)
    t = np.linspace(-1.5, 1.5, 13)
    z = np.linspace(-2.5, 2.5, 13)
    assert np.allclose(maps.h1_plus(t, z), np.exp(0.9j) * g2(z - t, z + t))
    assert np.allclose(maps.h1_minus(t, z), np.exp(-0.9j) * g3(z + t, z - t))
    assert not maps.h2_plus(t, z).any() and not maps.h2_minus(t, z).any()


def test_mirrored_data_is_exactly_compatible():
    report = check_compatibility(_one_sided())
    assert report.max_violation <= 1e-15
    assert max(report.condition_maxima.values()) == report.max_violation


def test_incompatible_data_is_flagged_not_raised():
    px, py = _bump_pair()
    g2 = product2(
        smooth_bump(-1.0, 1.0, normalize=True), smooth_bump(-1.0, 1.0, normalize=True)
    )
    s = Scenario(initial=InitialData(half1=(ZERO2, g2, ZERO2, ZERO2), half2=(ZERO2,) * 4))
    report = check_compatibility(s)
    assert report.max_violation > 0.5
    # with g3 = 0 both half-1 splice conditions fail by |g2| on the diagonal
    violated = {name for name, v in report.condition_maxima.items() if v > 1e-12}
    assert violated == {"g2_half1_vs_h1_minus", "g3_half1_vs_h1_plus"}
    maxima = sorted(report.condition_maxima.values(), reverse=True)
    assert report.max_violation == maxima[0]


def test_zero_scenario_compatibility_is_trivial():
    s = Scenario(initial=InitialData(half1=(ZERO2,) * 4, half2=(ZERO2,) * 4))
    report = check_compatibility(s)
    assert report.max_violation == 0.0 and report.condition_maxima == {}
    assert s.initial.support_hull() is None


def test_support_hull_covers_all_boxes():
    s = _one_sided()
    assert s.initial.support_hull() == (-2.0, 2.0)


def test_component_accessor_validates_indices():
    s = _one_sided()
    assert s.initial.component(2, 1) is s.initial.half1[1]
    with pytest.raises(ValueError):
        s.initial.component(5, 1)
    with pytest.raises(ValueError):
        s.initial.component(1, 3)


def test_antisymmetric_extension_relations():
    px, py = _bump_pair()
    g2 = product2(px, py)
    theta = Phase("constant", 1.2)
    g3 = phase_mirrored(g2, theta, target=3)
    g1 = product2(smooth_bump(-2.0, -0.5), smooth_bump(0.5, 2.0))
    half1 = (g1, g2, g3, ZERO2)
    s = antisymmetric_extension(half1, theta)
    assert s.antisymmetric
    assert s.phase.theta2(0, 0) == -1.2
    x = np.linspace(-2.1, 2.1, 17)
    y = np.linspace(-2.1, 2.1, 17)
    # exchange swaps arguments, spin slots (2 <-> 3) and flips the sign
    assert np.allclose(s.initial.component(1, 2)(x, y), -half1[0](y, x))
    assert np.allclose(s.initial.component(2, 2)(x, y), -half1[2](y, x))
    assert np.allclose(s.initial.component(3, 2)(x, y), -half1[1](y, x))
    assert np.allclose(s.initial.component(4, 2)(x, y), -half1[3](y, x))


@given(st.floats(-math.pi, math.pi, allow_nan=False))
def test_antisymmetric_extension_stays_compatible(value):
    px, py = _bump_pair()
    g2 = product2(px, py)
    theta = Phase("constant", value)
    half1 = (ZERO2, g2, phase_mirrored(g2, theta, target=3), ZERO2)
    report = check_compatibility(antisymmetric_extension(half1, theta))
    assert report.max_violation <= 1e-12


def test_load_scenario_presets_and_full_config():
    for path in ("configs/wavepacket.json", "configs/spin_product.json"):
        with open(path) as fh:
            text = fh.read()
        s, raw = load_scenario(text)
        assert raw == text
        assert check_compatibility(s).max_violation <= 1e-12
    with open("configs/mirror_bump.json") as fh:
        s, _ = load_scenario(fh.read())
    assert s.label != ""
    assert check_compatibility(s).max_violation <= 1e-12


def test_scenario_config_errors():
    cases = [
        "not json {",
        '{"preset": "unknown_thing"}',
        '{"initial": {"g5": {}}}',
        '{"initial": 3}',
        '{"initial": {"g2": {"omega1": {"preset": "product", "params": '
        '{"x": {"shape": "sine", "lo": 0, "hi": 1}, "y": {"lo": 0, "hi": 1}}}}}}',
        '{"initial": {"g2": {"omega1": {"preset": "product", "params": '
        '{"x": {"hi": 1}, "y": {"lo": 0, "hi": 1}}}}}}',
        '{"initial": {"g2": {"omega1": {"preset": "product", "params": '
        '{"x": {"lo": 0, "hi": 1, "amplitude": "big"}, "y": {"lo": 0, "hi": 1}}}}}}',
        '{"phase": {"theta1": {"preset": "spiral"}}}',
        '{"phase": {"theta1": 0.7}}',
        '{"initial": {"g3": {"omega1": {"preset": "mirror_of_g2"}}}}',
        '{"initial": {"g2": {"omega1": {"preset": "bumps"}}}}',
        '{"initial": {"g2": {"omega1": 7}}}',
        '{"antisymmetric": true, "initial": {"g2": {"omega2": {"preset": "product", '
        '"params": {"x": {"lo": 0, "hi": 1}, "y": {"lo": 2, "hi": 3}}}}}}',
    ]
    for text in cases:
        with pytest.raises(ScenarioConfigError):
            load_scenario(text)
    with pytest.raises(ScenarioConfigError):
        scenario_from_dict(["not", "an", "object"])
    # g2 is parsed before g3, so a mirror of g3 is no preset
    with pytest.raises(ScenarioConfigError, match="unknown component preset 'mirror_of_g3'"):
        load_scenario('{"initial": {"g2": {"omega1": {"preset": "mirror_of_g3"}}}}')


def test_full_config_support_override():
    cfg = {
        "initial": {
            "g2": {
                "omega1": {
                    "preset": "product",
                    "params": {"x": {"lo": -1, "hi": 0}, "y": {"lo": 0, "hi": 1}},
                    "support": [[-1, 0], [0, 1]],
                }
            }
        }
    }
    s = scenario_from_dict(cfg)
    assert s.initial.component(2, 1).box == ((-1.0, 0.0), (0.0, 1.0))
    cfg["initial"]["g2"]["omega1"]["support"] = [[0, 1]]
    with pytest.raises(ScenarioConfigError):
        scenario_from_dict(cfg)
    # any finite box with lo < hi is accepted, also on a mirror; a reversed,
    # infinite or quoted one names its component
    cfg["initial"]["g3"] = {"omega1": {"preset": "mirror_of_g2"}}
    for g2_box, g3_box, bad in (
        ([[-1.5, 0], [0, 1]], [[0, 1], [-1, 0.5]], None),
        ([[0, -1], [0, 1]], [[0, 1], [-1, 0]], "g2"),
        ([[-1, 0], [0, 1]], [[0, 1], [0, -1]], "g3"),
        ([[-1, 0], [0, math.inf]], [[0, 1], [-1, 0]], "g2"),
        ([[-1, 0], [0, 1]], [["0", 1], [-1, 0]], "g3"),
    ):
        cfg["initial"]["g2"]["omega1"]["support"] = g2_box
        cfg["initial"]["g3"]["omega1"]["support"] = g3_box
        if bad is None:
            s = scenario_from_dict(cfg)
            assert s.initial.component(3, 1).box == ((0.0, 1.0), (-1.0, 0.5))
        else:
            with pytest.raises(ScenarioConfigError, match=f"initial.{bad}.omega1"):
                scenario_from_dict(cfg)


# ---------------------------------------------------------------------------
# factored data: each builder against the closure it used to return
# ---------------------------------------------------------------------------


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _axes():
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.uniform(-3.0, 3.0, 37), np.arange(-12, 13) / 4])
    y = np.concatenate([rng.uniform(-3.0, 3.0, 29), np.arange(-12, 13) / 4])
    return x, y


def assert_factors_reproduce(g, old):
    """g (a factored component) equals the closure old bit for bit, at
    points and as an outer product on the axes."""
    assert g.factors is not None and g.fn is None
    x, y = _axes()
    xx, yy = np.repeat(x, y.size), np.tile(y, x.size)
    expected = np.asarray(old(xx, yy), dtype=complex)
    assert expected.any()
    assert np.array_equal(bits(g(xx, yy)), bits(expected))
    outer = g.factors.at(x[:, None], y[None, :])
    assert np.array_equal(bits(outer.reshape(-1)), bits(expected))


def test_product_factors_reproduce_the_closure():
    px, py = _bump_pair()
    assert_factors_reproduce(product2(px, py), lambda x, y: px(x) * py(y))


def test_exchanged_factors_reproduce_the_closure():
    px, py = _bump_pair()
    g = product2(px, py)
    for sign in (-1.0, 1.0):
        ex = exchanged_component(g, sign)
        assert_factors_reproduce(ex, lambda x, y: sign * g(y, x))
        # exchanging twice keeps the operand order of the first product
        assert_factors_reproduce(
            exchanged_component(ex, sign), lambda x, y: sign * ex(y, x)
        )


@pytest.mark.parametrize("kind", ["constant", "plus_i", "minus_i"])
def test_mirrored_factors_reproduce_the_closure(kind):
    theta = Phase(kind, 0.9 if kind == "constant" else 0.0)
    px, py = _bump_pair()
    g2 = product2(px, py)
    g3 = phase_mirrored(g2, theta, target=3)
    assert_factors_reproduce(
        g3,
        lambda x, y: np.exp(1j * theta(0.5 * (x - y), 0.5 * (x + y))) * g2(y, x),
    )
    back = phase_mirrored(g3, theta, target=2)
    assert_factors_reproduce(
        back,
        lambda x, y: np.exp(-1j * theta(0.5 * (y - x), 0.5 * (x + y))) * g3(y, x),
    )
    assert_factors_reproduce(exchanged_component(g3), lambda x, y: -1.0 * g3(y, x))


def test_support_override_keeps_the_factors():
    cfg = {
        "initial": {
            "g2": {
                "omega1": {
                    "preset": "product",
                    "params": {"x": {"lo": -2, "hi": 0}, "y": {"lo": 0, "hi": 2}},
                    "support": [[-3, 1], [-1, 3]],
                }
            },
            "g3": {"omega1": {"preset": "mirror_of_g2", "support": [[-1, 3], [-3, 1]]}},
        }
    }
    s = scenario_from_dict(cfg)
    g2 = s.initial.component(2, 1)
    g3 = s.initial.component(3, 1)
    assert g2.box == ((-3.0, 1.0), (-1.0, 3.0)) and g3.box == ((-1.0, 3.0), (-3.0, 1.0))
    px, py = g2.factors.px, g2.factors.py
    assert_factors_reproduce(g2, lambda x, y: px(x) * py(y))
    assert_factors_reproduce(g3, lambda x, y: np.exp(0j) * g2(y, x))


def test_custom_data_and_custom_phases_have_no_factors():
    g = Component2D(fn=lambda x, y: x + 1j * y, box=((-1.0, 1.0), (-1.0, 1.0)))
    assert g.factors is None and not g.is_zero
    assert g(2.0, 3.0) == 2.0 + 3.0j
    wavy = Phase("custom", fn=lambda t, z: t + z)
    px, py = _bump_pair()
    for src in (g, product2(px, py)):
        assert phase_mirrored(src, wavy, target=3).factors is None
    assert phase_mirrored(g, Phase("constant", 0.3), target=3).factors is None
    assert exchanged_component(g).factors is None
    assert ZERO2.factors is None and ZERO2.is_zero
