import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mtdirac.profiles import smooth_bump
from mtdirac.scenario import (
    PHASE_PRESETS,
    ZERO2,
    ZERO_HALF,
    BoundaryPhase,
    Component2D,
    InitialData,
    Phase,
    Scenario,
    ScenarioConfigError,
    antisymmetric_extension,
    boundary_maps,
    exchanged_component,
    load_scenario,
    parse_phase,
    phase_mirrored,
    product2,
    scenario_from_dict,
)
from mtdirac.solver import check_compatibility
from probes import compatibility_gap


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


def _preset(name):
    return parse_phase({"preset": name}, "theta")


def test_phase_presets():
    assert Phase(0.7)(0.0, 0.0) == 0.7
    # plus_i / minus_i are the constants -pi/2 and +pi/2, the same floats as
    # ever, and pin the jump factor exp(-i theta) to +-i
    for name, value, factor in (
        ("plus_i", -1.5707963267948966, 1j),
        ("minus_i", 1.5707963267948966, -1j),
    ):
        theta = _preset(name)
        assert theta.fn is None and theta.value == value == PHASE_PRESETS[name]
        assert theta(np.zeros(3), 0.0).tolist() == [value] * 3
        assert np.exp(-1j * theta(0.0, 0.0)) == pytest.approx(factor)
    assert parse_phase(None, "theta").value == 0.0
    custom = Phase(fn=lambda t, z: t + 2 * z)
    assert custom(0.5, 1.0) == 2.5
    # a phase is a number or a function: a name is neither
    for bad in (("wiggly",), ("plus_i",), ("constant", 0.7)):
        with pytest.raises(TypeError, match="^a phase is a real value or a function fn"):
            Phase(*bad)


def test_phase_negated():
    assert Phase(0.7).negated()(0, 0) == -0.7
    # each preset maps exactly onto the other
    plus_i, minus_i = _preset("plus_i"), _preset("minus_i")
    assert plus_i.negated().value == minus_i.value and plus_i.negated().fn is None
    assert minus_i.negated().value == plus_i.value and minus_i.negated().fn is None
    neg = Phase(fn=lambda t, z: t).negated()
    assert neg(2.0, 0.0) == -2.0


def test_initial_data_needs_a_finite_box_on_every_nonzero_component():
    # a component without a box would integrate to zero: support_hull reads
    # the boxes only
    px, py = smooth_bump(-3.0, -1.0), smooth_bump(1.0, 3.0)
    boxed = product2(px, py)
    for comp, box in (
        (Component2D(fn=lambda x, y: px(x) * py(y)), None),
        (Component2D(factors=boxed.factors), None),
        (replace(boxed, box=((-3.0, -1.0), (1.0, math.inf))), "inf"),
        (replace(boxed, box=((-3.0, math.nan), (1.0, 3.0))), "nan"),
        (replace(boxed, box=((-1.0, -3.0), (1.0, 3.0))), "(-1.0, -3.0)"),
    ):
        for half in (1, 2):
            data = [ZERO_HALF, ZERO_HALF]
            data[half - 1] = (ZERO2, comp, ZERO2, ZERO2)
            needs = rf"^g2\^\({half}\) needs a finite support box"
            with pytest.raises(ValueError, match=needs) as err:
                InitialData(*data)
            assert str(box) in str(err.value)
    # zero components need no box; a boxed function datum is accepted
    InitialData(ZERO_HALF, ZERO_HALF)
    fn = Component2D(fn=lambda x, y: px(x) * py(y), box=boxed.box)
    assert InitialData((ZERO2, fn, ZERO2, ZERO2), ZERO_HALF).support_hull() == (-3.0, 3.0)


def test_exchanged_component_swaps_arguments_and_box():
    px, py = _bump_pair()
    g = product2(px, py)
    ex = exchanged_component(g)
    x = np.linspace(0.6, 1.9, 9)
    y = np.linspace(-1.9, -0.6, 9)
    assert np.allclose(ex(x, y), -g(y, x))
    assert ex.box == (py.support(), px.support())
    assert exchanged_component(ZERO2) is ZERO2


def _one_sided(theta=Phase(0.9)):
    px, py = _bump_pair()
    g2 = product2(px, py)
    g3 = phase_mirrored(g2, theta, target=3)
    half1 = (ZERO2, g2, g3, ZERO2)
    return Scenario(
        initial=InitialData(half1=half1, half2=(ZERO2,) * 4),
        phase=BoundaryPhase(theta1=theta),
    )


def test_phase_mirrored_values():
    theta = Phase(0.9)
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
    maxima = check_compatibility(_one_sided())
    assert sorted(maxima) == [
        "g2_half1_vs_h1_minus",
        "g2_half2_vs_h2_plus",
        "g3_half1_vs_h1_plus",
        "g3_half2_vs_h2_minus",
    ]
    assert all(m.shape == (3,) for m in maxima.values())
    assert compatibility_gap(_one_sided()) <= 1e-15


def test_incompatible_data_is_flagged_not_raised():
    px, py = _bump_pair()
    g2 = product2(
        smooth_bump(-1.0, 1.0, normalize=True), smooth_bump(-1.0, 1.0, normalize=True)
    )
    s = Scenario(initial=InitialData(half1=(ZERO2, g2, ZERO2, ZERO2), half2=(ZERO2,) * 4))
    assert compatibility_gap(s) > 0.5
    # with g3 = 0 both half-1 splice conditions fail by |g2| on the diagonal
    violated = {name for name, m in check_compatibility(s).items() if m[0] > 1e-12}
    assert violated == {"g2_half1_vs_h1_minus", "g3_half1_vs_h1_plus"}


def test_zero_scenario_compatibility_is_trivial():
    s = Scenario(initial=InitialData(half1=(ZERO2,) * 4, half2=(ZERO2,) * 4))
    assert check_compatibility(s) == {}
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
    theta = Phase(1.2)
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
    theta = Phase(value)
    half1 = (ZERO2, g2, phase_mirrored(g2, theta, target=3), ZERO2)
    assert compatibility_gap(antisymmetric_extension(half1, theta)) <= 1e-12


def test_load_scenario_presets_and_full_config():
    for path in ("configs/wavepacket.json", "configs/spin_product.json"):
        with open(path) as fh:
            text = fh.read()
        s, raw = load_scenario(text)
        assert raw == text
        assert compatibility_gap(s) <= 1e-12
    with open("configs/mirror_bump.json") as fh:
        s, _ = load_scenario(fh.read())
    assert compatibility_gap(s) <= 1e-12


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
        '{"antisymmetric": true, "phase": {"theta1": {"value": 0.3}, "theta2": {"value": 0.9}}}',
    ]
    for text in cases:
        with pytest.raises(ScenarioConfigError):
            load_scenario(text)
    with pytest.raises(ScenarioConfigError):
        scenario_from_dict(["not", "an", "object"])
    # values of the wrong JSON type: each names its key instead of crashing,
    # or of being read as something else ("false" as True, 2.5 as 2)
    product = '{"initial": {"g2": {"omega1": {"preset": "product", "params": %s}}}}'
    y = '"y": {"lo": 1, "hi": 2}'
    typed = [
        ('{"preset": "wavepacket", "params": [1, 2]}', "params must be an object"),
        ('{"phase": []}', "phase must be an object"),
        (product % "[]", "initial.g2.omega1.params must be an object"),
        ('{"antisymmetric": "false"}', "antisymmetric must be true or false"),
        (
            product % ('{"x": {"lo": 0, "hi": 1, "normalize": "no"}, %s}' % y),
            "initial.g2.omega1.params.x.normalize must be true or false",
        ),
        (
            product
            % ('{"x": {"shape": "poly_bump", "lo": 0, "hi": 1, "smoothness": 2.5}, %s}' % y),
            "initial.g2.omega1.params.x.smoothness must be a whole number",
        ),
    ]
    for text, named in typed:
        with pytest.raises(ScenarioConfigError, match=f"^{named}"):
            load_scenario(text)
    # a key that no object of its kind has is refused by its path, not ignored
    packet = '{"preset": "wavepacket", "params": {"a": -3, "b": -1, "c": 1, "d": 3%s}%s}'
    x = '"x": {"lo": 0, "hi": 1%s}'
    unknown = [
        ('{"antisymetric": true}', "antisymetric"),
        (packet % ("", ', "phase": {}'), "phase"),
        (packet % (', "theta2": {}', ""), "params.theta2"),
        (product.replace('"params"', '"parms"') % ("{%s, %s}" % (x % "", y)),
         "initial.g2.omega1.parms"),
        (product % ("{%s, %s}" % (x % ', "momentm": 1', y)),
         "initial.g2.omega1.params.x.momentm"),
        ('{"phase": {"theta1": {"preset": "constant", "valu": 0.7}}}', "phase.theta1.valu"),
        ('{"phase": {"theta1": {"preset": "plus_i", "value": 0.7}}}', "phase.theta1.value"),
        ('{"phase": {"theta3": {"preset": "plus_i"}}}', "phase.theta3"),
        ('{"initial": {"g5": {}}}', "initial.g5"),
        ('{"initial": {"g2": {"omega3": {}}}}', "initial.g2.omega3"),
        (product % ("{%s, %s, \"z\": {}}" % (x % "", y)), "initial.g2.omega1.params.z"),
        ('{"initial": {"g3": {"omega1": {"preset": "mirror_of_g2", "params": {}}}}}',
         "initial.g3.omega1.params"),
        ('{"initial": {"g1": {"omega2": {"preset": "zero", "support": [[0, 1], [0, 1]]}}}}',
         "initial.g1.omega2.support"),
        (product % ("{%s, %s}" % (x % ', "smoothness": 3', y)),
         "initial.g2.omega1.params.x.smoothness"),
    ]
    for text, named in unknown:
        with pytest.raises(ScenarioConfigError) as err:
            load_scenario(text)
        assert str(err.value) == f"unknown config key {named}"
    # the mirror of g2 builds g3 only: on g1 or g4 it names the component,
    # also when g2 is nonzero
    g2 = (
        '"g2": {"omega1": {"preset": "product", "params": '
        '{"x": {"lo": -1, "hi": 0}, "y": {"lo": 0, "hi": 1}}}}'
    )
    for name in ("g1", "g4"):
        text = f'{{"initial": {{{g2}, "{name}": {{"omega1": {{"preset": "mirror_of_g2"}}}}}}}}'
        with pytest.raises(ScenarioConfigError) as err:
            load_scenario(text)
        assert str(err.value) == f"initial.{name}.omega1: preset mirror_of_g2 is for g3 only"
    g3 = '"g3": {"omega1": {"preset": "mirror_of_g2"}}'
    s, _ = load_scenario(f'{{"initial": {{{g3}, {g2}}}}}')
    assert s.initial.component(3, 1).box == ((0.0, 1.0), (-1.0, 0.0))
    # a mirror of g3 is no preset
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
    # under a constant phase the mirror is an exchange with the one factor
    # exp(+-i theta), bit for bit the closure it replaces
    theta = Phase(PHASE_PRESETS.get(kind, 0.9))
    px, py = _bump_pair()
    g2 = product2(px, py)
    g3 = phase_mirrored(g2, theta, target=3)
    assert g3.factors.pre == (np.exp(1j * theta.value),) and g3.factors.swapped
    assert g3.box == (py.support(), px.support())
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
    wavy = Phase(fn=lambda t, z: t + z)
    px, py = _bump_pair()
    for src in (g, product2(px, py)):
        assert phase_mirrored(src, wavy, target=3).factors is None
    assert phase_mirrored(g, Phase(0.3), target=3).factors is None
    assert exchanged_component(g).factors is None
    assert ZERO2.factors is None and ZERO2.is_zero
