"""Scenario data model: initial data on both halves, boundary phase, flags.

A scenario bundles everything that determines a solution:

  * initial data g_i^(h): four complex functions of two real variables per
    half-domain h (h = 1 is z1 < z2, h = 2 is z1 > z2), each with a
    declared compact support box;
  * the boundary phase functions theta_1, theta_2 on the coincidence set;
  * an antisymmetry flag (half 2 derived from half 1 by particle exchange);
  * optionally, raw boundary maps that override the ones derived from the
    initial data and the phase.  Overrides exist for negative controls and
    for exercising the pure initial-boundary-value problem; compliant
    scenarios never set them.

BRANCHES lists every branch (component, half, initial) once, and
branch_datum gives its datum.  The boundary branch of psi2/psi3 is encoded
once, as boundary_datum: the partner datum's phase mirror, a function of
the component's own null pair.  The derived boundary maps are that datum
read at a coincidence point.

The module also owns the JSON scenario-config format used by the CLI.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .profiles import Profile1D, poly_bump, smooth_bump

Fn2 = Callable[[np.ndarray, np.ndarray], np.ndarray]
PhaseFn = Callable[[np.ndarray, np.ndarray], np.ndarray]

Box = tuple[tuple[float, float], tuple[float, float]]


class ScenarioConfigError(ValueError):
    """Malformed scenario configuration."""


@dataclass(frozen=True, eq=False)
class Factors:
    """The factors of a separable datum g(x, y) = pre * (px(a) * py(b)).

    (a, b) is (x, y), or (y, x) when swapped.  pre is a chain of constants,
    applied innermost first.  Exchanging the arguments flips swapped and
    keeps the profiles in place, so the product keeps its operand order:
    numpy's complex multiply is not bitwise commutative.
    """

    px: Profile1D
    py: Profile1D
    pre: tuple[complex, ...] = ()
    swapped: bool = False

    def _scaled(self, v: np.ndarray) -> np.ndarray:
        for k in self.pre:
            v = k * v
        return v

    def at(self, x, y) -> np.ndarray:
        """Values at x and y broadcast together.

        Each profile sees its own argument only, so on a column x and a row
        y the profiles are evaluated on the axis points, not on every pair.
        """
        a, b = (y, x) if self.swapped else (x, y)
        return self._scaled(self.px(a) * self.py(b))

    def exchanged(self, factor) -> "Factors":
        """factor * g(y, x)."""
        return Factors(self.px, self.py, (*self.pre, factor), not self.swapped)


@dataclass(frozen=True, eq=False)
class Component2D:
    """One g_i^(h): complex function of (x, y) with compact support box.

    A separable component carries its factors and no fn; every other one
    carries fn.  Neither means the identically-zero component.  The box is
    the closed rectangle outside which the function vanishes exactly; it
    feeds support truncation, so it must be honest.
    """

    fn: Fn2 | None = None
    box: Box | None = None
    factors: Factors | None = None

    def __call__(self, x, y) -> np.ndarray:
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        if self.is_zero:
            return np.zeros(x.shape, dtype=complex)
        return np.asarray(self._pointwise(x, y), dtype=complex)

    @property
    def _pointwise(self) -> Fn2:
        return self.fn if self.factors is None else self.factors.at

    @property
    def is_zero(self) -> bool:
        return self.fn is None and self.factors is None


ZERO2 = Component2D()


def product2(px: Profile1D, py: Profile1D) -> Component2D:
    """Separable component g(x, y) = px(x) * py(y)."""
    return Component2D(box=(px.support(), py.support()), factors=Factors(px, py))


@dataclass(frozen=True, eq=False)
class Phase:
    """Boundary phase theta(t, z) on the coincidence set: the function fn if
    given, else the constant value.

    The config presets plus_i and minus_i are the constants -pi/2 and +pi/2
    (PHASE_PRESETS): they fix the jump factor exp(-i theta) to +i and -i.
    """

    value: float = 0.0
    fn: PhaseFn | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.value, (int, float)) or not (self.fn is None or callable(self.fn)):
            raise TypeError(f"a phase is a real value or a function fn, got {self.value!r}")

    def __call__(self, t, z) -> np.ndarray:
        t, z = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(z, dtype=float))
        if self.fn is None:
            return np.full(t.shape, self.value)
        return np.asarray(self.fn(t, z), dtype=float)

    def negated(self) -> "Phase":
        fn = self.fn
        return Phase(-self.value, None if fn is None else lambda t, z: -fn(t, z))


PHASE_PRESETS = {"plus_i": -0.5 * math.pi, "minus_i": 0.5 * math.pi}


@dataclass(frozen=True, eq=False)
class BoundaryPhase:
    theta1: Phase = Phase()
    theta2: Phase = Phase()

    def on(self, half: int) -> Phase:
        """theta_half, the phase of the jump condition on half (or side) 1 or 2."""
        return self.theta1 if half == 1 else self.theta2


@dataclass(frozen=True, eq=False)
class InitialData:
    """The eight data functions (g1..g4 on each half) plus support metadata.

    Every nonzero component needs a finite box with lo < hi: the boxes bound
    the support (support_hull), so data without one would integrate to zero.
    """

    half1: tuple[Component2D, Component2D, Component2D, Component2D]
    half2: tuple[Component2D, Component2D, Component2D, Component2D]

    def __post_init__(self) -> None:
        for half, comps in ((1, self.half1), (2, self.half2)):
            for i, g in enumerate(comps, 1):
                finite = g.box and all(-math.inf < a < b < math.inf for a, b in g.box)
                if not (g.is_zero or finite):
                    msg = f"g{i}^({half}) needs a finite support box with lo < hi, got {g.box}"
                    raise ValueError(msg)

    def component(self, index: int, half: int) -> Component2D:
        """g_index on the given half; index in 1..4, half in {1, 2}."""
        if index not in (1, 2, 3, 4) or half not in (1, 2):
            raise ValueError(f"no component g{index}^({half})")
        return (self.half1 if half == 1 else self.half2)[index - 1]

    def support_hull(self) -> tuple[float, float] | None:
        """Smallest interval containing every box edge on both axes.

        Every component of the solution evaluates the data at arguments
        drawn from the null coordinates zterm +- t of the two particles, so a
        particle coordinate contributes only when one of its null coordinates
        lands in this hull.  None means all data vanish identically.
        """
        axes = [axis for g in (*self.half1, *self.half2) if g.box is not None for axis in g.box]
        if not axes:
            return None
        return (min(axis[0] for axis in axes), max(axis[1] for axis in axes))


ZERO_HALF = (ZERO2, ZERO2, ZERO2, ZERO2)


@dataclass(frozen=True, eq=False)
class BoundaryMaps:
    """Values fed onto a half from the coincidence set along outgoing nulls.

    Each map is a function of (t, z) on the coincidence set.  plus maps are
    consumed at t >= 0, minus maps at t < 0.
    """

    h1_plus: Fn2
    h1_minus: Fn2
    h2_plus: Fn2
    h2_minus: Fn2


@dataclass(frozen=True, eq=False)
class Scenario:
    initial: InitialData
    phase: BoundaryPhase = field(default_factory=BoundaryPhase)
    antisymmetric: bool = False
    boundary_override: BoundaryMaps | None = None


def boundary_maps(s: Scenario) -> BoundaryMaps:
    """The boundary maps in force: the override if set, else derived ones.

    A derived map is the boundary branch (boundary_datum) of the component
    it feeds, read at the null pair of the coincidence point (t, z): the
    datum arriving there on the incoming characteristic, multiplied by the
    jump factor exp(-+ i theta).  On each half h the pair (psi2, psi3)
    satisfies psi2 = exp(-i theta_h) psi3, as solver.bc_defect checks.
    """
    if s.boundary_override is not None:
        return s.boundary_override
    maps = {}
    for (comp, half), name in BRANCH_MAPS.items():
        g = boundary_datum(s, comp, half)
        maps[name] = lambda t, z, g=g, comp=comp: g(*null_pair(comp, t, z, t, z))
    return BoundaryMaps(**maps)


def absorbing_override(s: Scenario, map_name: str) -> Scenario:
    """s with the named boundary map zeroed: a leaking negative control."""

    def absorb(t, z):
        return np.zeros(np.broadcast(t, z).shape, dtype=complex)

    broken = replace(boundary_maps(s), **{map_name: absorb})
    return replace(s, boundary_override=broken)


# The branch table of the solver (its module docstring states the rule):
# null signs (s1, s2) per component, for psi2/psi3 the BoundaryMaps field
# feeding the boundary branch per (component, half), the partner whose
# datum that branch carries, and every branch (component, half, initial),
# component by component: psi1 and psi4 have the initial branch only.
NULL_SIGNS = {1: (-1, -1), 2: (-1, 1), 3: (1, -1), 4: (1, 1)}
BRANCH_MAPS = {(2, 1): "h1_minus", (3, 1): "h1_plus", (2, 2): "h2_plus", (3, 2): "h2_minus"}
PARTNER = {2: 3, 3: 2}
BRANCHES = tuple(
    (comp, half, initial)
    for comp in NULL_SIGNS
    for half in (1, 2)
    for initial in ((True, False) if (comp, half) in BRANCH_MAPS else (True,))
)


def null_pair(component: int, t1, z1, t2, z2):
    """The null coordinates (z1 + s1 t1, z2 + s2 t2) that fix psi_component."""
    s1, s2 = NULL_SIGNS[component]
    return (z1 + t1 if s1 > 0 else z1 - t1), (z2 + t2 if s2 > 0 else z2 - t2)


def initial_branch(half: int, x, y):
    """Where the characteristic reaches t = 0: x < y on half 1, x > y on half 2."""
    return x < y if half == 1 else x > y


def coincidence_point(component: int, x, y):
    """(t*, z*) = (s1 (x - y) / 2, (x + y) / 2) on the coincidence set."""
    t = 0.5 * (x - y) if NULL_SIGNS[component][0] > 0 else 0.5 * (y - x)
    return t, 0.5 * (x + y)


def exchanged_component(comp: Component2D, sign: complex = -1.0) -> Component2D:
    """sign * comp with swapped arguments; support box transposed."""
    if comp.is_zero:
        return ZERO2
    box = (comp.box[1], comp.box[0]) if comp.box is not None else None
    if comp.factors is not None:
        return Component2D(box=box, factors=comp.factors.exchanged(sign))
    fn = comp.fn
    return Component2D(lambda x, y: sign * fn(y, x), box)


def antisymmetric_extension(
    half1: tuple[Component2D, Component2D, Component2D, Component2D],
    theta1: Phase,
) -> Scenario:
    """Scenario whose half-2 data make the solution antisymmetric under exchange.

    Exchanging both particle labels and spin slots maps half 1 onto half 2;
    requiring psi -> -psi fixes g^(2) from g^(1) (with components 2 and 3
    trading places) and theta2 = -theta1.
    """
    g1, g2, g3, g4 = half1
    half2 = (
        exchanged_component(g1),
        exchanged_component(g3),
        exchanged_component(g2),
        exchanged_component(g4),
    )
    return Scenario(
        initial=InitialData(half1=half1, half2=half2),
        phase=BoundaryPhase(theta1=theta1, theta2=theta1.negated()),
        antisymmetric=True,
    )


def phase_mirrored(source: Component2D, theta: Phase, target: int) -> Component2D:
    """The partner component that joins the boundary branch smoothly.

    For target g3 (from a given g2) this is the unique choice making the
    initial and boundary branches of psi3 one global function,

        g3(x, y) = exp(+i theta((x-y)/2, (x+y)/2)) g2(y, x),

    and symmetrically for target g2 from g3 with exp(-i theta((y-x)/2, ...)).
    The same formulas serve both halves with that half's theta.  Data built
    this way satisfy the coincidence compatibility conditions exactly and
    keep the full smoothness of the source.
    """
    if target not in (2, 3):
        raise ValueError("target must be 2 or 3")
    sign = 1j if target == 3 else -1j
    if theta.fn is None:
        # a constant phase is one factor of an exchange, NaN (quietly) when
        # the phase is not finite
        with np.errstate(invalid="ignore"):
            return exchanged_component(source, np.exp(sign * theta.value))
    if source.is_zero:
        return ZERO2
    box = (source.box[1], source.box[0]) if source.box is not None else None
    fn = source._pointwise

    def mirrored(x, y):
        return np.exp(sign * theta(*coincidence_point(target, x, y))) * fn(y, x)

    return Component2D(mirrored, box)


def boundary_datum(s: Scenario, comp: int, half: int) -> Component2D:
    """The boundary branch of psi_comp (2 or 3) on a half, as a datum of its
    own null pair (x, y).

    The branch carries the partner datum through the coincidence point
    coincidence_point(comp, x, y) with the jump phase of the half, which is
    the partner read at the swapped pair (y, x): phase_mirrored of it with
    target comp.  Every reader of the boundary branch (evaluation, the
    moments of the surface quadrature, the seam probe, the derived boundary
    maps) takes it from here.  An overridden map is read at the coincidence
    point instead.
    """
    if s.boundary_override is not None:
        hmap = getattr(s.boundary_override, BRANCH_MAPS[(comp, half)])
        return Component2D(fn=lambda x, y: hmap(*coincidence_point(comp, x, y)))
    theta = s.phase.on(half)
    return phase_mirrored(s.initial.component(PARTNER[comp], half), theta, target=comp)


def branch_datum(s: Scenario, comp: int, half: int, initial: bool) -> Component2D:
    """The datum of a branch of BRANCHES, a function of the component's null
    pair: g_comp on the initial branch, boundary_datum on the boundary one."""
    return s.initial.component(comp, half) if initial else boundary_datum(s, comp, half)


# ---------------------------------------------------------------------------
# JSON scenario configs
# ---------------------------------------------------------------------------


def config_float(raw, where: str) -> float:
    """A config value as a float; it must be a finite JSON number.

    Every number of a config becomes a float here, so a string, a boolean,
    NaN, Infinity or a number beyond the float range (1e999, a 400-digit
    integer) is refused before it reaches the data, the phases or the boxes.
    """
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        try:
            if math.isfinite(raw):
                return float(raw)
        except OverflowError:  # an int beyond the float range
            pass
    raise ScenarioConfigError(f"{where} must be a finite number, got {raw!r}")


def config_bool(raw, where: str) -> bool:
    """A config flag; it must be JSON true or false, not a string or number."""
    if isinstance(raw, bool):
        return raw
    raise ScenarioConfigError(f"{where} must be true or false, got {raw!r}")


def config_object(raw, where: str, keys=None) -> dict:
    """A config entry that must be a JSON object; where is its path ("" at
    the top).  A key outside keys (if given) is refused by its path where.key:
    a misspelt key is never ignored."""
    if not isinstance(raw, dict):
        raise ScenarioConfigError(f"{where} must be an object, got {raw!r}")
    unknown = [f"{where}.{k}" if where else k for k in raw if keys and k not in keys]
    if unknown:
        raise ScenarioConfigError(f"unknown config key {', '.join(unknown)}")
    return raw


def _parse_amplitude(raw, where: str) -> complex:
    if not isinstance(raw, (list, tuple)):
        return complex(config_float(raw, where))
    if len(raw) != 2:
        raise ScenarioConfigError(f"{where} must be a number or [re, im], got {raw!r}")
    return complex(config_float(raw[0], where), config_float(raw[1], where))


def parse_profile(spec: dict, where: str) -> Profile1D:
    keys = {"shape", "lo", "hi", "amplitude", "momentum", "normalize", "smoothness"}
    spec = config_object(spec, where, keys)
    shape = spec.get("shape", "smooth_bump")
    try:
        lo = config_float(spec["lo"], f"{where}.lo")
        hi = config_float(spec["hi"], f"{where}.hi")
    except KeyError as err:
        raise ScenarioConfigError(f"{where}: profile needs lo and hi") from err
    amp = _parse_amplitude(spec.get("amplitude", 1.0), f"{where}.amplitude")
    momentum = config_float(spec.get("momentum", 0.0), f"{where}.momentum")
    normalize = config_bool(spec.get("normalize", False), f"{where}.normalize")
    if shape == "smooth_bump":
        config_object(spec, where, keys - {"smoothness"})  # the order of a poly_bump
        return smooth_bump(lo, hi, amplitude=amp, momentum=momentum, normalize=normalize)
    if shape == "poly_bump":
        k = config_float(spec.get("smoothness", 2), f"{where}.smoothness")
        if not (k.is_integer() and k >= 0):
            raise ScenarioConfigError(f"{where}.smoothness must be a whole number >= 0, got {k}")
        return poly_bump(
            lo, hi, smoothness=int(k), amplitude=amp, momentum=momentum, normalize=normalize
        )
    raise ScenarioConfigError(f"{where}: unknown profile shape {shape!r}")


def parse_phase(spec, where: str) -> Phase:
    if spec is None:
        return Phase()
    spec = config_object(spec, where, {"preset", "value"})
    preset = spec.get("preset", "constant")
    if preset == "constant":
        return Phase(config_float(spec.get("value", 0.0), f"{where}.value"))
    if preset in PHASE_PRESETS:
        config_object(spec, where, {"preset"})  # a preset fixes the value
        return Phase(PHASE_PRESETS[preset])
    raise ScenarioConfigError(f"{where}: unknown phase preset {preset!r}")


def _parse_component(
    spec, where: str, theta: Phase, g2: Component2D | None = None
) -> Component2D:
    """The component of a config entry; g2 is given for g3 only, the one
    component the mirror_of_g2 preset builds."""
    if spec is None:
        return ZERO2
    spec = config_object(spec, where, {"preset", "params", "support"})
    preset = spec.get("preset", "zero")
    if preset == "zero":
        config_object(spec, where, {"preset"})  # zero data have no params or box
        return ZERO2
    if preset == "product":
        params = config_object(spec.get("params", {}), f"{where}.params", {"x", "y"})
        px = parse_profile(params.get("x"), f"{where}.params.x")
        py = parse_profile(params.get("y"), f"{where}.params.y")
        comp = product2(px, py)
    elif preset == "mirror_of_g2":
        config_object(spec, where, {"preset", "support"})  # the mirror has no params
        if g2 is None:
            raise ScenarioConfigError(f"{where}: preset {preset} is for g3 only")
        if g2.is_zero:
            raise ScenarioConfigError(f"{where}: {preset} needs a nonzero g2")
        comp = phase_mirrored(g2, theta, target=3)
    else:
        raise ScenarioConfigError(f"{where}: unknown component preset {preset!r}")
    if "support" in spec:
        try:
            (xlo, xhi), (ylo, yhi) = spec["support"]
        except (TypeError, ValueError) as err:
            raise ScenarioConfigError(
                f"{where}: support must be [[xlo, xhi], [ylo, yhi]]"
            ) from err
        w = f"{where}.support"
        box = (
            (config_float(xlo, w), config_float(xhi, w)),
            (config_float(ylo, w), config_float(yhi, w)),
        )
        if not all(lo < hi for lo, hi in box):
            raise ScenarioConfigError(f"{where}: support {box} must have lo < hi")
        comp = replace(comp, box=box)
    return comp


def _scenario_from_full_config(cfg: dict) -> Scenario:
    # a label is a note for the reader: outputs echo the raw config, the scenario keeps none
    config_object(cfg, "", {"initial", "phase", "antisymmetric", "label"})
    antisym = config_bool(cfg.get("antisymmetric", False), "antisymmetric")
    phase_cfg = config_object(cfg.get("phase", {}), "phase", {"theta1", "theta2"})
    theta1 = parse_phase(phase_cfg.get("theta1"), "phase.theta1")
    theta2 = parse_phase(phase_cfg.get("theta2"), "phase.theta2")
    initial_cfg = config_object(cfg.get("initial", {}), "initial", {"g1", "g2", "g3", "g4"})

    halves: dict[int, tuple] = {}
    for half, theta in ((1, theta1), (2, theta2)):
        key = f"omega{half}"
        parsed: list[Component2D] = []
        for name in ("g1", "g2", "g3", "g4"):
            entry = config_object(
                initial_cfg.get(name, {}), f"initial.{name}", {"omega1", "omega2"}
            )
            g2 = parsed[1] if name == "g3" else None  # the source of a mirror
            where = f"initial.{name}.{key}"
            parsed.append(_parse_component(entry.get(key), where, theta, g2))
        halves[half] = tuple(parsed)

    if antisym:
        if "theta2" in phase_cfg or not all(comp.is_zero for comp in halves[2]):
            msg = "antisymmetric scenarios derive omega2 data and phase.theta2; do not give them"
            raise ScenarioConfigError(msg)
        return antisymmetric_extension(halves[1], theta1)
    return Scenario(
        initial=InitialData(half1=halves[1], half2=halves[2]),
        phase=BoundaryPhase(theta1=theta1, theta2=theta2),
    )


def scenario_from_dict(cfg: dict) -> Scenario:
    cfg = config_object(cfg, "scenario config")
    if "preset" in cfg:
        # scattering presets live next to their closed forms; import lazily
        # to keep this module free of a cycle
        from .interaction import (
            spin_product_scenario_from_config,
            wavepacket_scenario_from_config,
        )

        preset = config_object(cfg, "", {"preset", "params", "label"})["preset"]
        params = config_object(cfg.get("params", {}), "params")
        if preset == "wavepacket":
            return wavepacket_scenario_from_config(params)
        if preset == "spin_product":
            return spin_product_scenario_from_config(params)
        raise ScenarioConfigError(f"unknown scenario preset {preset!r}")
    return _scenario_from_full_config(cfg)


def load_scenario(text: str) -> tuple[Scenario, str]:
    """Parse a JSON scenario config; returns the scenario and the raw text."""
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as err:
        raise ScenarioConfigError(f"config is not valid JSON: {err}") from err
    return scenario_from_dict(cfg), text
