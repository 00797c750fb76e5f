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

The boundary branch of psi2/psi3 is encoded once, as boundary_datum: the
partner datum's phase mirror, a function of the component's own null pair.
The derived boundary maps are that datum read at a coincidence point.

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
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        shape = np.broadcast_shapes(x.shape, y.shape)
        if self.is_zero:
            return np.zeros(shape, dtype=complex)
        xb = np.broadcast_to(x, shape)
        yb = np.broadcast_to(y, shape)
        return np.asarray(self._pointwise(xb, yb), dtype=complex)

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
    """Boundary phase theta(t, z) on the coincidence set.

    Presets: constant theta = value; plus_i and minus_i fix the jump factor
    exp(-i theta) to +i and -i (theta = -pi/2 and +pi/2).
    """

    kind: str = "constant"
    value: float = 0.0
    fn: PhaseFn | None = None

    def __call__(self, t, z) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        z = np.asarray(z, dtype=float)
        shape = np.broadcast_shapes(t.shape, z.shape)
        if self.kind == "constant":
            return np.full(shape, self.value)
        if self.kind == "plus_i":
            return np.full(shape, -0.5 * math.pi)
        if self.kind == "minus_i":
            return np.full(shape, 0.5 * math.pi)
        if self.kind == "custom":
            tb = np.broadcast_to(t, shape)
            zb = np.broadcast_to(z, shape)
            return np.asarray(self.fn(tb, zb), dtype=float)
        raise ValueError(f"unknown phase kind {self.kind!r}")

    def negated(self) -> "Phase":
        if self.kind == "constant":
            return Phase("constant", -self.value)
        if self.kind == "plus_i":
            return Phase("minus_i")
        if self.kind == "minus_i":
            return Phase("plus_i")
        fn = self.fn
        return Phase("custom", fn=lambda t, z: -fn(t, z))


@dataclass(frozen=True, eq=False)
class BoundaryPhase:
    theta1: Phase = Phase("constant", 0.0)
    theta2: Phase = Phase("constant", 0.0)

    def on(self, half: int) -> Phase:
        """theta_half, the phase of the jump condition on half (or side) 1 or 2."""
        return self.theta1 if half == 1 else self.theta2


@dataclass(frozen=True, eq=False)
class InitialData:
    """The eight data functions (g1..g4 on each half) plus support metadata."""

    half1: tuple[Component2D, Component2D, Component2D, Component2D]
    half2: tuple[Component2D, Component2D, Component2D, Component2D]

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
        lo = math.inf
        hi = -math.inf
        for comp in (*self.half1, *self.half2):
            if comp.box is None:
                continue
            for axis in comp.box:
                lo = min(lo, axis[0])
                hi = max(hi, axis[1])
        if lo > hi:
            return None
        return (lo, hi)


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
    label: str = ""


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
# feeding the boundary branch per (component, half), and the partner whose
# datum that branch carries.
NULL_SIGNS = {1: (-1, -1), 2: (-1, 1), 3: (1, -1), 4: (1, 1)}
BRANCH_MAPS = {(2, 1): "h1_minus", (3, 1): "h1_plus", (2, 2): "h2_plus", (3, 2): "h2_minus"}
PARTNER = {2: 3, 3: 2}


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


def exchanged_component(comp: Component2D, sign: float = -1.0) -> Component2D:
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
    if source.is_zero:
        return ZERO2
    box = (source.box[1], source.box[0]) if source.box is not None else None
    sign = 1j if target == 3 else -1j
    if source.factors is not None and theta.kind != "custom":
        # a preset phase is one constant: the closure's factor, NaN (quietly)
        # when the phase is not finite
        with np.errstate(invalid="ignore"):
            factor = np.exp(sign * theta(0.0, 0.0))
        return Component2D(box=box, factors=source.factors.exchanged(factor))
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


@dataclass(frozen=True)
class CompatibilityReport:
    """Result of sampling the coincidence compatibility conditions."""

    max_violation: float
    condition_maxima: dict[str, float]


def check_compatibility(s: Scenario) -> CompatibilityReport:
    """Sample the four matching conditions between data and boundary maps at
    512 points spanning the support hull, padded by 5% on each side.

    On half 1 the outgoing boundary values at t = 0 must splice onto the
    initial data: g3(z, z) = h1_plus(0, z) and g2(z, z) = h1_minus(0, z);
    half 2 analogously with h2_plus/h2_minus and components 2/3 swapped.
    Violations are reported, never raised: incompatible data still define
    branchwise values and the flag is the caller's to act on.
    """
    hull = s.initial.support_hull()
    if hull is None:
        return CompatibilityReport(0.0, {})
    pad = 0.05 * (hull[1] - hull[0])
    z = np.linspace(hull[0] - pad, hull[1] + pad, 512)
    t0 = np.zeros_like(z)
    maps = boundary_maps(s)
    maxima: dict[str, float] = {}
    for (comp, half), map_name in BRANCH_MAPS.items():
        name = f"g{comp}_half{half}_vs_{map_name}"
        mag = np.abs(
            s.initial.component(comp, half)(z, z) - getattr(maps, map_name)(t0, z)
        )
        maxima[name] = float(np.max(mag))
    return CompatibilityReport(max_violation=max(maxima.values()), condition_maxima=maxima)


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


def _parse_amplitude(raw, where: str) -> complex:
    if not isinstance(raw, (list, tuple)):
        return complex(config_float(raw, where))
    if len(raw) != 2:
        raise ScenarioConfigError(f"{where} must be a number or [re, im], got {raw!r}")
    return complex(config_float(raw[0], where), config_float(raw[1], where))


def parse_profile(spec: dict, where: str) -> Profile1D:
    if not isinstance(spec, dict):
        raise ScenarioConfigError(f"{where}: profile spec must be an object")
    shape = spec.get("shape", "smooth_bump")
    try:
        lo = config_float(spec["lo"], f"{where}.lo")
        hi = config_float(spec["hi"], f"{where}.hi")
    except KeyError as err:
        raise ScenarioConfigError(f"{where}: profile needs lo and hi") from err
    amp = _parse_amplitude(spec.get("amplitude", 1.0), f"{where}.amplitude")
    momentum = config_float(spec.get("momentum", 0.0), f"{where}.momentum")
    normalize = bool(spec.get("normalize", False))
    if shape == "smooth_bump":
        return smooth_bump(lo, hi, amplitude=amp, momentum=momentum, normalize=normalize)
    if shape == "poly_bump":
        k = int(config_float(spec.get("smoothness", 2), f"{where}.smoothness"))
        return poly_bump(
            lo, hi, smoothness=k, amplitude=amp, momentum=momentum, normalize=normalize
        )
    raise ScenarioConfigError(f"{where}: unknown profile shape {shape!r}")


def parse_phase(spec, where: str) -> Phase:
    if spec is None:
        return Phase("constant", 0.0)
    if not isinstance(spec, dict):
        raise ScenarioConfigError(f"{where}: phase spec must be an object")
    preset = spec.get("preset", "constant")
    if preset == "constant":
        return Phase("constant", config_float(spec.get("value", 0.0), f"{where}.value"))
    if preset in ("plus_i", "minus_i"):
        return Phase(preset)
    raise ScenarioConfigError(f"{where}: unknown phase preset {preset!r}")


def _parse_component(spec, theta: Phase, parsed: dict, where: str) -> Component2D:
    if spec is None:
        return ZERO2
    if not isinstance(spec, dict):
        raise ScenarioConfigError(f"{where}: component spec must be an object")
    preset = spec.get("preset", "zero")
    if preset == "zero":
        return ZERO2
    if preset == "product":
        params = spec.get("params", {})
        px = parse_profile(params.get("x"), f"{where}.params.x")
        py = parse_profile(params.get("y"), f"{where}.params.y")
        comp = product2(px, py)
    elif preset == "mirror_of_g2":
        src = parsed.get("g2")
        if src is None or src.is_zero:
            raise ScenarioConfigError(f"{where}: {preset} needs a nonzero g2 parsed first")
        comp = phase_mirrored(src, theta, target=3)
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
    antisym = bool(cfg.get("antisymmetric", False))
    phase_cfg = cfg.get("phase", {})
    theta1 = parse_phase(phase_cfg.get("theta1"), "phase.theta1")
    theta2 = parse_phase(phase_cfg.get("theta2"), "phase.theta2")
    initial_cfg = cfg.get("initial", {})
    if not isinstance(initial_cfg, dict):
        raise ScenarioConfigError("initial must be an object")
    unknown = set(initial_cfg) - {"g1", "g2", "g3", "g4"}
    if unknown:
        raise ScenarioConfigError(f"unknown initial keys {sorted(unknown)}")

    halves: dict[int, tuple] = {}
    for half, theta in ((1, theta1), (2, theta2)):
        key = f"omega{half}"
        parsed: dict[str, Component2D] = {}
        for name in ("g1", "g2", "g4", "g3"):  # g3 last so mirrors can see g2
            entry = initial_cfg.get(name, {})
            if not isinstance(entry, dict):
                raise ScenarioConfigError(f"initial.{name} must be an object")
            parsed[name] = _parse_component(
                entry.get(key), theta, parsed, f"initial.{name}.{key}"
            )
        halves[half] = (parsed["g1"], parsed["g2"], parsed["g3"], parsed["g4"])

    if antisym:
        for comp in halves[2]:
            if not comp.is_zero:
                raise ScenarioConfigError(
                    "antisymmetric scenarios must not give omega2 data explicitly"
                )
        return antisymmetric_extension(halves[1], theta1)
    return Scenario(
        initial=InitialData(half1=halves[1], half2=halves[2]),
        phase=BoundaryPhase(theta1=theta1, theta2=theta2),
        label=str(cfg.get("label", "")),
    )


def scenario_from_dict(cfg: dict) -> Scenario:
    if not isinstance(cfg, dict):
        raise ScenarioConfigError("scenario config must be a JSON object")
    if "preset" in cfg:
        # scattering presets live next to their closed forms; import lazily
        # to keep this module free of a cycle
        from .interaction import (
            spin_product_scenario_from_config,
            wavepacket_scenario_from_config,
        )

        preset = cfg["preset"]
        params = cfg.get("params", {})
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
