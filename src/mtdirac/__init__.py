"""Two-particle multi-time Dirac transport in 1+1 dimensions.

Massless two-particle states on the space-like configuration set, evolved
along characteristics, with a zero-range interaction imposed purely through
a relative phase between the two middle spin components on the coincidence
set.  Subpackages cover domain geometry, spin algebra, scenario configs,
the transport solver, tensor currents, hypersurface integrals, Lorentz
boosts and scattering diagnostics.

Each name of `__all__` resolves on first use: `import mtdirac` compiles no
submodule, and `mtdirac.evaluate_fields` imports `mtdirac.solver` and reads
the name there, so it is always the home module's object.
"""

import importlib

# submodule -> the public names it defines
_EXPORTS = {
    "geometry": ("Configuration", "DomainError", "Region", "classify"),
    "scenario": (
        "InitialData",
        "Phase",
        "Scenario",
        "antisymmetric_extension",
        "load_scenario",
        "scenario_from_dict",
    ),
    "solver": (
        "bc_defect",
        "check_compatibility",
        "evaluate_fields",
        "evaluate_grid",
        "pde_residual",
    ),
    "current": ("coincidence_flux", "tensor_current"),
    "conservation": (
        "Hypersurface",
        "QuadratureSpec",
        "boosted_flat",
        "bump_surface",
        "flat",
        "normalization_report",
    ),
    "lorentz": ("Boost", "covariance_report", "transformed_fields"),
    "interaction": (
        "closed_form_packet",
        "schmidt_spectrum",
        "single_time_slice",
        "spin_product_scenario",
        "wavepacket_scenario",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
