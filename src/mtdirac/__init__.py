"""Two-particle multi-time Dirac transport in 1+1 dimensions.

Massless two-particle states on the space-like configuration set, evolved
along characteristics, with a zero-range interaction imposed purely through
a relative phase between the two middle spin components on the coincidence
set.  Subpackages cover domain geometry, spin algebra, scenario configs,
the transport solver, tensor currents, hypersurface integrals, Lorentz
boosts and scattering diagnostics.
"""

from .geometry import (
    Configuration,
    DomainError,
    Region,
    classify,
)
from .scenario import (
    InitialData,
    Phase,
    Scenario,
    antisymmetric_extension,
    load_scenario,
    scenario_from_dict,
)
from .solver import (
    bc_defect,
    check_compatibility,
    evaluate_fields,
    evaluate_grid,
    pde_residual,
)
from .current import coincidence_flux, tensor_current
from .conservation import (
    Hypersurface,
    QuadratureSpec,
    boosted_flat,
    bump_surface,
    flat,
    normalization_report,
)
from .lorentz import Boost, covariance_report, transformed_fields
from .interaction import (
    closed_form_packet,
    schmidt_spectrum,
    single_time_slice,
    spin_product_scenario,
    wavepacket_scenario,
)

__all__ = [
    "Boost",
    "Configuration",
    "DomainError",
    "Hypersurface",
    "InitialData",
    "Phase",
    "QuadratureSpec",
    "Region",
    "Scenario",
    "antisymmetric_extension",
    "bc_defect",
    "boosted_flat",
    "bump_surface",
    "check_compatibility",
    "classify",
    "closed_form_packet",
    "coincidence_flux",
    "covariance_report",
    "evaluate_fields",
    "evaluate_grid",
    "flat",
    "load_scenario",
    "normalization_report",
    "pde_residual",
    "scenario_from_dict",
    "schmidt_spectrum",
    "single_time_slice",
    "spin_product_scenario",
    "tensor_current",
    "transformed_fields",
    "wavepacket_scenario",
]

__version__ = "0.1.0"
