"""Multicentered exact solutions of Born-Infeld-type nonlinear electrodynamics.

Point (and smooth) electric/magnetic sources prescribe the flux densities
D and B; this package inverts the nonlinear constitutive relations to get
E and H, evaluates the induced electric/magnetic currents those fields
carry, and integrates field energies and fluxes.
"""

from .constitutive import invert_rows
from .continuous import (
    ContinuousSource,
    RadialPart,
    bump_source,
    gaussian_source,
    gridded_source,
    merge_sources,
    newton_potential,
    two_gaussian_source,
)
from .errors import (
    ConfigError,
    DomainViolation,
    FieldError,
    InversionFailure,
    NegativeArgument,
    NoNonnegativeRoot,
    QuadratureError,
    SingularPoint,
)
from .currents import CurrentRows, StateRows, current_rows
from .models import ModelParams
from .observables import (
    EnergyReport,
    QuadratureSpec,
    divergence_exponent_probe,
    flux_charge,
    free_charge_with_inner_spheres,
    total_energy,
)
from .sources import ChargeConfig, PointCharge

__version__ = "0.1.0"

__all__ = [
    "ChargeConfig",
    "ConfigError",
    "ContinuousSource",
    "CurrentRows",
    "DomainViolation",
    "EnergyReport",
    "FieldError",
    "InversionFailure",
    "ModelParams",
    "NegativeArgument",
    "NoNonnegativeRoot",
    "PointCharge",
    "QuadratureError",
    "QuadratureSpec",
    "RadialPart",
    "SingularPoint",
    "StateRows",
    "__version__",
    "bump_source",
    "current_rows",
    "divergence_exponent_probe",
    "flux_charge",
    "free_charge_with_inner_spheres",
    "gaussian_source",
    "gridded_source",
    "invert_rows",
    "merge_sources",
    "newton_potential",
    "total_energy",
    "two_gaussian_source",
]
