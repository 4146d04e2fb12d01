"""Regime-adaptive flow on 1D discrete fracture networks.

The package solves mass-conservative velocity/pressure problems on networks
of 1D fractures where the constitutive law switches between a low-speed and a
high-speed branch at a threshold on the velocity magnitude. The interface
between the two regimes is part of the unknowns and is tracked by an outer
fixed-point loop; an energy-minimization reduction provides an independent
oracle for single-fracture problems.
"""

from .config import (
    ConfigError,
    OutputSettings,
    ProblemSpec,
    load_config,
    parse_config,
    spec_to_dict,
)
from .energy import (
    EnergyReport,
    MinimizationResult,
    energy_of,
    lift_field,
    reduce_and_minimize,
    tangential_forcing,
)
from .export import ResultBundle, bundle_from_report, export_bundle, load_bundle
from .fem import (
    RegimeField,
    SaddleSystem,
    SingularSystemError,
    Solution,
    assemble,
    implied_junction_pressures,
    solve_saddle,
)
from .laws import AdaptiveLaw, LawBranch, Regime, eval_lambda_coefficient
from .meshing import Mesh, build_mesh, source_integrals, split_mesh_at
from .network import (
    BoundarySpec,
    Branch,
    FractureNetwork,
    Intersection,
    PiecewiseSource,
    PressureBC,
    SourceSpec,
    ValidationReport,
    VelocityBC,
    validate_network,
)
from .picard import PicardResult, PicardSettings, picard_solve
from .presets import PRESET_NAMES, run_preset, run_spec
from .tracker import (
    Configuration,
    TrackerReport,
    TrackerSettings,
    TrackerStatus,
    track,
)

__version__ = "0.1.0"
