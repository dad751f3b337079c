"""Phase-space beam transport with an emittance-scaled wave analogy.

Three interchangeable engines evolve the same beam: a split-step spectral
wavefield solver, a deformed (Moyal) phase-space grid solver whose order-1
truncation is the classical Liouville equation, and a symplectic ray
tracer.  Transforms (Wigner, momentum representation, tomographic
quadrature marginals) connect the representations; diagnostics measure
moments, emittance, uncertainty products, negativity and the size of the
deformation corrections.
"""

from .diagnostics import (
    BeamMoments,
    NegativityReport,
    ThermalEmittance,
    UncertaintyReport,
    emittance_from_thermal,
    moments_of,
    negativity,
    truncation_ratio,
    uncertainty_check,
)
from .exceptions import (
    BeamPhaseError,
    ConfigError,
    GridError,
    SamplingError,
    SolverError,
    StateError,
    TransformError,
)
from .grids import AxisGrid, PhaseGrid
from .outputs import emit_outputs, read_grid_dump, write_grid_dump, write_heatmap, write_moments_csv
from .phasespace import StepPlan, Trajectory, evolve_phase_space, trace_rays
from .potentials import (
    ConstantProfile,
    HarmonicProfile,
    PiecewiseProfile,
    PotentialSpec,
    eval_gradient,
    eval_potential,
    free_space,
    linear_lens,
    moyal_generator,
    moyal_generator_truncated,
    quartic_channel,
)
from .runner import EngineResult, PairDistances, RunReport, build_initial_states, run_scenario
from .scenario import ScenarioConfig, load_scenario
from .states import (
    QuasiDistribution,
    RayEnsemble,
    WaveField,
    gaussian_quasidist,
    gaussian_wavefield,
    sample_rays,
    superposition_quasidist,
    superposition_wavefield,
)
from .transforms import Tomogram, momentum_wavefield, tomogram, tomogram_axis, wigner_transform
from .twm import evolve_twm, free_gaussian_sigma, matched_width

__version__ = "0.1.0"

__all__ = [
    "AxisGrid",
    "BeamMoments",
    "BeamPhaseError",
    "ConfigError",
    "ConstantProfile",
    "EngineResult",
    "GridError",
    "HarmonicProfile",
    "NegativityReport",
    "PairDistances",
    "PhaseGrid",
    "PiecewiseProfile",
    "PotentialSpec",
    "QuasiDistribution",
    "RayEnsemble",
    "RunReport",
    "SamplingError",
    "ScenarioConfig",
    "SolverError",
    "StateError",
    "StepPlan",
    "ThermalEmittance",
    "Tomogram",
    "Trajectory",
    "TransformError",
    "UncertaintyReport",
    "WaveField",
    "build_initial_states",
    "emit_outputs",
    "emittance_from_thermal",
    "eval_gradient",
    "eval_potential",
    "evolve_phase_space",
    "evolve_twm",
    "free_gaussian_sigma",
    "free_space",
    "gaussian_quasidist",
    "gaussian_wavefield",
    "linear_lens",
    "load_scenario",
    "matched_width",
    "momentum_wavefield",
    "moments_of",
    "moyal_generator",
    "moyal_generator_truncated",
    "negativity",
    "quartic_channel",
    "read_grid_dump",
    "run_scenario",
    "sample_rays",
    "superposition_quasidist",
    "superposition_wavefield",
    "tomogram",
    "tomogram_axis",
    "trace_rays",
    "truncation_ratio",
    "uncertainty_check",
    "wigner_transform",
    "write_grid_dump",
    "write_heatmap",
    "write_moments_csv",
]
