"""Synthesis and simulation of measurement-driven quantum feedback loops."""

from .core import (
    DensityInvariantError,
    DiagonalObservable,
    HermitianPropagator,
    basis_state,
    commutator,
    validate_density,
)
from .control import (
    ControllerConfig,
    ExactMinLaw,
    LinearLaw,
    QuadraticLaw,
    curvature_at_eigenstate,
)
from .measurement import OutcomeImpossible, QndMeasurement, photon_box
from .simulate import (
    EnsembleResult,
    LoopConfig,
    Trajectory,
    config_hash,
    convergence_statistics,
    derive_seed,
    run_ensemble,
    run_trajectory,
    write_trajectories_csv,
)
from .synthesis import (
    InfeasibleLambda,
    SynthesisProblem,
    SynthesisResult,
    assumption_report,
    hamiltonian_of_r,
    r_of_hamiltonian,
    solve_synthesis,
    synthesis_pipeline,
    verify_lambda,
)

__version__ = "0.1.0"
