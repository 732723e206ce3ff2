"""Synthesis and simulation of measurement-driven quantum feedback loops."""

from .core import (
    DEFAULT_TOL,
    DensityInvariantError,
    DiagonalObservable,
    HermitianPropagator,
    ToleranceConfig,
    basis_state,
    commutator,
    evolve,
    expectation,
    fidelity_to_basis,
    hermitian_expm,
    purity,
    spectrum,
    validate_density,
)
from .control import (
    ControlDecision,
    ControllerConfig,
    curvature_at_eigenstate,
    exact_min_feedback,
    expected_v_after,
    linear_feedback,
    lyapunov_v,
    lyapunov_v_eps,
    quadratic_feedback,
)
from .measurement import OutcomeImpossible, QndMeasurement, photon_box
from .simulate import (
    EnsembleResult,
    FilterBreakdown,
    LoopConfig,
    Trajectory,
    config_hash,
    convergence_statistics,
    derive_seed,
    run_deterministic,
    run_ensemble,
    run_filtered,
    run_open_loop,
    run_stochastic,
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
