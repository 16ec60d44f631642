"""Certified bounds on stationary expectations of truncated Markov chains.

The pipeline: describe a countable-state chain row by row (`chain`,
`models`), pick a finite truncation set A, a regeneration state z and a
center set K with a Lyapunov drift certificate, assemble and solve the
truncated linear systems (`solver`), and turn the solutions into a
certified interval around the stationary expectation (`bounds`).  The
`oracle` module supplies an exact finite stationary solver, tight drift
certificates of finite chains and the seeded cycle simulator behind
``--validate``; `cli` runs config-driven sweeps.
"""

from .bounds import (
    BoundReport,
    DegenerateDeltaError,
    DriftReport,
    PipelineError,
    compute_error_bound,
    compute_pi_tilde,
    compute_tv_bound,
    run_pipeline,
    run_sweep,
    verify_lyapunov_drift,
)
from .chain import (
    ChainModel,
    ChainTail,
    Reward,
    SparseRow,
    TruncationProblem,
    matrix_chain,
    one_step_fringe,
)
from .config import ExperimentConfig, ConfigError, load_config
from .models import (
    ChainFileError,
    Gm1Params,
    LyapunovCertificate,
    gm1_beta_coeffs,
    gm1_certificate,
    gm1_chain,
    load_chain_from_file,
    random_walk_certificate,
    random_walk_chain,
)
from .oracle import (
    CycleStats,
    OracleError,
    exact_stationary_finite,
    simulate_cycles,
    tight_certificate,
)
from .solver import (
    AssemblyError,
    SolveResult,
    SolverError,
    SolverOptions,
    TruncatedSystem,
    assemble_truncated_system,
    prefix_system,
    solve,
    solve_transpose,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
