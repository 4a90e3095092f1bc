"""Stochastic heavy ball solver for consistent linear systems.

Sketch-and-project iterations with momentum, exact closed-form rate
constants, and a Monte Carlo harness that checks the convergence
guarantees empirically.
"""

from shb.errors import (
    AllZero,
    AsymmetryExceedsTolerance,
    BundleError,
    DimensionMismatch,
    EmptyFile,
    Inconsistent,
    InsufficientReplications,
    MalformedLine,
    NoConvergence,
    NonMonotoneIndices,
    NonSquare,
    NotAdmissible,
    OutOfRange,
    ShbError,
    ZeroRow,
)
from shb.linalg import SymEig, nonzero_min, pinv_apply, project_onto_solutions, sym_eig
from shb.problems import Problem, gen_problem, plant_solution
from shb.sketch import (
    BlockRow,
    GaussianSketch,
    SpectrumInfo,
    UnitCoordinate,
    derive_stream,
    draw,
    expected_h,
    f_value,
    row_sampling,
    spectrum_and_gram,
    stoch_grad,
)
from shb.solver import (
    EnsembleStats,
    RunTrace,
    SolverParams,
    run,
    run_ensemble,
    run_pairs,
    shb_step,
)
from shb.theory import (
    L1Params,
    L2Rate,
    beta_upper_bound,
    cesaro_bound,
    l1_params,
    l2_envelope,
    l2_rate,
    q_lower_bound,
)

__version__ = "0.1.0"
