"""MMD-regularized kernel-embedding estimation of optimal transport.

Solves a penalized convex program over transport-plan coefficients, derives
an out-of-sample-capable barycentric transport map, and ships desk-scale
experiment harnesses plus an exact discrete-OT baseline.
"""

from .dataio import LabeledDataset
from .experiments import (
    ExperimentReport,
    GaussianPair,
    fit_plan_model,
    gaussian_ground_truth_map,
    gaussian_map_matrix,
    make_gaussian_pair,
    run_domain_adaptation,
    run_gaussian_experiment,
    run_sample_complexity_study,
    sample_gaussian,
)
from .kernels import (
    GAUSSIAN,
    KRONECKER_DELTA,
    GramMatrix,
    KernelSpec,
    gram,
    squared_euclidean_cost,
)
from .solvers import (
    PlanCoefficients,
    SolveTrace,
    SolverConfig,
    derive_beta,
    solve_admm,
    solve_emd_exact,
    solve_simplified,
)
from .transport_map import (
    TransportMapModel,
    batch_weights,
    load_model,
    map_point_sgd,
    map_points_closed_form,
    save_model,
)

__version__ = "0.1.0"
