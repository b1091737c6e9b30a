"""Prox solvers and certified value bounds for the l0 sparse overlapping
group lasso.

The composite objective is a prox quadratic around a center plus a nonzero
count, plus a sum of euclidean norms over (possibly overlapping) index
groups. The package provides a consensus ADMM solver, a dual ascent
heuristic, closed-form / fixed-point sandwich bounds on the optimal value,
brute-force oracles to certify everything at desk scale, and a CLI with a
JSON instance format.
"""
from .admm import (
    AdmmConfig,
    NonFiniteError,
    SolveReport,
    residual_norms,
    solve_admm,
    x_step,
    y_step,
    z_step,
)
from .bounds import (
    BoundsReport,
    FixedPointTrace,
    ZeroCenterError,
    lower_bound_l0,
    lower_bound_l1,
    lower_diag,
    sandwich,
    scaled_l2_prox,
    upper_bound_l0,
    upper_bound_l1,
    upper_diag,
)
from .dual import dual_y_step, dual_z_step, solve_dual
from .instances import (
    InstanceFile,
    ParseError,
    ValidationError,
    dumps_canonical,
    generate_instance,
    instance_from_dict,
    parse_instance,
    parse_instance_text,
    trace_to_csv,
)
from .model import (
    GroupDefectError,
    GroupStructure,
    ProxInstance,
    gather,
    group_norm_sum,
    hard_threshold,
    objective_value,
    scatter_add,
    weighted_group_norm,
)
from .oracle import (
    OracleResult,
    TooLargeError,
    oracle_c_scan,
    oracle_grid_1d,
    oracle_prox_l0_ogl,
    oracle_ub_l0_subsets,
    oracle_variant,
    stationarity_check,
)

__version__ = "0.1.0"
