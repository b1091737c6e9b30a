"""Prox solvers and certified value bounds for the l0 sparse overlapping
group lasso.

The composite objective is a prox quadratic around a center plus a nonzero
count, plus a weighted sum of euclidean norms over (possibly overlapping)
index groups. The package provides a consensus ADMM solver, a dual ascent
heuristic, closed-form / Newton sandwich bounds on the optimal value,
brute-force oracles to certify everything at desk scale, and a CLI with a
JSON instance format. The solver steps, bound pieces and model primitives
are imported from their modules (``sogl.admm``, ``sogl.bounds``,
``sogl.dual``, ``sogl.model``).
"""
from .admm import AdmmConfig, NonFiniteError, SolveReport, solve_admm
from .bounds import BoundsReport, sandwich
from .dual import solve_dual
from .instances import (
    InstanceFile,
    ParseError,
    ValidationError,
    dumps_canonical,
    generate_instance,
    instance_from_dict,
    parse_instance,
    parse_instance_text,
)
from .model import GroupDefectError, GroupStructure, ProxInstance, objective_value
from .oracle import (
    OracleResult,
    TooLargeError,
    oracle_c_scan,
    oracle_prox_l0_ogl,
    oracle_ub_l0_subsets,
    oracle_variant,
    stationarity_check,
)

__version__ = "0.1.0"
