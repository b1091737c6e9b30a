"""Output checks for the benchmark.

The benchmark reads instance files with ``json`` and recomputes, with its
own numpy code, what each record claims. Nothing here imports ``sogl``, so
a defect in the package cannot hide in the check that is meant to catch it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

REL_TOL = 1e-9  # objective values must agree with the record to this share
ORACLE_MATCH_TOL = 1e-6  # a solve "matches" the oracle within this share


class CheckError(Exception):
    """A record contradicts the instance or another record."""


def _close(value: float, reference: float) -> bool:
    return abs(value - reference) <= REL_TOL * max(1.0, abs(reference))


def _not_above(value: float, reference: float) -> bool:
    return value <= reference + REL_TOL * max(1.0, abs(reference))


class Problem:
    """One instance file, read with ``json`` rather than with sogl."""

    def __init__(self, data: dict):
        self.v = np.asarray(data["v"], dtype=float)
        self.n = self.v.size
        groups = data["groups"]
        self.flat = np.concatenate([np.asarray(g, dtype=np.intp) for g in groups])
        sizes = np.array([len(g) for g in groups], dtype=np.intp)
        self.starts = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.intp)
        self.s = float(data["s"])
        self.lam0 = float(data["lambda0"])
        self.lam1 = float(data["lambda1"])
        weights = data.get("weights")
        # The l0 sandwich lower bound certifies the objective that the
        # solvers minimize only when its group term is that objective's.
        if float(data["lambda"]) != self.lam1 or (
                weights is not None and any(w != 1.0 for w in weights)):
            raise CheckError("instance needs lambda == lambda1 and unit "
                             "weights for the l0 lower bound to be certified")

    def objective(self, x: np.ndarray) -> float:
        """``(1/2s)||x - v||^2 + lam0*nnz(x) + lam1*sum_i ||x_{G_i}||``."""
        d = x - self.v
        norms = np.sqrt(np.add.reduceat(x[self.flat] ** 2, self.starts))
        return (0.5 / self.s * float(d @ d) + self.lam0 * int(np.count_nonzero(x))
                + self.lam1 * float(norms.sum()))

    def point(self, values) -> np.ndarray:
        """A finite vector of length n, or a CheckError."""
        if not isinstance(values, list) or len(values) != self.n:
            raise CheckError(f"point does not have length {self.n}")
        x = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(x)):
            raise CheckError("point has non-finite entries")
        return x


@dataclass
class Solved:
    x: np.ndarray
    objective: float
    converged: bool


def solve_record(record: dict, prob: Problem, algorithms: tuple) -> Solved:
    """A ``solve`` record: algorithm, point and objective value."""
    if record["algorithm"] not in algorithms:
        raise CheckError(f"algorithm {record['algorithm']!r} not in {algorithms}")
    report = record["report"]
    x = prob.point(report["x_final"])
    mine = prob.objective(x)
    if not _close(report["objective"], mine):
        raise CheckError(f"objective {report['objective']!r} != recomputed {mine!r}")
    if not isinstance(report["converged"], bool):
        raise CheckError("converged is not a boolean")
    return Solved(x, mine, report["converged"])


@dataclass
class Bracket:
    lower: float
    minimizer_objectives: list  # true objective at each minimizer


def bounds_record(record: dict, prob: Problem, variant: str) -> Bracket:
    """A ``bounds`` record: ordered values and two finite minimizers."""
    report = record["report"]
    if report["variant"] != variant:
        raise CheckError(f"variant {report['variant']!r} != {variant!r}")
    lower, upper = float(report["lower_value"]), float(report["upper_value"])
    if not _not_above(lower, upper):
        raise CheckError(f"lower_value {lower!r} > upper_value {upper!r}")
    objectives = [prob.objective(prob.point(report[key]))
                  for key in ("lower_minimizer", "upper_minimizer")]
    return Bracket(lower, objectives)


def check_record(record: dict, prob: Problem, x: np.ndarray) -> bool:
    """A ``check`` record of point ``x``; returns its stationarity verdict."""
    report = record["report"]
    if not isinstance(report["stationary"], bool):
        raise CheckError("stationary is not a boolean")
    if not (np.isfinite(report["residual"]) and report["residual"] >= 0):
        raise CheckError(f"residual {report['residual']!r} is not a finite norm")
    mine = prob.objective(x)
    if not _close(report["objective"], mine):
        raise CheckError(f"objective {report['objective']!r} != recomputed {mine!r}")
    return report["stationary"]


def oracle_record(record: dict, prob: Problem) -> float:
    """An ``oracle`` record; returns its optimal value."""
    report = record["report"]
    mine = prob.objective(prob.point(report["minimizer"]))
    if not _close(report["value"], mine):
        raise CheckError(f"oracle value {report['value']!r} != recomputed {mine!r}")
    return float(report["value"])


def certificate(lower: float, brackets: list, candidates: list,
                oracle: float = None):
    """The certified l0 lower bound sits below every objective it bounds.

    ``candidates`` are the solvers' objectives; with an oracle optimum,
    ``lower <= oracle <= candidate`` must hold as well. Returns True.
    """
    values = candidates + [v for b in brackets for v in b.minimizer_objectives]
    for value in values:
        if not _not_above(lower, value):
            raise CheckError(f"l0 lower bound {lower!r} above objective {value!r}")
    if oracle is not None:
        if not _not_above(lower, oracle):
            raise CheckError(f"l0 lower bound {lower!r} above oracle {oracle!r}")
        for value in values:
            if not _not_above(oracle, value):
                raise CheckError(f"oracle {oracle!r} above objective {value!r}")
    return True
