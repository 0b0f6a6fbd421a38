"""Boole's sequence inequalities, CHSH evaluation, and membership in the
classical correlation polytope."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .core import AngleTriple, empirical_correlation, q_plus_points, singlet_correlation
from .errors import DomainError

#: slack on all inequality checks; anything within it counts as satisfied
INEQ_TOL = 1e-12


class BooleResult(NamedTuple):
    lhs1: float
    lhs2: float
    holds: bool


def boole_check(u, x, v, y) -> BooleResult:
    """Evaluate both Boole inequalities on four equal-length +/-1 sequences.

    lhs1 = |<u,x> + <v,x>| + |<u,y> - <v,y>| and lhs2 with the signs
    swapped; both are <= 2 for any +/-1 sequences.
    """
    ux = empirical_correlation(u, x)
    vx = empirical_correlation(v, x)
    uy = empirical_correlation(u, y)
    vy = empirical_correlation(v, y)
    lhs1 = abs(ux + vx) + abs(uy - vy)
    lhs2 = abs(ux - vx) + abs(uy + vy)
    holds = lhs1 <= 2.0 + INEQ_TOL and lhs2 <= 2.0 + INEQ_TOL
    return BooleResult(lhs1, lhs2, holds)


@dataclass(frozen=True)
class CorrelationVector:
    """The four correlations (<a_oo,b_oo>, <a_bo,b_oo>, <a_oo,b_ob>,
    <a_bo,b_ob>) entering the CHSH inequalities."""

    c1: float
    c2: float
    c3: float
    c4: float

    def __post_init__(self):
        for name in ("c1", "c2", "c3", "c4"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or abs(v) > 1.0 + INEQ_TOL:
                raise DomainError(f"{name} = {v} is not a correlation in [-1, 1]")
            object.__setattr__(self, name, v)


def chsh_value(c: CorrelationVector) -> float:
    """Larger of the two CHSH left-hand sides; values above 2 leave the
    classical polytope."""
    lhs1 = abs(c.c1 + c.c2) + abs(c.c3 - c.c4)
    lhs2 = abs(c.c1 - c.c2) + abs(c.c3 + c.c4)
    return max(lhs1, lhs2)


def polytope_member(c: CorrelationVector) -> bool:
    """True iff the vector satisfies both CHSH inequalities."""
    return chsh_value(c) <= 2.0 + INEQ_TOL


def correlations_from_angles(theta: AngleTriple, candidate) -> CorrelationVector:
    """Correlation vector at a configuration in the positive cube: the
    three known cosine correlations plus the candidate's value for the
    fourth."""
    c1, c2, c3 = singlet_correlation(q_plus_points(theta.as_array()))
    return CorrelationVector(c1, c2, c3, candidate.evaluate(theta))
