"""Boole's sequence inequalities, CHSH evaluation, and membership in the
classical correlation polytope."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .core import ROUND_TOL, AngleTriple, empirical_correlation, q_plus_points, singlet_correlation
from .errors import DomainError


class BooleResult(NamedTuple):
    lhs1: float
    lhs2: float
    holds: bool


def _sides(c1: float, c2: float, c3: float, c4: float) -> tuple[float, float]:
    """The two CHSH left-hand sides |c1 + c2| + |c3 - c4| and
    |c1 - c2| + |c3 + c4|; both are <= 2 inside the classical polytope."""
    return abs(c1 + c2) + abs(c3 - c4), abs(c1 - c2) + abs(c3 + c4)


def boole_check(u, x, v, y) -> BooleResult:
    """Evaluate both Boole inequalities on four equal-length +/-1 sequences.

    lhs1 = |<u,x> + <v,x>| + |<u,y> - <v,y>| and lhs2 with the signs
    swapped; both are <= 2 for any +/-1 sequences.
    """
    ux = empirical_correlation(u, x)
    vx = empirical_correlation(v, x)
    uy = empirical_correlation(u, y)
    vy = empirical_correlation(v, y)
    lhs1, lhs2 = _sides(ux, vx, uy, vy)
    return BooleResult(lhs1, lhs2, max(lhs1, lhs2) <= 2.0 + ROUND_TOL)


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
            if not math.isfinite(v) or abs(v) > 1.0 + ROUND_TOL:
                raise DomainError(f"{name} = {v} is not a correlation in [-1, 1]")
            object.__setattr__(self, name, v)


def chsh_value(c: CorrelationVector) -> float:
    """Larger of the two CHSH left-hand sides; values above 2 leave the
    classical polytope."""
    return max(_sides(c.c1, c.c2, c.c3, c.c4))


def polytope_member(c: CorrelationVector) -> bool:
    """True iff the vector satisfies both CHSH inequalities."""
    return chsh_value(c) <= 2.0 + ROUND_TOL


def correlations_from_angles(theta: AngleTriple, candidate) -> CorrelationVector:
    """Correlation vector at a configuration in the positive cube: the
    three known cosine correlations plus the candidate's value for the
    fourth."""
    c1, c2, c3 = singlet_correlation(q_plus_points(theta.as_array()))
    return CorrelationVector(c1, c2, c3, candidate.values(theta.as_array()))
