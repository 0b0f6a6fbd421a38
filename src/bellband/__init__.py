"""Numerical toolkit for CHSH constraints on singlet correlations and the
regularity of the one unknown correlation on the positive angle cube."""

import types as _types

__version__ = "0.1.0"

from .band import Interval, LpResult, band_map, feasible_band, feasible_distribution, lp_band
from .chsh import (
    BooleResult,
    CorrelationVector,
    boole_check,
    chsh_value,
    correlations_from_angles,
    polytope_member,
)
from .core import (
    AngleTriple,
    JointDistribution2,
    as_outcomes,
    empirical_correlation,
    singlet_joint,
    twisted_malus,
)
from .errors import (
    BellbandError,
    DomainError,
    GridFormatError,
    InfeasibleError,
    ShapeError,
)
from .f4 import (
    AnalysisReport,
    F4Candidate,
    QuadraticFit,
    Violation,
    axis_derivative_check,
    contradiction_report,
    direction_quotients,
    gradient_at_origin,
    inequality_scan,
    quadratic_fit,
)
from .sampling import (
    JointDistribution4,
    OctetSequences,
    sample_lhv_pairs,
    sample_octet,
    sample_singlet_pairs,
)

# every public name imported above, but not the submodules that importing them binds
__all__ = ["__version__", *(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)]
