"""Structured-grid solver and regularity auditor for p-structure systems.

The constitutive law is S(A) = (mu + |A|)**(p-2) * A acting on either the
full velocity gradient or its symmetric part.  The package solves the
associated nonlinear elliptic systems on small periodic-slab and Dirichlet
box grids, reconstructs wall-normal second derivatives from tangential data,
and estimates the discrete constants appearing in second-order a priori
bounds.
"""

import types as _types

from .audit import (
    admissible_p,
    estimate_c4,
    estimate_c5,
    growth_fit,
    holder_seminorm,
    r_of_q,
    run_audit,
    tangential_energy_check,
    verify_estimate,
)
from .constitutive import (
    FULL_GRADIENT,
    SYMMETRIC_GRADIENT,
    ConstitutiveParams,
    inequality_ratios,
    stress,
    stress_jacobian,
    tensor_norm,
    triple_product_check,
)
from .errors import (
    BadExponent,
    BadRange,
    CoefficientBlowup,
    ConfigError,
    DegenerateConfig,
    DegeneratePoint,
    EpsTooLarge,
    IllConditioned,
    NoConvergence,
    NonFinite,
    NotConverged,
    PStructError,
    PathStalled,
    TooCoarse,
    UnknownId,
)
from .grid import (
    CUBIC_PERIODIC,
    DIRICHLET_BOX,
    DomainSpec,
    SecondDerivField,
    apply_constraints,
    build_domain,
    divergence,
    gradient,
    laplacian,
    load_field,
    mollify,
    norm,
    save_field,
    second_derivatives,
)
from .poisson import poisson_solve
from .problems import (
    AnalyticField,
    ProblemSpec,
    manufactured_continuous,
    manufactured_discrete,
    oned_profile_oracle,
    rhs_sample,
    smooth_test_field,
)
from .reconstruct import (
    NormalSystem,
    assemble_normal_system,
    pointwise_bound_check,
    solve_normal,
)
from .solver import (
    ContinuationPath,
    FrozenReport,
    SolveConfig,
    SolveReport,
    continuation_solve,
    energy,
    frozen_linear_solve,
    solve,
)

__version__ = "0.1.0"

# every public name imported above, and no submodule
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _types.ModuleType))
