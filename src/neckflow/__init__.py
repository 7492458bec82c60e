"""Corrector hierarchies and a reference Stokes solver for narrow-gap flow
between two rigid inclusions, with slope-based verification of the decay and
blow-up orders the construction is designed to achieve."""

from .geometry import (
    NeckProfile,
    ProfileFn,
    named_profile,
    profile_from_json,
)
from .coeffs import (
    Coeff,
    QuadratureError,
    coeff_diff,
    coeff_eval,
    to_sexp,
)
from .fields import PolyField, VectorField2, trace
from .correctors import (
    ConstructionError,
    CorrectorHierarchy,
    CorrectorLevel,
    build_first_level,
    build_hierarchy,
    build_symmetric_green,
    extend,
    verify_level,
    verify_structure_many,
)
from .verifier import (
    HierarchyCache,
    RateFit,
    corrector_blowup_order,
    fit_decay_order,
    residual_order,
    theorem_rate_table,
)
from .fd import (
    DiscreteSolution,
    NeckGrid,
    global_energy,
    local_energy,
    manufactured_solution,
    solve_fields,
    solve_w,
    sup_grad,
)
from .sweeps import ConfigError, RateReport, RateRow, RunConfig, emit, parse_report, run

__version__ = "0.1.0"
