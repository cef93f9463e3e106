"""Spin chains with nearest and range-n couplings: exact energies,
volume-constrained ground states, and their continuum limits."""

from .lattice import (
    ColumnProfile,
    SpinConfig,
    block_rearrange,
    column_heights,
    config_to_text,
    energy_decomposition,
    energy_open,
    energy_periodic,
    full_columns,
    lambda_defect,
    parse_config,
    profile_to_config,
    site_count,
    volume,
)
from .continuum import (
    PiecewiseConstant,
    TauParams,
    boundary_term,
    continuum_energy,
    continuum_energy_periodic,
    periodic_cell_perimeter,
    total_variation,
)
from .classify import (
    MinimizerReport,
    ProblemParams,
    classify_open,
    classify_periodic,
    periodicity_defects,
    phase_diagram,
)
from .solve import (
    SolveResult,
    SolverGuardError,
    brute_force_min,
    column_dp_min,
    minimize,
    periodic_min,
)
from .recover import (
    RecoveryPlan,
    convergence_evidence,
    recovery_constrained,
    recovery_unconstrained,
)

__version__ = "0.1.0"
