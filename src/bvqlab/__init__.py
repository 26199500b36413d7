"""Numerical laboratory for jump-detecting nonlocal functionals.

Measures kernel double sums whose limits see only the jump part of a field,
directional and scale-sup seminorms, exact 1D q-variation, disjoint-cube
oscillation functionals, and smoothed eikonal energies, and checks the
identities and inequalities tying them together against analytic right-hand
sides from the field catalog.
"""

import os as _os

# BLAS serves only small dot products here, and no LAPACK routine runs;
# they gain nothing from threads, while starting OpenBLAS's thread pool cost each
# process about 0.09 s on a 2-core machine.  Set before numpy is first
# imported; a value the user set wins, and a process that imported numpy
# earlier keeps its pool.
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import BvqError, ConfigError, EmptyMaskError, RegimeError, UnknownFieldError
from .grid import DomainMask, Grid, SampledField
from .fields import (
    AnalyticField,
    JumpPiece,
    JumpSpec,
    list_fields,
    make_field,
    sample_analytic,
    sample_gradient,
)
from .mollifier import Mollifier, build_mollifier
from .kernels import (
    EpsSweep,
    GridRadius,
    bbm_ladder,
    bbm_ladders,
    bbm_sweep,
    bbm_sweeps,
    bbm_value,
    besov_seminorm_pow,
    directional_sup,
    directional_value,
    gagliardo_dominates_bbm,
)
from .reports import ComparisonReport
from .jumps import (
    PowerPairCost,
    dimensional_constant,
    dimensional_constant_closed_form,
    directional_w_limit,
    jump_energy_rhs,
    unit_ball_volume,
    verify_jump_formula,
    verify_q1_full_bv,
    verify_two_sided,
    w_limit_rhs,
)
from .variation import check_vq_embedding, q_variation_pow
from .cubes import CubePacking, check_b_bound, cube_functional, cube_score
from .aviles import (
    MollifiedField,
    ag_chain_reports,
    ag_energy,
    check_ag_upper_bound,
    gamma_limit_value,
    mollify,
    verify_gamma_consistency,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
