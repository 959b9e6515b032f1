"""Numerical solver and closed forms for ODEs driven by monotone derivators.

The state ``x`` evolves against a nondecreasing, left-continuous driver
``g`` instead of plain time: flat stretches of ``g`` freeze the dynamics and
jumps of ``g`` act as impulses.  The package provides the driver
representation (:mod:`~stieltjes_ode.derivator`), single-interval quadrature
rules against the driver's measure (:mod:`~stieltjes_ode.quadrature`), a
predictor-corrector scheme (:mod:`~stieltjes_ode.solver`), closed-form
linear solutions (:mod:`~stieltjes_ode.linear`), benchmark models
(:mod:`~stieltjes_ode.models`), error/bound analysis
(:mod:`~stieltjes_ode.analysis`) and a CLI (:mod:`~stieltjes_ode.cli`).
"""

from .derivator import (Derivator, from_descriptor, identity_derivator,
                        make_phi, make_silkworm_derivator, make_test_derivator)
from .quadrature import (RuleKind, error_bound, evaluate_rule,
                         oracle_integral, run_bound_suite)
from .solver import (IvpSpec, GridMismatchError, Partition, Trajectory,
                     build_partition, solve, solve_perturbed)
from .linear import (check_admissibility, constant_linear_solution,
                     general_linear_solution, hat_exponential, hat_transform,
                     homogeneous_solution, tilde_coefficients)
from .models import (SilkwormParams, SilkwormSolution, make_linear_spec,
                     make_silkworm_spec, silkworm_rhs, silkworm_rhs_right)
from .analysis import (BoundConstants, ConvergenceCell, ErrorReport,
                       convergence_table, error_report, estimate_order,
                       format_convergence_csv, measure_constants,
                       sample_exact, theoretical_bounds, truncation_errors)

__version__ = "0.1.0"
