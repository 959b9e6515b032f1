"""The shared rules for numeric arguments: finite, positive or nonnegative
numbers, integer counts, and intervals ``[a, b)`` of the domain.

One table lists each entry point, the argument it checks, the name its
message gives that argument, and the rule.  Every number and count rule has
one definition (``derivator._check_number``), so each entry must reject
NaN, both infinities and the first value outside its rule with a
``ValueError`` that names the argument; a count rule also rejects a bool
and a non-integral float, and accepts its smallest value.  A second table
does the same for the one interval rule (``derivator._check_interval``),
whose ends are times: a bool and a non-integral float are valid there.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from stieltjes_ode.analysis import BoundConstants, theoretical_bounds
from stieltjes_ode.derivator import (MAX_GRID_STEPS, Derivator, make_phi,
                                     make_silkworm_derivator,
                                     make_test_derivator)
from stieltjes_ode.linear import (constant_linear_solution,
                                  general_linear_solution, hat_exponential,
                                  homogeneous_solution)
from stieltjes_ode.models import SilkwormParams, make_linear_spec
from stieltjes_ode.quadrature import (error_bound, evaluate_rule,
                                      make_lipschitz_integrand,
                                      oracle_integral, run_bound_suite)
from stieltjes_ode.solver import IvpSpec, build_partition, solve

G = make_test_derivator(2, snap=0.1)  # jumps at 3.3 and 6.7

# the values each rule rejects; the first value outside it comes last
NOT_A_COUNT = [math.nan, math.inf, -math.inf, True, 2.5]
REJECTED = {
    "finite": [math.nan, math.inf, -math.inf],
    "positive": [math.nan, math.inf, -math.inf, 0.0],
    "nonnegative": [math.nan, math.inf, -math.inf, -1.0],
    "not NaN": [math.nan],
    "count": NOT_A_COUNT + [-1],
    "case count": NOT_A_COUNT + [0],
    "grid steps": NOT_A_COUNT + [0, MAX_GRID_STEPS + 1],
}

# the smallest value each count rule accepts
SMALLEST = {"count": 0, "case count": 1, "grid steps": 1}

# the words of each rule in its message
WORDS = {"finite": "finite", "positive": "positive and finite",
         "nonnegative": "finite and nonnegative",
         "not NaN": "a number, not NaN", "count": "an integer >= 0",
         "case count": "an integer >= 1",
         "grid steps": f"an integer in [1, {MAX_GRID_STEPS}]"}


def integrand(t):
    return np.cos(np.asarray(t, dtype=float))


CONSTS = BoundConstants(k1=1.0, k2=0.5, k3=0.5, lip=6.0, h=0.1, num_jumps=2)
# a 2-jump linear solve, whose ``integral`` a delay term reads
TRAJ = solve(make_linear_spec(-0.5, 1.0), build_partition(G, 0.1))


# (entry point, name in the message, rule, call with the value)
RULES = [
    ("Derivator", "domain end T", "positive",
     lambda v: Derivator(v, lambda t: np.asarray(t, dtype=float))),
    ("make_test_derivator", "domain end T", "positive",
     lambda v: make_test_derivator(2, T=v)),
    ("make_test_derivator", "snap", "positive",
     lambda v: make_test_derivator(2, snap=v)),
    ("make_phi", "alpha", "positive", make_phi),
    ("make_silkworm_derivator", "domain end T", "positive",
     make_silkworm_derivator),
    ("build_partition", "step", "positive", lambda v: build_partition(G, v)),
    ("IvpSpec", "initial value", "finite",
     lambda v: IvpSpec(rhs=lambda t, x, hist: -x, x0=v)),
    ("SilkwormParams", "decay rate c", "positive",
     lambda v: SilkwormParams(c=v, lam=1.1, x0=8.0)),
    ("SilkwormParams", "fecundity lam", "nonnegative",
     lambda v: SilkwormParams(c=1.2, lam=v, x0=8.0)),
    ("SilkwormParams", "domain end T", "positive",
     lambda v: SilkwormParams(c=1.2, lam=1.1, x0=8.0, T=v)),
    ("SilkwormParams", "initial value", "nonnegative",
     lambda v: SilkwormParams(c=1.2, lam=1.1, x0=v)),
    ("make_linear_spec", "damping d", "finite",
     lambda v: make_linear_spec(v, 1.0)),
    ("homogeneous_solution", "damping d", "finite",
     lambda v: homogeneous_solution(v, 1.0, G, 1.0)),
    ("homogeneous_solution", "initial value", "finite",
     lambda v: homogeneous_solution(-0.5, v, G, 1.0)),
    ("constant_linear_solution", "damping d", "finite",
     lambda v: constant_linear_solution(v, 0.7, 1.0, G, 1.0)),
    ("constant_linear_solution", "forcing", "finite",
     lambda v: constant_linear_solution(-0.5, v, 1.0, G, 1.0)),
    ("constant_linear_solution", "initial value", "finite",
     lambda v: constant_linear_solution(-0.5, 0.7, v, G, 1.0)),
    # the right limit, and ``d = 0``, which returns without the homogeneous
    # solution, check their arguments as well
    ("homogeneous_solution(from_right)", "damping d", "finite",
     lambda v: homogeneous_solution(v, 1.0, G, 1.0, from_right=True)),
    ("constant_linear_solution(from_right)", "damping d", "finite",
     lambda v: constant_linear_solution(v, 0.7, 1.0, G, 1.0,
                                        from_right=True)),
    ("constant_linear_solution(d=0)", "forcing", "finite",
     lambda v: constant_linear_solution(0.0, v, 1.0, G, 1.0)),
    ("constant_linear_solution(d=0)", "initial value", "finite",
     lambda v: constant_linear_solution(0.0, 0.7, v, G, 1.0)),
    ("general_linear_solution", "damping d", "finite",
     lambda v: general_linear_solution(v, 0.7, 1.0, G, 1.0, quad_n=100)),
    ("general_linear_solution", "forcing", "finite",
     lambda v: general_linear_solution(np.cos, v, 1.0, G, 1.0, quad_n=100)),
    ("general_linear_solution", "initial value", "finite",
     lambda v: general_linear_solution(-0.5, 0.7, v, G, 1.0, quad_n=100)),
    ("hat_exponential", "coefficient c", "finite",
     lambda v: hat_exponential(v, G, 1.0)),
    ("error_bound", "H", "nonnegative",
     lambda v: error_bound("one-point", v, 1.0, 0.0, 1.0, 1.0)),
    ("error_bound", "var_f", "nonnegative",
     lambda v: error_bound("trapezoid", 1.0, 1.0, 0.0, 1.0, v)),
    ("error_bound", "a", "finite",
     lambda v: error_bound("one-point", 1.0, 1.0, v, 1.0, 1.0)),
    ("error_bound", "b", "finite",
     lambda v: error_bound("one-point", 1.0, 1.0, 0.0, v, 1.0)),
    ("make_lipschitz_integrand", "c1", "finite",
     lambda v: make_lipschitz_integrand(G, v, 1.0)),
    ("make_lipschitz_integrand", "c2", "finite",
     lambda v: make_lipschitz_integrand(G, 1.0, v)),
    ("theoretical_bounds", "t", "nonnegative",
     lambda v: theoretical_bounds(CONSTS, v, 0.0, 1e-3)),
    ("theoretical_bounds", "e0", "finite",
     lambda v: theoretical_bounds(CONSTS, 1.0, v, 1e-3)),
    ("theoretical_bounds", "truncation_max", "nonnegative",
     lambda v: theoretical_bounds(CONSTS, 1.0, 0.0, v)),
    *[("BoundConstants", name, "nonnegative",
       lambda v, name=name: replace(CONSTS, **{name: v}))
      for name in ("k1", "k2", "k3", "lip")],
    ("BoundConstants", "h", "positive", lambda v: replace(CONSTS, h=v)),
    ("BoundConstants", "num_jumps", "count",
     lambda v: replace(CONSTS, num_jumps=v)),
    ("Trajectory.integral", "lo", "not NaN", lambda v: TRAJ.integral(v, 5.0)),
    ("Trajectory.integral", "hi", "not NaN", lambda v: TRAJ.integral(0.5, v)),
    ("make_test_derivator", "num_jumps", "count", make_test_derivator),
    ("run_bound_suite", "num_cases", "case count",
     lambda v: run_bound_suite(num_cases=v, n_oracle=10, seed=1)),
    ("run_bound_suite", "n_oracle", "grid steps",
     lambda v: run_bound_suite(num_cases=1, n_oracle=v, seed=1)),
    ("run_bound_suite", "seed", "count",
     lambda v: run_bound_suite(num_cases=1, n_oracle=10, seed=v)),
    ("oracle_integral", "n", "grid steps",
     lambda v: oracle_integral(integrand, G, 0.0, 5.0, v)),
    ("hat_exponential", "quad_n", "grid steps",
     lambda v: hat_exponential(np.cos, G, 5.0, quad_n=v)),
    ("general_linear_solution", "quad_n", "grid steps",
     lambda v: general_linear_solution(np.cos, 0.7, 1.0, G, 5.0, quad_n=v)),
]

# (entry point, whether ``a == b`` is valid, call with the two ends)
INTERVALS = [
    ("jumps_in", True, G.jumps_in),
    ("measure", True, G.measure),
    ("estimate_continuous_lipschitz", False, G.estimate_continuous_lipschitz),
    ("evaluate_rule", False,
     lambda a, b: evaluate_rule("trapezoid", integrand, integrand, G, a, b)),
    ("oracle_integral", False,
     lambda a, b: oracle_integral(integrand, G, a, b, 100)),
]
T = G.domain_end

# (a, b) pairs outside the rule: NaN, the infinities, then the first value
# outside it at either end, for a second end inside the domain
BAD_ENDS = [(a, 5.0) for a in (math.nan, math.inf, -math.inf, -5e-324)] + [
    (0.5, b) for b in (math.nan, math.inf, -math.inf,
                       float(np.nextafter(T, math.inf)))]
# valid ends: a bool and a non-integral float at either end, and the domain
GOOD_ENDS = [(True, 5.0), (2.5, 5.0), (0.5, True), (0.5, 2.5), (0.0, T)]


@pytest.mark.parametrize("call, name, value", [
    pytest.param(call, name, value, id=f"{entry}-{name}-{value}")
    for entry, name, rule, call in RULES for value in REJECTED[rule]])
def test_a_value_outside_the_rule_is_rejected_by_name(call, name, value):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
        call(value)


@pytest.mark.parametrize("call", [
    pytest.param(call, id=f"{entry}-{name}")
    for entry, name, rule, call in RULES if rule == "nonnegative"])
def test_zero_is_accepted_where_the_rule_is_nonnegative(call):
    call(0.0)


@pytest.mark.parametrize("call, value", [
    pytest.param(call, SMALLEST[rule], id=f"{entry}-{name}")
    for entry, name, rule, call in RULES if rule in SMALLEST])
def test_the_smallest_count_is_accepted(call, value):
    call(value)


# values inside the rules of the time and bound arguments: a bool and a
# non-integral float are numbers there, and ``integral`` clamps ``lo``
ALSO_ACCEPTED = [
    ("theoretical_bounds", "t", [True, 2.5]),
    ("theoretical_bounds", "e0", [True, 2.5, -2.5]),
    ("theoretical_bounds", "truncation_max", [True, 2.5]),
    ("Trajectory.integral", "lo", [True, 2.5, -math.inf, math.inf]),
    ("Trajectory.integral", "hi", [True, 2.5, -math.inf]),
]


@pytest.mark.parametrize("call, value", [
    pytest.param(call, value, id=f"{entry}-{name}-{value}")
    for entry, name, values in ALSO_ACCEPTED
    for row_entry, row_name, rule, call in RULES
    if (row_entry, row_name) == (entry, name) for value in values])
def test_a_time_or_bound_argument_takes_any_number_inside_its_rule(call,
                                                                   value):
    assert all(map(math.isfinite, np.atleast_1d(call(value))))


@pytest.mark.parametrize("rule, words", WORDS.items())
def test_each_rule_has_one_message_format(rule, words):
    messages = set()
    for entry, name, entry_rule, call in RULES:
        if entry_rule == rule:
            with pytest.raises(ValueError) as info:
                call(math.nan)
            messages.add(str(info.value).replace(name, "<name>", 1))
    assert messages == {f"<name> must be {words}, got nan"}


@pytest.mark.parametrize("call, empty, a, b", [
    pytest.param(call, empty, a, b, id=f"{entry}-{a}-{b}")
    for entry, empty, call in INTERVALS for a, b in BAD_ENDS])
def test_an_interval_end_outside_the_domain_is_rejected(call, empty, a, b):
    op = "<=" if empty else "<"
    with pytest.raises(ValueError, match=re.escape(
            f"need 0 <= a {op} b <= {T}, got a={a}, b={b}")):
        call(a, b)


@pytest.mark.parametrize("call, a, b", [
    pytest.param(call, a, b, id=f"{entry}-{a}-{b}")
    for entry, empty, call in INTERVALS for a, b in GOOD_ENDS])
def test_an_interval_inside_the_domain_is_accepted(call, a, b):
    call(a, b)


@pytest.mark.parametrize("call, empty", [
    pytest.param(call, empty, id=entry) for entry, empty, call in INTERVALS])
def test_an_empty_interval_is_valid_only_where_the_flag_says(call, empty):
    if empty:
        call(2.5, 2.5)
    else:
        with pytest.raises(ValueError, match=re.escape(
                f"need 0 <= a < b <= {T}, got a=2.5, b=2.5")):
            call(2.5, 2.5)


@pytest.mark.parametrize("empty", [True, False])
def test_the_interval_rule_has_one_message_format(empty):
    messages = set()
    for entry, entry_empty, call in INTERVALS:
        if entry_empty == empty:
            with pytest.raises(ValueError) as info:
                call(3.0, 1.0)
            messages.add(str(info.value))
    op = "<=" if empty else "<"
    assert messages == {f"need 0 <= a {op} b <= {T}, got a=3.0, b=1.0"}
