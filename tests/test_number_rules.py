"""The shared rules for numeric arguments: finite, positive or nonnegative.

One table lists each entry point, the argument it checks, the name its
message gives that argument, and the rule.  Every rule has one definition
(``derivator._check_number``), so each entry must reject NaN, both
infinities and the first value outside its rule with a ``ValueError`` that
names the argument, and a nonnegative rule must accept 0.
"""

import math
import re

import numpy as np
import pytest

from stieltjes_ode.derivator import (Derivator, make_phi,
                                     make_silkworm_derivator,
                                     make_test_derivator)
from stieltjes_ode.linear import (check_admissibility,
                                  constant_linear_solution,
                                  general_linear_solution, hat_exponential,
                                  hat_transform, homogeneous_solution,
                                  tilde_coefficients)
from stieltjes_ode.models import SilkwormParams, make_linear_spec
from stieltjes_ode.quadrature import error_bound, make_lipschitz_integrand
from stieltjes_ode.solver import IvpSpec, build_partition

G = make_test_derivator(2, snap=0.1)  # jumps at 3.3 and 6.7

# the values each rule rejects; the first value outside it comes last
REJECTED = {
    "finite": [math.nan, math.inf, -math.inf],
    "positive": [math.nan, math.inf, -math.inf, 0.0],
    "nonnegative": [math.nan, math.inf, -math.inf, -1.0],
}

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
    ("general_linear_solution", "damping d", "finite",
     lambda v: general_linear_solution(v, 0.7, 1.0, G, 1.0, quad_n=100)),
    ("general_linear_solution", "forcing", "finite",
     lambda v: general_linear_solution(np.cos, v, 1.0, G, 1.0, quad_n=100)),
    ("general_linear_solution", "initial value", "finite",
     lambda v: general_linear_solution(-0.5, 0.7, v, G, 1.0, quad_n=100)),
    ("hat_transform", "coefficient c", "finite",
     lambda v: hat_transform(v, G)),
    ("hat_exponential", "coefficient c", "finite",
     lambda v: hat_exponential(v, G, 1.0)),
    ("tilde_coefficients", "damping d", "finite",
     lambda v: tilde_coefficients(v, 0.7, G, 1.0)),
    ("tilde_coefficients", "forcing", "finite",
     lambda v: tilde_coefficients(-0.5, v, G, 1.0)),
    ("check_admissibility", "damping d", "finite",
     lambda v: check_admissibility(v, G)),
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
]


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


@pytest.mark.parametrize("rule, words", [
    ("finite", "finite"), ("positive", "positive and finite"),
    ("nonnegative", "finite and nonnegative")])
def test_each_rule_has_one_message_format(rule, words):
    messages = set()
    for entry, name, entry_rule, call in RULES:
        if entry_rule == rule:
            with pytest.raises(ValueError) as info:
                call(math.nan)
            messages.add(str(info.value).replace(name, "<name>", 1))
    assert messages == {f"<name> must be {words}, got nan"}


def test_a_negative_jump_count_keeps_the_nonnegative_rule():
    # an integer count: NaN and the infinities fail the integer check first
    with pytest.raises(ValueError,
                       match="^num_jumps must be finite and nonnegative"):
        make_test_derivator(-1)
    assert make_test_derivator(0).n_jumps == 0
