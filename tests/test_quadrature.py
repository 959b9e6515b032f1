import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpu_target import per_target
from stieltjes_ode import quadrature
from stieltjes_ode.derivator import (_ORACLE_BLOCK, MAX_GRID_STEPS, Derivator,
                                     _f_on_arrays, identity_derivator,
                                     make_silkworm_derivator,
                                     make_test_derivator)
from stieltjes_ode.quadrature import (RuleKind, error_bound, evaluate_rule,
                                      make_lipschitz_integrand,
                                      oracle_integral, run_bound_suite)
from stieltjes_ode.solver import Partition


def pure_jump_driver(T, times, gaps):
    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    return Derivator(T, zero, times, gaps)


def unblocked_oracle(f, g, a, b, n, f_right=None):
    """The refinement oracle written as one array expression per segment."""
    times, gaps = g.jumps_in(a, b)
    total = sum(float(f(float(d))) * gap for d, gap in zip(times, gaps))
    interior, _ = g.jumps_in(np.nextafter(a, b), b)
    cuts = np.concatenate(([a], interior, [b]))
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        m = max(1, int(round(n * (hi - lo) / (b - a))))
        xs = np.linspace(lo, hi, m + 1)
        fv = _f_on_arrays(f, xs)
        if f_right is not None and lo in g.jump_times:
            fv[0] = float(f_right(lo))
        cv = g.continuous_value(xs)
        total += float(np.sum(0.5 * (fv[1:] + fv[:-1]) * np.diff(cv)))
    return total


def unskipped_oracle(f, g, a, b, n, f_right=None):
    """The refinement oracle before its skip of flat blocks: ``g^C`` on the
    whole ``np.linspace`` grid of each piece, ``f`` at the ends of live
    steps only, ``f_right`` where a piece starts at a jump, and one
    ``np.sum`` of the terms per piece."""
    times, gaps = g.jumps_in(a, b)
    total = sum(float(f(float(d))) * gap for d, gap in zip(times, gaps))
    interior, _ = g.jumps_in(np.nextafter(a, b), b)
    cuts = np.concatenate(([a], interior, [b]))
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        m = max(1, int(round(n * (hi - lo) / (b - a))))
        xs = np.linspace(lo, hi, m + 1)
        dgc = np.diff(g.continuous_value(xs))
        live = dgc != 0
        ends = np.append(live, False) | np.append(False, live)
        fv = np.zeros_like(xs)
        if ends.any():
            fv[ends] = _f_on_arrays(f, xs[ends])
        if f_right is not None and lo in g.jump_times and live[0]:
            fv[0] = float(f_right(lo))
        terms = np.where(live, 0.5 * (fv[1:] + fv[:-1]) * dgc, 0.0)
        total += float(np.sum(terms))
    return total


def plain_onepoint(f, g, a, b):
    """The one-point rule: the corrected rule with ``f_right = f``."""
    return evaluate_rule(RuleKind.ONE_POINT, f, f, g, a, b)


def plain_trapezoid(f, g, a, b):
    """The trapezoid rule: the corrected rule with ``f_right = f``."""
    return evaluate_rule(RuleKind.TRAPEZOID, f, f, g, a, b)


class TestOnePointRule:
    def test_linear_integrand_identity_driver(self):
        g = identity_derivator(1.0)
        f = lambda t: t
        # rule gives f(0) * 1 = 0; exact value is 0.5, inside the H*Var bound
        assert plain_onepoint(f, g, 0.0, 1.0) == 0.0

    def test_jump_only_measure_is_exact(self):
        g = pure_jump_driver(2.0, [1.0], [1.0])
        assert plain_onepoint(lambda t: t ** 2, g, 0.0, 2.0) == pytest.approx(1.0)

    def test_constant_integrand_exact(self):
        g = make_test_derivator(2)
        kappa = 3.7
        expected = kappa * g.measure(0.5, 7.25)
        assert plain_onepoint(lambda t: kappa, g, 0.5, 7.25) == pytest.approx(expected)

    def test_rejects_empty_interval(self):
        g = identity_derivator(1.0)
        with pytest.raises(ValueError):
            plain_onepoint(lambda t: t, g, 0.5, 0.5)

    @pytest.mark.parametrize("a, b", [(-0.5, 0.5), (0.5, 1.5)])
    def test_rejects_interval_outside_the_domain(self, a, b):
        g = identity_derivator(1.0)
        with pytest.raises(ValueError, match=r"not inside \[0, 1.0\]"):
            plain_onepoint(lambda t: t, g, a, b)


class TestTrapezoidRule:
    def test_linear_integrand_exact(self):
        g = identity_derivator(1.0)
        assert plain_trapezoid(lambda t: t, g, 0.0, 1.0) == pytest.approx(0.5)

    def test_constant_integrand_exact(self):
        g = pure_jump_driver(3.0, [1.0, 2.0], [0.5, 0.25])
        kappa = -2.0
        assert plain_trapezoid(lambda t: kappa, g, 0.0, 3.0) == pytest.approx(
            kappa * g.measure(0.0, 3.0))

    def test_quadratic_error_within_bound(self):
        g = identity_derivator(1.0)
        value = plain_trapezoid(lambda t: t ** 2, g, 0.0, 1.0)
        assert value == pytest.approx(0.5)
        # |0.5 - 1/3| = 1/6 <= H*((b-a)/2)^p * Var = 1 * 0.5 * 1
        assert abs(value - 1.0 / 3.0) <= error_bound(
            RuleKind.TRAPEZOID, 1.0, 1.0, 0.0, 1.0, 1.0)


class TestCorrectedRules:
    def test_constant_with_jump_at_left_endpoint_exact(self):
        g = pure_jump_driver(2.0, [0.5], [1.0])
        kappa = 4.0
        value = evaluate_rule(RuleKind.CORRECTED_ONE_POINT, lambda t: kappa,
                              lambda t: kappa, g, 0.5, 1.5)
        assert value == pytest.approx(kappa * g.measure(0.5, 1.5))

    def test_driver_as_integrand_against_oracle(self):
        # f = g with a unit jump at the interval's left endpoint; the
        # measure integral has the closed form 3.5
        g = Derivator(2.0, lambda t: np.asarray(t, dtype=float), [1.0], [1.0])
        f, f_right = g.value, g.right_value
        oracle = oracle_integral(f, g, 1.0, 2.0, 10 ** 6)
        assert oracle == pytest.approx(3.5, abs=1e-5)
        one = evaluate_rule(RuleKind.CORRECTED_ONE_POINT, f, f_right, g,
                            1.0, 2.0)
        trap = evaluate_rule(RuleKind.CORRECTED_TRAPEZOID, f, f_right, g,
                             1.0, 2.0)
        assert abs(one - oracle) <= error_bound(
            RuleKind.CORRECTED_ONE_POINT, 1.0, 1.0, 1.0, 2.0, 0.0)
        assert abs(trap - oracle) <= error_bound(
            RuleKind.CORRECTED_TRAPEZOID, 1.0, 1.0, 1.0, 2.0, 0.0)
        # linear continuous parts make the trapezoid variant exact here
        assert trap == pytest.approx(3.5)


class TestRuleFamily:
    """One ``evaluate_rule`` for the 2x2 family, pinned to the values the
    separate one-point and trapezoid functions gave."""

    # the test driver with 3 jumps (at 2.5, 5 and 7.5) and alpha = 3.3
    INTERVALS = {"no jump": (0.3, 1.9), "jump at a": (5.0, 5.8),
                 "interior jump": (4.2, 6.3), "ends at a jump": (4.3, 5.0),
                 "two interior jumps": (2.0, 8.0)}
    # (rule value, error_bound(kind, 1.7, 0.75, a, b, 2.3)) as hex floats,
    # kinds in the order one-point, trapezoid, corrected one-point,
    # corrected trapezoid
    PINNED = {
        "no jump": [
            ("0x1.bd0fb1bafafb7p-20", "0x1.63ff4fd10c0c7p+2"),
            ("0x1.97199979fef04p-2", "0x1.a75ac2de11834p+1"),
            ("0x1.bd0fb1bafafb7p-20", "0x1.d97f62b6ae7d3p+2"),
            ("0x1.97199979fef04p-2", "0x1.d97f62b6ae7d3p+1")],
        "jump at a": [
            ("0x1.15872b48dbeb5p+2", "0x1.a75ac2de11833p+1"),
            ("0x1.41bd178ca39e0p+2", "0x1.f774cb3f59c3cp+0"),
            ("0x1.515a8c8dbced8p+2", "0x1.d97f62b6ae7d1p+0"),
            ("0x1.5fa6c82f141f2p+2", "0x1.d97f62b6ae7d1p-1")],
        "interior jump": [
            ("0x1.3c806c0806a20p+2", "0x1.b489823ed5872p+2"),
            ("0x1.afb0d615dd878p+2", "0x1.039108ac458fcp+2"),
            ("0x1.7853cd4fee6c4p+2", "0x1.97d63886594acp+3"),
            ("0x1.afb0d61760eb8p+2", "0x1.97d63886594acp+2")],
        "ends at a jump": [
            ("0x1.06f71626a520cp+0", "0x1.7f0297ae15ee7p+1"),
            ("0x1.3c80192be968ap+0", "0x1.c77a7654caf46p+0"),
            ("0x1.06f71626a520cp+0", "0x1.6a858793dd981p+0"),
            ("0x1.3c80192be968ap+0", "0x1.6a858793dd981p-1")],
        "two interior jumps": [
            ("0x1.4453d4379622ep+3", "0x1.dfaad893ff4c8p+3"),
            ("0x1.a8cfae2c42a18p+3", "0x1.1d3640956105ap+3"),
            ("0x1.8a89bd0ade706p+3", "0x1.a028f5c28f5c1p+6"),
            ("0x1.a638416feb7ddp+3", "0x1.a028f5c28f5c1p+5")],
    }

    @pytest.mark.parametrize("case", list(INTERVALS))
    def test_pinned_values(self, case):
        g = make_test_derivator(3, alpha=3.3)
        f, f_right, _ = make_lipschitz_integrand(g, 1.3, -0.6)
        a, b = self.INTERVALS[case]
        for kind, (value, bound) in zip(RuleKind, self.PINNED[case]):
            assert evaluate_rule(kind, f, f_right, g, a, b).hex() == value
            assert error_bound(kind, 1.7, 0.75, a, b, 2.3).hex() == bound

    @pytest.mark.parametrize("kind, trapezoid, corrected", [
        (RuleKind.ONE_POINT, False, False),
        (RuleKind.TRAPEZOID, True, False),
        (RuleKind.CORRECTED_ONE_POINT, False, True),
        (RuleKind.CORRECTED_TRAPEZOID, True, True),
    ])
    def test_kind_properties(self, kind, trapezoid, corrected):
        assert (kind.trapezoid, kind.corrected) == (trapezoid, corrected)

    def test_plain_kinds_ignore_the_right_limit(self):
        g = make_test_derivator(3, alpha=3.3)
        f, f_right, _ = make_lipschitz_integrand(g, 1.3, -0.6)
        for kind in (RuleKind.ONE_POINT, RuleKind.TRAPEZOID):
            assert evaluate_rule(kind, f, f_right, g, 4.2, 6.3) == (
                evaluate_rule(kind, f, f, g, 4.2, 6.3))

    def test_value_strings_name_the_kinds(self):
        g = identity_derivator(1.0)
        f = lambda t: t
        assert RuleKind("trapezoid") is RuleKind.TRAPEZOID
        assert evaluate_rule("trapezoid", f, f, g, 0.0, 1.0) == (
            evaluate_rule(RuleKind.TRAPEZOID, f, f, g, 0.0, 1.0))
        assert error_bound("corrected-one-point", 2.0, 1.0, 0.0, 0.5,
                           0.0) == 1.0
        for call in (lambda: evaluate_rule("midpoint", f, f, g, 0.0, 1.0),
                     lambda: error_bound("midpoint", 1.0, 1.0, 0.0, 1.0, 1.0)):
            with pytest.raises(ValueError, match="midpoint"):
                call()


class TestOracle:
    def test_classical_integral(self):
        g = identity_derivator(1.0)
        v = oracle_integral(lambda t: np.asarray(t) ** 2, g, 0.0, 1.0, 10 ** 5)
        assert v == pytest.approx(1.0 / 3.0, abs=1e-8)

    def test_pure_jump_exact_for_any_n(self):
        g = pure_jump_driver(2.0, [0.5, 1.5], [1.0, 2.0])
        f = lambda t: np.asarray(t) + 1.0
        for n in (1, 10, 1000):
            assert oracle_integral(f, g, 0.0, 2.0, n) == pytest.approx(
                1.5 * 1.0 + 2.5 * 2.0)

    def test_refinement_converges(self):
        g = make_test_derivator(1)
        f = lambda t: np.exp(-np.asarray(t, dtype=float))
        devs = [abs(oracle_integral(f, g, 0.0, 9.0, n)
                    - oracle_integral(f, g, 0.0, 9.0, 2 * n))
                for n in (100, 1000, 10000)]
        assert devs[2] < devs[1] < devs[0]

    def test_rejects_bad_refinement(self):
        g = identity_derivator(1.0)
        with pytest.raises(ValueError):
            oracle_integral(lambda t: t, g, 0.0, 1.0, 0)

    def test_rejects_refinement_over_the_cap_before_allocating(self):
        g = identity_derivator(1.0)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="refinement"):
                oracle_integral(lambda t: t, g, 0.0, 1.0, MAX_GRID_STEPS + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_grid_is_built_block_by_block(self):
        # one segment of 10**6 subintervals: its terms take 8 MB, the whole
        # grid would take another 8 MB
        g = make_test_derivator(0, alpha=3.3)
        f, f_right, _ = make_lipschitz_integrand(g, 0.7, -1.3)
        tracemalloc.start()
        try:
            oracle_integral(f, g, 0.5, 9.5, 10 ** 6, f_right)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6

    @pytest.mark.parametrize("a, b, n", [(0.3, 9.7, 1000), (2.5, 7.5, 333),
                                         (5.0, 9.0, 90), (0.0, 10.0, 4)])
    def test_blocked_equals_unblocked(self, monkeypatch, a, b, n):
        # three interior jumps, and a = 2.5 or 5.0 starts at one
        g = make_test_derivator(3, alpha=3.3)
        f, f_right, _ = make_lipschitz_integrand(g, 1.3, -0.6)
        monkeypatch.setattr(quadrature, "_ORACLE_BLOCK", 7)
        for fr in (None, f_right):
            assert oracle_integral(f, g, a, b, n, fr) == unblocked_oracle(
                f, g, a, b, n, fr)

    def test_blocked_scalar_only_integrand(self, monkeypatch):
        # math.exp rejects arrays, so every block takes the per-point fallback
        g = make_test_derivator(2, alpha=4.0)
        f = lambda t: math.exp(-float(t)) + float(g.value(t))
        monkeypatch.setattr(quadrature, "_ORACLE_BLOCK", 16)
        assert oracle_integral(f, g, 1.0, 9.0, 500) == unblocked_oracle(
            f, g, 1.0, 9.0, 500)

    def test_right_limit_at_a_jump_start_is_exact_for_linear_parts(self):
        # f = g jumps at the left end; the trapezoid is exact on linear parts
        g = Derivator(2.0, lambda t: np.asarray(t, dtype=float), [1.0], [1.0])
        assert oracle_integral(g.value, g, 1.0, 2.0, 100,
                               g.right_value) == pytest.approx(3.5, abs=1e-13)
        assert oracle_integral(g.value, g, 1.0, 2.0, 100) == pytest.approx(
            3.5 - 0.5 / 100, abs=1e-13)

    def test_right_limit_after_an_interior_jump_is_second_order(self):
        # the jump at t = 5 sits mid-ramp; with f(5) in place of f(5+) the
        # first segment's end term is off by O(1/n) and the order drops to 1
        g = make_test_derivator(1, alpha=6.0)
        f, f_right, _ = make_lipschitz_integrand(g, 2.0, 2.0)
        ns = (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)
        for fr, lo, hi in ((f_right, 50.0, math.inf), (None, 5.0, 20.0)):
            vals = [oracle_integral(f, g, 4.0, 6.0, n, fr) for n in ns]
            devs = [abs(x - y) for x, y in zip(vals[:-1], vals[1:])]
            ratios = [x / y for x, y in zip(devs[:-1], devs[1:])]
            assert all(lo <= r <= hi for r in ratios), (fr, ratios)

    def test_integrand_is_not_read_inside_flat_stretches(self):
        # plateaus [2, 4] and [6, 8], each widened by the ramp's saturated end
        g = make_test_derivator(2)
        seen = []

        def f(t):
            arr = np.asarray(t, dtype=float)
            if arr.ndim:  # the jump atoms are read one scalar at a time
                seen.append(arr.copy())
            return np.cos(arr)

        a, b, n = 1.0, 9.0, 4000
        oracle_integral(f, g, a, b, n)
        read = np.concatenate(seen)
        # the grid of each piece, as np.linspace builds it
        idle, live_ends = [], []
        for lo, hi, terms in quadrature._piece_terms(np.cos, g, a, b, n):
            xs = np.linspace(lo, hi, terms.size + 1)
            live = np.diff(g.continuous_value(xs)) != 0
            ends = np.append(live, False) | np.append(False, live)
            idle.append(xs[~ends])
            live_ends.append(xs[ends])
        idle = np.concatenate(idle)
        assert idle.size > n // 2
        assert not np.isin(read, idle).any()
        assert np.isin(np.concatenate(live_ends), read).all()

    def test_integrand_is_ignored_on_a_null_set_of_the_measure(self):
        # NaN strictly inside the plateaus [2, 4] and [6, 8]; the one jump,
        # at t = 5, sits on a ramp, so no atom reads the NaN either
        g = make_test_derivator(1)
        f, f_right, _ = make_lipschitz_integrand(g, 0.7, -1.3)

        def f_nan(t):
            arr = np.asarray(t, dtype=float)
            plateau = ((arr > 2.0) & (arr < 4.0)) | ((arr > 6.0) & (arr < 8.0))
            return np.where(plateau, np.nan, f(arr))

        value = oracle_integral(f, g, 0.5, 9.5, 10 ** 4, f_right)
        assert math.isfinite(value)
        assert oracle_integral(f_nan, g, 0.5, 9.5, 10 ** 4, f_right) == value

    def test_rejects_a_part_that_falls_between_its_samples(self):
        # the constructor's 1025 samples miss the fall; the first oracle
        # step with a negative measure starts at t = 0.0053679
        g = Derivator(10.0, lambda t: t + 0.02 * np.sin(102.4 * np.pi * t))
        with pytest.raises(ValueError, match="decreases or is NaN on the "
                                             "oracle grid between 0.0053679 "):
            oracle_integral(lambda t: np.ones_like(t), g, 0.0, 0.01, 10 ** 5)

    def test_rejects_a_nan_part_between_its_samples(self):
        g = Derivator(1.0, lambda t: np.where((t > 0.5003) & (t < 0.5004),
                                              np.nan, t))
        with pytest.raises(ValueError, match="between 0.50029 and .*nan"):
            oracle_integral(lambda t: np.ones_like(t), g, 0.0, 1.0, 10 ** 5)

    @pytest.mark.parametrize("g, b", [
        (Derivator(10.0, lambda t: t + 0.02 * np.sin(102.4 * np.pi * t)),
         0.01),
        (Derivator(1.0, lambda t: np.where((t > 0.5003) & (t < 0.5004),
                                           np.nan, t)), 1.0)],
        ids=["falling", "nan"])
    def test_a_partition_on_the_oracle_grid_rejects_in_the_same_words(
            self, g, b):
        # the two drivers above, on a partition whose nodes are the oracle
        # grid of [0, b] (and T): the same step, by the one rule
        with pytest.raises(ValueError) as oracle:
            oracle_integral(lambda t: np.ones_like(t), g, 0.0, b, 10 ** 5)
        nodes = np.linspace(0.0, b, 10 ** 5 + 1)
        with pytest.raises(ValueError) as partition:
            Partition.from_nodes(g, np.union1d(nodes, [g.domain_end]))
        assert str(partition.value) == str(oracle.value).replace(
            "oracle grid", "partition grid")

    def test_rejects_a_fall_seen_only_between_block_ends(self):
        # each step falls by less than 8 ulps of 0.5, the third block of
        # the grid by 1.25e-11
        g = Derivator(1.0, lambda t: np.where(t < 0.5, t,
                                              0.5 - 5e-11 * (t - 0.5)))
        with pytest.raises(ValueError, match="between 0.5 and 0.75"):
            oracle_integral(lambda t: np.ones_like(t), g, 0.0, 1.0,
                            4 * _ORACLE_BLOCK)

    def test_accepts_rounding_below_zero_on_a_flat_stretch(self):
        # (t + 1) - t is 1 up to an ulp either way: flat on [1, 2] in exact
        # arithmetic, with thousands of steps of -2**-52 on the grid
        part = lambda t: np.minimum(t, 1.0) + ((t + 1.0) - t) - 1.0
        assert (np.diff(part(np.linspace(0.0, 2.0, 10 ** 5 + 1))) < 0).any()
        g = Derivator(2.0, part)
        value = oracle_integral(lambda t: np.ones_like(t), g, 0.0, 2.0,
                                10 ** 5)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_accepts_an_offset_part_within_rounding(self):
        # the same rounding with g^C(0) = 1 subtracted: the slack is taken
        # on the part's raw scale, not on its normalized values near 0
        part = lambda t: (t + 1.0) - t
        assert (np.diff(part(np.linspace(0.0, 2.0, 10 ** 5 + 1))) < 0).any()
        g = Derivator(2.0, part)
        assert oracle_integral(lambda t: np.ones_like(t), g, 0.0, 2.0,
                               10 ** 5) == 0.0


def float_bits(x):
    return np.float64(x).view(np.uint64)


@st.composite
def oracle_problems(draw):
    """A driver with plateaus, an interval inside or across them, ``n`` for
    pieces of one or several blocks, and an integrand, NaN (when drawn)
    where both grid steps next to a point are flat, away from the atoms."""
    point = st.one_of(st.floats(0.0, 10.0),
                      st.sampled_from([0.0, 1.9, 2.0, 3.0, 4.0, 4.1, 5.0,
                                       6.0, 7.0, 8.0, 10.0]))
    if draw(st.booleans()):
        # the test driver: flat on [2, 4] and [6, 8], widened by the ramps'
        # saturated ends
        g = make_test_derivator(draw(st.integers(0, 5)),
                                alpha=draw(st.floats(1.0, 6.0)))
        plateaus = [(2.0, 4.0), (6.0, 8.0)]
    else:
        # kinks at p0 < p1: a plateau that can cover whole blocks and end
        # inside one
        p0 = draw(st.floats(0.5, 4.0))
        p1 = draw(st.floats(p0 + 0.5, 9.5))
        times = sorted(set(draw(st.lists(st.floats(0.1, 9.9), max_size=3))))
        g = Derivator(10.0, lambda t: (np.minimum(t, p0)
                                       + np.maximum(t - p1, 0.0)),
                      times, [0.5] * len(times))
        plateaus = [(p0, p1)]
    a, b = sorted((draw(point), draw(point)))
    if not a < b:
        b = 10.0 if a < 10.0 else a
        a = 0.0 if a == b else a
    n = draw(st.integers(1, 4 * _ORACLE_BLOCK))
    c1, c2 = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    f, f_right, _ = make_lipschitz_integrand(g, c1, c2)
    if draw(st.booleans()):
        plain = f
        # a piece's grid step is at most 1.5 (b - a)/n, so a point this far
        # inside a plateau ends two flat steps
        margin = 2.0 * (b - a) / n

        def f(t):
            arr = np.asarray(t, dtype=float)
            on = np.zeros(arr.shape, dtype=bool)
            for lo, hi in plateaus:
                on |= (arr > lo + margin) & (arr < hi - margin)
            on &= ~np.isin(arr, g.jump_times)
            return np.where(on, np.nan, plain(arr))
    return g, a, b, n, f, draw(st.sampled_from([None, f_right]))


@settings(max_examples=60, deadline=None)
@given(oracle_problems())
def test_skipping_flat_blocks_keeps_every_bit(problem):
    g, a, b, n, f, f_right = problem
    value = oracle_integral(f, g, a, b, n, f_right)
    assert math.isfinite(value)
    assert float_bits(value) == float_bits(
        unskipped_oracle(f, g, a, b, n, f_right))


class TestOracleDriverEvaluations:
    """Each oracle piece reads ``continuous_value`` once on its block ends.
    A block whose two end values agree is flat throughout and is read no
    further.  Every other block reads ``continuous_value(block)`` once per
    point; without flat steps its ``f(block)`` shares that evaluation of the
    continuous part through the driver's memo, and with flat steps ``f``
    evaluates ``g`` afresh, but only at the ends of the steps that carry
    measure."""

    JUMPS = (1.0, 2.0)

    @classmethod
    def expected_points(cls, shape, a, b, n):
        """Block ends, points of the blocks whose ends differ, and ends of
        live steps on those of them with a flat step, from ``np.linspace``
        grids of the pieces."""
        cuts = [a] + [d for d in cls.JUMPS if a < d < b] + [b]
        edges = evaluated = ends = 0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            m = max(1, int(round(n * (hi - lo) / (b - a))))
            values = shape(np.linspace(lo, hi, m + 1))
            starts = range(0, m, _ORACLE_BLOCK)
            edges += len(starts) + 1
            for start in starts:
                block = values[start:min(start + _ORACLE_BLOCK, m) + 1]
                if block[0] == block[-1]:
                    continue
                evaluated += block.size
                live = np.diff(block) != 0
                if not live.all():
                    ends += (np.append(live, False)
                             | np.append(False, live)).sum()
        return edges, evaluated, ends

    @classmethod
    def count_points(cls, shape, n, a=0.5, b=2.5):
        """Points the continuous part ``shape`` runs on in one oracle call
        over ``[a, b)``, less the scalar reads at the jumps, and the calls
        of ``f`` on arrays."""
        points = [0]
        calls = [0]

        def part(t):
            arr = np.asarray(t, dtype=float)
            points[0] += arr.size
            return shape(arr)

        g = Derivator(3.0, part, cls.JUMPS, [0.5, 0.5])
        f, f_right, _ = make_lipschitz_integrand(g, 0.7, -1.3)

        def f_counted(t):
            calls[0] += np.ndim(t) > 0
            return f(t)

        points[0] = 0
        oracle_integral(f_counted, g, a, b, n, f_right)
        # f(d) at each jump in [a, b) and f_right(d) where a piece starts
        atoms = sum(a <= d < b for d in cls.JUMPS)
        atoms += sum(a < d < b for d in cls.JUMPS)
        return points[0] - atoms, calls[0]

    @pytest.mark.parametrize("n", [3000, 3 * _ORACLE_BLOCK])
    def test_continuous_part_runs_once_per_block_point(self, n):
        shape = lambda t: t + 0.25 * np.sin(t)
        edges, evaluated, ends = self.expected_points(shape, 0.5, 2.5, n)
        count, _ = self.count_points(shape, n)
        assert ends == 0
        assert count == evaluated + edges

    @pytest.mark.parametrize("n", [3000, 6 * _ORACLE_BLOCK])
    def test_flat_steps_add_only_the_ends_of_live_steps(self, n):
        # slope 1 except on [1.1, 1.9]; at the larger n the middle piece
        # has a block that is flat throughout and two with flat steps
        shape = lambda t: np.minimum(t, 1.1) + np.maximum(t - 1.9, 0.0)
        edges, evaluated, ends = self.expected_points(shape, 0.5, 2.5, n)
        count, _ = self.count_points(shape, n)
        assert 0 < ends < evaluated / 2
        assert count == evaluated + edges + ends
        if n > 3000:
            # the flat block is neither evaluated nor handed to f
            assert evaluated < 6 * _ORACLE_BLOCK

    @pytest.mark.parametrize("n", [3000, 6 * _ORACLE_BLOCK])
    def test_flat_piece_reads_only_its_block_ends(self, n):
        # flat on the whole middle piece [1, 2]
        shape = lambda t: np.minimum(t, 1.0) + np.maximum(t - 2.0, 0.0)
        edges, evaluated, _ = self.expected_points(shape, 1.0, 2.0, n)
        assert evaluated == 0
        assert edges == -(-n // _ORACLE_BLOCK) + 1
        assert self.count_points(shape, n, 1.0, 2.0) == (edges, 0)


class TestErrorBound:
    @pytest.mark.parametrize("kind, H, p, width, var, expected", [
        (RuleKind.ONE_POINT, 1.0, 1.0, 1.0, 1.0, 1.0),
        (RuleKind.TRAPEZOID, 2.0, 0.5, 4.0, 3.0, 2.0 * math.sqrt(2.0) * 3.0),
        (RuleKind.CORRECTED_TRAPEZOID, 1.0, 1.0, 0.1, 0.0, 0.005),
        (RuleKind.CORRECTED_ONE_POINT, 2.0, 1.0, 0.5, 9.9, 1.0),
    ])
    def test_values(self, kind, H, p, width, var, expected):
        assert error_bound(kind, H, p, 0.0, width, var) == pytest.approx(expected)

    @pytest.mark.parametrize("p", [0.0, -0.5, 1.5])
    def test_rejects_bad_exponent(self, p):
        with pytest.raises(ValueError):
            error_bound(RuleKind.ONE_POINT, 1.0, p, 0.0, 1.0, 1.0)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            error_bound(RuleKind.ONE_POINT, 1.0, 1.0, 1.0, 1.0, 1.0)

    # each used to return a bound no error can meet: NaN, -1.0, -0.5, 1.0
    @pytest.mark.parametrize("kind, H, var_f, name", [
        (RuleKind.ONE_POINT, math.nan, 1.0, "H"),
        (RuleKind.ONE_POINT, -1.0, 1.0, "H"),
        (RuleKind.TRAPEZOID, 1.0, -1.0, "var_f"),
        (RuleKind.CORRECTED_ONE_POINT, -1.0, 1.0, "H"),
        (RuleKind.TRAPEZOID, math.inf, 1.0, "H"),
        (RuleKind.CORRECTED_TRAPEZOID, 1.0, math.nan, "var_f"),
        (RuleKind.ONE_POINT, 1.0, math.inf, "var_f"),
    ])
    def test_rejects_a_bad_constant_by_name(self, kind, H, var_f, name):
        with pytest.raises(ValueError,
                           match=f"^{name} must be finite and nonnegative"):
            error_bound(kind, H, 1.0, 0.0, 1.0, var_f)

    @pytest.mark.parametrize("kind", list(RuleKind))
    def test_zero_constants_give_a_zero_bound(self, kind):
        assert error_bound(kind, 0.0, 1.0, 0.0, 1.0, 0.0) == 0.0


def test_constant_exactness_across_rules():
    rng = np.random.default_rng(99)
    for _ in range(20):
        nj = int(rng.integers(0, 5))
        g = make_test_derivator(nj, alpha=float(rng.uniform(1, 6)))
        a = float(rng.uniform(0.0, 8.0))
        b = float(rng.uniform(a + 0.1, 10.0))
        kappa = float(rng.uniform(-5.0, 5.0))
        f = lambda t: kappa
        expected = kappa * g.measure(a, b)
        for kind in RuleKind:
            assert evaluate_rule(kind, f, f, g, a, b) == pytest.approx(
                expected, abs=1e-10)


def test_bound_suite_small_run_all_rules():
    rng = np.random.default_rng(7)
    for _ in range(25):
        nj = int(rng.integers(0, 5))
        g = make_test_derivator(nj, alpha=float(rng.uniform(1, 6)))
        a = float(rng.uniform(0.0, 9.0))
        b = min(a + 10.0 ** float(rng.uniform(-2, 0.9)), 10.0)
        if b <= a:
            continue
        c1, c2 = rng.uniform(-2, 2, size=2)
        f, f_right, h_f = make_lipschitz_integrand(g, c1, c2)
        h_gc = g.estimate_continuous_lipschitz(a, b)
        var_f = h_f * g.measure(a, b)
        oracle = oracle_integral(f, g, a, b, 10 ** 5)
        for kind in RuleKind:
            corrected = kind in (RuleKind.CORRECTED_ONE_POINT,
                                 RuleKind.CORRECTED_TRAPEZOID)
            hh = max(h_gc, h_f * h_gc) if corrected else h_gc
            bound = error_bound(kind, hh, 1.0, a, b, var_f)
            value = evaluate_rule(kind, f, f_right, g, a, b)
            assert abs(value - oracle) <= bound + 1e-10


def test_run_bound_suite_row_shape_and_determinism():
    rows_a = run_bound_suite(num_cases=5, n_oracle=10 ** 4, seed=42)
    rows_b = run_bound_suite(num_cases=5, n_oracle=10 ** 4, seed=42)
    assert len(rows_a) == 5
    assert rows_a == rows_b
    assert all(r["passed"] for r in rows_a)


@pytest.mark.parametrize("num_cases", [0, -1])
def test_run_bound_suite_rejects_a_case_count_below_one(num_cases):
    with pytest.raises(ValueError, match="need at least one case"):
        run_bound_suite(num_cases=num_cases, n_oracle=10, seed=1)


@pytest.mark.parametrize("num_cases", [1.5, 2.0, True])
def test_run_bound_suite_rejects_a_case_count_that_is_not_an_integer(
        num_cases):
    # 1.5 used to fail with a bare TypeError from range, True to run a case
    with pytest.raises(ValueError, match="num_cases must be an integer"):
        run_bound_suite(num_cases=num_cases, n_oracle=10, seed=1)


@pytest.mark.parametrize("seed", [-1, True, 1.5, None])
def test_run_bound_suite_rejects_a_seed_that_is_not_a_nonnegative_integer(
        seed, monkeypatch):
    # -1 used to fail with numpy's "expected non-negative integer", True and
    # None to run; the check comes before the first case is drawn
    def no_case(*args, **kwargs):
        raise AssertionError("a case was drawn")
    monkeypatch.setattr(quadrature, "make_test_derivator", no_case)
    with pytest.raises(ValueError, match=r"^seed must be an integer >= 0"):
        run_bound_suite(num_cases=1, n_oracle=10, seed=seed)


def test_subdivided_corrected_rule_additivity():
    # summing the corrected rule over subintervals that contain the interior
    # jumps stays within the summed per-interval bounds of the oracle
    g = make_test_derivator(3, alpha=4.0)
    f, f_right, h_f = make_lipschitz_integrand(g, 1.2, 0.7)
    a, b = 0.5, 9.5
    cuts = np.unique(np.concatenate((np.linspace(a, b, 10), g.jump_times)))
    total = 0.0
    bound_total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        total += evaluate_rule(RuleKind.CORRECTED_TRAPEZOID, f, f_right, g,
                               lo, hi)
        h_gc = g.estimate_continuous_lipschitz(lo, hi)
        hh = max(h_gc, h_f * h_gc)
        bound_total += error_bound(RuleKind.CORRECTED_TRAPEZOID, hh, 1.0,
                                   lo, hi, 0.0)
    oracle = oracle_integral(f, g, a, b, 10 ** 6)
    assert abs(total - oracle) <= bound_total + 1e-9


@pytest.mark.parametrize("seed", [20240, 0, 1, 2, 3])
def test_bound_suite_drivers_construct(seed):
    # a one-subinterval oracle keeps this cheap: only the drivers matter
    assert len(run_bound_suite(num_cases=200, n_oracle=1, seed=seed)) == 200


def test_oracle_right_limit_leaves_the_grid_alone():
    # the identity integrand hands its argument back; putting f(d+) in place
    # of its first value must not move the grid point the driver is read at
    g = Derivator(2.0, lambda t: np.asarray(t, dtype=float), [1.0], [1.0])
    ident = lambda t: np.asarray(t, dtype=float)
    plus_one = lambda t: np.asarray(t, dtype=float) + 1.0
    # atom f(1) * 1, first term with f(1+) = 2, then exact on [1.1, 2]
    expected = 1.0 + 0.5 * (2.0 + 1.1) * 0.1 + (2.0 ** 2 - 1.1 ** 2) / 2.0
    assert oracle_integral(ident, g, 1.0, 2.0, 10, plus_one) == pytest.approx(
        expected, abs=1e-13)


def test_bound_suite_hands_the_right_limit_to_the_oracle(monkeypatch):
    seen = []

    def spy(f, g, a, b, n, f_right=None):
        seen.append(f_right)
        return 0.0

    monkeypatch.setattr(quadrature, "oracle_integral", spy)
    run_bound_suite(num_cases=3, n_oracle=10, seed=166)
    assert len(seen) == 3 and all(callable(fr) for fr in seen)


def exact_lipschitz_integral(g, c1, c2, a, b):
    """Measure integral of ``F(g) = c1*g + c2*sin(g)`` over ``[a, b)``.

    Between jumps ``dg = dg^C``, so a piece ``(lo, hi]`` gives the integral
    of ``F`` from ``s0 = g(lo+)`` to ``s1 = g(hi)``, written in difference
    form; each jump in ``[a, b)`` adds its atom ``F(g(d)) * gap``.
    """
    F = lambda s: c1 * s + c2 * math.sin(s)
    times, gaps = g.jumps_in(a, b)
    total = sum(F(g.value(d)) * gap for d, gap in zip(times, gaps))
    cuts = [a, *(float(d) for d in times if d > a), b]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        s0, s1 = g.right_value(lo), g.value(hi)
        total += (c1 * (s1 - s0) * (s1 + s0) / 2
                  + 2 * c2 * math.sin((s1 + s0) / 2) * math.sin((s1 - s0) / 2))
    return total


# oracle values of the first 20 default bound-suite cases, captured before the
# oracle stopped reading the integrand on flat steps of the driver; one has a
# value per numpy target (cpu_target.py)
BOUND_SUITE_ORACLE_BITS = [
    "-0x1.71cfb2f186a1cp+0", "0x0.0p+0", "-0x1.59d1297c630f6p+0",
    "-0x1.1d19c64deac79p-48", "0x0.0p+0", "0x0.0p+0",
    "-0x1.0b4185ac60e5fp-7", "-0x1.59da4fab7f2d6p-43", "0x0.0p+0",
    "-0x1.247f37524d3f8p-13", "0x1.386bcb78b0dafp-16",
    "-0x1.30b9d06ac8146p-5", "0x0.0p+0",
    per_target("0x1.185da70310b67p-30", "0x1.185da70310b68p-30"),
    "-0x1.56685bd3c852ep+1", "0x1.826a9300c2b3cp+0", "0x1.bacb971729032p+2",
    "-0x1.27ca5792956b1p-1", "0x0.0p+0", "-0x1.2ca7f9aa980aap+2",
]


def test_oracle_matches_the_closed_form_on_the_bound_suite():
    # replay the draws of the first 20 default cases, kind draw included
    rows = run_bound_suite(num_cases=20, n_oracle=10 ** 6, seed=20240)
    # .hex() also tells 0.0 from -0.0
    assert [row["oracle"].hex() for row in rows] == BOUND_SUITE_ORACLE_BITS
    rng = np.random.default_rng(20240)
    kinds = list(RuleKind)
    for row in rows:
        nj = int(rng.integers(0, 5))
        alpha = float(rng.uniform(1.0, 6.0))
        g = make_test_derivator(nj, alpha=alpha, T=10.0)
        a = float(rng.uniform(0.0, 9.0))
        width = 10.0 ** float(rng.uniform(-3.0, math.log10(g.domain_end - a)))
        b = min(a + width, g.domain_end)
        c1, c2 = rng.uniform(-2.0, 2.0, size=2)
        assert row["rule"] == kinds[int(rng.integers(0, len(kinds)))].value
        exact = exact_lipschitz_integral(g, float(c1), float(c2), a, b)
        assert abs(row["oracle"] - exact) <= 1e-10


def test_oracle_bits_on_multi_block_pieces():
    # hex floats captured from the oracle before its jump lookups were
    # restricted to the domain; pieces of more than one block
    g = make_test_derivator(3, alpha=1.5)
    f, f_right, _ = make_lipschitz_integrand(g, 0.7, -1.3)
    assert oracle_integral(f, g, 1.0, 9.0, 70000, f_right) == float.fromhex(
        "0x1.1161455633042p+3")
    g = make_silkworm_derivator(10.0)
    f, f_right, _ = make_lipschitz_integrand(g, 0.7, -1.3)
    assert oracle_integral(f, g, 4.0, 9.5, 100001, f_right) == float.fromhex(
        "0x1.f976027876d66p+3")
    assert oracle_integral(f, g, 4.0, 9.5, 7) == float.fromhex(
        "0x1.dda791863a18ap+3")


@pytest.mark.parametrize("n_oracle", [0, 1.5, MAX_GRID_STEPS + 1])
def test_run_bound_suite_names_a_bad_oracle_refinement(n_oracle):
    # it used to name ``n``, the oracle's own argument, from inside a case
    with pytest.raises(ValueError, match="n_oracle"):
        run_bound_suite(num_cases=1, n_oracle=n_oracle, seed=1)
