import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stieltjes_ode.analysis import (_BLOCK_STEPS, BoundConstants,
                                    convergence_table, error_report,
                                    estimate_order, format_convergence_csv,
                                    measure_constants, sample_exact,
                                    theoretical_bounds, truncation_errors)
from stieltjes_ode.derivator import (Derivator, identity_derivator,
                                     make_silkworm_derivator,
                                     make_test_derivator)
from stieltjes_ode.linear import homogeneous_solution
from stieltjes_ode.models import (SilkwormParams, SilkwormSolution,
                                  make_linear_spec, make_silkworm_spec)
from stieltjes_ode.solver import (IvpSpec, Trajectory, build_partition,
                                  solve)

# reference benchmark maxima for 2 unit jumps, d = -0.5, x0 = 1, h = 1e-1
REF_H1 = {"e_star": 1.1704e-01, "e": 3.1399e-02, "e_plus": 1.2573e-02}
REF_CORRECTOR = [3.1399e-02, 3.3911e-04, 3.4002e-06, 3.4010e-08, 3.4173e-10]
REF_STEPS = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]


def benchmark_setup(num_jumps=2, d=-0.5, x0=1.0):
    g = make_test_derivator(num_jumps, snap=0.1)
    spec = make_linear_spec(d, x0)
    return g, spec, partial(homogeneous_solution, d, x0, g)


def constant(value):
    """Exact solution that stays at ``value``, from either side."""
    return lambda t, from_right=False: np.full(np.shape(t), value)


class TestErrorReport:
    def test_zero_rhs_zero_errors(self):
        g = make_test_derivator(2, snap=0.1)
        spec = IvpSpec(rhs=lambda t, x, hist: 0.0, x0=2.0)
        part = build_partition(g, 0.1)
        traj = solve(spec, part)
        report = error_report(traj, sample_exact(constant(2.0), part))
        assert report.max_e == 0.0
        assert report.max_e_star == 0.0
        assert report.max_e_plus == 0.0

    def test_self_comparison_is_zero(self):
        g, spec, _ = benchmark_setup()
        part = build_partition(g, 0.1)
        traj = solve(spec, part)
        lookup = dict(zip(part.nodes[:-1].tolist(), traj.right_values))

        def exact(ts, from_right=False):
            if from_right:
                return np.array([lookup[float(t)] for t in np.atleast_1d(ts)])
            return np.interp(ts, part.nodes, traj.values)

        report = error_report(traj, sample_exact(exact, part))
        assert report.max_e == 0.0
        assert report.max_e_plus == 0.0

    def test_benchmark_maxima_match_reference_values(self):
        g, spec, exact = benchmark_setup()
        part = build_partition(g, 0.1)
        traj = solve(spec, part)
        report = error_report(traj, sample_exact(exact, part))
        # jump placement is not pinned by the source table, so allow slack
        assert report.max_e_star == pytest.approx(REF_H1["e_star"], rel=0.25)
        assert report.max_e == pytest.approx(REF_H1["e"], rel=0.25)
        assert report.max_e_plus == pytest.approx(REF_H1["e_plus"], rel=0.25)


class TestTruncationErrors:
    def test_zero_rhs_zero_residuals(self):
        g = make_test_derivator(2, snap=0.1)
        spec = IvpSpec(rhs=lambda t, x, hist: 0.0, x0=1.5)
        part = build_partition(g, 0.1)
        pred, corr, comb = truncation_errors(
            spec, part, sample_exact(constant(1.5), part))
        assert np.max(np.abs(pred)) == 0.0
        assert np.max(np.abs(corr)) == 0.0
        assert np.max(np.abs(comb)) == 0.0

    def test_classical_decay_bounds(self):
        g = identity_derivator(1.0)
        spec = IvpSpec(rhs=lambda t, x, hist: -x, x0=1.0)
        part = build_partition(g, 1e-2)
        exact = lambda t, from_right=False: np.exp(-np.asarray(t, dtype=float))
        ref = sample_exact(exact, part)
        pred, corr, _ = truncation_errors(spec, part, ref)
        consts = measure_constants(spec, part, ref, exact)
        H, h = consts.lip, part.h
        assert np.max(np.abs(pred)) <= H * H * h * h
        assert np.max(np.abs(corr)) <= 0.5 * H * H * h * h

    def test_benchmark_bounds_pointwise(self):
        g, spec, exact = benchmark_setup()
        part = build_partition(g, 1e-2)
        ref = sample_exact(exact, part)
        pred, corr, comb = truncation_errors(spec, part, ref)
        consts = measure_constants(spec, part, ref, exact)
        H, K2, h = consts.lip, consts.k2, part.h
        assert np.max(np.abs(pred)) <= H * H * h * h
        assert np.max(np.abs(corr)) <= 0.5 * H * H * h * h
        assert np.max(np.abs(comb)) <= 0.5 * H * H * h * h \
            + 0.5 * K2 * H ** 3 * h ** 3

    def test_residual_over_step_shrinks_with_step(self):
        # consistency: max residual over step decreases as the grid refines
        g, spec, exact = benchmark_setup()
        ratios = []
        for h in (1e-1, 1e-2, 1e-3):
            part = build_partition(g, h)
            _, _, comb = truncation_errors(spec, part,
                                           sample_exact(exact, part))
            ratios.append(np.max(np.abs(comb)) / h)
        assert ratios[2] < ratios[1] < ratios[0]


class TestExactProtocol:
    """The exact solution is read through one callable, sampled on the
    nodes once per run: ``exact(t)`` on the nodes and ``exact(t,
    from_right=True)`` on every node but the last."""

    @staticmethod
    def counting(g, calls):
        def exact(t, **kwargs):
            calls.append((np.array(t, copy=True), kwargs))
            return homogeneous_solution(-0.5, 1.0, g, t, **kwargs)
        return exact

    def assert_nodes_then_right_limits(self, calls, nodes):
        (first, kw_first), (second, kw_second) = calls[:2]
        assert np.array_equal(first, nodes) and kw_first == {}
        assert np.array_equal(second, nodes[:-1])
        assert kw_second == {"from_right": True}

    def test_error_report_and_truncation_errors(self):
        g, spec, _ = benchmark_setup()
        part = build_partition(g, 1e-2)
        traj = solve(spec, part)
        calls = []
        ref = sample_exact(self.counting(g, calls), part)
        assert len(calls) == 2
        self.assert_nodes_then_right_limits(calls, part.nodes)
        # the analysis passes read the reference, never the callable
        error_report(traj, ref)
        truncation_errors(spec, part, ref)
        assert len(calls) == 2

    def test_measure_constants_also_samples_the_refinement(self):
        g, spec, _ = benchmark_setup()
        part = build_partition(g, 1e-3)  # 10000 steps: seven blocks
        calls = []
        exact = self.counting(g, calls)
        measure_constants(spec, part, sample_exact(exact, part), exact)
        self.assert_nodes_then_right_limits(calls, part.nodes)
        blocks = calls[2:]
        assert len(blocks) == math.ceil(part.n_steps / _BLOCK_STEPS) == 7
        assert all(kwargs == {} for _, kwargs in blocks)
        assert sum(t.size for t, _ in blocks) == 21 * part.n_steps

    @pytest.mark.parametrize("run", [
        lambda spec, part, traj, ref: error_report(traj, ref),
        lambda spec, part, traj, ref: truncation_errors(spec, part, ref),
        lambda spec, part, traj, ref: measure_constants(
            spec, part, ref, partial(homogeneous_solution, -0.5, 1.0,
                                     part.g)),
    ], ids=["error_report", "truncation_errors", "measure_constants"])
    def test_reference_from_another_partition_rejected(self, run):
        g, spec, exact = benchmark_setup()
        part = build_partition(g, 1e-2)
        # an equal partition built again is another partition
        ref = sample_exact(exact, build_partition(g, 1e-2))
        with pytest.raises(ValueError, match="another partition"):
            run(spec, part, solve(spec, part), ref)


def test_measure_constants_runs_the_continuous_part_once_per_point():
    # continuous_value and exact read one array per block, so the driver's
    # memo serves exact's read (counted as in TestOracleDriverEvaluations)
    base = make_test_derivator(2, snap=0.1)
    points = [0]

    def part_fn(t):
        arr = np.asarray(t, dtype=float)
        points[0] += arr.size
        return base.continuous_part(arr)

    g = Derivator(base.domain_end, part_fn, base.jump_times, base.jump_gaps)
    exact = partial(homogeneous_solution, -0.5, 1.0, g)
    part = build_partition(g, 1e-3)  # seven blocks, the last one partial
    ref = sample_exact(exact, part)
    points[0] = 0
    measure_constants(make_linear_spec(-0.5, 1.0), part, ref, exact)
    assert points[0] == 21 * part.n_steps


class TestArrayProtocol:
    """The analysis calls the right-hand side on whole arrays and falls back
    to one call per point when that raises or returns the wrong shape; both
    paths must give the same numbers."""

    @staticmethod
    def counted(fn, calls):
        def wrapped(t, x, hist):
            calls.append(np.ndim(x))
            return fn(t, x, hist)
        return wrapped

    def analyse(self, g, spec, exact, h):
        part = build_partition(g, h)
        ref = sample_exact(exact, part)
        resid = truncation_errors(spec, part, ref)
        consts = measure_constants(spec, part, ref, exact)
        return part, resid, consts

    def assert_same(self, g, spec, twin, h=1e-3, d=-0.5, x0=1.0):
        exact = partial(homogeneous_solution, d, x0, g)
        _, resid, consts = self.analyse(g, spec, exact, h)
        _, resid_twin, consts_twin = self.analyse(g, twin, exact, h)
        for a, b in zip(resid, resid_twin):
            assert np.array_equal(a, b)
        assert consts == consts_twin

    @pytest.mark.parametrize("num_jumps", [0, 4])
    @pytest.mark.parametrize("d", [-0.5, 0.9])
    def test_scalar_only_twin_matches(self, num_jumps, d):
        g = make_test_derivator(num_jumps, snap=0.1)
        calls = []
        twin = IvpSpec(rhs=self.counted(lambda t, x, hist: -d * float(x),
                                        calls), x0=1.0)
        self.assert_same(g, make_linear_spec(d, 1.0), twin, d=d)
        # float() rejects arrays, so every evaluation ran point by point
        assert calls.count(0) > 20 * build_partition(g, 1e-3).n_steps

    def test_wrong_shape_falls_back(self):
        g = make_test_derivator(4, snap=0.1)
        calls = []

        def one_too_many(t, x, hist):  # right values, wrong shape for arrays
            return np.append(0.5 * x, 0.0) if np.ndim(x) else 0.5 * x

        twin = IvpSpec(rhs=self.counted(one_too_many, calls), x0=1.0)
        self.assert_same(g, make_linear_spec(-0.5, 1.0), twin)
        assert 0 in calls and 1 in calls

    def test_array_path_calls_rhs_per_block(self):
        g, spec, exact = benchmark_setup()
        calls = []
        spec = IvpSpec(rhs=self.counted(spec.rhs, calls), x0=spec.x0)
        self.analyse(g, spec, exact, 1e-3)
        assert 0 not in calls
        assert len(calls) < 20  # against 22 per node point by point

    def test_blocks_cover_the_whole_grid(self):
        # x grows along the last ramp, so the largest quotient of the
        # composed rhs sits in the last block of steps
        g, spec, exact = benchmark_setup(num_jumps=4)
        part, _, consts = self.analyse(g, spec, exact, 1e-3)
        nodes = part.nodes
        frac = np.linspace(0.0, 1.0, 21)
        ts = nodes[:-1, None] + np.diff(nodes)[:, None] * frac[None, :]
        fv = spec.rhs(ts, exact(ts), None)
        fv[:, 0] = spec.rhs(nodes[:-1], exact(nodes[:-1], from_right=True),
                            None)
        cv = g.continuous_value(ts)
        dts = np.diff(ts, axis=1)
        lip = max(np.max(np.abs(np.diff(cv, axis=1)) / dts),
                  np.max(np.abs(np.diff(fv, axis=1)) / dts))
        assert consts.lip == lip

    def test_silkworm_runs_on_the_fallback(self):
        params = SilkwormParams(c=1.2, lam=1.1, x0=8.0)
        g = make_silkworm_derivator(params.T)
        exact = SilkwormSolution(params)
        base = make_silkworm_spec(params)
        calls = []
        spec = IvpSpec(rhs=self.counted(base.rhs, calls),
                       rhs_right=base.rhs_right, x0=params.x0)
        part, (pred, corr, comb), consts = self.analyse(
            g, spec, exact, 1e-2)
        assert 0 in calls  # the stage lookup rejects arrays
        # reference: the three residuals node by node
        nodes = part.nodes
        x = exact(nodes)
        x_right = exact(nodes[:-1], from_right=True)
        hist = Trajectory(part, x, x_right, x[1:])
        dg = part.dg
        for k in range(part.n_steps):
            f_plus = base.rhs_right(nodes[k], x_right[k], hist)
            f_end = base.rhs(nodes[k + 1], x[k + 1], hist)
            f_pred = base.rhs(nodes[k + 1], x_right[k] + f_plus * dg[k], hist)
            assert pred[k] == x[k + 1] - x_right[k] - f_plus * dg[k]
            assert corr[k] == (x[k + 1] - x_right[k]
                               - 0.5 * (f_plus + f_end) * dg[k])
            assert comb[k] == (x[k + 1] - x_right[k]
                               - 0.5 * (f_plus + f_pred) * dg[k])
        # d f / d x is -c while alive and -1 at moth death
        assert consts.k2 == pytest.approx(params.c, rel=1e-6)
        assert consts.k3 == pytest.approx(params.c, rel=1e-6)
        assert math.isfinite(consts.lip) and consts.lip > 0.0


class TestBoundConstants:
    def test_unit_constants_at_tenth_step(self):
        c = BoundConstants(k1=1.0, k2=1.0, k3=1.0, lip=1.0, h=0.1, num_jumps=2)
        assert c.g1 == pytest.approx(0.105)
        assert c.g2 == pytest.approx(1.105)
        assert c.g3 == 1.0
        assert c.g4 == pytest.approx(0.1)
        assert c.g5 == pytest.approx(1.1)
        assert c.g6 == pytest.approx(0.05)

    def test_vanishing_step_limits(self):
        c = BoundConstants(k1=2.0, k2=3.0, k3=1.0, lip=1.0, h=1e-12,
                           num_jumps=1)
        assert c.g1 == pytest.approx(0.0, abs=1e-11)
        assert c.g2 == pytest.approx(c.k1 * c.k2, rel=1e-10)

    def test_bound_formula_with_zero_initial_error(self):
        c = BoundConstants(k1=1.0, k2=1.0, k3=1.0, lip=1.0, h=0.1, num_jumps=2)
        resid_max = 1e-4
        expected = (1 + c.g2) ** 2 * (resid_max / c.g1) * math.exp(
            c.g1 * 1.0 / 0.1)
        bound, _, _ = theoretical_bounds(c, 1.0, 0.0, resid_max)
        assert bound == pytest.approx(expected)

    def test_zero_constants_rejected(self):
        c = BoundConstants(k1=0.0, k2=0.0, k3=0.0, lip=0.0, h=0.1, num_jumps=0)
        with pytest.raises(ValueError, match=r"G1 = 0 \(K2=0, K3=0, H=0\)"):
            theoretical_bounds(c, 1.0, 0.0, 1e-4)

    def test_companion_bounds_scale_the_corrector_bound(self):
        c = BoundConstants(k1=1.0, k2=1.0, k3=1.0, lip=1.0, h=0.1, num_jumps=2)
        base, predictor, right_limit = theoretical_bounds(c, 1.0, 0.0, 1e-4)
        assert predictor == pytest.approx(base * math.exp(c.g4) * (1 + c.g5))
        assert right_limit == pytest.approx(base * (1 + c.g3))

    def test_bounds_past_the_float_range_are_inf(self):
        c = BoundConstants(k1=1.0, k2=10.0, k3=10.0, lip=10.0, h=0.1,
                           num_jumps=2)
        assert theoretical_bounds(c, 10.0, 0.0, 1e-4) == \
            (math.inf, math.inf, math.inf)


class TestEstimateOrder:
    def test_exact_second_order(self):
        assert estimate_order([1e-1, 1e-2], [1e-2, 1e-4]) == pytest.approx(2.0)

    def test_reference_corrector_column_slope(self):
        # independent least-squares on the reference (step, error) pairs
        x = np.log10(np.asarray(REF_STEPS))
        y = np.log10(np.asarray(REF_CORRECTOR))
        slope = float(np.sum((x - x.mean()) * (y - y.mean()))
                      / np.sum((x - x.mean()) ** 2))
        assert slope == pytest.approx(1.9925, abs=1e-3)
        assert estimate_order(REF_STEPS, REF_CORRECTOR) == pytest.approx(
            slope, abs=1e-12)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            estimate_order([1e-1], [1e-2])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            estimate_order([1e-1, 1e-2], [1e-2, 0.0])

    @pytest.mark.parametrize("steps", [[0.1, 0.1], [1e-2, 1e-2, 1e-2]])
    def test_repeated_steps_rejected(self, steps):
        # one distinct step fixes no slope: numpy's fit would warn and
        # return a number anyway
        with pytest.raises(ValueError, match="two distinct steps"):
            estimate_order(steps, [1e-2 * (k + 1) for k in range(len(steps))])

    def test_one_repeated_step_among_others_fits(self):
        assert estimate_order([1e-1, 1e-1, 1e-2], [1e-2, 1e-2, 1e-4]
                              ) == pytest.approx(2.0)

    @pytest.mark.parametrize("steps, errors", [
        ([1e-1, 1e-2], [math.nan, 1e-3]),
        ([1e-1, 1e-2], [math.inf, 1e-3]),
        ([math.inf, 1e-2], [1e-2, 1e-3]),
    ])
    def test_non_finite_rejected(self, steps, errors):
        with pytest.raises(ValueError, match="finite"):
            estimate_order(steps, errors)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(1e-6, 1e6))
    def test_invariant_under_error_scaling(self, scale):
        base = estimate_order(REF_STEPS, REF_CORRECTOR)
        scaled = estimate_order(REF_STEPS,
                                [scale * e for e in REF_CORRECTOR])
        assert scaled == pytest.approx(base, abs=1e-9)


class TestConvergenceTable:
    @staticmethod
    def factories(jump_counts, d=-0.5, x0=1.0):
        drivers = [make_test_derivator(nj, snap=0.1) for nj in jump_counts]
        exact_factory = lambda g: partial(homogeneous_solution, d, x0, g)
        return make_linear_spec(d, x0), drivers, exact_factory

    def test_single_cell(self):
        cells = convergence_table(*self.factories([2]), h_values=[1e-1])
        assert len(cells) == 1
        cell = cells[0]
        assert not cell.failed
        assert cell.max_e > 0 and cell.max_e_star > 0 and cell.max_e_plus > 0

    def test_errors_decrease_along_each_row(self):
        cells = convergence_table(*self.factories([2, 4]),
                                  h_values=[1e-1, 1e-2])
        for nj in (2, 4):
            row = [c for c in cells if c.num_jumps == nj]
            assert row[0].max_e > row[1].max_e

    def test_incompatible_cell_marked_failed_and_run_continues(self):
        cells = convergence_table(*self.factories([2]), h_values=[0.3, 1e-1])
        assert cells[0].failed and "10.0" in cells[0].reason
        assert not cells[1].failed
        assert format_convergence_csv(cells).splitlines()[1] == (
            "2,3.0000e-01,failed,failed,failed")

    def test_cells_take_the_jump_count_of_their_driver(self):
        spec, _, exact_factory = self.factories([])
        built = []

        def counted_factory(g):
            built.append(g)
            return exact_factory(g)

        drivers = [make_test_derivator(4, snap=0.1), identity_derivator(10.0)]
        cells = convergence_table(spec, drivers, counted_factory,
                                  h_values=[1e-1, 1e-2])
        assert [c.num_jumps for c in cells] == [4, 4, 0, 0]
        assert len(built) == 2 and all(a is b for a, b in zip(built, drivers))
        assert not any(c.failed for c in cells)

    def test_csv_format(self):
        cells = convergence_table(*self.factories([2]), h_values=[1e-1])
        text = format_convergence_csv(cells)
        lines = text.strip().split("\n")
        assert lines[0] == "num_jumps,h,max_e_star,max_e,max_e_plus"
        fields = lines[1].split(",")
        assert fields[0] == "2"
        assert fields[1] == "1.0000e-01"
        # five significant digits, scientific
        assert all("e" in f for f in fields[1:])
