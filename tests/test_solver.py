import math
import tracemalloc

import numpy as np
import pytest

from stieltjes_ode.derivator import (MAX_GRID_STEPS, Derivator,
                                     identity_derivator,
                                     make_silkworm_derivator,
                                     make_test_derivator)
from stieltjes_ode.linear import homogeneous_solution
from stieltjes_ode.models import make_linear_spec
from stieltjes_ode.solver import (GridMismatchError, IvpSpec,
                                  TrajectoryHistory, build_partition, solve,
                                  solve_perturbed, step)


def decay_spec():
    return IvpSpec(rhs=lambda t, x, hist: -x, x0=1.0)


class TestBuildPartition:
    def test_silkworm_grid(self):
        g = make_silkworm_derivator(10.0)
        part = build_partition(g, 0.1)
        assert len(part.nodes) == 101
        for d in g.jump_times:
            k = int(round(d / 0.1))
            assert part.nodes[k] == d
            assert part.gaps[k] == 1.0

    def test_incompatible_step_rejected(self):
        g = make_silkworm_derivator(10.0)
        with pytest.raises(GridMismatchError):
            build_partition(g, 0.3)

    def test_off_grid_jump_named(self):
        g = make_test_derivator(2)  # jumps at 10/3, 20/3
        with pytest.raises(GridMismatchError, match="3.33"):
            build_partition(g, 0.1)

    def test_identity_nodes(self):
        part = build_partition(identity_derivator(1.0), 0.25)
        np.testing.assert_allclose(part.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize("h", [0.0, -0.1, math.inf])
    def test_bad_step(self, h):
        with pytest.raises(ValueError):
            build_partition(identity_derivator(1.0), h)

    @pytest.mark.parametrize("h", [1.0 / (MAX_GRID_STEPS + 1), 1e-9, 5e-324])
    def test_oversized_grid_rejected_before_allocating(self, h):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="steps") as info:
                build_partition(identity_derivator(1.0), h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not isinstance(info.value, GridMismatchError)
        assert peak < 2 ** 20

    def test_driver_values_cached_per_node(self):
        g = make_silkworm_derivator(10.0)
        part = build_partition(g, 0.5)
        np.testing.assert_allclose(part.g_left, g.value(part.nodes), atol=1e-12)
        np.testing.assert_allclose(part.g_right[:-1],
                                   g.right_value(part.nodes[:-1]), atol=1e-12)


class TestStep:
    def test_heun_algebra(self):
        g = identity_derivator(1.0)
        u_plus, u_star, u_next = step(decay_spec(), g, 0.0, 0.1, 1.0)
        assert u_plus == 1.0
        assert u_star == pytest.approx(0.9)
        assert u_next == pytest.approx(0.905)  # 1 - h + h^2/2

    def test_jump_resets_state(self):
        g = Derivator(2.0, lambda t: np.asarray(t, dtype=float), [1.0], [1.0])
        u_plus, _, _ = step(decay_spec(), g, 1.0, 1.1, 2.0)
        assert u_plus == 0.0  # 2 + (-2) * 1

    def test_zero_rhs_is_constant(self):
        g = make_silkworm_derivator(10.0)
        spec = IvpSpec(rhs=lambda t, x, hist: 0.0, x0=5.0)
        assert step(spec, g, 4.0, 4.1, 5.0) == (5.0, 5.0, 5.0)

    def test_rejects_reversed_times(self):
        g = identity_derivator(1.0)
        with pytest.raises(ValueError):
            step(decay_spec(), g, 0.5, 0.5, 1.0)


class TestSolve:
    def test_exponential_decay(self):
        g = identity_derivator(1.0)
        part = build_partition(g, 1e-3)
        traj = solve(decay_spec(), g, part)
        assert abs(traj.values[-1] - math.exp(-1.0)) <= 1e-6

    def test_zero_rhs_constant_solution(self):
        g = make_silkworm_derivator(10.0)
        part = build_partition(g, 0.1)
        traj = solve(IvpSpec(rhs=lambda t, x, hist: 0.0, x0=3.25), g, part)
        assert np.all(traj.values == 3.25)

    def test_matches_independent_heun_on_classical_time(self):
        g = identity_derivator(1.0)
        part = build_partition(g, 1e-3)
        traj = solve(decay_spec(), g, part)
        f = lambda t, x: -x
        u = 1.0
        for k in range(part.n_steps):
            tk, tn = part.nodes[k], part.nodes[k + 1]
            dt = tn - tk
            f1 = f(tk, u)
            f2 = f(tn, u + dt * f1)
            u = u + 0.5 * (f1 + f2) * dt
            assert abs(u - traj.values[k + 1]) <= 1e-13

    def test_constant_rhs_tracks_driver_exactly(self):
        g = make_silkworm_derivator(10.0)
        part = build_partition(g, 0.1)
        c = 2.5
        traj = solve(IvpSpec(rhs=lambda t, x, hist: c, x0=1.0), g, part)
        dg = np.diff(part.g_left)
        np.testing.assert_allclose(np.diff(traj.values), c * dg,
                                   rtol=1e-12, atol=1e-13)
        assert traj.values[-1] == pytest.approx(1.0 + c * g.value(10.0),
                                                abs=1e-12)

    def test_refinement_gains_two_orders(self):
        g = make_test_derivator(2, snap=0.1)
        spec = make_linear_spec(-0.5, 1.0)
        errs = []
        for h in (1e-1, 1e-2, 1e-3):
            part = build_partition(g, h)
            traj = solve(spec, g, part)
            exact = homogeneous_solution(-0.5, 1.0, g, part.nodes)
            errs.append(np.max(np.abs(traj.values - exact)))
        assert errs[1] <= errs[0] / 50.0
        assert errs[2] <= errs[1] / 50.0

    def test_right_values_and_predictor_invariants(self):
        g = make_silkworm_derivator(10.0)
        part = build_partition(g, 0.1)
        spec = make_linear_spec(-0.4, 2.0)
        traj = solve(spec, g, part)
        off_jump = part.gaps[:-1] == 0.0
        # u_k+ == u_k wherever there is no jump, bit for bit
        assert np.all(traj.right_values[off_jump] == traj.values[:-1][off_jump])
        at_jump = np.flatnonzero(~off_jump)
        for k in at_jump:
            u_k = traj.values[k]
            expected = u_k + spec.rhs(part.nodes[k], u_k, None) * part.gaps[k]
            assert traj.right_values[k] == pytest.approx(expected, rel=1e-12)

    def test_nonfinite_state_aborts_with_node(self):
        g = identity_derivator(2.0)
        part = build_partition(g, 0.1)
        blowup = IvpSpec(rhs=lambda t, x, hist: x * x, x0=50.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="node"):
                solve(blowup, g, part)

    def test_rhs_failure_names_node(self):
        g = identity_derivator(1.0)
        part = build_partition(g, 0.25)

        def bad_rhs(t, x, hist):
            if t >= 0.5:
                raise ZeroDivisionError("boom")
            return -x

        with pytest.raises(RuntimeError, match=r"node 1 \(step to t=0.5\)") as excinfo:
            solve(IvpSpec(rhs=bad_rhs, x0=1.0), g, part)
        assert isinstance(excinfo.value.__cause__, ZeroDivisionError)

    def test_partition_bound_to_other_driver_rejected(self):
        g1 = identity_derivator(1.0)
        g2 = identity_derivator(1.0)
        part = build_partition(g1, 0.1)
        with pytest.raises(ValueError):
            solve(decay_spec(), g2, part)


class TestSolvePerturbed:
    def setup_method(self):
        self.g = make_test_derivator(2, snap=0.1)
        self.part = build_partition(self.g, 0.1)
        self.spec = make_linear_spec(-0.5, 1.0)
        self.n = self.part.n_steps

    def test_zero_perturbations_reproduce_solve(self):
        base = solve(self.spec, self.g, self.part)
        zero = np.zeros(self.n)
        pert = solve_perturbed(self.spec, self.g, self.part, zero, zero, zero)
        assert np.array_equal(pert.values, base.values)
        assert np.array_equal(pert.predictor_values, base.predictor_values)
        assert np.array_equal(pert.right_values, base.right_values)

    def test_final_corrector_perturbation_shifts_exactly(self):
        base = solve(self.spec, self.g, self.part)
        rho = np.zeros(self.n)
        rho[-1] = 1e-6
        pert = solve_perturbed(self.spec, self.g, self.part,
                               np.zeros(self.n), np.zeros(self.n), rho)
        assert pert.values[-1] - base.values[-1] == pytest.approx(1e-6,
                                                                  rel=1e-9)
        assert np.array_equal(pert.values[:-1], base.values[:-1])

    def test_length_mismatch_rejected(self):
        zero = np.zeros(self.n)
        with pytest.raises(ValueError):
            solve_perturbed(self.spec, self.g, self.part, zero[:-1], zero, zero)


class TestTrajectoryHistory:
    def test_trapezoid_matches_numpy(self):
        nodes = np.linspace(0.0, 5.0, 51)
        values = np.sin(nodes)
        hist = TrajectoryHistory(nodes, values, 0.1, 51)
        assert hist.integral(0.0, 5.0) == pytest.approx(
            float(np.trapezoid(values, nodes)))

    def test_partial_cells_interpolate(self):
        nodes = np.linspace(0.0, 1.0, 11)
        values = 2.0 * nodes  # exact for trapezoid pieces
        hist = TrajectoryHistory(nodes, values, 0.1, 11)
        assert hist.integral(0.05, 0.95) == pytest.approx(0.95 ** 2 - 0.05 ** 2)

    def test_clamps_below_and_rejects_beyond(self):
        nodes = np.linspace(0.0, 1.0, 11)
        hist = TrajectoryHistory(nodes, np.ones(11), 0.1, 11)
        assert hist.integral(-3.0, 1.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            hist.integral(0.0, 1.5)

    def test_respects_filled_prefix(self):
        nodes = np.linspace(0.0, 1.0, 11)
        hist = TrajectoryHistory(nodes, np.ones(11), 0.1, 6)
        assert hist.integral(0.0, 0.5) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            hist.integral(0.0, 0.8)
