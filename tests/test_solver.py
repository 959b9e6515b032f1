import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stieltjes_ode import solver
from stieltjes_ode.derivator import (MAX_GRID_STEPS, Derivator,
                                     identity_derivator,
                                     make_silkworm_derivator,
                                     make_test_derivator)
from stieltjes_ode.linear import general_linear_solution, homogeneous_solution
from stieltjes_ode.models import (SilkwormParams, make_linear_spec,
                                  make_silkworm_spec)
from stieltjes_ode.quadrature import oracle_integral
from stieltjes_ode.solver import (GridMismatchError, IvpSpec, Partition,
                                  Trajectory, build_partition, solve,
                                  solve_perturbed)


def decay_spec():
    return IvpSpec(rhs=lambda t, x, hist: -x, x0=1.0)


def solve_zero_perturbed(spec, part):
    """``solve_perturbed`` with zero perturbations: its own step body."""
    zero = np.zeros(part.n_steps)
    return solve_perturbed(spec, part, zero, zero, zero)


# the two step bodies of the scheme, which carry separate copies of the
# failure checks
BOTH_BODIES = pytest.mark.parametrize(
    "run", [solve, solve_zero_perturbed], ids=["solve", "solve_perturbed"])


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

    @pytest.mark.parametrize("t", [1e-12, 0.99999999999])
    def test_jump_next_to_an_end_node_named(self, t):
        # within h*1e-9 of node 0 or of T: those nodes stay where they are
        g = Derivator(1.0, lambda t: np.asarray(t, dtype=float), [t], [1.0])
        with pytest.raises(GridMismatchError, match=f"t={t!r}"):
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
        np.testing.assert_array_equal(part.gaps[:-1],
                                      g.jump_gap(part.nodes[:-1]))
        np.testing.assert_allclose(part.dg, g.value(part.nodes[1:])
                                   - g.right_value(part.nodes[:-1]),
                                   atol=1e-12)


def wavy_nodes(g, h):
    """The step-``h`` grid with its interior nodes off the jumps moved by
    ``0.3*h*sin(7t)``: a non-uniform partition on the same jump nodes."""
    part = build_partition(g, h)
    nodes = part.nodes + 0.3 * h * np.sin(7.0 * part.nodes)
    fixed = part.gaps > 0.0
    fixed[[0, -1]] = True
    nodes[fixed] = part.nodes[fixed]
    return nodes


def read_on_grid(grid, g, h):
    """Read ``g`` on the uniform step-``h`` grid of ``[0, T]`` through the
    ``"partition"`` or the refinement ``"oracle"``: the same nodes, bit for
    bit, and the one check of a falling driver."""
    if grid == "partition":
        return build_partition(g, h)
    return oracle_integral(np.ones_like, g, 0.0, g.domain_end,
                           round(g.domain_end / h))


class TestPartitionFromNodes:
    def setup_method(self):
        self.g = make_test_derivator(4, snap=0.1)
        self.nodes = build_partition(self.g, 0.1).nodes

    def edited(self, index, value):
        nodes = self.nodes.copy()
        nodes[index] = value
        return nodes

    def test_build_holds_few_node_arrays_at_its_peak(self):
        # the partition keeps gaps and dg; the step widths are computed into
        # dg, and the driver read takes at most two more arrays
        nodes = solver._uniform_nodes(self.g, 1e-4)
        tracemalloc.start()
        try:
            part = Partition.from_nodes(self.g, nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert part.h == float(np.diff(nodes).max())
        assert peak <= 4.5 * nodes.nbytes

    @pytest.mark.parametrize("case", ["unsorted", "repeated", "nan", "inf",
                                      "first", "last", "2-d", "one node"])
    def test_malformed_nodes_rejected(self, case):
        nodes = {"unsorted": self.edited([5, 6], [0.6, 0.5]),
                 "repeated": self.edited(6, 0.5),
                 "nan": self.edited(5, math.nan),
                 "inf": self.edited(5, math.inf),
                 "first": self.edited(0, 0.01),
                 "last": self.edited(-1, 9.99),
                 "2-d": self.nodes.reshape(1, -1),
                 "one node": self.nodes[:1]}[case]
        with pytest.raises(ValueError) as info:
            Partition.from_nodes(self.g, nodes)
        assert not isinstance(info.value, GridMismatchError)

    def test_missing_jump_named(self):
        jump = self.g.jump_times[1]
        nodes = self.nodes[self.nodes != jump]
        with pytest.raises(GridMismatchError, match=str(jump)):
            Partition.from_nodes(self.g, nodes)

    def test_oversized_node_array_rejected(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_GRID_STEPS", 99)
        with pytest.raises(ValueError, match="1 to 99 steps"):
            Partition.from_nodes(self.g, self.nodes)

    @pytest.mark.parametrize("g, h", [
        (make_silkworm_derivator(10.0), 1e-2),
        (make_test_derivator(4, snap=0.1), 1e-3),
        (identity_derivator(1.0), 0.25)])
    def test_uniform_grid_is_the_node_case(self, g, h):
        part = build_partition(g, h)
        again = Partition.from_nodes(g, part.nodes.copy())
        assert again.g is part.g and again.h == part.h
        for name in ("nodes", "gaps", "dg"):
            assert np.array_equal(getattr(again, name), getattr(part, name))

    @pytest.mark.parametrize("make_nodes", [
        lambda g: build_partition(g, 1e-2).nodes,
        lambda g: wavy_nodes(g, 1e-2)])
    @pytest.mark.parametrize("g", [make_silkworm_derivator(10.0),
                                   make_test_derivator(4, snap=0.1)])
    def test_dg_is_the_measure_of_each_step(self, g, make_nodes):
        part = Partition.from_nodes(g, make_nodes(g))
        nodes, gaps = part.nodes, part.gaps
        want = g.value(nodes[1:]) - (g.value(nodes[:-1]) + gaps[:-1])
        assert np.array_equal(part.dg, want)
        assert part.h == np.max(np.diff(nodes))

    @pytest.mark.parametrize("grid", ["partition", "oracle"])
    def test_decreasing_driver_rejected(self, grid):
        # the wave vanishes at the 1025 samples the driver is checked on,
        # so it is built; its slope falls to 1 - 6.43
        g = Derivator(10.0, lambda t: t + 0.02 * np.sin(102.4 * np.pi * t))
        with pytest.raises(ValueError,
                           match=rf"decreases .* on the {grid} grid between "
                                 r"0\.005 and 0\.006: ") as info:
            read_on_grid(grid, g, 1e-3)
        assert not isinstance(info.value, GridMismatchError)
        with pytest.raises(ValueError, match="between 0.005 and 0.006: "):
            Partition.from_nodes(g, np.linspace(0.0, 10.0, 10001))

    @pytest.mark.parametrize("grid", ["partition", "oracle"])
    def test_nan_driver_rejected(self, grid):
        # NaN strictly between two of the driver's samples
        g = Derivator(1.0, lambda t: np.where((t > 0.5001) & (t < 0.5009),
                                              np.nan, t))
        with pytest.raises(ValueError, match=rf"NaN on the {grid} grid "
                                             r"between 0\.5 and 0\.5002: .* nan"):
            read_on_grid(grid, g, 2e-4)

    @pytest.mark.parametrize("h", [0.1, 1e-3])
    def test_offset_part_within_rounding_accepted(self, h):
        # (t + 1) - t is 1 up to an ulp either way: flat in exact arithmetic,
        # with steps an ulp of 1 below zero that normalizing by g^C(0) = 1
        # leaves as they are; the slack is taken on the part's raw scale
        g = Derivator(2.0, lambda t: (t + 1.0) - t)
        part = build_partition(g, h)
        assert (part.dg < 0.0).any()
        assert part.dg.min() >= -2.0 * np.finfo(float).eps

    def test_slack_is_a_few_ulps_of_the_raw_part(self):
        # 1 + 1e-14*sin(37t) falls by at most 2 ulps of 1.0 per step at
        # h = 1e-3, within the slack; at h = 0.1 step 0 falls by 5.3e-15
        # (24 ulps), beyond it
        g = Derivator(1.0, lambda t: 1.0 + 1e-14 * np.sin(37.0 * t))
        part = build_partition(g, 1e-3)
        assert -2.0 * np.finfo(float).eps <= part.dg.min() < 0.0
        with pytest.raises(ValueError, match=r"partition grid between 0\.0 "
                                             r"and 0\.1: its measure there "
                                             r"is -5\.3"):
            build_partition(g, 0.1)

    def test_rounding_below_zero_accepted(self):
        # g is nondecreasing, but at the second jump g(t_k) + gap(t_k) is
        # (0.1 + 0.2) + 0.3, an ulp above the 0.1 + (0.2 + 0.3) after it
        g = Derivator(1.0, lambda t: np.minimum(t, 0.1), [0.25, 0.5],
                      [0.2, 0.3])
        part = build_partition(g, 0.05)
        assert np.flatnonzero(part.dg < 0.0).tolist() == [10]
        assert part.dg[10] == -2.0 ** -53

    def test_second_order_on_non_uniform_nodes(self):
        spec = make_linear_spec(-0.5, 1.0)
        errs = []
        for h in (1e-2, 1e-3):
            part = Partition.from_nodes(self.g, wavy_nodes(self.g, h))
            assert not np.allclose(np.diff(part.nodes), h, rtol=0.1)
            exact = homogeneous_solution(-0.5, 1.0, self.g, part.nodes)
            errs.append(np.max(np.abs(solve(spec, part).values - exact)))
        assert math.log10(errs[0] / errs[1]) >= 1.9


class TestStep:
    """Single scheme steps, read off a ``solve`` over a short partition."""

    def test_heun_algebra(self):
        part = build_partition(identity_derivator(0.1), 0.1)
        traj = solve(decay_spec(), part)
        assert traj.right_values[0] == 1.0
        assert traj.predictor_values[0] == pytest.approx(0.9)
        assert traj.values[1] == pytest.approx(0.905)  # 1 - h + h^2/2

    def test_jump_resets_state(self):
        g = Derivator(2.0, lambda t: np.asarray(t, dtype=float), [1.0], [1.0])
        traj = solve(decay_spec(), build_partition(g, 1.0))
        assert traj.right_values[1] == 0.0  # u + (-u) * 1
        assert traj.values[2] == 0.0

    def test_zero_rhs_is_constant(self):
        g = make_silkworm_derivator(10.0)
        spec = IvpSpec(rhs=lambda t, x, hist: 0.0, x0=5.0)
        traj = solve(spec, build_partition(g, 0.1))
        k = 40  # the jump at t = 4
        assert (traj.right_values[k], traj.predictor_values[k],
                traj.values[k + 1]) == (5.0, 5.0, 5.0)


class TestSolve:
    def test_exponential_decay(self):
        g = identity_derivator(1.0)
        part = build_partition(g, 1e-3)
        traj = solve(decay_spec(), part)
        assert abs(traj.values[-1] - math.exp(-1.0)) <= 1e-6

    def test_zero_rhs_constant_solution(self):
        g = make_silkworm_derivator(10.0)
        part = build_partition(g, 0.1)
        traj = solve(IvpSpec(rhs=lambda t, x, hist: 0.0, x0=3.25), part)
        assert np.all(traj.values == 3.25)

    def test_matches_independent_heun_on_classical_time(self):
        g = identity_derivator(1.0)
        part = build_partition(g, 1e-3)
        traj = solve(decay_spec(), part)
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
        traj = solve(IvpSpec(rhs=lambda t, x, hist: c, x0=1.0), part)
        dg = part.gaps[:-1] + part.dg
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
            traj = solve(spec, part)
            exact = homogeneous_solution(-0.5, 1.0, g, part.nodes)
            errs.append(np.max(np.abs(traj.values - exact)))
        assert errs[1] <= errs[0] / 50.0
        assert errs[2] <= errs[1] / 50.0

    def test_right_values_and_predictor_invariants(self):
        g = make_silkworm_derivator(10.0)
        part = build_partition(g, 0.1)
        spec = make_linear_spec(-0.4, 2.0)
        traj = solve(spec, part)
        off_jump = part.gaps[:-1] == 0.0
        # u_k+ == u_k wherever there is no jump, bit for bit
        assert np.all(traj.right_values[off_jump] == traj.values[:-1][off_jump])
        at_jump = np.flatnonzero(~off_jump)
        for k in at_jump:
            u_k = traj.values[k]
            expected = u_k + spec.rhs(part.nodes[k], u_k, None) * part.gaps[k]
            assert traj.right_values[k] == pytest.approx(expected, rel=1e-12)

    @BOTH_BODIES
    def test_nonfinite_state_aborts_with_node(self, run):
        g = identity_derivator(2.0)
        part = build_partition(g, 0.1)
        blowup = IvpSpec(rhs=lambda t, x, hist: x * x, x0=50.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match=(
                    r"^state became non-finite stepping to node 5 "
                    r"\(t=0.5\); aborting$")):
                run(blowup, part)

    @BOTH_BODIES
    def test_rhs_failure_names_node(self, run):
        g = identity_derivator(1.0)
        part = build_partition(g, 0.25)

        def bad_rhs(t, x, hist):
            if t >= 0.5:
                raise ZeroDivisionError("boom")
            return -x

        with pytest.raises(RuntimeError, match=(
                r"^right-hand side evaluation failed at node 1 "
                r"\(step to t=0.5\): boom$")) as excinfo:
            run(IvpSpec(rhs=bad_rhs, x0=1.0), part)
        assert isinstance(excinfo.value.__cause__, ZeroDivisionError)


class TestSolvePerturbed:
    def setup_method(self):
        self.g = make_test_derivator(2, snap=0.1)
        self.part = build_partition(self.g, 0.1)
        self.spec = make_linear_spec(-0.5, 1.0)
        self.n = self.part.n_steps

    def test_zero_perturbations_reproduce_solve(self):
        base = solve(self.spec, self.part)
        zero = np.zeros(self.n)
        pert = solve_perturbed(self.spec, self.part, zero, zero, zero)
        assert np.array_equal(pert.values, base.values)
        assert np.array_equal(pert.predictor_values, base.predictor_values)
        assert np.array_equal(pert.right_values, base.right_values)

    def test_final_corrector_perturbation_shifts_exactly(self):
        base = solve(self.spec, self.part)
        rho = np.zeros(self.n)
        rho[-1] = 1e-6
        pert = solve_perturbed(self.spec, self.part,
                               np.zeros(self.n), np.zeros(self.n), rho)
        assert pert.values[-1] - base.values[-1] == pytest.approx(1e-6,
                                                                  rel=1e-9)
        assert np.array_equal(pert.values[:-1], base.values[:-1])

    def test_length_mismatch_rejected(self):
        zero = np.zeros(self.n)
        with pytest.raises(ValueError):
            solve_perturbed(self.spec, self.part, zero[:-1], zero, zero)


def reference_scheme(spec, part, rho_plus=None, rho_star=None, rho=None):
    """The scheme in numpy scalars over the partition's arrays, adding each
    perturbation only when it is given; returns the three output arrays."""
    n = part.n_steps
    values, right, pred = np.empty(n + 1), np.empty(n), np.empty(n)
    values[0] = spec.x0
    hist = Trajectory(part, values, right, pred)
    hist.filled = 1
    for k in range(n):
        u_k, t_k, t_next = values[k], part.nodes[k], part.nodes[k + 1]
        u_plus = u_k + spec.rhs(t_k, u_k, hist) * part.gaps[k]
        if rho_plus is not None:
            u_plus += rho_plus[k]
        dg = part.dg[k]
        f_plus = spec.rhs_right(t_k, u_plus, hist)
        u_star = u_plus + f_plus * dg
        if rho_star is not None:
            u_star += rho_star[k]
        u_next = u_plus + 0.5 * (f_plus + spec.rhs(t_next, u_star, hist)) * dg
        if rho is not None:
            u_next += rho[k]
        right[k], pred[k], values[k + 1] = u_plus, u_star, u_next
        hist.filled = k + 2
    return values, right, pred


def silkworm_case():
    spec = make_silkworm_spec(SilkwormParams(c=1.2, lam=1.1, x0=8.0))
    return spec, build_partition(make_silkworm_derivator(10.0), 1e-2)


def linear_case(d, h=1e-3, x0=1.0):
    part = build_partition(make_test_derivator(4, snap=0.1), h)
    return make_linear_spec(d, x0), part


def signed_zero_case():
    # every stage of x' = x from x0 = -0.0 is -0.0
    spec = IvpSpec(rhs=lambda t, x, hist: x, x0=-0.0)
    return spec, build_partition(make_test_derivator(4, snap=0.1), 0.1)


def damping_turns_sign_case():
    # (3 - t) * -0.0 is -0.0 up to t = 3 and +0.0 after it, so the state
    # turns +0.0 on a flat step inside the plateau [2, 4] of the driver
    spec = IvpSpec(rhs=lambda t, x, hist: (3.0 - t) * x, x0=-0.0)
    return spec, build_partition(make_test_derivator(4, snap=0.1), 1e-2)


BIT_CASES = {"linear d=0.9": lambda: linear_case(0.9),
             "linear d=-0.9": lambda: linear_case(-0.9),
             "silkworm": silkworm_case,
             "signed zero": signed_zero_case,
             # -d * -0.0 is +0.0: the first step turns the state +0.0, and
             # at this step the first 71 steps are flat
             "linear x0=-0.0": lambda: linear_case(0.5, h=1e-4, x0=-0.0),
             "damping turns sign": damping_turns_sign_case}


def assert_bit_identical(traj, reference):
    for got, want in zip((traj.values, traj.right_values,
                          traj.predictor_values), reference):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestBitIdentity:
    """``solve`` and ``solve_perturbed`` reproduce the numpy-scalar scheme
    bit for bit, signed zeros included."""

    @pytest.mark.parametrize("case", sorted(BIT_CASES))
    def test_solve(self, case):
        spec, part = BIT_CASES[case]()
        assert_bit_identical(solve(spec, part), reference_scheme(spec, part))

    @pytest.mark.parametrize("case", sorted(BIT_CASES))
    def test_solve_perturbed(self, case):
        spec, part = BIT_CASES[case]()
        rng = np.random.default_rng(7)
        rhos = [rng.uniform(-1e-3, 1e-3, part.n_steps) for _ in range(3)]
        assert_bit_identical(solve_perturbed(spec, part, *rhos),
                             reference_scheme(spec, part, *rhos))


def flat_steps(part):
    """Steps whose every weight is zero: no jump, no continuous measure."""
    return (part.gaps[:-1] == 0.0) & (part.dg == 0.0)


def long_flat_runs(part):
    """Mask of the steps in runs of at least ``_MIN_CARRIED_RUN`` flat
    steps, the runs a nonzero state is carried across."""
    mask = np.zeros(part.n_steps, dtype=bool)
    k = 0
    for flat, steps in itertools.groupby(flat_steps(part)):
        n = len(list(steps))
        mask[k:k + n] = flat and n >= solver._MIN_CARRIED_RUN
        k += n
    return mask


def plateau_nodes(part):
    """Nodes strictly inside the plateaus [2, 4] and [6, 8] of the test
    driver whose both neighbouring steps are flat."""
    flat = flat_steps(part)
    t = part.nodes
    inside = np.zeros(t.size, dtype=bool)
    inside[1:-1] = flat[:-1] & flat[1:]
    inside &= ((2.0 < t) & (t < 4.0)) | ((6.0 < t) & (t < 8.0))
    return set(t[inside].tolist())


def calls_per_step(spec, part):
    """Solve, counting the right-hand side calls of each step ``k``: both
    callables of a step read a history filled up to ``u_k``."""
    calls = np.zeros(part.n_steps, dtype=int)

    def counted(rhs):
        def rhs_counted(t, x, hist):
            calls[hist.filled - 1] += 1
            return rhs(t, x, hist)
        return rhs_counted

    traj = solve(IvpSpec(rhs=counted(spec.rhs), x0=spec.x0,
                         rhs_right=counted(spec.rhs_right)), part)
    return traj, calls


class TestFlatRuns:
    """Runs of flat steps carry the state over without reading the
    right-hand side; every other step goes through the scheme, and reads
    ``f(t_k, u_k)`` for the jump update only at a jump or a zero state."""

    def test_rhs_calls_only_outside_carried_runs(self):
        spec, part = linear_case(-0.5, h=1e-2)
        carried = long_flat_runs(part)
        assert carried.sum() > part.n_steps // 3
        traj, calls = calls_per_step(spec, part)
        assert_bit_identical(traj, reference_scheme(spec, part))
        # the state never vanishes: 3 calls at a jump, 2 on any other
        # stepped step, none inside a carried run
        at_jump = part.gaps[:-1] > 0.0
        assert at_jump.sum() == 4 and not (at_jump & carried).any()
        want = np.where(carried, 0, np.where(at_jump, 3, 2))
        assert np.array_equal(calls, want)
        assert calls.sum() == 1208

    def test_zero_state_steps_read_the_jump_update(self):
        # -0.0 is never carried, and a zero state of either sign takes
        # the full jump update: 3 calls on every step
        spec, part = signed_zero_case()
        assert long_flat_runs(part).any()
        traj, calls = calls_per_step(spec, part)
        assert_bit_identical(traj, reference_scheme(spec, part))
        assert np.all(calls == 3)

    def test_rhs_may_be_nan_inside_a_long_plateau(self):
        # NaN at every node strictly inside the plateaus [2, 4] and [6, 8]
        # of the driver: both neighbouring steps of such a node are flat
        spec, part = linear_case(-0.5, h=1e-2)
        nan_at = plateau_nodes(part)
        assert len(nan_at) > 300

        def rhs(t, x, hist):
            return math.nan if t in nan_at else spec.rhs(t, x, hist)

        assert_bit_identical(solve(IvpSpec(rhs=rhs, x0=spec.x0), part),
                             reference_scheme(spec, part))

    def test_positive_zero_crosses_a_nan_plateau(self):
        # -0.5 * +0.0 is -0.0, and +0.0 + -0.0 is +0.0: the state stays
        # +0.0, so the plateaus are carried and their NaN never read
        spec, part = linear_case(-0.5, h=1e-2, x0=0.0)
        nan_at = plateau_nodes(part)

        def rhs(t, x, hist):
            return math.nan if t in nan_at else spec.rhs(t, x, hist)

        traj = solve(IvpSpec(rhs=rhs, x0=0.0), part)
        for out in (traj.values, traj.right_values, traj.predictor_values):
            assert np.all(out == 0.0) and not np.signbit(out).any()

    @pytest.mark.parametrize("stage", range(3))
    def test_perturbation_inside_a_flat_run(self, stage):
        spec, part = linear_case(0.5, h=1e-2)
        k = int(np.searchsorted(part.nodes, 3.0))
        assert flat_steps(part)[k - 20:k + 20].all()
        rhos = [np.zeros(part.n_steps) for _ in range(3)]
        rhos[stage][k] = 1e-3
        assert_bit_identical(solve_perturbed(spec, part, *rhos),
                             reference_scheme(spec, part, *rhos))

    @pytest.mark.parametrize("pattern", ["alternating", "growing runs"])
    def test_fragmented_flat_steps(self, pattern):
        base = build_partition(identity_derivator(1.0), 1e-3)
        dg = base.dg.copy()
        if pattern == "alternating":
            dg[::2] = 0.0
        else:
            # flat runs of 1, 2, .., 40 steps, each after one live step,
            # so runs just shorter and just longer than the minimum occur
            stops = np.cumsum(np.arange(1, 41)) + np.arange(40)
            for n, b in enumerate(stops, start=1):
                dg[b - n:b] = 0.0
        part = Partition(base.g, base.h, base.nodes, base.gaps, dg)
        spec = IvpSpec(rhs=lambda t, x, hist: math.sin(3.0 * t) - x, x0=0.5)
        assert_bit_identical(solve(spec, part), reference_scheme(spec, part))


T_END = 10.0


@st.composite
def damped_problems(draw):
    """A test driver and a damping with either ``0.2 <= |d| <= 0.9`` or
    ``d`` in [1.05, 1.6] with at least one jump (sign flips, ``d*gap > 1``)."""
    flip = draw(st.booleans())
    nj = draw(st.integers(1 if flip else 0, 4))
    alpha = draw(st.floats(2.0, 5.0))
    if flip:
        d = draw(st.floats(1.05, 1.6))
    else:
        d = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.2, 0.9))
    x0 = draw(st.floats(0.5, 2.0))
    return make_test_derivator(nj, alpha=alpha, T=T_END, snap=0.1), d, x0


class TestDifferential:
    """``solve`` against the closed forms of ``linear`` at ``T``."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(damped_problems())
    def test_second_order_against_closed_form(self, problem):
        g, d, x0 = problem
        if d > 1.0:
            exact = general_linear_solution(d, 0.0, x0, g, T_END)
        else:
            exact = homogeneous_solution(d, x0, g, T_END)
        errs = [abs(solve(make_linear_spec(d, x0),
                          build_partition(g, h)).values[-1] - exact)
                for h in (1e-2, 1e-3)]
        assert math.log10(errs[0] / errs[1]) >= 1.9


def history_on(nodes, values, right_values=None, g=None):
    """A complete trajectory of ``values`` on ``nodes`` under ``g`` (classical
    time by default), with the nodal values as the right limits unless
    ``right_values`` is given and as the predictor values."""
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    part = Partition.from_nodes(g or identity_derivator(nodes[-1]), nodes)
    right = values[:-1] if right_values is None else right_values
    return Trajectory(part, values, np.asarray(right, dtype=float), values[1:])


def jump_path():
    """Classical time on ``[0, 3]`` with unit jumps at 1 and 2, on a grid of
    step 0.25, and a path that is linear between them: ``2t`` on ``[0, 1]``,
    ``6 - t`` on ``(1, 2]`` and ``3t - 10`` on ``(2, 3]``, so ``x(1+) = 5``
    and ``x(2+) = -4``."""
    g = Derivator(3.0, lambda t: np.asarray(t, dtype=float),
                  jump_times=[1.0, 2.0], jump_gaps=[1.0, 1.0])
    nodes = np.linspace(0.0, 3.0, 13)
    values = np.where(nodes <= 1.0, 2.0 * nodes,
                      np.where(nodes <= 2.0, 6.0 - nodes, 3.0 * nodes - 10.0))
    right = values[:-1].copy()
    right[[4, 8]] = 5.0, -4.0
    return g, nodes, values, right


class TestTrajectoryHistory:
    def test_trapezoid_matches_numpy(self):
        nodes = np.linspace(0.0, 5.0, 51)
        values = np.sin(nodes)
        hist = history_on(nodes, values)
        assert hist.filled == values.size  # built by hand: complete
        assert hist.integral(0.0, 5.0) == pytest.approx(
            float(np.trapezoid(values, nodes)))

    def test_partial_cells_interpolate(self):
        nodes = np.linspace(0.0, 1.0, 11)
        values = 2.0 * nodes  # exact for trapezoid pieces
        hist = history_on(nodes, values)
        assert hist.integral(0.05, 0.95) == pytest.approx(0.95 ** 2 - 0.05 ** 2)

    def test_clamps_below_and_rejects_beyond(self):
        nodes = np.linspace(0.0, 1.0, 11)
        hist = history_on(nodes, np.ones(11))
        assert hist.integral(-3.0, 1.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            hist.integral(0.0, 1.5)
        # an empty or reversed window, also one that clamps to empty
        for lo, hi in ((0.5, 0.5), (0.7, 0.3), (-3.0, -1.0)):
            assert hist.integral(lo, hi) == 0.0

    def test_both_ends_in_one_cell(self):
        nodes = np.array([0.0, 1.0, 2.0])
        hist = history_on(nodes, nodes.copy())
        assert hist.integral(0.2, 0.4) == pytest.approx(0.06, rel=1e-12)
        assert hist.integral(1.25, 1.75) == pytest.approx(0.75, rel=1e-12)

    def test_ends_in_neighbouring_cells(self):
        nodes = np.array([0.0, 1.0, 2.0])
        hist = history_on(nodes, nodes.copy())
        # (1.5**2 - 0.5**2) / 2, pieces [0.5, 1] and [1, 1.5]
        assert hist.integral(0.5, 1.5) == pytest.approx(1.0, rel=1e-12)
        values = np.array([0.0, 1.0, 0.0])  # a hat: linear on each cell
        hist = history_on(nodes, values)
        assert hist.integral(0.5, 1.5) == pytest.approx(0.75, rel=1e-12)

    def test_node_ends_sum_the_node_trapezoids(self):
        nodes = np.linspace(0.0, 5.0, 51)
        values = np.sin(nodes)
        hist = history_on(nodes, values)
        xs, ys = nodes[7:33], values[7:33]
        assert hist.integral(nodes[7], nodes[32]) == float(
            np.sum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs)))

    def test_respects_filled_prefix(self):
        nodes = np.linspace(0.0, 1.0, 11)
        hist = history_on(nodes, np.ones(11))
        hist.filled = 6
        assert hist.integral(0.0, 0.5) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            hist.integral(0.0, 0.8)

    @pytest.mark.parametrize("lo, hi, exact", [
        (1.0, 2.5, 2.875),   # starts on a jump node, another inside
        (1.1, 2.1, 3.62),    # both ends inside cells that start at a jump
        (1.1, 1.2, 0.485),   # both ends in one such cell
        (0.5, 3.0, 2.75),
    ])
    def test_reads_right_limits_at_jump_nodes(self, lo, hi, exact):
        g, nodes, values, right = jump_path()
        hist = history_on(nodes, values, right, g)
        assert hist.integral(lo, hi) == pytest.approx(exact, rel=1e-12)

    def test_unwritten_right_limit_at_the_last_filled_node_is_not_read(self):
        # while stepping from t_8 = 2 the scheme has not yet written u_8+
        g, nodes, values, right = jump_path()
        values[9:], right[8:] = math.nan, math.nan
        hist = history_on(nodes, values, right, g)
        hist.filled = 9
        for hi in (2.0, 2.0 + 1e-10):  # within the 1e-9 * h tolerance
            assert hist.integral(1.0, hi) == pytest.approx(4.5, rel=1e-9)

    def test_solve_passes_the_trajectory_it_returns(self):
        seen = []

        def rhs(t, x, history):
            seen.append((t, history, history.filled))
            return -x

        part = build_partition(make_test_derivator(2, snap=0.1), 0.1)
        traj = solve(IvpSpec(rhs=rhs, x0=1.0), part)
        assert seen and all(history is traj for _, history, _ in seen)
        assert traj.filled == traj.values.size
        # each call sees u_0 .. u_k set while stepping from t_k to t_{k+1}
        for t, _, filled in seen:
            assert part.nodes[filled - 1] <= t <= part.nodes[filled]
