"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated at run time.
"""

import math
import time
from functools import partial

import numpy as np
import pytest

from stieltjes_ode.analysis import (error_report, estimate_order,
                                    measure_constants, theoretical_bounds,
                                    truncation_errors)
from stieltjes_ode.derivator import identity_derivator, make_test_derivator
from stieltjes_ode.linear import homogeneous_solution
from stieltjes_ode.models import (SilkwormParams, SilkwormSolution,
                                  make_linear_spec, make_silkworm_spec)
from stieltjes_ode.derivator import make_silkworm_derivator
from stieltjes_ode.quadrature import run_bound_suite
from stieltjes_ode.solver import (IvpSpec, build_partition, solve,
                                  solve_perturbed)

# reference corrector maxima for the linear benchmark (d=-0.5, x0=1)
REF_TARGETS = {
    (2, 1e-1): 3.1399e-02, (2, 1e-2): 3.3911e-04, (2, 1e-3): 3.4002e-06,
    (4, 1e-1): 7.2094e-02, (4, 1e-2): 7.6469e-04, (4, 1e-3): 7.6522e-06,
}
# reference silkworm maxima (lambda=1.1, c=1.2, x0=8)
REF_SILKWORM = {1e-1: 2.3724e-01, 1e-2: 1.7138e-02, 1e-3: 4.8860e-03,
                    1e-4: 1.5287e-03}


def report_line(number, ok, text):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


@pytest.fixture(scope="module")
def linear_benchmark_grid():
    """Solve the {2,4} x {1e-1..1e-4} benchmark grid once, timed."""
    cells = {}
    start = time.perf_counter()
    for nj in (2, 4):
        g = make_test_derivator(nj, snap=0.1)
        spec = make_linear_spec(-0.5, 1.0)
        exact = partial(homogeneous_solution, -0.5, 1.0, g)
        for h in (1e-1, 1e-2, 1e-3, 1e-4):
            part = build_partition(g, h)
            traj = solve(spec, part)
            rep = error_report(traj, exact)
            cells[(nj, h)] = {
                "g": g, "spec": spec, "part": part,
                "exact": exact, "report": rep,
            }
    elapsed = time.perf_counter() - start
    return cells, elapsed


def test_criterion_1_classical_reduction():
    start = time.perf_counter()
    g = identity_derivator(1.0)
    spec = IvpSpec(rhs=lambda t, x, hist: -x, x0=1.0)

    part = build_partition(g, 1e-3)
    traj = solve(spec, part)
    f = lambda t, x: -x
    u = 1.0
    worst = 0.0
    for k in range(part.n_steps):
        tk, tn = part.nodes[k], part.nodes[k + 1]
        dt = tn - tk
        f1 = f(tk, u)
        f2 = f(tn, u + dt * f1)
        u = u + 0.5 * (f1 + f2) * dt
        worst = max(worst, abs(u - traj.values[k + 1]))

    steps = [1e-1, 1e-2, 1e-3, 1e-4]
    errs = []
    for h in steps:
        p = build_partition(g, h)
        t = solve(spec, p)
        errs.append(float(np.max(np.abs(t.values - np.exp(-p.nodes)))))
    order = estimate_order(steps, errs)
    elapsed = time.perf_counter() - start

    ok = worst <= 1e-13 and 1.9 <= order <= 2.1 and elapsed < 1.0
    report_line(1, ok, f"classical reduction: max dev vs independent Heun "
                       f"{worst:.2e} (<=1e-13), order {order:.3f} in [1.9,2.1], "
                       f"{elapsed:.2f}s (<1s)")


def test_criterion_2_benchmark_table(linear_benchmark_grid):
    cells, elapsed = linear_benchmark_grid
    ok = elapsed < 30.0
    details = [f"grid runtime {elapsed:.1f}s (<30s)"]
    for nj in (2, 4):
        errs = {h: cells[(nj, h)]["report"].max_e for h in (1e-1, 1e-2, 1e-3)}
        r1 = errs[1e-1] / errs[1e-2]
        r2 = errs[1e-2] / errs[1e-3]
        ok &= 80.0 <= r1 <= 120.0 and 80.0 <= r2 <= 120.0
        details.append(f"jumps={nj} decade ratios {r1:.1f},{r2:.1f}")
        for h in (1e-1, 1e-2, 1e-3):
            target = REF_TARGETS[(nj, h)]
            factor = max(errs[h] / target, target / errs[h])
            ok &= factor <= 3.0
        details.append(f"jumps={nj} magnitude factors <= "
                       f"{max(max(errs[h] / REF_TARGETS[(nj, h)], REF_TARGETS[(nj, h)] / errs[h]) for h in errs):.2f}")
    report_line(2, ok, "; ".join(details))


def test_criterion_3_quadrature_bound_suite():
    rows = run_bound_suite(num_cases=200, n_oracle=10 ** 6, seed=20240)
    failures = [r for r in rows if not r["passed"]]
    ok = len(rows) == 200 and not failures
    report_line(3, ok, f"quadrature bounds: {len(rows)} randomized cases, "
                       f"{len(failures)} violations (need 0)")


def test_criterion_4_truncation_bounds(linear_benchmark_grid):
    cells, _ = linear_benchmark_grid
    cell = cells[(2, 1e-2)]
    g, spec, part = cell["g"], cell["spec"], cell["part"]
    pred, corr, comb = truncation_errors(spec, part, cell["exact"])
    consts = measure_constants(spec, part, cell["exact"])
    H, K2, h = consts.lip, consts.k2, part.h
    ok_star = np.all(np.abs(pred) <= H * H * h * h)
    ok_corr = np.all(np.abs(corr) <= 0.5 * H * H * h * h)
    ok_comb = np.all(np.abs(comb) <= 0.5 * H * H * h * h
                     + 0.5 * K2 * H ** 3 * h ** 3)
    ok = bool(ok_star and ok_corr and ok_comb)
    report_line(4, ok, f"truncation residual bounds at h=1e-2, measured "
                       f"H={H:.3f}, K2={K2:.3f}: predictor {bool(ok_star)}, "
                       f"corrector {bool(ok_corr)}, combined {bool(ok_comb)}")


def test_criterion_5_closed_form_validation(linear_benchmark_grid):
    cells, _ = linear_benchmark_grid
    rep = cells[(2, 1e-4)]["report"]
    g = cells[(2, 1e-4)]["g"]
    max_err = rep.max_e
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        t = float(rng.uniform(0.0, 9.0))
        r = float(rng.uniform(0.0, 10.0 - t))
        lhs = homogeneous_solution(-0.5, 1.0, g, t + r)
        times, gaps = g.jumps_in(t, t + r)
        mu_cont = g.measure(t, t + r) - float(gaps.sum())
        rhs = (homogeneous_solution(-0.5, 1.0, g, t)
               * math.exp(0.5 * mu_cont) * float(np.prod(1.0 + 0.5 * gaps)))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    ok = max_err <= 1e-6 and worst <= 1e-12
    report_line(5, ok, f"closed form vs scheme at h=1e-4: max error "
                       f"{max_err:.2e} (<=1e-6); semigroup residual "
                       f"{worst:.2e} (<=1e-12) over 100 random pairs")


def test_criterion_6_silkworm_reproduction():
    params = SilkwormParams(c=1.2, lam=1.1, x0=8.0, T=10.0)
    g = make_silkworm_derivator(10.0)
    spec = make_silkworm_spec(params)
    exact = SilkwormSolution(params)
    errs = {}
    elapsed_fine = None
    for h in (1e-1, 1e-2, 1e-3, 1e-4):
        start = time.perf_counter()
        part = build_partition(g, h)
        traj = solve(spec, part)
        rep = error_report(traj, exact)
        if h == 1e-4:
            elapsed_fine = time.perf_counter() - start
        errs[h] = rep.max_e
    dev_coarse = abs(errs[1e-1] - REF_SILKWORM[1e-1]) / REF_SILKWORM[1e-1]
    dev_mid = abs(errs[1e-2] - REF_SILKWORM[1e-2]) / REF_SILKWORM[1e-2]
    decreasing = errs[1e-1] > errs[1e-2] > errs[1e-3] > errs[1e-4]
    ok = (dev_coarse <= 0.10 and dev_mid <= 0.25 and decreasing
          and elapsed_fine < 60.0)
    report_line(6, ok, f"silkworm: h=1e-1 err {errs[1e-1]:.4e} "
                       f"(target 2.3724e-01 +-10%), h=1e-2 {errs[1e-2]:.4e} "
                       f"(target 1.7138e-02 +-25%), strictly decreasing to "
                       f"1e-4: {decreasing}, fine run {elapsed_fine:.1f}s (<60s)")


def test_criterion_7_global_error_bound(linear_benchmark_grid):
    cells, _ = linear_benchmark_grid
    ok = True
    worst_margin = math.inf
    for (nj, h), cell in cells.items():
        g, spec, part = cell["g"], cell["spec"], cell["part"]
        _, _, comb = truncation_errors(spec, part, cell["exact"])
        consts = measure_constants(spec, part, cell["exact"])
        bound, _, _ = theoretical_bounds(consts, g.domain_end, 0.0,
                                         float(np.max(np.abs(comb))))
        holds = cell["report"].max_e <= bound
        ok &= holds
        worst_margin = min(worst_margin, bound / cell["report"].max_e)
    report_line(7, ok, f"global bound holds on all {len(cells)} benchmark "
                       f"configurations (smallest bound/error margin "
                       f"{worst_margin:.1e})")


def test_criterion_8_stability(linear_benchmark_grid):
    cells, _ = linear_benchmark_grid
    cell = cells[(2, 1e-3)]
    g, spec, part = cell["g"], cell["spec"], cell["part"]
    base = cell["report"]
    eps = 1e-8
    n = part.n_steps
    pert_traj = solve_perturbed(spec, part, np.full(n, eps),
                                np.full(n, eps), np.full(n, eps))
    pert = error_report(pert_traj, cell["exact"])
    consts = measure_constants(spec, part, cell["exact"])
    g1, g2, g6 = consts.g1, consts.g2, consts.g6
    # perturbation share of the stability bound; the truncation part
    # cancels against the unperturbed run
    delta_bound = ((1.0 + g2) ** g.n_jumps
                   * ((eps + g1 * eps + g6 * eps) / g1)
                   * math.exp(g1 * g.domain_end / part.h))
    delta = abs(pert.max_e - base.max_e)
    ok = delta <= delta_bound
    report_line(8, ok, f"stability: |rho|=1e-8 at h=1e-3 moves max error by "
                       f"{delta:.2e} <= theorem bound {delta_bound:.2e}")
