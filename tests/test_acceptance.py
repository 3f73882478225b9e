"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its measured quantities and wall time (run with -s or -v to see them)."""

import math
import time

import numpy as np

from semigroup_lab import (
    TrajectoryStreams,
    am_gm_gap,
    apply_jump,
    apply_standard,
    arrival_laplace,
    arrival_partial_product,
    band_functional,
    birth_generator,
    birth_resolvent,
    choi_matrix,
    conservativity_defect,
    domain_band,
    empirical_laplace,
    euler_semigroup,
    event_count_estimator,
    falsifier_report,
    forward_form_residual,
    gauge_transform,
    geometric_band_decay,
    is_positive_semidefinite,
    leading_column_report,
    matrix_exponential_apply,
    matrix_unit,
    moderate_growth_report,
    n_event_laplace_term,
    no_event_resolvent,
    resolvent_direct,
    resolvent_series,
    sample_trajectories,
    shift_arrival_density,
    trace_norm,
)
from semigroup_lab.diffusion import (
    KernelGrid,
    apply_resolvent,
    apply_semigroup,
    diagonal_slope,
    kernel_trace,
    trace_loss,
)
from semigroup_lab.rates import GeometricRates, PolynomialRates

from conftest import random_operator, random_psd, random_vector

POLY = PolynomialRates(1.0, 2.0)   # mu_n = (n+1)^2
LINEAR = PolynomialRates(1.0, 1.0)  # mu_n = n+1
GEO = GeometricRates(2.0)          # mu_n = 2^n
MC_SEED = 20260810


class _Criterion:
    def __init__(self, number, name, budget_s):
        self.number = number
        self.name = name
        self.budget_s = budget_s
        self.checks = []
        self.start = time.perf_counter()

    def check(self, label, ok):
        self.checks.append((label, bool(ok)))

    def finish(self):
        elapsed = time.perf_counter() - self.start
        ok = all(flag for _, flag in self.checks) and elapsed <= self.budget_s
        status = "PASS" if ok else "FAIL"
        print(f"[criterion {self.number:02d}] {status} {self.name} "
              f"({elapsed:.1f}s / budget {self.budget_s:.0f}s)")
        for label, flag in self.checks:
            if not flag:
                print(f"    failed: {label}")
        assert ok, f"criterion {self.number} ({self.name}): " + "; ".join(
            label for label, flag in self.checks if not flag)


def test_criterion_01_series_matches_direct_resolvent():
    c = _Criterion(1, "minimal-solution series equals dense resolvent", 10.0)
    dim, lam = 30, 1.0
    rng = np.random.default_rng(101)
    rho = random_psd(dim, rng)
    spec = birth_generator(POLY, dim)
    series = resolvent_series(lambda x: no_event_resolvent(POLY, lam, x),
                              lambda x: apply_jump(spec, x), lam, rho,
                              tol=1e-10)
    direct = resolvent_direct(spec, lam, rho)
    diff = trace_norm(series.value - direct)
    traj = series.trace_trajectory
    c.check(f"trace-norm difference {diff:.2e} <= 1e-8", diff <= 1e-8)
    c.check("iterate traces nondecreasing",
            all(b >= a - 1e-12 for a, b in zip(traj, traj[1:])))
    c.check("iterate traces bounded by tr rho",
            max(traj) <= np.trace(rho).real + 1e-10)
    c.finish()


def test_criterion_02_closed_form_exactness():
    c = _Criterion(2, "closed-form resolvent matches dense solve entrywise", 5.0)
    rng = np.random.default_rng(102)
    for rates, label in ((LINEAR, "mu=n+1"), (GEO, "mu=2^n")):
        spec = birth_generator(rates, 20)
        rho = random_operator(20, rng)
        for lam in (0.5, 1.0, 2.0):
            dev = np.abs(birth_resolvent(rates, lam, rho)
                         - resolvent_direct(spec, lam, rho)).max()
            c.check(f"{label}, lambda={lam}: max entry dev {dev:.2e} <= 1e-10",
                    dev <= 1e-10)
    c.finish()


def test_criterion_03_conservativity_dichotomy():
    c = _Criterion(3, "conservativity dichotomy", 1.0)
    for count in (10, 100, 1000):
        p = arrival_partial_product(LINEAR, 1.0, 0, count)
        c.check(f"telescoping product J={count} within 1e-12",
                abs(p - 1.0 / (count + 1)) <= 1e-12)
    defects = [conservativity_defect(LINEAR, 1.0, matrix_unit(0, 0, d))
               for d in (10, 20, 40, 80)]
    c.check("defect decreases toward 0 (mu=n+1)",
            all(b < a for a, b in zip(defects, defects[1:])) and defects[-1] < 0.02)
    bracket = arrival_laplace(GEO, 1.0, tail_tol=1e-12)
    c.check(f"geometric bracket width {bracket.width:.2e} <= 1e-10",
            bracket.width <= 1e-10)
    c.check(f"geometric product value {bracket.value:.4f} > 0", bracket.value > 0)
    c.finish()


def test_criterion_04_monte_carlo_vs_product():
    c = _Criterion(4, "Monte Carlo Laplace transform vs product formula", 10.0)
    streams = TrajectoryStreams(master_seed=MC_SEED)
    samples = sample_trajectories(GEO, 0, 50.0, 20, streams, 100_000)
    [(mean, se)] = empirical_laplace(samples, [1.0], GEO)
    product = arrival_laplace(GEO, 1.0).value
    c.check(f"standard error {se:.2e} <= 1e-3", se <= 1e-3)
    c.check(f"|empirical - product| = {abs(mean - product):.2e} <= 3 SE",
            abs(mean - product) <= 3.0 * se)
    c.finish()


def test_criterion_05_domain_functionals():
    c = _Criterion(5, "band functionals and geometric decay", 10.0)
    for q in (0, 1, 2):
        est, converged = band_functional(POLY, domain_band(POLY, q, 10_001), q, 10_000)
        c.check(f"flux(q={q}) on its domain band: |F - 1| = {abs(est - 1.0):.1e} "
                f"<= 1e-12, converged {converged}", abs(est - 1.0) <= 1e-12 and converged)
    # the q=1 band of |0><1|
    table = geometric_band_decay(GEO, 1, 1.0, [1.0], [300])
    f, envelope = table.f_values[0], table.envelope[0]
    c.check(f"decay at n=300: 0 < F = {f:.2e} <= envelope {envelope:.2e} <= 1e-6",
            0.0 < f <= envelope <= 1e-6)
    c.finish()


def test_criterion_06_nonstandard_construction():
    c = _Criterion(6, "trace-reset generator is conservative and non-standard", 10.0)
    report = falsifier_report(POLY, 30, lam=1.0, t=1.0, seed=106)
    c.check(f"reset residual {report.reset_residual:.2e} <= 1e-9 (t=1, N=30)",
            report.reset_residual <= 1e-9)
    defect = conservativity_defect(GEO, 1.0, matrix_unit(0, 0, 30))
    c.check(f"geometric base defect {defect:.3f} > 0.1", defect > 0.1)
    c.check(f"interior agreement {report.interior_max_deviation:.2e} <= 1e-12 "
            "(100 random finite-rank elements)",
            report.interior_max_deviation <= 1e-12)
    c.check(f"|tracenorm(reset difference) - 1| = "
            f"{abs(report.reset_difference_trace_norm - 1.0):.2e} <= 1e-10",
            abs(report.reset_difference_trace_norm - 1.0) <= 1e-10)
    c.finish()


def test_criterion_07_diffusion():
    c = _Criterion(7, "diagonal diffusion semigroup on the default grid", 60.0)
    kernel = KernelGrid.from_profile(
        lambda x: math.exp(-0.5 * ((x - 2.0) / 0.4) ** 2), 10.0, 0.01)
    once = apply_semigroup(kernel, 0.2)
    twice = apply_semigroup(apply_semigroup(kernel, 0.1), 0.1)
    comp = np.abs(once.values - twice.values).max()
    c.check(f"composition error {comp:.2e} <= 1e-4 (h=0.01, X=10, t=s=0.1)",
            comp <= 1e-4)
    gap = abs(kernel_trace(once) - (kernel_trace(kernel) - trace_loss(kernel, 0.2)))
    c.check(f"trace-loss identity gap {gap:.2e} <= 1e-5", gap <= 1e-5)
    resolved = apply_resolvent(kernel, 1.0)
    slope = diagonal_slope(resolved)
    fit_ok = all(abs(trace_loss(resolved, t) / t - slope) <= 0.05 * abs(slope)
                 for t in (1e-3, 2e-3, 5e-3, 1e-2))
    c.check(f"loss/t within 5% of boundary slope {slope:.4f} over t in [1e-3, 1e-2]",
            fit_ok)
    pure = KernelGrid.from_profile(lambda x: x * math.exp(-x) if x < 7.0 else 0.0,
                                   10.0, 0.01)
    lam0 = diagonal_slope(pure)
    ratios = [trace_loss(pure, t) / t for t in (1e-2, 1e-3, 1e-4)]
    c.check(f"pure-state kernel slope {lam0:.1e} ~ 0 and loss/t decreasing to 0",
            abs(lam0) <= 1e-3 and all(b < a for a, b in zip(ratios, ratios[1:])))
    c.finish()


def test_criterion_08_structural_identities():
    c = _Criterion(8, "forward equation, gauge invariance, CP, Euler rate", 30.0)
    rng = np.random.default_rng(108)
    spec = birth_generator(POLY, 10)
    worst = max(
        forward_form_residual(spec, random_operator(10, rng, interior=True),
                              random_vector(10, rng), random_vector(10, rng))
        for _ in range(100))
    c.check(f"forward residual {worst:.2e} <= 1e-12 on 100 interior cases",
            worst <= 1e-12)

    worst_gauge = 0.0
    for _ in range(20):
        lam = complex(rng.standard_normal(), rng.standard_normal())
        beta = float(rng.standard_normal())
        other = gauge_transform(spec, [lam], beta=beta)
        rho = random_operator(10, rng, interior=True)
        worst_gauge = max(worst_gauge, float(np.abs(
            apply_standard(other, rho) - apply_standard(spec, rho)).max()))
    c.check(f"gauge invariance {worst_gauge:.2e} <= 1e-12 over 20 random gauges",
            worst_gauge <= 1e-12)

    dim8 = 8
    spec8 = birth_generator(POLY, dim8)
    jump_choi = choi_matrix(lambda r: apply_jump(spec8, r), dim8)
    c.check("jump-part Choi matrix PSD at N=8 (tol 1e-10)",
            is_positive_semidefinite(jump_choi, tol=1e-10))

    def series_map(rho):
        return resolvent_series(lambda x: no_event_resolvent(POLY, 1.0, x),
                                lambda x: apply_jump(spec8, x), 1.0, rho).value

    series_choi = choi_matrix(series_map, dim8)
    c.check("series-resolvent Choi matrix PSD at N=8 (tol 1e-10)",
            is_positive_semidefinite(series_choi, tol=1e-10))

    spec5 = birth_generator(POLY, 5)
    rho5 = random_psd(5, rng)
    ref = matrix_exponential_apply(spec5, 0.3, rho5)
    errors = [trace_norm(euler_semigroup(
        lambda lam, x: birth_resolvent(POLY, lam, x), 0.3, 2 ** p, rho5) - ref)
        for p in range(6, 15)]
    c.check("Euler error strictly decreasing over n = 2^6..2^14",
            all(b < a for a, b in zip(errors, errors[1:])))
    c_fit = errors[0] * 2 ** 6
    c.check(f"Euler error bounded by C/n with C = {c_fit:.3f} > 0",
            c_fit > 0 and all(e <= 1.05 * c_fit / 2 ** p
                              for p, e in zip(range(6, 15), errors)))
    c.finish()


def test_criterion_09_shift_arrival_demo():
    c = _Criterion(9, "half-sided shift arrival density", 1.0)
    h = 0.005
    x = h * np.arange(round(10.0 / h) + 1)
    psi = np.where((x >= 1.0) & (x <= 2.0), np.sin(math.pi * (x - 1.0)) ** 2, 0.0)
    table = shift_arrival_density(psi, h)
    gap = abs(table.cumulative[-1] - table.norm_sq)
    c.check(f"cumulative arrival equals squared norm within 1e-6 (gap {gap:.1e})",
            gap <= 1e-6)
    c.finish()


def test_criterion_10_event_count_decomposition():
    c = _Criterion(10, "event-count decomposition of the resolvent", 15.0)
    streams = TrajectoryStreams(master_seed=MC_SEED)
    samples = sample_trajectories(GEO, 0, 50.0, 8, streams, 100_000)
    rho = matrix_unit(0, 0, 60)
    for k in range(4):
        analytic = n_event_laplace_term(GEO, 1.0, k, rho)
        est, se = event_count_estimator(samples, 1.0, k)
        c.check(f"k={k}: |MC - analytic| = {abs(est - analytic):.2e} <= 3 SE",
                abs(est - analytic) <= 3.0 * se)
    target = np.trace(birth_resolvent(GEO, 1.0, rho)).real
    partial = sum(n_event_laplace_term(GEO, 1.0, k, rho) for k in range(45))
    c.check(f"partial sums reach resolvent trace within 1e-8 "
            f"(gap {abs(partial - target):.1e})", abs(partial - target) <= 1e-8)
    c.finish()


def test_criterion_11_moderate_growth():
    c = _Criterion(11, "moderate growth and the AM/GM gap of the rates", 5.0)
    poly = moderate_growth_report(POLY, 3, 2000)
    c.check(f"mu=(n+1)^2 is moderate (uniform c = {poly.uniform_c:.3f}), no witness",
            poly.moderate and poly.witness is None)
    geo = moderate_growth_report(GEO, 2, 1000)
    c.check(f"mu=2^n is not moderate, witness (q, n) = {geo.witness}",
            not geo.moderate and geo.witness is not None)
    # n |1 - mu_{n+q}/mu_n| <= c_q bounds the gap by (c_q / n)^2
    worst = max(am_gm_gap(POLY.mu(n), POLY.mu(n + q)) * (n / c_q) ** 2
                for q, c_q in poly.c_of_q.items() for n in range(1, 2001))
    c.check(f"am_gm_gap(mu_n, mu_(n+q)) <= (c_q/n)^2 for q <= 3, n <= 2000 "
            f"(worst ratio {worst:.3f})", worst <= 1.0)
    c.finish()


def test_criterion_12_no_new_pure_states():
    c = _Criterion(12, "leading resolvent column: no new pure states", 5.0)
    rng = np.random.default_rng(112)
    random = leading_column_report(POLY, 1.0, random_operator(20, rng))
    c.check(f"random rho: column {random.column}, deviation "
            f"{random.max_deviation:.1e} <= 1e-12", random.max_deviation <= 1e-12)
    unit = leading_column_report(POLY, 1.0, matrix_unit(4, 4, 10))
    c.check(f"|4><4|: column {unit.column}, deviation {unit.max_deviation:.1e} <= 1e-12",
            unit.column == 4 and unit.max_deviation <= 1e-12)
    c.finish()
