"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a PASS line (visible with ``pytest -s`` or in captured output).
Shared threshold grids are computed once per session.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import betainc, ndtr

from spheretail import (
    Chi,
    ChiSquare,
    FDist,
    cli,
    d_k_asymptotic,
    d_k_quadrature,
    delta_bar,
    delta_exact,
    delta_rv_limit,
    log_delta_asymptotic,
    marginal_tail,
    p_exact,
    p_tube,
    simulate_pmax,
)

GAUSS_GRID = np.arange(2.0, 6.01, 0.5)
BESSEL_GRID = np.arange(2.0, 12.01, 1.0)
LOGNORMAL_GRID = np.array([2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
T_GRID = np.array([4.0, 6.0, 8.0, 10.0])

MC_SEED = 2


def student_t_tail(x, nu):
    return 0.5 * betainc(nu / 2.0, 0.5, nu / (nu + x * x))


@pytest.fixture(scope="module")
def gauss_deltas(benchmark_config, gauss_law):
    return np.array([delta_exact(benchmark_config, gauss_law, c) for c in GAUSS_GRID])


@pytest.fixture(scope="module")
def bessel_deltas(benchmark_config, bessel_law):
    return np.array([delta_exact(benchmark_config, bessel_law, c) for c in BESSEL_GRID])


@pytest.fixture(scope="module")
def lognormal_deltas(benchmark_config, lognormal_law):
    return np.array(
        [delta_exact(benchmark_config, lognormal_law, c) for c in LOGNORMAL_GRID]
    )


def test_criterion_01_benchmark_geometry(benchmark_config):
    expected = math.acos(math.sqrt(5.0 / 8.0))
    assert abs(benchmark_config.theta_star - expected) <= 1e-12
    assert benchmark_config.multiplicity == 6
    print(
        f"ACCEPTANCE 01 PASS: critical radius {benchmark_config.theta_star:.12f}"
        f" = arccos(sqrt(5/8)) to 1e-12, multiplicity 6"
    )


def test_criterion_02_rv_limit_and_bounds(benchmark_config, t_law):
    limit = delta_rv_limit(benchmark_config, 1.5)
    gaps = [abs(delta_exact(benchmark_config, t_law, c) - limit) for c in T_GRID]
    assert all(a > b for a, b in zip(gaps, gaps[1:])), "gap not monotone decreasing"
    assert gaps[-1] < 0.02
    bound = delta_bar(benchmark_config, 1.5)
    assert bound == 0.390625
    for c in T_GRID:
        tube = p_tube(benchmark_config, t_law, c)
        exact = p_exact(benchmark_config, t_law, c)
        assert (1.0 - bound) * tube < exact < tube
    print(
        f"ACCEPTANCE 02 PASS: |delta - limit| = {gaps[-1]:.5f} < 0.02 at c = 10,"
        f" monotone over {list(T_GRID)}, bound exactly 0.390625, sandwich holds"
    )


def test_criterion_03_simulation_agreement(benchmark_config, t_law):
    start = time.monotonic()
    grid = np.arange(1.0, 8.01, 1.0)
    exact = np.array([p_exact(benchmark_config, t_law, c) for c in grid])

    sim_small = simulate_pmax(benchmark_config, t_law, grid, 10**4, seed=MC_SEED)
    assert np.all(np.abs(sim_small.estimates - exact) <= 3.0 * sim_small.standard_errors)

    sim_large = simulate_pmax(benchmark_config, t_law, grid, 10**6, seed=MC_SEED)
    assert np.all(np.abs(sim_large.estimates - exact) <= 3.0 * sim_large.standard_errors)
    strong = exact >= 1e-4
    rel_dev = np.abs(sim_large.estimates - exact)[strong] / exact[strong]
    assert np.all(rel_dev < 0.05)

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 03 PASS: 1e4 and 1e6 trials within 3 SE on c in 1..8,"
        f" max relative deviation {rel_dev.max():.4f} < 0.05, in {elapsed:.1f}s"
    )


def test_criterion_04_tail_valid_residual_trends(
    benchmark_config, gauss_law, bessel_law, lognormal_law,
    gauss_deltas, bessel_deltas, lognormal_deltas,
):
    cases = [
        ("gauss", gauss_law, GAUSS_GRID, gauss_deltas),
        ("bessel", bessel_law, BESSEL_GRID, bessel_deltas),
        ("lognormal", lognormal_law, LOGNORMAL_GRID, lognormal_deltas),
    ]
    for name, law, grid, deltas in cases:
        predicted = np.array(
            [log_delta_asymptotic(benchmark_config, law, c) for c in grid]
        )
        residual = np.abs(np.log(deltas) - predicted)
        assert np.all(np.diff(residual) < 0.0), f"{name} residual not monotone"
    assert gauss_deltas[-1] < 1e-2
    print(
        "ACCEPTANCE 04 PASS: |log delta - prediction| strictly decreasing for"
        f" gauss/bessel/lognormal; gauss delta at c = {GAUSS_GRID[-1]} is"
        f" {gauss_deltas[-1]:.2e} < 1e-2"
    )


def test_criterion_05_slope_checks(benchmark_config, gauss_deltas, bessel_deltas):
    top = GAUSS_GRID >= GAUSS_GRID[len(GAUSS_GRID) // 2]
    slope = np.polyfit(GAUSS_GRID[top] ** 2, np.log(gauss_deltas[top]), 1)[0]
    target = -0.5 * benchmark_config.tan_theta_star**2
    assert target == pytest.approx(-0.3, rel=1e-12)
    assert abs(slope - target) <= 0.15 * abs(target)

    c_adj = 2.0 * BESSEL_GRID  # scale 1/4 rescales thresholds by 2
    top_b = BESSEL_GRID >= BESSEL_GRID[len(BESSEL_GRID) // 2]
    slope_b = np.polyfit(c_adj[top_b], np.log(bessel_deltas[top_b]), 1)[0]
    target_b = -(1.0 / math.cos(benchmark_config.theta_star) - 1.0)
    assert abs(slope_b - target_b) <= 0.15 * abs(target_b)
    print(
        f"ACCEPTANCE 05 PASS: gauss slope {slope:.4f} vs -0.3"
        f" ({abs(slope - target) / abs(target):.1%} off),"
        f" bessel slope {slope_b:.4f} vs {target_b:.4f}"
        f" ({abs(slope_b - target_b) / abs(target_b):.1%} off); both within 15%"
    )


def test_criterion_06_mixture_ratio_branches(benchmark_config, gauss_law, t_law):
    theta = benchmark_config.theta_star
    worst = 0.0
    for k in (1, 2):
        for th in (0.0, theta):
            ratio = d_k_quadrature(gauss_law, 3, k, th, 10.0) / d_k_asymptotic(
                gauss_law, 3, k, th, 10.0
            )
            worst = max(worst, abs(ratio - 1.0))
            assert 0.95 <= ratio <= 1.05, f"chi-square branch k={k} theta={th}"
    rv_ratio = d_k_quadrature(t_law, 3, 1, theta, 100.0) / d_k_asymptotic(
        t_law, 3, 1, theta, 100.0
    )
    assert 0.95 <= rv_ratio <= 1.05
    print(
        f"ACCEPTANCE 06 PASS: chi-square branch ratios within {worst:.3f} of 1 at"
        f" c = 10 (k in {{1,2}}, theta in {{0, theta*}}); RV branch ratio"
        f" {rv_ratio:.4f} at c = 100"
    )


def test_criterion_07_class_membership(t_law, lognormal_law, bessel_law):
    # regular variation with index 3/2
    for lam in (2.0, 5.0, 10.0):
        residuals = [
            abs(t_law.tail(lam * x) / t_law.tail(x) - lam**-1.5)
            for x in (1e2, 1e3, 1e4)
        ]
        assert residuals[0] > residuals[1] > residuals[2]
        assert residuals[-1] < 1e-3
    # long tails
    for law in (lognormal_law, bessel_law, t_law):
        gaps = [abs(law.tail(x - 1.0) / law.tail(x) - 1.0) for x in (1e2, 1e3, 1e4)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < 0.01
    # light tails classified with beta <= 0
    assert ChiSquare(3.0).class_descriptor().beta <= 0.0
    assert Chi(5.0).class_descriptor().beta <= 0.0
    assert not ChiSquare(3.0).class_descriptor().regularly_varying
    print(
        "ACCEPTANCE 07 PASS: regular-variation ratios converge for F(3,3);"
        " long-tail holds for lognormal/bessel/F; chi-square and chi have"
        " beta <= 0"
    )


def test_criterion_08_marginal_identities(gauss_law, t_law):
    grid = np.arange(0.0, 6.01, 0.25)
    worst_gauss = max(
        abs(marginal_tail(gauss_law, 3, c) - (1.0 - ndtr(c))) for c in grid
    )
    assert worst_gauss <= 1e-8
    worst_t = max(
        abs(marginal_tail(t_law, 3, c) - student_t_tail(math.sqrt(3.0) * c, 3.0))
        for c in grid
    )
    assert worst_t <= 1e-6
    law23 = FDist(2.0, 3.0)
    worst_t2 = max(
        abs(marginal_tail(law23, 2, c) - student_t_tail(math.sqrt(2.0) * c, 3.0))
        for c in grid
    )
    assert worst_t2 <= 1e-6
    print(
        f"ACCEPTANCE 08 PASS: normal-tail identity to {worst_gauss:.1e} (<= 1e-8),"
        f" Student-t identities to {max(worst_t, worst_t2):.1e} (<= 1e-6) on c in [0, 6]"
    )


def test_criterion_09_tail_dependence(pair_config):
    from spheretail import tail_dependence

    start = time.monotonic()
    # tail-valid radial: zero coefficient
    assert tail_dependence(pair_config, ChiSquare(2.0)) == 0.0

    law = FDist(2.0, 3.0)
    lam = tail_dependence(pair_config, law)
    assert lam == pytest.approx(2.0 * delta_rv_limit(pair_config, 1.5), rel=1e-14)

    # conditional-exceedance Monte Carlo oracle, 1e7 samples
    from scipy.stats import t as t_dist

    points = pair_config.points
    total = 10**7
    chunk = 1 << 16
    t1 = np.empty(total)
    t2 = np.empty(total)
    done = 0
    index = 0
    while done < total:
        m = min(chunk, total - done)
        gen = np.random.Generator(
            np.random.Philox(key=np.array([20240817, index], dtype=np.uint64))
        )
        r_sq = law.sample(gen, m)
        z = gen.standard_normal((m, 2))
        eta = z / np.linalg.norm(z, axis=1, keepdims=True)
        t_vals = np.sqrt(r_sq)[:, None] * (eta @ points.T)
        t1[done : done + m] = t_vals[:, 0]
        t2[done : done + m] = t_vals[:, 1]
        done += m
        index += 1

    for level in (0.999, 0.9999):
        quantile = t_dist(3).isf(1.0 - level) / math.sqrt(2.0)
        conditioning = t2 >= quantile
        n_cond = int(conditioning.sum())
        lam_hat = float(np.mean(t1[conditioning] >= quantile))
        se = math.sqrt(lam_hat * (1.0 - lam_hat) / n_cond)
        assert abs(lam_hat - lam) <= 3.0 * se, f"level {level}"

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 09 PASS: gaussian pair tail-independent; bivariate-t"
        f" lambda_U = {lam:.6f} matches 1e7-sample conditional exceedance"
        f" within 3 SE at levels 0.999 and 0.9999, in {elapsed:.1f}s"
    )


def test_criterion_10_reproducibility(tmp_path):
    start = time.monotonic()
    for case in sorted(cli.REPRODUCE_CASES):
        first = tmp_path / f"{case}_1.csv"
        second = tmp_path / f"{case}_2.csv"
        assert cli.run(["reproduce", "--case", case, "--out", str(first)]) == 0
        assert cli.run(["reproduce", "--case", case, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), f"{case} not reproducible"
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(
        f"ACCEPTANCE 10 PASS: all four benchmark cases bit-identical across"
        f" reruns; golden suite in {elapsed:.1f}s (< 5 min)"
    )
