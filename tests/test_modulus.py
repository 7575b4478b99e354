"""Modulus machinery: the piecewise modulus, bound functionals against
mpmath oracles, B selection, inequality verification, empirical checking."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqglab import errors
from sqglab.dynamics import EvolutionState, FULL, StepperConfig, evolve, make_steady
from sqglab.modulus import (
    TORUS_DIAMETER,
    ChooseBResult,
    F_B,
    M_B,
    M_B_with_error,
    ModulusParams,
    Omega_B,
    Omega_B_with_error,
    choose_B,
    default_xi_grid,
    empirical_modulus,
    omega,
    omega_B,
    omega_B_prime,
    verify_inequality,
)
from sqglab.spectral import (
    GridSpec,
    SpectralField,
    from_values,
    meshgrid,
    norm_linf,
    norm_linf_grad,
)

DEFAULTS = ModulusParams(delta_mod=1e-2, gamma_mod=1e-2, B=75.0, A=1.0)


def mp_omega_B(params, xi):
    s = mp.mpf(params.B) * mp.mpf(xi)
    de = mp.mpf(params.delta_mod)
    if s <= de:
        return s - s ** mp.mpf(1.5)
    return de - de ** mp.mpf(1.5) + params.gamma_mod * mp.log(1 + mp.log(s / de) / 4)


# -- modulus shape -------------------------------------------------------------


def test_omega_first_branch_endpoint():
    de = DEFAULTS.delta_mod
    assert omega(DEFAULTS, de) == de - de**1.5


def test_omega_continuity_at_seam_exact():
    # the log term vanishes at s = delta, so both branches agree exactly
    p = DEFAULTS
    s = p.delta_mod
    left = s - s**1.5
    right = p.delta_mod - p.delta_mod**1.5 + p.gamma_mod * np.log1p(0.25 * np.log(1.0))
    assert left == right == omega(p, s)


def test_omega_B_slope_at_origin():
    p = DEFAULTS
    xi = 1e-12
    assert abs(omega_B(p, xi) / xi - p.B) < 1e-4 * p.B
    assert abs(omega_B_prime(p, 0.0) - p.B) < 1e-15 * p.B


@settings(max_examples=40, deadline=None)
@given(
    de=st.floats(min_value=1e-4, max_value=0.4),
    frac=st.floats(min_value=0.05, max_value=0.99),
    B=st.floats(min_value=1e-3, max_value=1e6),
)
def test_omega_seam_continuity_property(de, frac, B):
    p = ModulusParams(delta_mod=de, gamma_mod=frac * de, B=B)
    seam = p.seam
    eps = seam * 1e-9
    assert abs(omega_B(p, seam - eps) - omega_B(p, seam + eps)) < 1e-7 * max(
        omega_B(p, seam), 1e-12
    )


def test_omega_B_increasing_concave_on_grid():
    # admissible small parameters: monotone and concave out to 10 d
    p = ModulusParams(delta_mod=1e-2, gamma_mod=1e-2, B=75.0)
    xi = np.geomspace(1e-8, 10 * TORUS_DIAMETER, 4000)
    vals = omega_B(p, xi)
    assert np.all(np.diff(vals) > 0)
    # concavity: slopes of consecutive chords decrease
    slopes = np.diff(vals) / np.diff(xi)
    assert np.all(np.diff(slopes) < 1e-12)


def test_omega_B_derivatives_match_finite_differences():
    p = ModulusParams(delta_mod=1e-2, gamma_mod=5e-3, B=3.0)
    for xi in (1e-4, 2e-3, 0.1, 1.0):  # away from the seam at 3.3e-3
        h = xi * 1e-6
        fd1 = (omega_B(p, xi + h) - omega_B(p, xi - h)) / (2 * h)
        assert abs(fd1 - omega_B_prime(p, xi)) < 1e-5 * abs(fd1)


# -- advection bound -----------------------------------------------------------


def test_Omega_B_against_symbolic_and_mpmath_oracle():
    # below the seam the first integral has the antiderivative
    # B xi - (2/3) (B xi)^{3/2}; the tail is checked with mpmath quadrature
    p = ModulusParams(delta_mod=1e-2, gamma_mod=1e-2, B=2.0, A=1.0)
    mp.mp.dps = 30
    for xi in (1e-4, 1e-3, 4e-3):
        assert xi < p.seam
        j1_sym = p.B * xi - (2.0 / 3.0) * (p.B * xi) ** 1.5
        j2_mp = mp.quad(
            lambda e: mp_omega_B(p, e) / e**2, [xi, p.seam, 1.0, mp.inf]
        )
        expect = p.A * (j1_sym + xi * float(j2_mp))
        got, err = Omega_B_with_error(p, xi)
        assert abs(got - expect) < 5e-9 * expect


def test_Omega_B_monotone_and_linear_in_A():
    p = DEFAULTS
    xi = np.geomspace(1e-4, p.d, 24)
    vals = np.array([Omega_B(p, x) for x in xi])
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) > 0)
    p2 = ModulusParams(p.delta_mod, p.gamma_mod, p.B, A=2.0)
    assert abs(Omega_B(p2, 0.1) - 2.0 * Omega_B(p, 0.1)) < 1e-12 * Omega_B(p2, 0.1)


# -- dissipation bound ---------------------------------------------------------


def mp_omega_B_second(p, xi):
    s = mp.mpf(p.B) * mp.mpf(xi)
    de = mp.mpf(p.delta_mod)
    if s <= de:
        val = -mp.mpf(0.75) / mp.sqrt(s)
    else:
        u = 1 + mp.log(s / de) / 4
        val = -mp.mpf(p.gamma_mod) * (4 * u + 1) / (16 * s**2 * u**2)
    return mp.mpf(p.B) ** 2 * val


def mp_M_B(p, xi):
    mp.mp.dps = 50
    xi = mp.mpf(xi)
    seam = mp.mpf(p.seam)
    obxi = mp_omega_B(p, xi)

    def f1(eta):
        return (mp_omega_B(p, xi + 2 * eta) + mp_omega_B(p, xi - 2 * eta) - 2 * obxi) / eta**2

    def f2(eta):
        return (mp_omega_B(p, 2 * eta + xi) - mp_omega_B(p, 2 * eta - xi) - 2 * obxi) / eta**2

    h = mp.mpf("1e-10") * xi
    pts1 = [h]
    for c in ((xi - seam) / 2, (seam - xi) / 2):
        if h < c < xi / 2:
            pts1.append(c)
    i1 = mp_omega_B_second(p, xi) * 4 * h + mp.quad(f1, sorted(pts1) + [xi / 2])
    pts2 = [xi / 2]
    for c in ((seam + xi) / 2, (seam - xi) / 2):
        if c > xi / 2:
            pts2.append(c)
    i2 = mp.quad(f2, sorted(pts2) + [10 * xi + 10 * seam + 10, mp.inf])
    return float((i1 + i2) / mp.pi)


@pytest.mark.parametrize("xi_factor", [0.3, 3.0, 300.0])
def test_M_B_against_mpmath_oracle(xi_factor):
    p = ModulusParams(delta_mod=1e-2, gamma_mod=1e-2, B=2.0)
    xi = xi_factor * p.seam
    got, err = M_B_with_error(p, xi)
    ref = mp_M_B(p, xi)
    assert abs(got - ref) < max(5e-8 * abs(ref), 2 * err + 1e-12)


def test_M_B_negative_on_log_grid():
    p = DEFAULTS
    for xi in np.geomspace(1e-4 * p.d, p.d, 48):
        assert M_B(p, xi) < 0.0


def test_M_B_long_range_dominates_omega_over_xi():
    # far beyond the seam: M_B(xi) <= -(1/pi) omega_B(xi)/xi
    p = DEFAULTS
    for xi in (0.1 * p.d, 0.5 * p.d, p.d):
        assert xi > 10 * p.seam
        assert M_B(p, xi) <= -(1.0 / math.pi) * omega_B(p, xi) / xi


def test_M_B_small_xi_curvature_regime():
    # below the seam the second-difference kernel sees the -3/(4 sqrt(s))
    # curvature: M_B is controlled by (xi/pi) omega_B''(xi) up to a moderate factor
    p = ModulusParams(delta_mod=1e-2, gamma_mod=1e-2, B=1.0)
    for xi in (1e-5, 1e-4, 1e-3):
        got = M_B(p, xi)
        curv_term = (xi / math.pi) * float(mp_omega_B_second(p, xi))
        assert curv_term < 0
        assert got < 0.5 * curv_term  # at least half the curvature contribution
        assert got > 30.0 * curv_term  # same order of magnitude


def test_M_B_seam_corner_is_minus_infinity():
    p = DEFAULTS
    val, err = M_B_with_error(p, p.seam)
    assert val == -np.inf and err == 0.0


# -- force bound ---------------------------------------------------------------


def test_F_B_values():
    p = ModulusParams(delta_mod=1e-2, gamma_mod=1e-2, B=2.0)
    seam = p.seam
    assert F_B(p, seam / 2, 1.0, 3.0) == pytest.approx(3.0 * seam / 2)
    assert F_B(p, p.d, 1.0, 3.0) == 2.0
    assert F_B(p, 0.7 * p.d, 0.0, 0.0) == 0.0


@settings(max_examples=30, deadline=None)
@given(
    xi=st.floats(min_value=1e-6, max_value=TORUS_DIAMETER),
    fl=st.floats(min_value=0.0, max_value=10.0),
    fg=st.floats(min_value=0.0, max_value=10.0),
)
def test_F_B_piecewise_property(xi, fl, fg):
    p = ModulusParams(delta_mod=1e-2, gamma_mod=1e-2, B=2.0)
    got = F_B(p, xi, fl, fg)
    assert got == (xi * fg if xi <= p.seam else 2.0 * fl)


# -- B selection -----------------------------------------------------------------


@pytest.fixture(scope="module")
def small_steady():
    """Steady shear scaled so the force fits the log-log modulus budget."""
    g = GridSpec(64)
    _, x2 = meshgrid(g)
    ss = make_steady(from_values(g, -2e-4 * np.cos(x2)))
    return g, ss


def steady_norms(ss):
    th = (norm_linf(ss.theta0), norm_linf_grad(ss.theta0))
    f = (norm_linf(ss.f), norm_linf_grad(ss.f))
    return th, f


def assert_grid_minimal(res, th, f, base, theta0=None):
    """B is the largest per-condition grid minimum, and one grid step below it
    some selection condition fails (unless the grid ends there)."""
    assert res.B == max(res.minima.values())
    b = res.B / 1.25
    if b < 1e-6:
        return
    C = base.C_big
    meets_all = (
        b >= C * th[1] * math.exp(math.exp(C * th[0]))
        and base.A * b * b >= f[1]
        and omega(base, b * base.d) / base.d >= 4 * math.pi * f[0]
        and (theta0 is None or empirical_modulus(theta0, base.with_B(b)) < 0.95)
    )
    assert not meets_all


def test_choose_B_feasible_small_problem(small_steady):
    _, ss = small_steady
    th, f = steady_norms(ss)
    base = ModulusParams(delta_mod=1e-2, gamma_mod=1e-2, B=1.0, A=1.0, C_big=10.0)
    res = choose_B(th, f, base, theta0=ss.theta0)
    assert res.feasible
    B = res.B
    # every condition re-verified on the output
    assert base.A * B**2 >= f[1]
    assert omega(base, B * base.d) / base.d >= 4 * math.pi * f[0]
    assert B >= res.minima["double_exponential"]
    assert empirical_modulus(ss.theta0, base.with_B(B)) < 1.0
    assert_grid_minimal(res, th, f, base, ss.theta0)


def test_choose_B_zero_force_shear():
    # f = 0: force conditions vacuous, B driven by the double-exponential
    # bound and the strict modulus of theta0 (oscillation must fit omega_B)
    g = GridSpec(64)
    _, x2 = meshgrid(g)
    theta0 = from_values(g, -0.02 * np.cos(x2))
    base = ModulusParams(delta_mod=1e-2, gamma_mod=1e-2, B=1.0, A=1.0, C_big=1.0)
    res = choose_B((0.02, 0.02), (0.0, 0.0), base, theta0=theta0)
    assert res.feasible
    assert empirical_modulus(theta0, base.with_B(res.B)) < 1.0
    assert res.B >= res.minima["double_exponential"] > 0
    assert_grid_minimal(res, (0.02, 0.02), (0.0, 0.0), base, theta0)


def test_choose_B_monotone_in_force(small_steady):
    # force level feasibility saturates near ||f|| ~ 5e-4 at these (delta,
    # gamma): doubling from 2e-4 stays representable but drives B far up
    _, ss = small_steady
    th, f = steady_norms(ss)
    base = ModulusParams(delta_mod=1e-2, gamma_mod=1e-2, B=1.0)
    r1 = choose_B(th, f, base)
    r2 = choose_B(th, (2 * f[0], 2 * f[1]), base)
    assert r1.feasible and r2.feasible
    assert r2.B >= r1.B
    assert_grid_minimal(r1, th, f, base)
    assert_grid_minimal(r2, th, (2 * f[0], 2 * f[1]), base)


def test_choose_B_infeasible_for_order_one_force(small_steady):
    _, ss = small_steady
    th, _ = steady_norms(ss)
    base = ModulusParams(delta_mod=1e-2, gamma_mod=1e-2, B=1.0)
    res = choose_B(th, (1.0, 1.0), base)
    assert not res.feasible
    assert res.minima["force_level"] == math.inf


# -- inequality verification ------------------------------------------------------


@pytest.fixture(scope="module")
def verified(small_steady):
    _, ss = small_steady
    th, f = steady_norms(ss)
    base = ModulusParams(delta_mod=1e-2, gamma_mod=1e-2, B=1.0, A=1.0)
    res = choose_B(th, f, base, theta0=ss.theta0)
    assert res.feasible
    assert_grid_minimal(res, th, f, base, ss.theta0)
    params = base.with_B(res.B)
    report = verify_inequality(params, f)
    return params, f, report


def test_verify_inequality_default_passes(verified):
    params, f, report = verified
    assert report.passed
    assert report.max_lhs < 0
    assert report.max_lhs + report.quadrature_error < 0
    assert report.long_range_coefficient < 0
    assert report.xi_grid.size >= 200
    assert np.any(report.xi_grid == params.seam)


def test_verify_inequality_gamma_coefficient():
    # A gamma + 1/(2 pi) - 1/pi: gamma = 0.1 passes, gamma = 0.2 fails at A = 1
    ok = ModulusParams(delta_mod=0.25, gamma_mod=0.1, B=10.0, A=1.0)
    bad = ModulusParams(delta_mod=0.25, gamma_mod=0.2, B=10.0, A=1.0)
    grid = np.array([ok.d])
    assert verify_inequality(ok, (0.0, 0.0), grid).long_range_coefficient < 0
    assert verify_inequality(bad, (0.0, 0.0), grid).long_range_coefficient > 0


def test_verify_inequality_flips_without_force_condition(verified):
    # a force far above the level condition overwhelms the dissipation margin
    params, _, _ = verified
    report = verify_inequality(params, (1.0, 1.0))
    assert not report.passed
    assert report.max_lhs > 0


def test_verify_inequality_quadrature_self_convergence(verified):
    params, f, _ = verified
    grid = np.geomspace(1e-4 * params.d, params.d, 40)
    r1 = verify_inequality(params, f, grid, quad_opts=dict(epsabs=1e-11, epsrel=1e-11, limit=400))
    r2 = verify_inequality(params, f, grid, quad_opts=dict(epsabs=5e-12, epsrel=5e-12, limit=400))
    assert np.max(np.abs(r1.lhs - r2.lhs)) < 1e-8


def test_verify_inequality_rejects_bad_grid():
    with pytest.raises(errors.DomainError):
        verify_inequality(DEFAULTS, (0.0, 0.0), np.array([0.0, 1.0]))
    with pytest.raises(errors.DomainError):
        verify_inequality(DEFAULTS, (0.0, 0.0), np.array([2 * TORUS_DIAMETER]))


# -- empirical modulus -------------------------------------------------------------


def test_empirical_modulus_zero_field():
    g = GridSpec(32)
    theta = from_values(g, np.zeros((32, 32)))
    assert empirical_modulus(theta, DEFAULTS) == 0.0


def test_empirical_modulus_unit_slope_short_range():
    # theta = -cos(x2) has gradient 1; with slope B = 2 the nearest-cell
    # ratios stay below one while B*xi is small (first-branch regime)
    g = GridSpec(64)
    _, x2 = meshgrid(g)
    theta = from_values(g, -np.cos(x2))
    p = ModulusParams(delta_mod=0.9, gamma_mod=0.1, B=2.0)
    got = empirical_modulus(theta, p, n_random_pairs=0, max_offset=1)
    assert 0.0 < got < 1.0


def test_empirical_modulus_detects_violation():
    # same field, but a slope below the gradient: ratio must exceed one
    g = GridSpec(64)
    _, x2 = meshgrid(g)
    theta = from_values(g, -np.cos(x2))
    p = ModulusParams(delta_mod=0.9, gamma_mod=0.1, B=0.5)
    assert empirical_modulus(theta, p, n_random_pairs=0, max_offset=1) > 1.0


def test_empirical_modulus_refinement_stability(small_steady):
    # band-limited field: the reported maximum stabilizes under n -> 2n
    base = ModulusParams(delta_mod=1e-2, gamma_mod=1e-2, B=75.0)
    vals = []
    for n in (64, 128):
        g = GridSpec(n)
        _, x2 = meshgrid(g)
        theta = from_values(g, -2e-4 * np.cos(x2))
        vals.append(empirical_modulus(theta, base, n_random_pairs=400_000, seed=7))
    assert abs(vals[0] - vals[1]) < 0.01 * vals[1]


def test_trajectory_modulus_preserved_on_feasible_run(small_steady):
    # full-dynamics run at the modulus-feasible scale: the ratio stays < 1
    # at every recorded time with the selected B
    g, ss = small_steady
    th, f = steady_norms(ss)
    base = ModulusParams(delta_mod=1e-2, gamma_mod=1e-2, B=1.0)
    x1, _ = meshgrid(g)
    bump = from_values(g, 5e-5 * np.sin(x1))
    theta_init = SpectralField(g, ss.theta0.coeffs + bump.coeffs)
    th_init = (norm_linf(theta_init), norm_linf_grad(theta_init))
    res = choose_B(th_init, f, base, theta0=theta_init)
    assert res.feasible
    assert_grid_minimal(res, th_init, f, base, theta_init)
    params = base.with_B(res.B)
    ratios = []
    state = EvolutionState(theta_init, 0.0, ss, FULL)
    out = evolve(
        state,
        2.0,
        StepperConfig(cfl=0.4, dt_max=0.02),
        observer=None,
        observe_every=0.25,
    )
    # re-check the modulus on the recorded fields by re-running with a field hook
    from sqglab.dynamics import step

    cur = state
    ratios.append(empirical_modulus(cur.theta, params, n_random_pairs=20_000))
    for _ in range(8):
        for _ in range(10):
            cur = step(cur, 0.025, StepperConfig(cfl=0.9, dt_max=0.025))
        ratios.append(empirical_modulus(cur.theta, params, n_random_pairs=20_000))
    assert all(r < 1.0 for r in ratios)
