"""Steady states, nonlinearity, and the integrating-factor RK4 stepper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqglab import errors
from sqglab.dynamics import (
    FULL,
    PERTURBATION,
    EvolutionState,
    StepperConfig,
    advection,
    cfl_dt,
    evolve,
    make_steady,
    nonlinear_term,
    rhs,
    shear_steady_state,
    step,
)
from sqglab.spectral import (
    GridSpec,
    SpectralField,
    from_values,
    half,
    inner_l2,
    inverse,
    meshgrid,
    mirror,
    norm_l2,
    norm_linf,
    velocity_from_theta,
)


@pytest.fixture(scope="module")
def g64():
    return GridSpec(64)


def test_make_steady_shear(g64):
    # theta0 = -cos(m x2): advection vanishes, f = -m cos(m x2)
    for m in (1, 3):
        ss = shear_steady_state(g64, m=m, amplitude=1.0)
        _, x2 = meshgrid(g64)
        f_expect = -m * np.cos(m * x2)
        assert np.max(np.abs(inverse(ss.f).values - f_expect)) < 1e-12
        u1, u2 = ss.advection_base[:2]
        assert np.max(np.abs(u1 - np.sin(m * x2))) < 1e-12
        assert np.max(np.abs(u2)) < 1e-13
        assert ss.residual_linf() < 1e-10


def test_shear_steady_state_is_x1_invariant():
    # at n = 70 the 2-D FFT of cos(m x2) leaves rounding off k1 = 0; the
    # shear state drops it, so linop takes the k1-block spectrum
    g = GridSpec(70)
    for m in (1, 2, 3):
        ss = shear_steady_state(g, m=m, amplitude=10.0)
        assert not np.any(ss.theta0.coeffs[1:])
        assert ss.residual_linf() < 1e-10


def test_make_steady_zero(g64):
    ss = make_steady(from_values(g64, np.zeros((64, 64))))
    assert np.all(ss.f.coeffs == 0)


def test_make_steady_general_residual_on_finer_grid(g64):
    # independent check: rebuild the residual pointwise on a 2x finer grid
    x1, x2 = meshgrid(g64)
    ss = make_steady(from_values(g64, np.sin(x1) + np.cos(2 * x2)))
    assert ss.residual_linf() < 1e-10

    g2 = GridSpec(128)
    y1, y2 = meshgrid(g2)
    theta_f = np.sin(y1) + np.cos(2 * y2)
    # velocity of sin(x1) + cos(2 x2): R2 theta = cos(2 x2) -> u1? compute spectrally on g2
    from sqglab.spectral import derivative, lambda_pow

    tf = from_values(g2, theta_f)
    u1, u2 = velocity_from_theta(tf)
    adv = inverse(u1).values * inverse(derivative(tf, 1)).values + inverse(
        u2
    ).values * inverse(derivative(tf, 2)).values
    lam = inverse(lambda_pow(tf, 1.0)).values
    f_fine = adv + lam
    # compare with the coarse-grid f sampled on the fine grid (every other point)
    f_coarse = inverse(ss.f).values
    assert np.max(np.abs(f_fine[::2, ::2] - f_coarse)) < 1e-10


def test_make_steady_rejects_mean(g64):
    v = np.ones((64, 64))
    with pytest.raises(errors.DomainError):
        make_steady(SpectralField(g64, np.fft.fft2(v) / 64**2))


def test_make_steady_rejects_boundary_energy(g64):
    c = np.zeros((64, 64), dtype=complex)
    r = g64.dealias_radius
    c[r, 0] = 1.0
    c[-r, 0] = 1.0
    with pytest.raises(errors.ResolutionError):
        make_steady(SpectralField(g64, c))


def test_nonlinear_term_single_modes(g64):
    x1, x2 = meshgrid(g64)
    for v in (np.sin(x1), np.sin(x2)):
        out = nonlinear_term(from_values(g64, v))
        assert np.max(np.abs(out.coeffs)) < 1e-13


def test_nonlinear_term_orthogonality(g64):
    x1, x2 = meshgrid(g64)
    theta = from_values(g64, np.sin(x1) + np.sin(2 * x2))
    n = nonlinear_term(theta)
    rel = abs(inner_l2(n, theta)) / (norm_l2(n) * norm_l2(theta))
    assert rel < 1e-10
    assert n.mean_free


def test_rhs_steady_is_zero(g64):
    ss = shear_steady_state(g64, m=2, amplitude=1.5)
    state = EvolutionState(ss.theta0.copy(), 0.0, ss, FULL)
    r = rhs(state)
    assert np.max(np.abs(inverse(r).values)) < 1e-10


def test_rhs_single_mode_decay(g64):
    # f = 0, Theta = sin(x1): N vanishes, rhs = -sin(x1)
    zero = make_steady(from_values(g64, np.zeros((64, 64))))
    x1, _ = meshgrid(g64)
    state = EvolutionState(from_values(g64, np.sin(x1)), 0.0, zero, FULL)
    r = rhs(state)
    assert np.max(np.abs(inverse(r).values + np.sin(x1))) < 1e-12


def test_rhs_mode_consistency(g64):
    # evolving Theta = theta0 + theta in full mode matches Ltheta + N(theta)
    rng = np.random.default_rng(2)
    ss = shear_steady_state(g64, m=2, amplitude=1.0)
    c = np.zeros((64, 64), dtype=complex)
    for _ in range(8):
        k1, k2 = rng.integers(-5, 6, size=2)
        if (k1, k2) == (0, 0):
            continue
        amp = 0.01 * (rng.standard_normal() + 1j * rng.standard_normal())
        c[k1, k2] += amp
        c[-k1, -k2] += np.conj(amp)
    theta = SpectralField(g64, c)
    pert = rhs(EvolutionState(theta, 0.0, ss, PERTURBATION))
    full_theta = SpectralField(g64, ss.theta0.coeffs + c)
    full = rhs(EvolutionState(full_theta, 0.0, ss, FULL))
    # rhs(full) = rhs(steady) + [L theta + N(theta)] and rhs(steady) = 0
    diff = np.max(np.abs(full.coeffs - pert.coeffs))
    assert diff < 1e-10


def band_limited(grid, rng, kmax=6, amp=0.1):
    """Random real field on the modes 0 < max(|k1|, |k2|) <= kmax."""
    c = np.fft.fft2(rng.standard_normal((grid.n, grid.n))) / grid.n**2
    c *= (np.abs(grid.k1) <= kmax) & (np.abs(grid.k2) <= kmax)
    c[0, 0] = 0.0
    return amp * c


def test_advection_perturbation_is_linearized_plus_full(g64):
    ss = shear_steady_state(g64, m=2, amplitude=10.0)
    c = half(band_limited(g64, np.random.default_rng(5)))
    full = advection(c, g64)
    lin = advection(c, g64, ss.advection_base, 0.0)
    pert = advection(c, g64, ss.advection_base, 1.0)
    assert np.max(np.abs(pert - (lin + full))) < 1e-13 * np.max(np.abs(pert))


def test_advection_batched_matches_slices(g64):
    ss = shear_steady_state(g64, m=2, amplitude=10.0)
    rng = np.random.default_rng(6)
    stack = half(np.stack([band_limited(g64, rng) for _ in range(3)]))
    full = advection(stack, g64)
    for w in (0.0, 1.0):
        batched = advection(stack, g64, ss.advection_base, w)
        for i in range(len(stack)):
            scale = np.max(np.abs(batched[i]))
            single = advection(stack[i], g64, ss.advection_base, w)
            assert np.max(np.abs(batched[i] - single)) < 1e-14 * scale
            assert np.max(np.abs(full[i] - advection(stack[i], g64))) < 1e-14 * scale


def advection_reference(c, grid, base=None, nonlinear=1.0):
    """The advection term of full coefficients, with complex 2-D transforms."""
    n = grid.n
    u1, u2, d1, d2 = (
        (np.fft.ifft2(c * s) * n**2).real for s in grid.advection_symbols
    )
    if base is None:
        prod = u1 * d1 + u2 * d2
    else:
        q1, q2, t1, t2 = base
        prod = (q1 + nonlinear * u1) * d1 + (q2 + nonlinear * u2) * d2 + u1 * t1 + u2 * t2
    out = -np.fft.fft2(prod) / n**2 * grid.dealias_mask
    out[0, 0] = 0.0
    return out


@pytest.mark.parametrize("variant", ["full", "linearized", "perturbation"])
def test_half_spectrum_advection_matches_full_reference(g64, variant):
    ss = shear_steady_state(g64, m=2, amplitude=10.0)
    c = band_limited(g64, np.random.default_rng(9))
    base = [inverse(x).values for x in velocity_from_theta(ss.theta0)] + [
        inverse(SpectralField(g64, ss.theta0.coeffs * s)).values
        for s in g64.advection_symbols[2:]
    ]
    if variant == "full":
        got, ref = advection(half(c), g64), advection_reference(c, g64)
    else:
        a = 0.0 if variant == "linearized" else 1.0
        got = advection(half(c), g64, ss.advection_base, a)
        ref = advection_reference(c, g64, base, a)
    assert np.max(np.abs(mirror(got, 64) - ref)) < 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("mode", [FULL, PERTURBATION])
def test_evolve_makes_eight_ffts_per_step(g64, monkeypatch, mode):
    # stage 1 of RK4 supplies the CFL velocity: 4 stages x (inverse + forward)
    from sqglab import dynamics

    ss = shear_steady_state(g64, m=2, amplitude=1.0)
    ss.advection_base  # set-up of perturbation mode, made once per steady state
    theta = SpectralField(g64, band_limited(g64, np.random.default_rng(3)))
    state = EvolutionState(theta, 0.0, ss, mode)
    counts = {"fft": 0, "steps": 0}
    observing = [False]

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            if key != "fft" or not observing[0]:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def observed_norms(state):
        observing[0] = True
        try:
            return original_norms(state)
        finally:
            observing[0] = False

    original_norms = dynamics.observed_norms
    for name in ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name), "fft"))
    monkeypatch.setattr(dynamics, "if_rk4_step", counted(dynamics.if_rk4_step, "steps"))
    monkeypatch.setattr(dynamics, "observed_norms", observed_norms)
    evolve(state, 0.01, StepperConfig(cfl=0.4, dt_max=1e-3), observe_every=0.005)
    assert counts["steps"] == 10
    assert counts["fft"] == 8 * counts["steps"]


def test_cfl_dt_formula(g64):
    zero = make_steady(from_values(g64, np.zeros((64, 64))))
    cfg = StepperConfig(cfl=0.5, dt_max=0.1)
    state0 = EvolutionState(from_values(g64, np.zeros((64, 64))), 0.0, zero, FULL)
    assert cfl_dt(state0, cfg) == 0.1  # U = 0 -> dt_max

    _, x2 = meshgrid(g64)
    state1 = EvolutionState(from_values(g64, -np.cos(x2)), 0.0, zero, FULL)
    expect = 0.5 * (2 * np.pi / 64) / 1.0  # ||U||_inf = 1
    assert abs(cfl_dt(state1, cfg) - expect) < 1e-12 * expect

    g128 = GridSpec(128)
    _, y2 = meshgrid(g128)
    zero128 = make_steady(from_values(g128, np.zeros((128, 128))))
    state2 = EvolutionState(from_values(g128, -np.cos(y2)), 0.0, zero128, FULL)
    assert abs(cfl_dt(state2, cfg) - expect / 2) < 1e-12 * expect


def test_step_rejects_large_dt(g64):
    _, x2 = meshgrid(g64)
    zero = make_steady(from_values(g64, np.zeros((64, 64))))
    state = EvolutionState(from_values(g64, -np.cos(x2)), 0.0, zero, FULL)
    with pytest.raises(errors.DomainError):
        step(state, 1.0, StepperConfig(cfl=0.5, dt_max=0.01))


def test_single_mode_exact_decay(g64):
    # Theta(t) = exp(-t) sin(x1) is exact; integrating factor handles it to machine
    x1, _ = meshgrid(g64)
    zero = make_steady(from_values(g64, np.zeros((64, 64))))
    state = EvolutionState(from_values(g64, np.sin(x1)), 0.0, zero, FULL)
    res = evolve(state, 1.0, StepperConfig(cfl=0.9, dt_max=1e-3), observe_every=0.5)
    final = inverse(res.state.theta).values
    assert np.max(np.abs(final - np.exp(-1.0) * np.sin(x1))) < 1e-8


def test_steady_state_is_fixed_point(g64):
    ss = shear_steady_state(g64, m=2, amplitude=1.0)
    state = EvolutionState(ss.theta0.copy(), 0.0, ss, FULL)
    res = evolve(state, 5.0, StepperConfig(cfl=0.4, dt_max=5e-3), observe_every=1.0)
    drift = norm_l2(
        SpectralField(g64, res.state.theta.coeffs - ss.theta0.coeffs)
    )
    assert drift < 1e-8


def test_unforced_energy_decay_and_balance(g64):
    rng = np.random.default_rng(4)
    zero = make_steady(from_values(g64, np.zeros((64, 64))))
    c = np.zeros((64, 64), dtype=complex)
    for k1 in range(-4, 5):
        for k2 in range(-4, 5):
            if (k1, k2) == (0, 0):
                continue
            c[k1, k2] = rng.standard_normal() + 1j * rng.standard_normal()
    c = 0.1 * (c + np.conj(np.roll(c[::-1, ::-1], (1, 1), axis=(0, 1))))
    state = EvolutionState(SpectralField(g64, c), 0.0, zero, FULL)
    res = evolve(state, 0.5, StepperConfig(cfl=0.4, dt_max=1e-3), observe_every=0.01)
    l2 = res.series["l2"]
    assert np.all(np.diff(l2) < 0)  # strictly decaying without forcing
    # d/dt ||Theta||^2 = flux, checked by centered differences on the records
    t = res.series["t"]
    flux = res.series["energy_flux"]
    dE = (l2[2:] ** 2 - l2[:-2] ** 2) / (t[2:] - t[:-2])
    mid = flux[1:-1]
    assert np.max(np.abs(dE - mid)) < 0.01 * np.max(np.abs(mid))


def test_energy_balance_over_each_step(g64):
    # |Delta(||Theta||^2) + 2 int ||Lam^{1/2}||^2 - 2 int (f,Theta)| < 1e-6 rel per step
    ss = shear_steady_state(g64, m=1, amplitude=0.5)
    x1, _ = meshgrid(g64)
    theta = SpectralField(
        g64, ss.theta0.coeffs + from_values(g64, 0.2 * np.sin(x1)).coeffs
    )
    state = EvolutionState(theta, 0.0, ss, FULL)
    dt = 1e-3
    cfg = StepperConfig(cfl=0.9, dt_max=dt)
    from sqglab.dynamics import observed_norms

    for _ in range(5):
        n0 = observed_norms(state)
        state = step(state, dt, cfg)
        n1 = observed_norms(state)
        lhs = n1["l2"] ** 2 - n0["l2"] ** 2 - dt * 0.5 * (
            n0["energy_flux"] + n1["energy_flux"]
        )
        assert abs(lhs) < 1e-6 * n1["l2"] ** 2


def test_unforced_linf_maximum_principle(g64):
    x1, x2 = meshgrid(g64)
    zero = make_steady(from_values(g64, np.zeros((64, 64))))
    theta = from_values(g64, np.sin(x1) + 0.7 * np.cos(2 * x2) + 0.3 * np.sin(x2 + x1))
    state = EvolutionState(theta, 0.0, zero, FULL)
    res = evolve(state, 1.0, StepperConfig(cfl=0.4, dt_max=2e-3), observe_every=0.05)
    linf = res.series["linf"]
    t = res.series["t"]
    slack = 1e-6 * np.diff(t)
    assert np.all(np.diff(linf) <= slack)


def test_mean_stays_zero(g64):
    ss = shear_steady_state(g64, m=2, amplitude=1.0)
    x1, _ = meshgrid(g64)
    theta = SpectralField(
        g64, ss.theta0.coeffs + from_values(g64, 0.5 * np.sin(x1)).coeffs
    )
    state = EvolutionState(theta, 0.0, ss, FULL)
    res = evolve(state, 0.3, StepperConfig(dt_max=5e-3), observe_every=0.05)
    assert res.state.theta.coeffs[0, 0] == 0.0


def test_grid_refinement_consistency():
    # band-limited data: L2 series at n=64 and n=128 agree to spectral accuracy
    records = {}
    for n in (64, 128):
        g = GridSpec(n)
        x1, x2 = meshgrid(g)
        ss = make_steady(from_values(g, -0.5 * np.cos(2 * x2)))
        theta = SpectralField(
            g, ss.theta0.coeffs * 0 + from_values(g, 0.2 * np.sin(x1) + 0.1 * np.cos(x2 + x1)).coeffs
        )
        state = EvolutionState(theta, 0.0, ss, PERTURBATION)
        res = evolve(state, 0.5, StepperConfig(cfl=0.9, dt_max=1e-3), observe_every=0.1)
        records[n] = res.series["l2"]
    assert np.max(np.abs(records[64] - records[128])) < 1e-6


def test_blow_up_guard_fires_on_nan(g64):
    zero = make_steady(from_values(g64, np.zeros((64, 64))))
    c = np.zeros((64, 64), dtype=complex)
    c[1, 0] = np.inf
    c[-1, 0] = np.inf
    state = EvolutionState(SpectralField(g64, c), 0.0, zero, FULL)
    with pytest.raises(errors.BlowUpError):
        evolve(state, 0.1, StepperConfig(dt_max=1e-3), observe_every=0.01)


@settings(max_examples=20, deadline=None)
@given(
    umax=st.floats(min_value=0.1, max_value=50.0),
    cfl=st.floats(min_value=0.05, max_value=1.0),
)
def test_cfl_formula_property(umax, cfl):
    g = GridSpec(16)
    _, x2 = meshgrid(g)
    zero = make_steady(from_values(g, np.zeros((16, 16))))
    state = EvolutionState(from_values(g, -umax * np.cos(x2)), 0.0, zero, FULL)
    cfg = StepperConfig(cfl=cfl, dt_max=1e9)
    got = cfl_dt(state, cfg)
    assert abs(got - cfl * g.dx / umax) < 1e-9 * got
