"""Instability experiments: growth-rate fitting, escape times, sweep law."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqglab import errors
from sqglab.dynamics import (
    PERTURBATION,
    EvolutionState,
    StepperConfig,
    evolve,
    shear_steady_state,
)
from sqglab.growth import (
    ExperimentConfig,
    GrowthRecord,
    epsilon_sweep,
    escape_time,
    fit_growth_rate,
    real_eigenfunction,
    run_perturbation,
)
from sqglab.linop import LinearOperator, rightmost_eigenpair
from sqglab.spectral import GridSpec, SpectralField, norm_l2, real_imag_halves


def synthetic_record(t, l2):
    # the fits and escape_time read only the t and l2 columns
    series = {"t": np.asarray(t, dtype=float), "l2": np.asarray(l2, dtype=float)}
    return GrowthRecord(epsilon=1.0, series=series)


@pytest.fixture(scope="module")
def lab():
    g = GridSpec(48)
    ss = shear_steady_state(g, m=2, amplitude=10.0)
    spec = rightmost_eigenpair(LinearOperator(ss), K=g.dealias_radius)
    return g, ss, spec


def make_config(ss, spec, epsilons, **kw):
    kw.setdefault("stepper", StepperConfig(cfl=0.4, dt_max=0.02))
    return ExperimentConfig(steady=ss, spectrum=spec, epsilons=epsilons, **kw)


def test_config_pickles_small():
    # `instability --jobs` sends the config to every worker: it carries the
    # steady state and the spectrum, no operator matrices
    g = GridSpec(64)
    ss = shear_steady_state(g, m=2, amplitude=10.0)
    spec = rightmost_eigenpair(LinearOperator(ss))
    cfg = make_config(ss, spec, [1e-2, 1e-3, 1e-4, 1e-5])
    assert len(pickle.dumps(cfg)) < 1_000_000


def test_fit_growth_rate_pure_exponential():
    t = np.linspace(0, 20, 400)
    rec = synthetic_record(t, 0.37 * np.exp(0.3 * t))
    lam = fit_growth_rate(rec, t_skip=0.0, cap=np.inf)
    assert abs(lam - 0.3) < 1e-6


def test_fit_growth_rate_envelope():
    t = np.linspace(0, 30, 3000)
    rec = synthetic_record(t, np.exp(0.3 * t) * (np.abs(np.cos(2.0 * t)) + 1e-9))
    lam = fit_growth_rate(rec, t_skip=0.0, cap=np.inf, omega=2.0)
    assert abs(lam - 0.3) < 1e-3


def test_fit_growth_rate_window_too_short():
    t = np.linspace(0, 1, 5)
    rec = synthetic_record(t, np.exp(t))
    with pytest.raises(errors.FitError):
        fit_growth_rate(rec, t_skip=0.0, cap=np.inf)


def test_escape_time_interpolation():
    rec = synthetic_record([0.0, 1.0, 2.0], [1.0, 2.0, 8.0])
    # crossing 4.0 between t=1 and t=2; log-linear interpolation
    got = escape_time(rec, 4.0)
    expect = 1.0 + (np.log(4.0) - np.log(2.0)) / (np.log(8.0) - np.log(2.0))
    assert abs(got - expect) < 1e-14


def test_escape_time_absent():
    rec = synthetic_record([0.0, 1.0], [1.0, 2.0])
    assert escape_time(rec, 10.0) is None


@settings(max_examples=30, deadline=None)
@given(
    lam=st.floats(min_value=0.1, max_value=2.0),
    eps=st.floats(min_value=1e-6, max_value=0.1),
    thresh=st.floats(min_value=1.0, max_value=50.0),
)
def test_escape_time_closed_form_property(lam, eps, thresh):
    # pure exponential eps * exp(lam t) crosses c at exactly (1/lam) ln(c/eps)
    t = np.linspace(0, 40, 800)
    rec = synthetic_record(t, eps * np.exp(lam * t))
    expect = np.log(thresh / eps) / lam
    if expect >= t[-1]:
        return
    got = escape_time(rec, thresh)
    assert got is not None and abs(got - expect) < 1e-9 * max(1.0, expect)


def test_config_validation(lab):
    _, ss, spec = lab
    with pytest.raises(errors.DomainError):
        make_config(ss, spec, [1e-4, 1e-2])  # not decreasing
    with pytest.raises(errors.DomainError):
        make_config(ss, spec, [2.0, 1e-2])  # outside (0, 1]
    with pytest.raises(errors.DomainError):
        make_config(ss, spec, [1e-2], envelope_radius=0.5)  # R <= ||phi||


def test_real_eigenfunction_norm(lab):
    _, _, spec = lab
    psi = real_eigenfunction(spec)
    assert not np.any(real_imag_halves(psi.coeffs)[1])
    assert abs(norm_l2(psi) - norm_l2(spec.eigenfunction)) < 1e-12


def test_run_zero_epsilon_is_fixed_point(lab):
    _, ss, spec = lab
    cfg = make_config(ss, spec, [1e-2], t_max=0.5, observe_every=0.1)
    rec = run_perturbation(cfg, 0.0)
    assert np.all(rec.l2 == 0.0)
    assert rec.escape_time is None


def test_run_perturbation_matches_evolve():
    # the run is the perturbation alone, bit for bit as `evolve` steps it, and
    # its linear reference starts from the same data
    g = GridSpec(24)
    ss = shear_steady_state(g, m=2, amplitude=10.0)
    spec = rightmost_eigenpair(LinearOperator(ss), K=g.dealias_radius)
    cfg = make_config(ss, spec, [1e-2], t_max=1.0, observe_every=0.05)
    rec = run_perturbation(cfg, 1e-2)
    theta = SpectralField(g, 1e-2 * real_eigenfunction(spec).coeffs)
    res = evolve(EvolutionState(theta, 0.0, ss, PERTURBATION), 1.0, cfg.stepper, observe_every=0.05)
    assert rec.t.size == 21
    for key, column in res.series.items():
        assert np.array_equal(rec.series[key], column), key
    assert rec.series["duhamel_residual"][0] == 0.0


@pytest.fixture(scope="module")
def run_1em4(lab):
    _, ss, spec = lab
    cfg = make_config(ss, spec, [1e-4], threshold=5.0, observe_every=0.05)
    return cfg, run_perturbation(cfg, 1e-4)


def test_fitted_rate_matches_spectrum(lab, run_1em4):
    _, _, spec = lab
    _, rec = run_1em4
    lam = spec.rightmost.real
    assert rec.lambda_hat is not None
    assert abs(rec.lambda_hat - lam) < 0.05 * lam


def test_duhamel_residual_quadratically_small(run_1em4):
    _, rec = run_1em4
    small = rec.l2 <= 0.01
    assert np.count_nonzero(small) > 10
    ratio = rec.series["duhamel_residual"][small][1:] / rec.l2[small][1:]
    assert np.max(ratio) < 0.1


def test_envelope_never_violated(lab, run_1em4):
    # the bootstrap's envelope ||theta(t)|| <= eps R e^{lambda t} holds on the
    # whole series
    _, _, spec = lab
    cfg, rec = run_1em4
    lam = spec.rightmost.real
    assert np.all(rec.l2 <= 1e-4 * cfg.envelope_radius * np.exp(lam * rec.t))


def test_gradient_monitor_bounded(run_1em4):
    cfg, rec = run_1em4
    base = 10.0 * 2  # ||grad theta0||_inf for the m=2, a=10 shear
    assert rec.max_grad_linf < 2.0 * base


@pytest.fixture(scope="module")
def two_short_runs(lab):
    _, ss, spec = lab
    cfg = make_config(ss, spec, [1e-2], t_max=2.0, threshold=1e9, observe_every=0.25)
    return {eps: run_perturbation(cfg, eps) for eps in (1e-2, 1e-4)}


def test_monotone_consistency_across_eps(two_short_runs):
    # at fixed early t, ||theta^eps(t)|| / eps is eps-independent within 2%
    scaled = []
    for eps, rec in two_short_runs.items():
        i = int(np.argmin(np.abs(rec.t - 2.0)))
        scaled.append(rec.l2[i] / eps)
    assert abs(scaled[0] - scaled[1]) < 0.02 * scaled[1]


def test_duhamel_fraction_vanishes_with_eps(two_short_runs):
    # linearization dominates: the relative nonlinear remainder at fixed t
    # shrinks with eps (quadratic smallness makes it roughly proportional)
    fracs = {}
    for eps, rec in two_short_runs.items():
        i = int(np.argmin(np.abs(rec.t - 2.0)))
        fracs[eps] = rec.series["duhamel_residual"][i] / rec.l2[i]
    assert fracs[1e-4] < 0.05 * fracs[1e-2]


@pytest.fixture(scope="module")
def sweep(lab):
    _, ss, spec = lab
    cfg = make_config(
        ss, spec, [1e-1, 1e-2, 1e-3, 1e-4], threshold=5.0, observe_every=0.05
    )
    records = [run_perturbation(cfg, e) for e in cfg.epsilons]
    return records, epsilon_sweep(records)


def test_sweep_escape_law(lab, sweep):
    _, _, spec = lab
    _, rep = sweep
    lam = spec.rightmost.real
    assert not rep.not_escaped  # every run reaches the threshold
    assert abs(rep.slope - 1.0 / lam) < 0.1 / lam
    assert rep.r_squared > 0.99


def test_sweep_escape_monotone(sweep):
    records, _ = sweep
    times = [r.escape_time for r in records]
    assert all(a < b for a, b in zip(times, times[1:]))


def test_sweep_threshold_doubling_shift(lab, sweep):
    # in the exponential regime, doubling the threshold delays every escape
    # by about ln(2)/lambda
    _, _, spec = lab
    records, _ = sweep
    lam = spec.rightmost.real
    for rec in records:
        t1 = escape_time(rec, 2.5)
        t2 = escape_time(rec, 5.0)
        assert t1 is not None and t2 is not None
        assert abs((t2 - t1) - np.log(2.0) / lam) < 0.15 * np.log(2.0) / lam


def test_sweep_validation():
    with pytest.raises(errors.DomainError):
        epsilon_sweep([GrowthRecord(e, {}) for e in (1e-1, 5e-2, 2e-2, 1e-2)])
    with pytest.raises(errors.DomainError):
        epsilon_sweep([GrowthRecord(e, {}) for e in (1e-1, 1e-3)])
