"""Steady states, the quadratic nonlinearity, and time integration of the
forced critical SQG equation  d_t Theta + U.grad(Theta) + Lambda(Theta) = f.

This module holds the one advection kernel, `advection` (full, linearized and
perturbation variants; `linop` applies L through it), the one
integrating-factor RK4 step, `if_rk4_step` (exp(-|k| dt) applied exactly,
advection and force explicit), and the one time loop, `integrate` (CFL step,
landing on observation times, finite check, gradient guard), which `evolve`
and `growth.run_perturbation` drive.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import BlowUpError, DomainError, ResolutionError
from .spectral import (
    GridSpec,
    SpectralField,
    derivative,
    from_values,
    inner_l2,
    lambda_pow,
    meshgrid,
    norm_hs,
    norm_l2,
    norm_linf,
    norm_linf_grad,
    to_coeffs,
    to_values,
    velocity_from_theta,
)

FULL = "full"
PERTURBATION = "perturbation"

#: The time loop stops once the full-field gradient exceeds this factor times
#: max(its initial value, 1).
GRAD_GUARD_FACTOR = 1e3


@dataclass
class SteadyState:
    """Triple (theta0, q0, f) with q0 = (R2 theta0, -R1 theta0) and
    q0.grad(theta0) + Lambda(theta0) = f."""

    theta0: SpectralField
    q0: tuple[SpectralField, SpectralField]
    f: SpectralField

    @property
    def grid(self) -> GridSpec:
        return self.theta0.grid

    @cached_property
    def advection_base(self) -> np.ndarray:
        """Collocation values (q0_1, q0_2, d_1 theta0, d_2 theta0), shape (4, n, n):
        the `base` argument of `advection`."""
        fields = (self.q0[0], self.q0[1], derivative(self.theta0, 1), derivative(self.theta0, 2))
        return to_values(np.stack([s.coeffs for s in fields]), self.grid.n).real

    def residual_linf(self) -> float:
        """sup norm of q0.grad(theta0) + Lambda(theta0) - f."""
        g = self.grid
        adv = -advection(self.theta0.coeffs, g)
        res = adv + lambda_pow(self.theta0, 1.0).coeffs - self.f.coeffs
        return float(np.max(np.abs(to_values(res, g.n))))


@dataclass
class StepperConfig:
    cfl: float = 0.4
    dt_max: float = 0.02

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise DomainError(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.dt_max <= 0:
            raise DomainError("dt_max must be positive")


@dataclass
class EvolutionState:
    """Field being evolved: the full Theta, or the perturbation about steady."""

    theta: SpectralField
    t: float
    steady: SteadyState
    mode: str = FULL

    def __post_init__(self):
        if self.mode not in (FULL, PERTURBATION):
            raise DomainError(f"mode must be 'full' or 'perturbation', got {self.mode!r}")
        if self.t < 0:
            raise DomainError("time must be nonnegative")

    def full_theta(self) -> SpectralField:
        if self.mode == FULL:
            return self.theta
        return SpectralField(self.theta.grid, self.theta.coeffs + self.steady.theta0.coeffs)


def shear_steady_state(grid: GridSpec, m: int, amplitude: float) -> SteadyState:
    """theta0 = -amplitude cos(m x2): velocity (amplitude sin(m x2), 0),
    force f = -amplitude m cos(m x2)."""
    if not 1 <= m <= grid.dealias_radius:
        raise ResolutionError(f"shear wavenumber m={m} outside resolved range")
    _, x2 = meshgrid(grid)
    theta0 = from_values(grid, -amplitude * np.cos(m * x2))
    theta0.coeffs[1:] = 0.0  # exactly x1-invariant: drop the FFT's rounding off k1 = 0
    return make_steady(theta0)


def make_steady(theta0: SpectralField) -> SteadyState:
    """Compute the forcing that makes theta0 a steady state."""
    if not theta0.mean_free:
        raise DomainError("steady state temperature must be mean-free")
    g = theta0.grid
    c = np.abs(theta0.coeffs)
    total = np.sum(c**2)
    margin = (np.abs(g.k1) > g.dealias_radius - 2) | (np.abs(g.k2) > g.dealias_radius - 2)
    if total > 0 and np.sum(c[margin] ** 2) > 1e-26 * total:
        raise ResolutionError(
            "steady state carries energy at the dealias boundary; increase n"
        )
    adv = -advection(theta0.coeffs, g)
    f = SpectralField(g, adv + lambda_pow(theta0, 1.0).coeffs)
    q0 = velocity_from_theta(theta0)
    return SteadyState(theta0=theta0.copy(), q0=q0, f=f)


def nonlinear_term(theta: SpectralField) -> SpectralField:
    """N(theta) = -q.grad(theta) with q = (R2 theta, -R1 theta), dealiased."""
    if not theta.mean_free:
        raise DomainError("nonlinear term requires a mean-free field")
    return SpectralField(theta.grid, advection(theta.coeffs, theta.grid))


def advection(c: np.ndarray, grid: GridSpec, base=None, nonlinear=1.0) -> np.ndarray:
    """Dealiased, mean-free coefficients of the advection term of c.

    With base None this is the full term -u.grad(theta), u = (R2 theta, -R1 theta).
    With base = steady.advection_base it is -(q0 + a u).grad(theta) - u.grad(theta0)
    with a = nonlinear: 0 gives the linearized term, 1 the perturbation term
    (linearized plus full).  c may carry leading axes; nonlinear may be an
    array broadcast over them, which gives each slot its own variant.
    """
    n = grid.n
    shape = (4,) + (1,) * (c.ndim - 2) + (n, n)
    v = c * grid.advection_symbols.reshape(shape)
    u1, u2, d1, d2 = to_values(v, n)
    if base is None:
        prod = u1 * d1 + u2 * d2
    else:
        q1, q2, t1, t2 = base
        if np.any(nonlinear):
            q1, q2 = q1 + nonlinear * u1, q2 + nonlinear * u2
        prod = q1 * d1 + q2 * d2 + u1 * t1 + u2 * t2
    out = -to_coeffs(prod, n)
    out *= grid.dealias_mask
    out[..., 0, 0] = 0.0
    return out


def _explicit(steady: SteadyState, mode: str, nonlinear=1.0):
    """Everything but the dissipation: advection, plus the force in full mode."""
    g = steady.grid
    if mode == PERTURBATION:
        return lambda c: advection(c, g, steady.advection_base, nonlinear)
    return lambda c: advection(c, g) + steady.f.coeffs


def rhs(state: EvolutionState) -> SpectralField:
    """Time derivative of the state (dissipation included)."""
    g = state.theta.grid
    c = state.theta.coeffs
    return SpectralField(g, _explicit(state.steady, state.mode)(c) - g.kmag * c)


def cfl_dt(state: EvolutionState, config: StepperConfig) -> float:
    """min(dt_max, cfl * dx / ||U||_inf) with a small floor on the velocity."""
    g = state.theta.grid
    u1, u2 = to_values(state.theta.coeffs * g.advection_symbols[:2], g.n)
    if state.mode == PERTURBATION:
        u1 = u1 + state.steady.advection_base[0]
        u2 = u2 + state.steady.advection_base[1]
    umax = max(float(np.max(np.hypot(np.abs(u1), np.abs(u2)))), 1e-8)
    return min(config.dt_max, config.cfl * g.dx / umax)


def decay_factors(grid: GridSpec, dt: float, shift: float = 0.0):
    """(exp(-(|k| + shift) dt/2), exp(-(|k| + shift) dt)) for the integrating factor."""
    half = np.exp(-(grid.kmag + shift) * (0.5 * dt))
    return half, half * half


def if_rk4_step(explicit, c: np.ndarray, dt: float, e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """One integrating-factor RK4 step of d_t c = explicit(c) - D c, where the
    decay factors e1, e2 = exp(-D dt/2), exp(-D dt) apply D exactly; c may
    carry leading axes."""
    k1 = explicit(c)
    k2 = explicit(e1 * (c + (0.5 * dt) * k1))
    k3 = explicit(e1 * c + (0.5 * dt) * k2)
    k4 = explicit(e2 * c + dt * (e1 * k3))
    out = e2 * c + (dt / 6.0) * (e2 * k1 + 2.0 * e1 * (k2 + k3) + k4)
    out[..., 0, 0] = 0.0
    return out


def step(state: EvolutionState, dt: float, config: StepperConfig | None = None) -> EvolutionState:
    """Advance by one step of size dt (dt must respect the CFL bound)."""
    config = config or StepperConfig()
    allowed = cfl_dt(state, config)
    if dt > allowed * (1 + 1e-9):
        raise DomainError(f"dt={dt:.3e} exceeds CFL/dt_max bound {allowed:.3e}")
    g = state.theta.grid
    explicit = _explicit(state.steady, state.mode)
    c = if_rk4_step(explicit, state.theta.coeffs, dt, *decay_factors(g, dt))
    return replace(state, theta=SpectralField(g, c), t=state.t + dt)


def observed_norms(state: EvolutionState) -> dict[str, float]:
    """l2 and hhalf of the evolved field; linf, linf_grad and the energy flux of
    the full field theta0 + theta (the same field in full mode)."""
    theta, full = state.theta, state.full_theta()
    hhalf = norm_hs(theta, 0.5)
    hhalf_full = hhalf if state.mode == FULL else norm_hs(full, 0.5)
    return {
        "t": state.t,
        "l2": norm_l2(theta),
        "linf": norm_linf(full),
        "linf_grad": norm_linf_grad(full),
        "hhalf": hhalf,
        # d/dt ||Theta||_{L2}^2 = 2 (f, Theta) - 2 ||Lambda^{1/2} Theta||^2
        "energy_flux": 2.0 * inner_l2(state.steady.f, full) - 2.0 * hhalf_full**2,
    }


def integrate(
    steady: SteadyState,
    mode: str,
    c: np.ndarray,
    t: float,
    t_final: float,
    config: StepperConfig,
    observe_every: float,
):
    """The time loop: yield (c, norms) at the start, at every observation time
    and at t_final; the caller stops the run early by leaving the loop.

    c holds the coefficients of the field in `mode`.  In perturbation mode c may
    be a (2, n, n) stack whose slot 1 is the co-evolved linear solution: one
    kernel call advances both slots with the same steps, slot 1 with the
    linearized variant.  The CFL step and the norms (`observed_norms`) read
    slot 0 only.

    Raises BlowUpError on non-finite coefficients, or when the full-field
    linf_grad exceeds GRAD_GUARD_FACTOR times max(its initial value, 1), with
    the norms as diagnostics.
    """
    g = steady.grid
    stacked = c.ndim == 3
    explicit = _explicit(steady, mode, np.array([1.0, 0.0])[:, None, None] if stacked else 1.0)

    def state_at(cc, tt):
        return EvolutionState(SpectralField(g, cc[0] if stacked else cc), tt, steady, mode)

    if not np.all(np.isfinite(c)):
        raise BlowUpError(f"non-finite coefficients at t={t:.6f}", t=t)
    norms = observed_norms(state_at(c, t))
    guard = GRAD_GUARD_FACTOR * max(norms["linf_grad"], 1.0)

    def observed(cc, tt):
        norms = observed_norms(state_at(cc, tt))
        if norms["linf_grad"] > guard:
            raise BlowUpError(f"gradient guard tripped at t={tt:.6f}", t=tt, diagnostics=norms)
        return cc, norms

    yield c, norms
    next_obs = t + observe_every
    dt_prev = None
    while t < t_final - 1e-14:
        # land exactly on the next observation time and on t_final
        dt = min(cfl_dt(state_at(c, t), config), next_obs - t, t_final - t)
        if dt != dt_prev:
            e1, e2 = decay_factors(g, dt)
            dt_prev = dt
        c = if_rk4_step(explicit, c, dt, e1, e2)
        t += dt
        if not np.all(np.isfinite(c)):
            raise BlowUpError(f"non-finite coefficients at t={t:.6f}", t=t)
        if t >= next_obs - 1e-12 or t >= t_final - 1e-14:
            yield observed(c, t)
            next_obs = t + observe_every


@dataclass
class EvolveResult:
    state: EvolutionState
    records: list[dict]


def evolve(
    state: EvolutionState,
    t_final: float,
    config: StepperConfig | None = None,
    observer=None,
    observe_every: float = 0.05,
) -> EvolveResult:
    """Integrate to t_final, calling observer(t, norms) at the given cadence.

    Raises BlowUpError on non-finite coefficients or when the full-field
    gradient exceeds GRAD_GUARD_FACTOR times max(its initial value, 1).
    """
    config = config or StepperConfig()
    records: list[dict] = []
    run = integrate(
        state.steady, state.mode, state.theta.coeffs.copy(), state.t, t_final,
        config, observe_every,
    )
    for c, norms in run:
        records.append(norms)
        if observer is not None:
            observer(norms["t"], norms)
    final = replace(state, theta=SpectralField(state.theta.grid, c), t=norms["t"])
    return EvolveResult(state=final, records=records)
