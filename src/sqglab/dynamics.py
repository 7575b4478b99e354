"""Steady states, the quadratic nonlinearity, and time integration of the
forced critical SQG equation  d_t Theta + U.grad(Theta) + Lambda(Theta) = f.

This module holds the one advection kernel, `advection` (full, linearized and
perturbation variants; `linop` applies L through it), the one
integrating-factor RK4 step, `if_rk4_step` (exp(-|k| dt) applied exactly,
advection and force explicit), and the one time loop, `integrate` (CFL step,
landing on observation times, finite check, gradient guard), which steps one
field in either mode.  `evolve` returns a run's series, one array per
`observed_norms` key; `growth.run_perturbation` iterates `integrate` and
compares each yield with the linear reference, the closed form
Re(e^{mu t} phi) of the eigenpair, not a second run of this loop.  A caller
that watches the fields of a run iterates `integrate` itself.  The kernel,
the step and the loop work on rfft2 half-spectra (see `spectral`); the public
functions take and return full coefficients and convert at their boundary.
A steady state is theta0 and f; its velocity q0 and gradient come from the
kernel's own symbols.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import BlowUpError, DomainError, ResolutionError
from .spectral import (
    GridSpec,
    SpectralField,
    from_values,
    half,
    half_coeffs,
    half_values,
    inner_l2,
    meshgrid,
    mirror,
    norm_hs,
    norm_l2,
    norm_linf,
    norm_linf_grad,
)

FULL = "full"
PERTURBATION = "perturbation"

#: The time loop stops once the full-field gradient exceeds this factor times
#: max(its initial value, 1).
GRAD_GUARD_FACTOR = 1e3


@dataclass
class SteadyState:
    """Pair (theta0, f) with q0.grad(theta0) + Lambda(theta0) = f, where
    q0 = (R2 theta0, -R1 theta0) is the velocity theta0 induces."""

    theta0: SpectralField
    f: SpectralField

    @property
    def grid(self) -> GridSpec:
        return self.theta0.grid

    @cached_property
    def advection_base(self) -> np.ndarray:
        """Collocation values (q0_1, q0_2, d_1 theta0, d_2 theta0), shape (4, n, n):
        the `base` argument of `advection`."""
        g = self.grid
        return half_values(half(self.theta0.coeffs) * g.half_advection_symbols, g.n)

    def residual_linf(self) -> float:
        """sup norm of q0.grad(theta0) + Lambda(theta0) - f."""
        g = self.grid
        h = half(self.theta0.coeffs)
        res = -advection(h, g) + g.half_kmag * h - half(self.f.coeffs)
        return float(np.max(np.abs(half_values(res, g.n))))


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
    h = half(theta0.coeffs)
    f = SpectralField(g, mirror(g.half_kmag * h - advection(h, g), g.n))
    return SteadyState(theta0=theta0.copy(), f=f)


def nonlinear_term(theta: SpectralField) -> SpectralField:
    """N(theta) = -q.grad(theta) with q = (R2 theta, -R1 theta), dealiased."""
    if not theta.mean_free:
        raise DomainError("nonlinear term requires a mean-free field")
    g = theta.grid
    return SpectralField(g, mirror(advection(half(theta.coeffs), g), g.n))


def advection(c: np.ndarray, grid: GridSpec, base=None, nonlinear=1.0) -> np.ndarray:
    """Dealiased, mean-free half-spectrum of the advection term of the
    half-spectrum c.

    With base None this is the full term -u.grad(theta), u = (R2 theta, -R1 theta).
    With base = steady.advection_base it is -(q0 + a u).grad(theta) - u.grad(theta0)
    with a = nonlinear: 0 gives the linearized term, 1 the perturbation term
    (linearized plus full).  c may carry leading axes.
    """
    return _advect(c, grid, base, nonlinear)[0]


def _advect(c, grid, base=None, nonlinear=1.0):
    """`advection`, and the collocation values (U1, U2) of the advecting
    velocity: u, or q0 + a u with a base."""
    n = grid.n
    symbols = grid.half_advection_symbols
    v = c * symbols.reshape((4,) + (1,) * (c.ndim - 2) + symbols.shape[1:])
    u1, u2, d1, d2 = half_values(v, n)
    if base is None:
        U1, U2 = u1, u2
        prod = u1 * d1 + u2 * d2
    else:
        U1, U2, t1, t2 = base
        if nonlinear:
            U1, U2 = U1 + nonlinear * u1, U2 + nonlinear * u2
        prod = U1 * d1 + U2 * d2 + u1 * t1 + u2 * t2
    out = -half_coeffs(prod)
    out *= grid.half_dealias_mask
    out[..., 0, 0] = 0.0
    return out, (U1, U2)


def _explicit(steady: SteadyState, mode: str):
    """Everything but the dissipation, on half-spectra: h -> (term, (U1, U2)),
    the advection term plus the force in full mode, and the advecting velocity."""
    g = steady.grid
    if mode == PERTURBATION:
        base = steady.advection_base
        return lambda h: _advect(h, g, base)
    f = half(steady.f.coeffs)

    def full(h):
        term, U = _advect(h, g)
        term += f
        return term, U

    return full


def _cfl(U1, U2, grid: GridSpec, config: StepperConfig) -> float:
    """min(dt_max, cfl * dx / ||U||_inf) with a small floor on the velocity."""
    umax = max(float(np.sqrt(np.max(U1 * U1 + U2 * U2))), 1e-8)
    return min(config.dt_max, config.cfl * grid.dx / umax)


def rhs(state: EvolutionState) -> SpectralField:
    """Time derivative of the state (dissipation included)."""
    g = state.theta.grid
    h = half(state.theta.coeffs)
    term, _ = _explicit(state.steady, state.mode)(h)
    return SpectralField(g, mirror(term - g.half_kmag * h, g.n))


def cfl_dt(state: EvolutionState, config: StepperConfig) -> float:
    """min(dt_max, cfl * dx / ||U||_inf) with a small floor on the velocity;
    U is the advecting velocity, q0 + u in perturbation mode."""
    _, U = _explicit(state.steady, state.mode)(half(state.theta.coeffs))
    return _cfl(*U, state.theta.grid, config)


def decay_factors(grid: GridSpec, dt: float, shift: float = 0.0):
    """(exp(-(|k| + shift) dt/2), exp(-(|k| + shift) dt)) on the half-spectrum,
    the integrating factor."""
    half_step = np.exp(-(grid.half_kmag + shift) * (0.5 * dt))
    return half_step, half_step * half_step


def if_rk4_step(
    explicit, c: np.ndarray, dt: float, e1: np.ndarray, e2: np.ndarray, k1=None
) -> np.ndarray:
    """One integrating-factor RK4 step of d_t c = explicit(c) - D c, where the
    decay factors e1, e2 = exp(-D dt/2), exp(-D dt) apply D exactly; c may
    carry leading axes.  k1 = explicit(c) may be passed when the caller has it:
    the first stage does not depend on dt."""
    if k1 is None:
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
    g = state.theta.grid
    advect = _explicit(state.steady, state.mode)
    h = half(state.theta.coeffs)
    k1, U = advect(h)
    allowed = _cfl(*U, g, config)
    if dt > allowed * (1 + 1e-9):
        raise DomainError(f"dt={dt:.3e} exceeds CFL/dt_max bound {allowed:.3e}")
    h = if_rk4_step(lambda x: advect(x)[0], h, dt, *decay_factors(g, dt), k1)
    return replace(state, theta=SpectralField(g, mirror(h, g.n)), t=state.t + dt)


def observed_norms(state: EvolutionState) -> dict[str, float]:
    """l2 and hhalf of the evolved field; linf, linf_grad and the energy flux of
    the full field theta0 + theta (the same field in full mode).  The keys, in
    order, are the columns of a run's series."""
    theta, full = state.theta, state.full_theta()
    hhalf = norm_hs(theta, 0.5)
    hhalf_full = hhalf if state.mode == FULL else norm_hs(full, 0.5)
    # norm_linf's `inverse` checks the symmetry that norm_linf_grad assumes
    return {
        "t": state.t,
        "l2": norm_l2(theta),
        "linf": norm_linf(full),
        "linf_grad": norm_linf_grad(full),
        "hhalf": hhalf,
        # d/dt ||Theta||_{L2}^2 = 2 (f, Theta) - 2 ||Lambda^{1/2} Theta||^2
        "energy_flux": 2.0 * inner_l2(state.steady.f, full) - 2.0 * hhalf_full**2,
    }


def to_series(rows: list[dict[str, float]]) -> dict[str, np.ndarray]:
    """The columns of observation rows: one array per key, in key order."""
    return {key: np.array([r[key] for r in rows]) for key in rows[0]}


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

    c is the full coefficients (n, n) of a field in `mode`; the loop steps its
    half-spectrum, reads the CFL step off its velocity at the first RK stage,
    and yields full coefficients with their `observed_norms`.

    Raises BlowUpError on non-finite coefficients, or when the full-field
    linf_grad exceeds GRAD_GUARD_FACTOR times max(its initial value, 1), with
    the norms as diagnostics.
    """
    g = steady.grid
    advect = _explicit(steady, mode)

    def explicit(h):
        return advect(h)[0]

    def norms_at(cc, tt):
        return observed_norms(EvolutionState(SpectralField(g, cc), tt, steady, mode))

    if not np.all(np.isfinite(c)):
        raise BlowUpError(f"non-finite coefficients at t={t:.6f}")
    norms = norms_at(c, t)
    guard = GRAD_GUARD_FACTOR * max(norms["linf_grad"], 1.0)
    yield c, norms
    h = half(c)
    next_obs = t + observe_every
    dt_prev = None
    while t < t_final - 1e-14:
        k1, (U1, U2) = advect(h)
        # land exactly on the next observation time and on t_final
        dt = min(_cfl(U1, U2, g, config), next_obs - t, t_final - t)
        if dt != dt_prev:
            e1, e2 = decay_factors(g, dt)
            dt_prev = dt
        h = if_rk4_step(explicit, h, dt, e1, e2, k1)
        t += dt
        if not np.all(np.isfinite(h)):
            raise BlowUpError(f"non-finite coefficients at t={t:.6f}")
        if t >= next_obs - 1e-12 or t >= t_final - 1e-14:
            c = mirror(h, g.n)
            norms = norms_at(c, t)
            if norms["linf_grad"] > guard:
                raise BlowUpError(f"gradient guard tripped at t={t:.6f}", diagnostics=norms)
            yield c, norms
            next_obs = t + observe_every


@dataclass
class EvolveResult:
    state: EvolutionState
    series: dict[str, np.ndarray]


def evolve(
    state: EvolutionState,
    t_final: float,
    config: StepperConfig | None = None,
    observe_every: float = 0.05,
) -> EvolveResult:
    """Integrate to t_final, observing at the given cadence; a caller that
    needs the fields along the way iterates `integrate` instead.

    Raises BlowUpError on non-finite coefficients or when the full-field
    gradient exceeds GRAD_GUARD_FACTOR times max(its initial value, 1).
    """
    config = config or StepperConfig()
    rows: list[dict] = []
    run = integrate(
        state.steady, state.mode, state.theta.coeffs, state.t, t_final, config, observe_every
    )
    for c, norms in run:
        rows.append(norms)
    final = replace(state, theta=SpectralField(state.theta.grid, c), t=norms["t"])
    return EvolveResult(state=final, series=to_series(rows))
