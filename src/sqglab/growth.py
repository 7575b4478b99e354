"""Nonlinear instability experiments: evolve theta(0) = eps * Re(phi) under
d_t theta = L theta + N(theta), measure L2 growth against exp(lambda t),
estimate escape times, and regress the escape-time law against ln(1/eps).

Each run co-evolves the linear semigroup from the same data, so the recorded
Duhamel residual ||theta(t) - e^{Lt} eps phi|| isolates the nonlinear part.
The run is `dynamics.integrate`, the time loop `dynamics.evolve` uses, on a
stack whose slot 1 is the linear solution: one kernel call advances both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import PERTURBATION, StepperConfig, SteadyState, integrate
from .errors import DomainError, FitError
from .linop import SpectrumResult
from .spectral import SpectralField, norm_l2


@dataclass
class ExperimentConfig:
    steady: SteadyState
    spectrum: SpectrumResult
    epsilons: list[float]
    envelope_radius: float = 2.0          # R > ||phi|| = 1 in eq-envelope units
    threshold: float | None = None        # escape norm, default 0.5 ||theta0||_L2
    t_max: float | None = None            # default 3 (1/lam) ln(1/eps_min)
    observe_every: float = 0.05
    stepper: StepperConfig = field(default_factory=lambda: StepperConfig(cfl=0.4, dt_max=0.02))

    def __post_init__(self):
        eps = list(self.epsilons)
        if any(not 0 < e <= 1 for e in eps):
            raise DomainError("epsilons must lie in (0, 1]")
        if sorted(eps, reverse=True) != eps:
            raise DomainError("epsilons must be sorted in decreasing order")
        if self.envelope_radius <= norm_l2(self.spectrum.eigenfunction):
            raise DomainError("envelope radius R must exceed ||phi||")
        if self.threshold is None:
            self.threshold = 0.5 * norm_l2(self.steady.theta0)
        lam = self.spectrum.rightmost.real
        if self.t_max is None:
            if lam <= 0:
                raise DomainError("t_max must be given when the spectrum is stable")
            self.t_max = 3.0 / lam * np.log(1.0 / min(eps))


@dataclass
class GrowthRecord:
    """Time series and fitted quantities for one eps-experiment.

    l2, hhalf and duhamel_residual monitor the perturbation; linf_full,
    linf_grad_full and energy_flux monitor the full field theta0 + theta.
    """

    epsilon: float
    t: np.ndarray
    l2: np.ndarray
    linf_full: np.ndarray
    linf_grad_full: np.ndarray
    duhamel_residual: np.ndarray
    hhalf: np.ndarray | None = None
    energy_flux: np.ndarray | None = None
    lambda_hat: float | None = None
    escape_time: float | None = None
    escape_norm: float | None = None
    envelope_time: float | None = None
    vacuous: bool = False

    @property
    def max_grad_linf(self) -> float:
        return float(np.max(self.linf_grad_full))


def real_eigenfunction(spectrum: SpectrumResult) -> SpectralField:
    """Re(phi), renormalized to ||phi||_{L2}; the real part lies in the span of
    the conjugate eigenpair and grows at the same rate."""
    phi = spectrum.eigenfunction
    g = phi.grid
    re = 0.5 * (phi.coeffs + np.conj(np.roll(phi.coeffs[::-1, ::-1], (1, 1), axis=(0, 1))))
    out = SpectralField(g, re)
    nr = norm_l2(out)
    if nr == 0:
        raise DomainError("eigenfunction has no real part")
    out.coeffs *= norm_l2(phi) / nr
    return out


def run_perturbation(
    config: ExperimentConfig, epsilon: float, field_observer=None
) -> GrowthRecord:
    """Evolve the perturbation dynamics from eps * Re(phi) until escape or t_max.

    field_observer, when given, is called with (t, full_theta_coeffs) at every
    recorded time (used for trajectory modulus monitoring).
    """
    if epsilon < 0 or epsilon > 1:
        raise DomainError("epsilon must lie in [0, 1]")
    steady = config.steady
    lam = config.spectrum.rightmost.real
    vacuous = lam <= 0

    psi = real_eigenfunction(config.spectrum)
    c = epsilon * psi.coeffs
    rows: list[dict[str, float]] = []
    envelope_time = None
    run = integrate(
        steady, PERTURBATION, np.stack([c, c]), 0.0, config.t_max,
        config.stepper, config.observe_every,
    )
    for (c, c_lin), norms in run:
        t, l2 = norms["t"], norms["l2"]
        norms["duhamel_residual"] = 2 * np.pi * float(np.linalg.norm(c - c_lin))
        rows.append(norms)
        if (
            envelope_time is None
            and lam > 0
            and l2 > epsilon * config.envelope_radius * np.exp(lam * t)
        ):
            envelope_time = t
        if field_observer is not None:
            field_observer(t, c + steady.theta0.coeffs)
        if l2 >= config.threshold:
            break

    col = {key: np.array([r[key] for r in rows]) for key in rows[0]}
    rec = GrowthRecord(
        epsilon=epsilon,
        t=col["t"],
        l2=col["l2"],
        linf_full=col["linf"],
        linf_grad_full=col["linf_grad"],
        duhamel_residual=col["duhamel_residual"],
        hhalf=col["hhalf"],
        energy_flux=col["energy_flux"],
        envelope_time=envelope_time,
        vacuous=vacuous,
    )
    rec.escape_time = escape_time(rec, config.threshold)
    if rec.escape_time is not None:
        rec.escape_norm = config.threshold
    if epsilon > 0 and not vacuous:
        try:
            rec.lambda_hat = fit_growth_rate(
                rec,
                t_skip=1.0 / lam,
                cap=0.1 * config.envelope_radius,
                omega=abs(config.spectrum.rightmost.imag),
            )
        except FitError:
            rec.lambda_hat = None
    return rec


def fit_growth_rate(
    record: GrowthRecord,
    t_skip: float,
    cap: float,
    omega: float = 0.0,
) -> float:
    """Least-squares slope of ln||theta(t)|| on the linear-regime window.

    The window keeps t >= t_skip and ||theta|| <= cap and must hold at least
    10 samples.  For a complex rightmost pair (omega > 0) the fit runs on the
    log of the oscillation envelope, extracted from peak-to-peak maxima.
    """
    mask = (record.t >= t_skip) & (record.l2 <= cap) & (record.l2 > 0)
    t = record.t[mask]
    y = np.log(record.l2[mask])
    if t.size < 10:
        raise FitError(
            f"growth window holds {t.size} samples (< 10); "
            "lower t_skip or raise the cap"
        )
    if omega > 1e-8:
        peaks = _local_maxima(t, y)
        if peaks[0].size >= 3:
            t, y = peaks
    slope, _ = np.polyfit(t, y, 1)
    if not np.isfinite(slope):
        raise FitError("non-finite fit inputs")
    return float(slope)


def _local_maxima(t, y):
    idx = np.nonzero((y[1:-1] >= y[:-2]) & (y[1:-1] > y[2:]))[0] + 1
    return t[idx], y[idx]


def escape_time(record: GrowthRecord, threshold: float) -> float | None:
    """First time the L2 norm reaches the threshold, log-linearly interpolated
    between samples (exact for a pure exponential)."""
    if threshold <= 0:
        raise DomainError("threshold must be positive")
    l2 = record.l2
    above = np.nonzero(l2 >= threshold)[0]
    if above.size == 0:
        return None
    i = int(above[0])
    if i == 0 or l2[i] == threshold:
        return float(record.t[i])
    y0, y1 = np.log(l2[i - 1]), np.log(l2[i])
    frac = (np.log(threshold) - y0) / (y1 - y0)
    return float(record.t[i - 1] + frac * (record.t[i] - record.t[i - 1]))


@dataclass
class SweepReport:
    records: list[GrowthRecord]
    slope: float
    intercept: float
    r_squared: float
    lambda_spectral: float
    threshold: float
    not_escaped: list[float]

    @property
    def max_grad_linf(self) -> float:
        return max(r.max_grad_linf for r in self.records)


def epsilon_sweep(config: ExperimentConfig, progress=None, records=None) -> SweepReport:
    """Run every epsilon (unless precomputed records are passed, e.g. from a
    parallel executor), then regress escape time against ln(1/eps)."""
    eps = config.epsilons
    if len(eps) < 4 or max(eps) / min(eps) < 100.0:
        raise DomainError("sweep needs >= 4 epsilons spanning >= 2 decades")
    if records is None:
        records = []
        for e in eps:
            rec = run_perturbation(config, e)
            records.append(rec)
            if progress is not None:
                progress(rec)
    escaped = [r for r in records if r.escape_time is not None]
    not_escaped = [r.epsilon for r in records if r.escape_time is None]
    if len(escaped) < 2:
        raise FitError("fewer than two runs escaped; cannot regress the escape law")
    x = np.log(1.0 / np.array([r.epsilon for r in escaped]))
    y = np.array([r.escape_time for r in escaped])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return SweepReport(
        records=records,
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        lambda_spectral=config.spectrum.rightmost.real,
        threshold=config.threshold,
        not_escaped=not_escaped,
    )
