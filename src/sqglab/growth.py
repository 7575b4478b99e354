"""Nonlinear instability experiments: evolve theta(0) = eps * Re(phi) under
d_t theta = L theta + N(theta), measure L2 growth against exp(lambda t),
estimate escape times, and regress the escape-time law against ln(1/eps)
over the runs a caller made, one `run_perturbation` per eps (`epsilon_sweep`).

Each run records the Duhamel residual ||theta(t) - e^{Lt} theta(0)||, which
isolates the nonlinear part.  The run is `dynamics.integrate`, the time loop
`dynamics.evolve` uses, on the perturbation alone; the linear reference is
closed-form: L is real and L phi = mu phi, so e^{Lt} Re(phi) = Re(e^{mu t} phi).
Its series is that of `dynamics.evolve` plus the duhamel_residual column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import PERTURBATION, StepperConfig, SteadyState, integrate, to_series
from .errors import DomainError, FitError
from .linop import SpectrumResult
from .spectral import SpectralField, mirror, norm_l2, real_imag_halves


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

    series holds the columns of `dynamics.observed_norms`, in its key order,
    plus duhamel_residual: l2, hhalf and duhamel_residual monitor the
    perturbation; linf, linf_grad and energy_flux the full field
    theta0 + theta.
    """

    epsilon: float
    series: dict[str, np.ndarray]
    lambda_hat: float | None = None
    escape_time: float | None = None
    escape_norm: float | None = None
    envelope_time: float | None = None

    @property
    def t(self) -> np.ndarray:
        return self.series["t"]

    @property
    def l2(self) -> np.ndarray:
        return self.series["l2"]

    @property
    def max_grad_linf(self) -> float:
        return float(np.max(self.series["linf_grad"]))


def real_eigenfunction(spectrum: SpectrumResult) -> SpectralField:
    """Re(phi), renormalized to ||phi||_{L2}; the real part lies in the span of
    the conjugate eigenpair and grows at the same rate."""
    phi = spectrum.eigenfunction
    g = phi.grid
    out = SpectralField(g, mirror(real_imag_halves(phi.coeffs)[0], g.n))
    nr = norm_l2(out)
    if nr == 0:
        raise DomainError("eigenfunction has no real part")
    out.coeffs *= norm_l2(phi) / nr
    return out


def linear_reference(spectrum: SpectrumResult):
    """t -> the coefficients of e^{Lt} psi, psi = `real_eigenfunction`.

    L is real and L phi = mu phi, so e^{Lt} psi = Re(e^{mu t} phi) scaled as
    psi is: for mu = lam + i w, e^{lam t} (cos(w t) psi - sin(w t) chi), chi
    the same multiple of Im(phi).  It is exact only to the spectrum's own
    reported residual ||L phi - mu phi||."""
    phi = spectrum.eigenfunction
    psi = real_eigenfunction(spectrum).coeffs
    re, im = (mirror(h, phi.grid.n) for h in real_imag_halves(phi.coeffs))
    chi = im * (norm_l2(phi) / norm_l2(SpectralField(phi.grid, re)))
    lam, w = spectrum.rightmost.real, spectrum.rightmost.imag
    return lambda t: np.exp(lam * t) * (np.cos(w * t) * psi - np.sin(w * t) * chi)


def run_perturbation(config: ExperimentConfig, epsilon: float) -> GrowthRecord:
    """Evolve the perturbation dynamics from eps * Re(phi) until escape or
    t_max, compare it with the linear solution, and fit the growth rate.  The
    linear solution is `linear_reference`, exact to the spectrum's own
    reported residual ||L phi - mu phi||, so an eigenpair computed on another
    grid leaves its own error in duhamel_residual."""
    if epsilon < 0 or epsilon > 1:
        raise DomainError("epsilon must lie in [0, 1]")
    steady = config.steady
    lam = config.spectrum.rightmost.real
    reference = linear_reference(config.spectrum)
    rows: list[dict[str, float]] = []
    envelope_time = None
    run = integrate(
        steady, PERTURBATION, epsilon * real_eigenfunction(config.spectrum).coeffs, 0.0,
        config.t_max, config.stepper, config.observe_every,
    )
    for c, norms in run:
        t, l2 = norms["t"], norms["l2"]
        linear = epsilon * reference(t)
        norms["duhamel_residual"] = norm_l2(SpectralField(steady.grid, c - linear))
        rows.append(norms)
        if (
            envelope_time is None
            and lam > 0
            and l2 > epsilon * config.envelope_radius * np.exp(lam * t)
        ):
            envelope_time = t
        if l2 >= config.threshold:
            break

    rec = GrowthRecord(epsilon=epsilon, series=to_series(rows), envelope_time=envelope_time)
    rec.escape_time = escape_time(rec, config.threshold)
    if rec.escape_time is not None:
        rec.escape_norm = config.threshold
    if epsilon > 0 and lam > 0:
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


def check_epsilons(eps: list[float]) -> None:
    """One epsilon is a single run; more form a sweep, whose escape-law fit
    needs >= 4 of them spanning >= 2 decades."""
    if len(eps) != 1 and (len(eps) < 4 or max(eps) / min(eps) < 100.0):
        raise DomainError("sweep needs >= 4 epsilons spanning >= 2 decades")


def epsilon_sweep(config: ExperimentConfig, records: list[GrowthRecord]) -> SweepReport:
    """Regress escape time against ln(1/eps) over the records of a sweep,
    one `run_perturbation` per epsilon of config; the caller runs them, in
    turn or in parallel.  Raises FitError when fewer than two escaped."""
    check_epsilons(config.epsilons)
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
