"""The three workloads: the inputs each one hands the program, and the checks
its outputs must pass.

Every check compares against a reference computed in ``reference.py`` or a
property the method must have; none compares against stored output.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

SQGF_MAGIC = b"SQGF"


def write_sqgf(path: Path, values: np.ndarray) -> None:
    """SQGF v1: magic, u32 version, u32 n, n*n little-endian float64, x1 fastest."""
    n = values.shape[0]
    with open(path, "wb") as fh:
        fh.write(SQGF_MAGIC + struct.pack("<II", 1, n))
        fh.write(np.asarray(values, dtype="<f8").tobytes(order="F"))


def read_sqgf(path: Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:4] != SQGF_MAGIC:
        raise ValueError(f"{path}: not an SQGF file")
    _, n = struct.unpack("<II", raw[4:12])
    if len(raw) != 12 + 8 * n * n:
        raise ValueError(f"{path}: payload holds {len(raw) - 12} bytes, expected {8 * n * n}")
    return np.frombuffer(raw[12:], dtype="<f8").reshape((n, n), order="F")


def read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: np.array([float(r[i]) for r in rows[1:]]) for i, name in enumerate(rows[0])}


def read_summary(path: Path) -> dict[str, str]:
    out = {}
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key.strip()] = value.strip()
    return out


def shear_values(n: int, m: int, amplitude: float) -> np.ndarray:
    """-amplitude cos(m x2) on the n x n grid, x1 along axis 0."""
    x2 = np.arange(n) * (2.0 * math.pi / n)
    return np.broadcast_to(-amplitude * np.cos(m * x2)[None, :], (n, n)).copy()


def band_limited_noise(n: int, band: int, rng: np.random.Generator) -> np.ndarray:
    """Real mean-free field with Fourier modes 0 < max(|k1|, |k2|) <= band."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    keep = np.maximum(np.abs(k)[:, None], np.abs(k)[None, :]) <= band
    keep[0, 0] = False
    return np.fft.ifft2(np.fft.fft2(rng.standard_normal((n, n))) * keep).real


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


class Checks:
    """Collects failed checks as readable lines."""

    def __init__(self):
        self.failures: list[str] = []

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    subcommand: str
    n: int
    m: int
    amplitude: float

    def config_text(self, work: Path) -> str:
        raise NotImplementedError

    def prepare(self, work: Path, seed: int) -> list[str]:
        """Write the inputs for this seed; return the subcommand's extra arguments."""
        (work / "run.ini").write_text(self.config_text(work))
        return []

    def argv(self, work: Path, out: Path, extra: list[str]) -> list[str]:
        return [self.subcommand, "--config", str(work / "run.ini"), "--out", str(out), "--jobs", "1", *extra]

    def check(self, out: Path, work: Path, checks: Checks, traced: dict | None) -> None:
        raise NotImplementedError


# -- escape sweep -------------------------------------------------------------------

@dataclass(frozen=True)
class EscapeSweep(Workload):
    K: int = 8
    epsilons: tuple[float, ...] = (1e-2, 1e-3, 1e-4, 1e-5)

    def config_text(self, work: Path) -> str:
        eps = ",".join(f"{e:g}" for e in self.epsilons)
        return (
            f"[grid]\nn = {self.n}\n"
            f"[steady]\nkind = shear\nm = {self.m}\namplitude = {self.amplitude!r}\n"
            "[time]\ncfl = 0.4\ndt_max = 0.02\nt_max = 60.0\nobserve_every = 0.05\n"
            f"[spectrum]\nk = {self.K}\nmethod = dense\n"
            f"[experiment]\nepsilons = {eps}\nr = 2.0\n"
        )

    def check(self, out, work, checks, traced):
        lam = ref.shear_chain_lambda(self.amplitude, self.m, self.K)
        summary = read_summary(out / "sweep_summary.txt")
        sweep = read_csv(out / "sweep.csv")
        lam_prog = float(summary["lambda_spectral"])
        checks.require(_rel(lam_prog, lam) <= 1e-10,
                       f"program lambda {lam_prog!r} vs chain lambda {lam!r}")
        checks.require(summary["not_escaped"] == "[]", f"not escaped: {summary['not_escaped']}")
        eps = sweep["epsilon"]
        t_esc = sweep["escape_time"]
        checks.require(len(eps) == len(self.epsilons) and np.allclose(eps, self.epsilons, rtol=1e-15),
                       f"sweep rows {eps.tolist()}")
        checks.require(bool(np.all(np.isfinite(t_esc))), "an escape time is missing")
        x = np.log(1.0 / eps)
        slope, intercept = np.polyfit(x, t_esc, 1)
        fitted = slope * x + intercept
        r2 = 1.0 - np.sum((t_esc - fitted) ** 2) / np.sum((t_esc - t_esc.mean()) ** 2)
        checks.require(_rel(slope, 1.0 / lam) <= 1e-3, f"escape slope {slope!r} vs 1/lambda {1 / lam!r}")
        checks.require(r2 > 0.9999, f"escape-law R^2 {r2!r}")
        checks.require(_rel(float(summary["slope"]), slope) <= 1e-9,
                       f"reported slope {summary['slope']} vs refit {slope!r}")
        for e, lh in zip(eps, sweep["lambda_hat"]):
            checks.require(_rel(lh, lam) <= 1e-3, f"eps {e:g}: fitted rate {lh!r} vs {lam!r}")
        threshold = math.pi * self.amplitude / math.sqrt(2.0)
        checks.require(_rel(float(summary["threshold"]), threshold) <= 1e-12,
                       f"threshold {summary['threshold']} vs pi A / sqrt 2 = {threshold!r}")
        grad = self.amplitude * self.m
        checks.require(_rel(float(summary["max_grad_linf"]), grad) <= 1e-2,
                       f"max_grad_linf {summary['max_grad_linf']} vs A m = {grad}")
        for e in self.epsilons:
            series = read_csv(out / f"series_eps_{e:.3e}.csv")
            checks.require(series["l2"][-1] >= threshold * (1 - 1e-12),
                           f"eps {e:g}: series ends below the threshold")
        if traced is not None:
            _check_traced_spectrum(traced, lam, checks)


def _check_traced_spectrum(traced: dict, lam: float, checks: Checks) -> None:
    """The dense residual is only visible to the traced run, which sees the
    returned eigenpair."""
    spectra = traced["results"]["spectra"]
    checks.require(len(spectra) == 1, f"{len(spectra)} spectra computed, expected 1")
    for s in spectra:
        checks.require(s["residual"] < 1e-8, f"dense residual {s['residual']!r}")
        checks.require(_rel(s["lambda"], lam) <= 1e-10, f"traced lambda {s['lambda']!r} vs {lam!r}")


# -- modulus trajectory -----------------------------------------------------------

@dataclass(frozen=True)
class ModulusTrajectory(Workload):
    K: int = 21
    delta: float = 0.01
    gamma: float = 0.01
    A_mod: float = 1.0
    t_max: float = 2.0
    observe_every: float = 0.25

    def config_text(self, work: Path) -> str:
        # the content of configs/modulus_small.ini, kept here so the workload
        # does not change when that file does
        return (
            f"[grid]\nn = {self.n}\n"
            f"[steady]\nkind = shear\nm = {self.m}\namplitude = {self.amplitude!r}\n"
            f"[time]\ncfl = 0.4\ndt_max = 0.02\nt_max = {self.t_max!r}\n"
            f"observe_every = {self.observe_every!r}\n"
            f"[spectrum]\nk = {self.K}\nmethod = dense\n"
            "[experiment]\nepsilons = 1e-3\n"
            f"[modulus]\ndelta_mod = {self.delta!r}\ngamma_mod = {self.gamma!r}\n"
            f"a = {self.A_mod!r}\ncbig = 10.0\nseed = 0\n"
        )

    def prepare(self, work, seed):
        super().prepare(work, seed)
        return ["--trajectory", "--seed", str(seed)]

    def check(self, out, work, checks, traced):
        summary = read_summary(out / "modulus_summary.txt")
        B = float(summary["B"])
        power = round(math.log(B) / math.log(1.25))
        checks.require(_rel(B, 1.25**power) <= 1e-12, f"B = {B!r} is not a power of 1.25")
        # theta0 = -a cos(m x2) is steady under f = Lambda theta0 = m theta0
        f_linf = self.amplitude * self.m
        f_grad = self.amplitude * self.m**2
        checks.require(self.A_mod * B * B * (1 + 1e-12) >= f_grad, f"A B^2 < ||grad f|| at B = {B!r}")
        checks.require(ref.force_level_ok(B * (1 + 1e-12), f_linf, self.delta, self.gamma),
                       f"omega_B(d)/d < 4 pi ||f|| at B = {B!r}")
        ver = read_csv(out / "verification.csv")
        worst = 0.0
        for xi, adv in zip(ver["xi"], ver["Omega_B"]):
            closed = ref.Omega_B_closed(xi, self.A_mod, B, self.delta, self.gamma)
            worst = max(worst, _rel(adv, closed * B * ref.omega_prime(B * xi, self.delta, self.gamma)))
        checks.require(worst <= 1e-9, f"Omega_B column off the closed form by {worst:.3e}")
        checks.require(bool(np.all(ver["M_B"] < 0)), "M_B >= 0 on some row")
        lhs = ver["Omega_B"] + ver["M_B"] + ver["F_B"]
        finite = np.isfinite(lhs)
        checks.require(np.allclose(lhs[finite], ver["lhs"][finite], rtol=1e-12, atol=0),
                       "lhs column is not Omega_B + M_B + F_B")
        checks.require(summary["pass"] == "true", f"pass = {summary['pass']}")
        margin = float(summary["max_lhs"]) + float(summary["quadrature_error"])
        checks.require(margin < 0, f"max_lhs + quadrature_error = {margin!r}")
        traj = read_csv(out / "trajectory.csv")
        records = round(self.t_max / self.observe_every) + 1
        checks.require(len(traj["t"]) == records, f"{len(traj['t'])} trajectory records, expected {records}")
        checks.require(np.allclose(traj["t"], np.arange(records) * self.observe_every, rtol=0, atol=1e-12),
                       "trajectory times off the observation cadence")
        checks.require(bool(np.all(traj["modulus_ratio"] < 1.0)), "trajectory ratio >= 1")
        if traced is not None:
            _check_traced_spectrum(traced, ref.shear_chain_lambda(self.amplitude, self.m, self.K), checks)


# -- full-field evolve --------------------------------------------------------------

@dataclass(frozen=True)
class EvolveFull(Workload):
    t_max: float = 1.0
    observe_every: float = 0.05
    # below the CFL step over the whole run, so the step sequence (and every
    # count) does not depend on the seeded perturbation
    dt_max: float = 0.0016
    band: int = 8
    rel_amplitude: float = 0.02

    def config_text(self, work: Path) -> str:
        return (
            f"[grid]\nn = {self.n}\n"
            f"[steady]\nkind = shear\nm = {self.m}\namplitude = {self.amplitude!r}\n"
            f"[time]\ncfl = 0.4\ndt_max = {self.dt_max!r}\nt_max = {self.t_max!r}\n"
            f"observe_every = {self.observe_every!r}\ninitial = {work / 'initial.sqgf'}\n"
        )

    def initial_values(self, seed: int) -> np.ndarray:
        theta0 = shear_values(self.n, self.m, self.amplitude)
        noise = band_limited_noise(self.n, self.band, np.random.default_rng(seed))
        return theta0 + noise * (self.rel_amplitude * np.linalg.norm(theta0) / np.linalg.norm(noise))

    def prepare(self, work, seed):
        write_sqgf(work / "initial.sqgf", self.initial_values(seed))
        return super().prepare(work, seed)

    def check(self, out, work, checks, traced):
        series = read_csv(out / "series.csv")
        t = series["t"]
        records = round(self.t_max / self.observe_every) + 1
        checks.require(len(t) == records, f"{len(t)} records, expected {records}")
        checks.require(abs(t[-1] - self.t_max) <= 1e-12, f"run ends at t = {t[-1]!r}")
        checks.require(np.allclose(t, np.arange(len(t)) * self.observe_every, rtol=0, atol=1e-9),
                       "records off the observation cadence")
        n = self.n
        c0 = np.fft.fft2(read_sqgf(work / "initial.sqgf")) / n**2
        l2_0 = 2.0 * math.pi * float(np.linalg.norm(c0))
        checks.require(_rel(series["l2"][0], l2_0) <= 1e-12, f"l2 at t = 0 is {series['l2'][0]!r}, input {l2_0!r}")
        final = read_sqgf(out / "theta_final.sqgf")
        checks.require(final.shape == (n, n) and bool(np.all(np.isfinite(final))), "final field not finite")
        c = np.fft.fft2(final) / n**2
        scale = float(np.max(np.abs(c)))
        checks.require(abs(c[0, 0]) <= 1e-12 * scale, f"final mean {abs(c[0, 0])!r} of scale {scale!r}")
        k = np.abs(np.fft.fftfreq(n, d=1.0 / n))
        outside = np.maximum(k[:, None], k[None, :]) > n // 3
        leak = float(np.sum(np.abs(c[outside]) ** 2) / np.sum(np.abs(c) ** 2))
        checks.require(leak <= 1e-24, f"energy {leak:.3e} outside the 2/3-rule band")
        # [0.5, t_max] is past the initial transient of the damped high modes
        for t0, t1 in ((0.5, self.t_max), (0.0, self.t_max)):
            change, integral, err = ref.energy_ledger(t, series["l2"], series["energy_flux"], t0, t1)
            checks.require(abs(change - integral) <= 1.5 * err,
                           f"energy ledger on [{t0}, {t1}]: change {change!r}, "
                           f"trapezoid {integral!r}, rule error {err!r}")


WORKLOADS = {
    w.name: w
    for w in (
        EscapeSweep(
            "escape_sweep_n24",
            "headline escape-time sweep: perturbation-mode stepping on small FFTs plus a small dense spectrum",
            "instability", n=24, m=2, amplitude=10.0,
        ),
        ModulusTrajectory(
            "modulus_trajectory_n64",
            "the only modulus traffic (quad-heavy inequality check, empirical modulus) plus a K=21 dense spectrum",
            "modulus", n=64, m=1, amplitude=2e-4,
        ),
        EvolveFull(
            "evolve_full_n128",
            "full-equation loop at n=128 where FFT cost, not Python overhead, sets the step time",
            "evolve", n=128, m=2, amplitude=10.0,
        ),
    )
}
