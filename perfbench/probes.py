"""Direct calls of single sqglab functions on a workload's grid and steady state.

    python3 probes.py OUT_JSON --n N --m M --amplitude A --seed S --work DIR [--fallback METRIC ...]

Every run times the probes in ``PROBES`` (median of repeated calls, in ms).
A ``--fallback`` metric belongs to a layer that the workload's own subcommand
never reached: its call in ``FALLBACKS``, on a small fixed case, runs under
the tracer, so that every layer time is a measurement on every workload.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from tracer import Tracer
from workloads import band_limited_noise

import sqglab.cli  # noqa: F401  (the subcommands' import set)
from sqglab import dynamics, growth, linop, modulus, spectral, sqgf

# slope parameter of the modulus probes: the B the modulus workload selects
PROBE_B = 1.25**20
PROBE_XI = np.geomspace(1e-4, 8.0, 9)


def median_ms(fn, min_reps: int = 5, budget_s: float = 0.3) -> float:
    fn()
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or (time.perf_counter() - start < budget_s and len(times) < 2000):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return 1e3 * statistics.median(times)


class Case:
    """The workload's grid, steady state and a small seeded perturbation."""

    def __init__(self, n: int, m: int, amplitude: float, seed: int, work: Path):
        self.grid = spectral.GridSpec(n)
        self.steady = dynamics.shear_steady_state(self.grid, m, amplitude)
        self.work = work
        noise = band_limited_noise(n, min(8, n // 3), np.random.default_rng(seed))
        theta0 = spectral.inverse(self.steady.theta0).values
        scale = 1e-2 * max(np.linalg.norm(theta0), 1.0) / np.linalg.norm(noise)
        self.values = theta0 + scale * noise
        self.full = spectral.forward(spectral.PhysicalField(self.grid, self.values))
        self.pert = spectral.forward(spectral.PhysicalField(self.grid, scale * noise))
        self.op = linop.LinearOperator(self.steady)
        self.params = modulus.ModulusParams(B=PROBE_B)
        self.stepper = dynamics.StepperConfig()
        self.full_state = dynamics.EvolutionState(self.full, 0.0, self.steady, dynamics.FULL)
        self.pert_state = dynamics.EvolutionState(self.pert, 0.0, self.steady, dynamics.PERTURBATION)


def probe_step(case: Case, state):
    dt = dynamics.cfl_dt(state, case.stepper)
    return lambda: dynamics.step(state, dt, case.stepper)


PROBES = {
    "spectral.fft_pair_ms": lambda c: (
        lambda: spectral.inverse(spectral.forward(spectral.PhysicalField(c.grid, c.values)))),
    "dynamics.nonlinear_term_ms": lambda c: (lambda: dynamics.nonlinear_term(c.full)),
    "dynamics.step_full_ms": lambda c: probe_step(c, c.full_state),
    "dynamics.step_perturbation_ms": lambda c: probe_step(c, c.pert_state),
    "dynamics.observed_norms_ms": lambda c: (lambda: dynamics.observed_norms(c.full_state)),
    "linop.apply_L_ms": lambda c: (lambda: linop.apply_L(c.op, c.pert)),
    "linop.evolve_linear_ms": lambda c: (lambda: linop.evolve_linear(c.op, c.pert, 0.01, dt_target=1e-3)),
}


# -- fallbacks: each returns the call to make under the tracer -------------------

def _evolve(c: Case):
    return lambda: dynamics.evolve(c.full_state, 0.02, c.stepper, observe_every=0.01)


def _perturbation(c: Case):
    spectrum = linop.rightmost_eigenpair(c.op, K=4)  # made before the tracer is installed
    exp = growth.ExperimentConfig(steady=c.steady, spectrum=spectrum, epsilons=[1e-3],
                                  threshold=math.inf, t_max=0.02)
    return lambda: growth.run_perturbation(exp, 1e-3)


def _spectrum(c: Case):
    return lambda: linop.rightmost_eigenpair(c.op, K=4)


def _verify(c: Case):
    return lambda: modulus.verify_inequality(c.params, (2e-4, 2e-4), xi_grid=PROBE_XI[::2])


def _choose_B(c: Case):
    th, f = c.steady.theta0, c.steady.f
    norms = [(spectral.norm_linf(x), spectral.norm_linf_grad(x)) for x in (th, f)]
    return lambda: modulus.choose_B(norms[0], norms[1], modulus.ModulusParams())


def _Omega_B(c: Case):
    return lambda: [modulus.Omega_B_with_error(c.params, float(xi)) for xi in PROBE_XI]


def _M_B(c: Case):
    return lambda: [modulus.M_B_with_error(c.params, float(xi)) for xi in PROBE_XI]


def _empirical(c: Case):
    return lambda: [modulus.empirical_modulus(c.steady.theta0, c.params) for _ in range(5)]


def _inverse(c: Case):
    return lambda: spectral.inverse(c.full)


def _field_io(c: Case):
    path = c.work / "probe.sqgf"
    field = spectral.PhysicalField(c.grid, c.values)
    return lambda: (sqgf.write_field(path, field), sqgf.read_field(path))


FALLBACKS = {
    "dynamics.evolve_s": _evolve,
    "growth.run_perturbation_s": _perturbation,
    "linop.assemble_dense_s": _spectrum,
    "linop.eigensolve_s": _spectrum,
    "modulus.verify_inequality_s": _verify,
    "modulus.choose_B_s": _choose_B,
    "modulus.Omega_B_ms": _Omega_B,
    "modulus.M_B_ms": _M_B,
    "modulus.empirical_modulus_ms": _empirical,
    "spectral.inverse_s": _inverse,
    "sqgf.read_field_s": _field_io,
    "sqgf.write_field_s": _field_io,
}


def main(argv) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("out")
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--m", type=int, required=True)
    ap.add_argument("--amplitude", type=float, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--fallback", nargs="*", default=[])
    args = ap.parse_args(argv)
    case = Case(args.n, args.m, args.amplitude, args.seed, args.work)
    probes = {name: median_ms(make(case)) for name, make in PROBES.items()}
    makers = dict.fromkeys(FALLBACKS[name] for name in args.fallback if name in FALLBACKS)
    calls = [make(case) for make in makers]
    tracer = Tracer()
    tracer.install()
    try:
        for call in calls:
            call()
    finally:
        tracer.uninstall()
    tracer.dump(args.out, probes=probes, import_s=0.0)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
