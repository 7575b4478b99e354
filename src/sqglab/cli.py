"""Batch front-end: config-driven subcommands producing deterministic CSV
tables and SQGF field files.

Exit codes: 0 success, 1 scientific failure (inequality / regression / gate),
2 validation error, 3 numerical failure (blow-up, non-convergence).
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import sqgf
from .config import RunConfig, load_config
from .dynamics import (
    EvolutionState,
    FULL,
    PERTURBATION,
    StepperConfig,
    SteadyState,
    evolve,
    integrate,
    make_steady,
    shear_steady_state,
)
from .errors import (
    BlowUpError,
    ConvergenceError,
    FitError,
    QuadratureError,
    SqgLabError,
    ValidationError,
)
from .growth import (
    ExperimentConfig,
    check_epsilons,
    epsilon_sweep,
    real_eigenfunction,
    run_perturbation,
)
from .linop import LinearOperator, SpectrumResult, check_dense_cap, rightmost_eigenpair
from .modulus import (
    ModulusParams,
    choose_B,
    empirical_modulus,
    verify_inequality,
)
from .spectral import (
    GridSpec,
    PhysicalField,
    SpectralField,
    forward,
    half_values,
    inverse,
    norm_l2,
    norm_linf,
    norm_linf_grad,
    real_imag_halves,
)

STEADY_RESIDUAL_GATE = 1e-10
SPECTRUM_RESIDUAL_GATE = 1e-8


def _fmt(x) -> str:
    if x is None:
        return "nan"
    return f"{float(x):.17g}"


def _write_series(path: Path, series: dict) -> None:
    """A CSV with the keys as its header and one row per index of the
    columns."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(series) + "\n")
        for row in zip(*series.values()):
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _series_name(epsilon: float) -> str:
    return f"series_eps_{epsilon:.3e}.csv"


def _write_text(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_input(path, n: int, what: str) -> SpectralField:
    """The coefficients of an SQGF input field, checked to be on the n grid
    and mean-free."""
    field = sqgf.read_field(path)
    if field.grid.n != n:
        raise ValidationError(f"{what} has n={field.grid.n}, config says n={n}")
    theta = forward(field)
    if not theta.mean_free:
        raise ValidationError(f"{what} must be mean-free")
    return theta


def _build_steady(cfg: RunConfig) -> SteadyState:
    grid = GridSpec(cfg.grid.n)
    if cfg.steady.kind == "shear":
        return shear_steady_state(grid, cfg.steady.m, cfg.steady.amplitude)
    return make_steady(_read_input(cfg.steady.file, grid.n, "custom steady field"))


def _build_spectrum(cfg: RunConfig, steady: SteadyState) -> SpectrumResult:
    op = LinearOperator(steady)
    return rightmost_eigenpair(
        op,
        K=cfg.spectrum.K,
        method=cfg.spectrum.method,
        tau_pow=cfg.spectrum.tau_pow,
    )


def _spectrum_gate(res: SpectrumResult) -> bool:
    if res.method == "dense":
        return res.residual < SPECTRUM_RESIDUAL_GATE
    return res.propagator_residual < SPECTRUM_RESIDUAL_GATE and res.residual < 1e-3


def _write_field(path: Path, grid, values) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    sqgf.write_field(path, PhysicalField(grid, np.ascontiguousarray(values)))


def cmd_steady(cfg: RunConfig, out: Path) -> int:
    steady = _build_steady(cfg)
    residual = steady.residual_linf()
    g = steady.grid
    _write_field(out / "theta0.sqgf", g, inverse(steady.theta0).values)
    _write_field(out / "f.sqgf", g, inverse(steady.f).values)
    _write_field(out / "q0_1.sqgf", g, steady.advection_base[0])
    _write_field(out / "q0_2.sqgf", g, steady.advection_base[1])
    _write_text(
        out / "steady_report.txt",
        [
            f"n = {g.n}",
            f"residual_linf = {_fmt(residual)}",
            f"theta0_l2 = {_fmt(norm_l2(steady.theta0))}",
            f"f_linf = {_fmt(norm_linf(steady.f))}",
            f"grad_theta0_linf = {_fmt(norm_linf_grad(steady.theta0))}",
            f"gate = {'pass' if residual < STEADY_RESIDUAL_GATE else 'fail'}",
        ],
    )
    print(f"steady residual {residual:.3e} (gate {STEADY_RESIDUAL_GATE:g})")
    return 0 if residual < STEADY_RESIDUAL_GATE else 1


def cmd_spectrum(cfg: RunConfig, out: Path) -> int:
    steady = _build_steady(cfg)
    res = _build_spectrum(cfg, steady)
    order = np.lexsort((-res.eigenvalues.imag, -res.eigenvalues.real))
    eigenvalues = res.eigenvalues[order]
    _write_series(out / "spectrum.csv", {"re": eigenvalues.real, "im": eigenvalues.imag})
    g = steady.grid
    phi_re, phi_im = half_values(np.stack(real_imag_halves(res.eigenfunction.coeffs)), g.n)
    _write_field(out / "phi_re.sqgf", g, phi_re)
    _write_field(out / "phi_im.sqgf", g, phi_im)
    _write_text(
        out / "spectrum_summary.txt",
        [
            f"method = {res.method}",
            f"truncation_K = {res.truncation}",
            f"mu = {_fmt(res.rightmost.real)} + {_fmt(res.rightmost.imag)}i",
            f"lambda = {_fmt(res.rightmost.real)}",
            f"residual = {_fmt(res.residual)}",
            f"propagator_residual = {_fmt(res.propagator_residual)}",
            f"iterations = {res.iterations}",
            f"gate = {'pass' if _spectrum_gate(res) else 'fail'}",
        ],
    )
    print(
        f"rightmost eigenvalue {res.rightmost:.8f}, residual {res.residual:.3e}"
        f" ({res.method})"
    )
    return 0 if _spectrum_gate(res) else 1


def cmd_evolve(cfg: RunConfig, out: Path) -> int:
    init = None
    if cfg.time.initial is not None:
        init = _read_input(cfg.time.initial, cfg.grid.n, "initial field")
    steady = _build_steady(cfg)
    g = steady.grid
    state = EvolutionState(steady.theta0.copy() if init is None else init, 0.0, steady, FULL)
    stepper = StepperConfig(cfl=cfg.time.cfl, dt_max=cfg.time.dt_max)
    result = evolve(
        state, cfg.time.t_max, stepper, observe_every=cfg.time.observe_every
    )
    _write_series(out / "series.csv", result.series)
    _write_field(out / "theta_final.sqgf", g, inverse(result.state.theta).values)
    print(f"evolved to t = {result.state.t:g} ({result.series['t'].size} records)")
    return 0


def _pool(workers: int):
    """A pool of `workers` processes.  concurrent.futures.process and
    multiprocessing are imported here, so only a run with --jobs > 1 loads
    them."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def cmd_instability(cfg: RunConfig, out: Path, jobs: int) -> int:
    steady = _build_steady(cfg)
    spectrum = _build_spectrum(cfg, steady)
    if not _spectrum_gate(spectrum):
        print(f"spectrum gate failed: residual {spectrum.residual:.3e} ({spectrum.method})")
        return 1
    lam = spectrum.rightmost.real
    if lam <= 0:
        print(
            f"rightmost eigenvalue {lam:.6f} <= 0: the steady state is "
            "spectrally stable, the escape-time experiment is vacuous"
        )
        return 1
    exp = ExperimentConfig(
        steady=steady,
        spectrum=spectrum,
        epsilons=list(cfg.experiment.epsilons),
        envelope_radius=cfg.experiment.R,
        threshold=cfg.experiment.threshold,
        observe_every=cfg.time.observe_every,
        stepper=StepperConfig(cfl=cfg.time.cfl, dt_max=cfg.time.dt_max),
    )
    workers = min(jobs, len(exp.epsilons))
    run = partial(run_perturbation, exp)
    if workers > 1:
        with _pool(workers) as pool:
            records = list(pool.map(run, exp.epsilons))
    else:
        records = list(map(run, exp.epsilons))
    for rec in records:
        _write_series(out / _series_name(rec.epsilon), rec.series)
    if len(records) == 1:
        print("single epsilon: running one record, no regression")
        return 0
    columns = ("epsilon", "lambda_hat", "escape_time", "escape_norm", "max_grad_linf")
    _write_series(
        out / "sweep.csv",
        {name: [getattr(r, name) for r in records] for name in columns},
    )
    try:
        report = epsilon_sweep(exp, records)
    except FitError as exc:
        print(f"escape-law fit failed: {exc}")
        return 1
    rel_gap = abs(report.slope - 1.0 / lam) * lam
    _write_text(
        out / "sweep_summary.txt",
        [
            f"lambda_spectral = {_fmt(lam)}",
            f"slope = {_fmt(report.slope)}",
            f"one_over_lambda = {_fmt(1.0 / lam)}",
            f"slope_rel_gap = {_fmt(rel_gap)}",
            f"intercept = {_fmt(report.intercept)}",
            f"r_squared = {_fmt(report.r_squared)}",
            f"threshold = {_fmt(report.threshold)}",
            f"not_escaped = {report.not_escaped}",
            f"max_grad_linf = {_fmt(report.max_grad_linf)}",
        ],
    )
    print(
        f"escape-time slope {report.slope:.4f} vs 1/lambda {1.0 / lam:.4f} "
        f"(R^2 = {report.r_squared:.5f})"
    )
    return 0 if not report.not_escaped else 1


def cmd_modulus(cfg: RunConfig, out: Path, seed: int | None, trajectory: bool) -> int:
    steady = _build_steady(cfg)
    mo = cfg.modulus
    use_seed = mo.seed if seed is None else seed
    base = ModulusParams(
        delta_mod=mo.delta_mod, gamma_mod=mo.gamma_mod, B=1.0, A=mo.A, C_big=mo.Cbig
    )
    th_norms = (norm_linf(steady.theta0), norm_linf_grad(steady.theta0))
    f_norms = (norm_linf(steady.f), norm_linf_grad(steady.f))
    sel = choose_B(th_norms, f_norms, base, theta0=steady.theta0, seed=use_seed)
    if not sel.feasible:
        _write_text(
            out / "modulus_summary.txt",
            [
                "B = infeasible",
                f"minima = {sel.minima}",
                f"notes = {sel.notes}",
                "pass = false",
            ],
        )
        print(f"no representable B satisfies the selection conditions: {sel.notes}")
        return 1
    params = base.with_B(sel.B)
    report = verify_inequality(params, f_norms)
    # the gate requires both the verified inequality and a negative
    # long-range regime coefficient A*gamma + 1/(2pi) - 1/pi
    gate = report.passed and report.long_range_coefficient < 0
    lines = [
        f"B = {_fmt(sel.B)}",
        f"selection_minima = {sel.minima}",
        f"max_lhs = {_fmt(report.max_lhs)}",
        f"quadrature_error = {_fmt(report.quadrature_error)}",
        f"short_range_bracket_max = {_fmt(report.short_range_bracket_max)}",
        f"long_range_coefficient = {_fmt(report.long_range_coefficient)}",
        f"pass = {'true' if gate else 'false'}",
    ]
    code = 0 if gate else 1
    traj = None

    # every file is written last, so a numerical failure leaves no output
    if trajectory:
        # the perturbation dynamics from eps Re(phi) to t_max: the modulus is
        # checked on the full field at every observation
        psi = real_eigenfunction(_build_spectrum(cfg, steady))
        stepper = StepperConfig(cfl=cfg.time.cfl, dt_max=cfg.time.dt_max)
        run = integrate(
            steady, PERTURBATION, cfg.experiment.epsilons[0] * psi.coeffs, 0.0,
            cfg.time.t_max, stepper, cfg.time.observe_every,
        )
        traj = {"t": [], "modulus_ratio": []}
        for c, norms in run:
            full = SpectralField(steady.grid, c + steady.theta0.coeffs)
            traj["t"].append(norms["t"])
            traj["modulus_ratio"].append(empirical_modulus(full, params, seed=use_seed))
        worst = max(traj["modulus_ratio"])
        lines.append(f"trajectory_max_ratio = {_fmt(worst)}")
        lines.append(f"trajectory_pass = {'true' if worst < 1.0 else 'false'}")
        if worst >= 1.0:
            code = 1
        print(f"trajectory modulus ratio max {worst:.4f} over {len(traj['t'])} records")

    _write_series(
        out / "verification.csv",
        {
            "xi": report.xi_grid, "omega_B": report.omega_vals, "Omega_B": report.advection,
            "M_B": report.dissipation, "F_B": report.force, "lhs": report.lhs,
        },
    )
    if traj is not None:
        _write_series(out / "trajectory.csv", traj)
    _write_text(out / "modulus_summary.txt", lines)
    print(
        f"B = {sel.B:.6g}, max lhs = {report.max_lhs:.4e} "
        f"({'pass' if gate else 'fail'})"
    )
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sqglab",
        description="Forced critical SQG laboratory: steady states, spectra, "
        "instability experiments, modulus verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("steady", "spectrum", "evolve", "instability", "modulus"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI run configuration")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--jobs", type=int, default=1, help="parallel runs for sweeps")
        if name == "modulus":
            p.add_argument("--seed", type=int, default=None, help="64-bit sampler seed")
            p.add_argument(
                "--trajectory",
                action="store_true",
                help="re-check the empirical modulus along a perturbation run",
            )
    args = parser.parse_args(argv)

    try:
        seed = getattr(args, "seed", None)
        if seed is not None and not 0 <= seed <= 2**64 - 1:
            raise ValidationError("--seed must be a 64-bit unsigned integer")
        if args.jobs < 1:
            raise ValidationError("--jobs must be at least 1")
        cfg = load_config(args.config)
        out = Path(args.out or cfg.io.out_dir).resolve()
        if not next(p for p in (out, *out.parents) if p.exists()).is_dir():
            raise ValidationError(f"output directory {out} is a file or lies under one")
        # a dense spectrum over its size cap, a sweep too short to fit the
        # escape law, or epsilons sharing a series file fail before computing
        if args.command == "instability":
            eps = cfg.experiment.epsilons
            check_epsilons(eps)
            if len({_series_name(e) for e in eps}) < len(eps):
                raise ValidationError(f"two epsilons share a series file: {eps}")
        if cfg.spectrum.method == "dense" and (
            args.command in ("spectrum", "instability") or getattr(args, "trajectory", False)
        ):
            # a shear is x1-invariant, so its largest block is one k1 chain; a
            # custom-file state is known only once read: it counts as one block of M
            w = 2 * (cfg.spectrum.K or GridSpec(cfg.grid.n).dealias_radius) + 1
            check_dense_cap(w if cfg.steady.kind == "shear" else w**2 - 1)
        if args.command == "steady":
            return cmd_steady(cfg, out)
        if args.command == "spectrum":
            return cmd_spectrum(cfg, out)
        if args.command == "evolve":
            return cmd_evolve(cfg, out)
        if args.command == "instability":
            return cmd_instability(cfg, out, args.jobs)
        return cmd_modulus(cfg, out, seed, args.trajectory)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (BlowUpError, ConvergenceError, QuadratureError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        for key, value in getattr(exc, "diagnostics", {}).items():
            print(f"  {key} = {_fmt(value)}", file=sys.stderr)
        return 3
    except SqgLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
