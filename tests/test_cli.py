"""Config parsing, SQGF round-trips, and the command-line front end."""

import os
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sqglab import cli, dynamics, errors, modulus, sqgf
from sqglab.cli import main
from sqglab.config import load_config
from sqglab.spectral import GridSpec, PhysicalField, meshgrid


ROOT = Path(__file__).resolve().parents[1]


def run_python(code):
    """Run code in a fresh interpreter that imports sqglab from the source tree."""
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_scipy_solvers_unloaded():
    # ARPACK is imported lazily, by the function that calls it, and nothing in
    # the program needs scipy.linalg
    code = (
        "import sys, sqglab.cli; "
        "print([m for m in ('scipy.integrate', 'scipy.sparse.linalg', 'scipy.linalg')"
        " if m in sys.modules])"
    )
    assert run_python(code) == "[]"


def test_cli_import_leaves_process_pool_unloaded():
    # the pool is imported by the function that builds it, for --jobs > 1 only
    code = (
        "import sys, sqglab.cli; "
        "print([m for m in ('concurrent.futures.process', 'multiprocessing')"
        " if m in sys.modules])"
    )
    assert run_python(code) == "[]"


def test_cmd_modulus_leaves_scipy_quadrature_unloaded(tmp_path):
    # the bound functionals are a closed form and one tanh-sinh rule
    config = ROOT / "configs" / "modulus_small.ini"
    argv = ["modulus", "--config", str(config), "--out", str(tmp_path)]
    code = (
        f"import sys; from sqglab.cli import main; code = main({argv!r}); "
        "print(code, [m for m in ('scipy.integrate', 'scipy.special') if m in sys.modules])"
    )
    assert run_python(code) == "0 []"
    assert "pass = true" in (tmp_path / "modulus_summary.txt").read_text()


def test_cli_runs_without_complex_ffts(tmp_path, monkeypatch):
    # every transform of the program is an rfft2/irfft2 of half-spectra
    def refuse(*args, **kwargs):
        raise AssertionError("complex FFT called")

    g = GridSpec(16)
    x1, x2 = meshgrid(g)
    init = tmp_path / "init.sqgf"
    sqgf.write_field(init, PhysicalField(g, -10.0 * np.cos(2 * x2) + 0.1 * np.sin(x1)))
    for name in ("fft2", "ifft2", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, refuse)
    cfg = steady_ini(
        tmp_path, n=16, m=2, amplitude=10.0,
        extra=f"[time]\nt_max = 0.05\nobserve_every = 0.025\ninitial = {init}\n",
    )
    for command in ("steady", "spectrum", "evolve"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0


def write_config(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- config --------------------------------------------------------------------


def test_config_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path / "c.ini", "[grid]\nn = 64\n"))
    assert cfg.grid.n == 64
    assert cfg.steady.kind == "shear"
    assert cfg.experiment.epsilons == [1e-2, 1e-3, 1e-4, 1e-5]
    assert cfg.modulus.delta_mod == 1e-2


def test_config_full_roundtrip(tmp_path):
    text = """
[grid]
n = 48
[steady]
kind = shear
m = 2
amplitude = 10.0   # past the instability threshold
[time]
cfl = 0.4
dt_max = 0.02
t_max = 5.0
observe_every = 0.1
[spectrum]
k = 16
method = dense
[experiment]
epsilons = 1e-1,1e-2,1e-3,1e-4
threshold = 2.0
r = 2.0
[modulus]
delta_mod = 0.01
gamma_mod = 0.01
a = 1.0
cbig = 10.0
seed = 42
[io]
out_dir = results
"""
    cfg = load_config(write_config(tmp_path / "c.ini", text))
    assert cfg.spectrum.K == 16
    assert cfg.experiment.epsilons == [1e-1, 1e-2, 1e-3, 1e-4]
    assert cfg.modulus.seed == 42
    assert cfg.io.out_dir == "results"


def test_config_rejects_unknown_key(tmp_path):
    for text in (
        "[grid]\nn = 64\nfoo = 1\n",
        "[experiment]\ngamma_interp = 0.5\n",
        "[experiment]\ndelta_shift = 0.1\n",
    ):
        with pytest.raises(errors.ValidationError, match="unknown key"):
            load_config(write_config(tmp_path / "c.ini", text))


def test_config_rejects_unknown_section(tmp_path):
    with pytest.raises(errors.ValidationError, match="unknown config section"):
        load_config(write_config(tmp_path / "c.ini", "[nope]\nx = 1\n"))


def test_config_rejects_bad_values(tmp_path):
    with pytest.raises(errors.ValidationError):
        load_config(write_config(tmp_path / "a.ini", "[grid]\nn = 63\n"))
    with pytest.raises(errors.ValidationError):
        load_config(
            write_config(tmp_path / "b.ini", "[grid]\nn = 64\n[spectrum]\nk = 22\n")
        )
    with pytest.raises(errors.ValidationError):
        load_config(
            write_config(
                tmp_path / "c.ini", "[experiment]\nepsilons = 1e-4,1e-2\n"
            )
        )
    # the modulus must be increasing and concave: delta <= 4/9 and
    # gamma <= 4 delta (1 - 1.5 sqrt(delta))
    for name, delta, gamma in [("d", 0.9, 0.1), ("e", 0.5, 0.01), ("f", 0.4, 0.1)]:
        text = f"[modulus]\ndelta_mod = {delta}\ngamma_mod = {gamma}\n"
        with pytest.raises(errors.ValidationError):
            load_config(write_config(tmp_path / f"{name}.ini", text))


@pytest.mark.parametrize(
    "section,key",
    [
        ("time", "dt_max"),
        ("time", "t_max"),
        ("time", "observe_every"),
        ("experiment", "r"),
        ("experiment", "threshold"),
        ("spectrum", "tau_pow"),
        ("modulus", "a"),
        ("modulus", "cbig"),
        ("steady", "amplitude"),
    ],
)
def test_config_rejects_non_finite_values(tmp_path, section, key):
    # each check of these keys is a comparison, which nan and inf slip past
    for value in ("nan", "inf"):
        text = f"[{section}]\n{key} = {value}\n"
        with pytest.raises(errors.ValidationError, match="bad value"):
            load_config(write_config(tmp_path / "c.ini", text))


def test_cmd_non_finite_t_max_fails_before_computing(tmp_path):
    cfg = steady_ini(tmp_path, n=24, m=2, amplitude=10.0, extra="[time]\nt_max = nan\n")
    out = tmp_path / "o"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


# -- SQGF ------------------------------------------------------------------------


def test_sqgf_round_trip(tmp_path):
    g = GridSpec(16)
    rng = np.random.default_rng(0)
    field = PhysicalField(g, rng.standard_normal((16, 16)))
    path = tmp_path / "f.sqgf"
    sqgf.write_field(path, field)
    back = sqgf.read_field(path)
    assert back.grid.n == 16
    assert np.array_equal(back.values, field.values)


def test_sqgf_layout_x1_fastest(tmp_path):
    g = GridSpec(8)
    vals = np.fromfunction(lambda i, j: i + 10.0 * j, (8, 8))
    path = tmp_path / "f.sqgf"
    sqgf.write_field(path, PhysicalField(g, vals))
    raw = path.read_bytes()
    assert raw[:4] == b"SQGF"
    version, n = struct.unpack("<II", raw[4:12])
    assert (version, n) == (1, 8)
    first_row = np.frombuffer(raw[12 : 12 + 64], dtype="<f8")
    # x1 fastest: the first eight doubles scan i1 at i2 = 0
    assert np.array_equal(first_row, vals[:, 0])


def test_sqgf_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.sqgf"
    path.write_bytes(b"NOPE" + b"\0" * 64)
    with pytest.raises(errors.DataError):
        sqgf.read_field(path)


def test_sqgf_rejects_truncated(tmp_path):
    path = tmp_path / "t.sqgf"
    path.write_bytes(b"SQGF" + struct.pack("<II", 1, 16) + b"\0" * 100)
    with pytest.raises(errors.DataError):
        sqgf.read_field(path)


# -- commands ----------------------------------------------------------------------


def steady_ini(tmp_path, n=64, m=1, amplitude=1.0, extra=""):
    return write_config(
        tmp_path / "run.ini",
        f"[grid]\nn = {n}\n[steady]\nkind = shear\nm = {m}\namplitude = {amplitude}\n"
        + extra,
    )


def test_cmd_steady_shear(tmp_path):
    cfg = steady_ini(tmp_path, m=1, amplitude=1.0)
    out = tmp_path / "out"
    assert main(["steady", "--config", cfg, "--out", str(out)]) == 0
    f = sqgf.read_field(out / "f.sqgf")
    g = GridSpec(64)
    _, x2 = meshgrid(g)
    assert np.max(np.abs(f.values - (-np.cos(x2)))) < 1e-12
    report = (out / "steady_report.txt").read_text()
    assert "gate = pass" in report


def test_cmd_steady_zero_amplitude(tmp_path):
    cfg = steady_ini(tmp_path, amplitude=0.0)
    out = tmp_path / "out"
    assert main(["steady", "--config", cfg, "--out", str(out)]) == 0
    assert np.all(sqgf.read_field(out / "theta0.sqgf").values == 0.0)


def test_cmd_steady_custom_file_nonzero_mean(tmp_path):
    g = GridSpec(64)
    bad = tmp_path / "bad_field.sqgf"
    sqgf.write_field(bad, PhysicalField(g, np.ones((64, 64))))
    cfg = write_config(
        tmp_path / "run.ini",
        f"[grid]\nn = 64\n[steady]\nkind = custom-file\nfile = {bad}\n",
    )
    out = tmp_path / "out"
    assert main(["steady", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()  # validation failures leave no partial output


def test_cmd_missing_input_file_is_validation_error(tmp_path):
    missing = tmp_path / "missing.sqgf"
    cases = (
        ("steady", f"[grid]\nn = 16\n[steady]\nkind = custom-file\nfile = {missing}\n"),
        ("evolve", f"[grid]\nn = 16\n[steady]\nm = 2\n[time]\ninitial = {missing}\n"),
    )
    for command, text in cases:
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "run.ini", text)
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()


def test_cmd_evolve_checks_initial_before_steady_state(tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("reached the steady state")

    monkeypatch.setattr(cli, "make_steady", never)
    monkeypatch.setattr(dynamics, "make_steady", never)
    init = tmp_path / "init.sqgf"
    sqgf.write_field(init, PhysicalField(GridSpec(32), np.zeros((32, 32))))
    cfg = steady_ini(tmp_path, n=64, m=2, amplitude=10.0, extra=f"[time]\ninitial = {init}\n")
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_cmd_negative_seed_is_validation_error(tmp_path):
    cfg = write_config(tmp_path / "m.ini", MODULUS_SMALL)
    out = tmp_path / "o"
    assert main(["modulus", "--config", cfg, "--out", str(out), "--seed", "-1"]) == 2
    assert not out.exists()


def test_seed_is_a_usage_error_where_nothing_samples(tmp_path):
    # only modulus reads a seed; elsewhere it would be silently ignored
    cfg = steady_ini(tmp_path, n=24, m=2, amplitude=10.0)
    out = tmp_path / "o"
    for command in ("steady", "spectrum", "evolve", "instability"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--out", str(out), "--seed", "1"])
        assert exc.value.code == 2
    assert not out.exists()


def test_cmd_bad_jobs_is_validation_error(tmp_path):
    cfg = steady_ini(tmp_path, n=24, m=2, amplitude=10.0)
    out = tmp_path / "o"
    for jobs in ("0", "-3"):
        assert main(["instability", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 2
        assert not out.exists()


def test_cmd_jobs_clamped_to_epsilons(tmp_path, monkeypatch):
    # the pool is replaced before it starts, so no process is forked
    seen = []

    class Stop(Exception):
        pass

    class FakePool:
        def __init__(self, max_workers):
            seen.append(max_workers)
            raise Stop

    monkeypatch.setattr(cli, "_pool", FakePool)
    cfg = steady_ini(
        tmp_path, n=24, m=2, amplitude=10.0,
        extra="[experiment]\nepsilons = 1e-2,1e-3,1e-4,1e-5\n",
    )
    with pytest.raises(Stop):
        main(["instability", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", "64"])
    assert seen == [4]


def test_cmd_dense_spectrum_over_cap_fails_before_computing(tmp_path, capsys, monkeypatch):
    # a custom-file state at n = 108 without [spectrum] k: K = 36, and the
    # state is checked as one block of the dense dimension 5328 > 5000
    g = GridSpec(108)
    x1, x2 = meshgrid(g)
    field = tmp_path / "theta0.sqgf"
    sqgf.write_field(field, PhysicalField(g, -10.0 * np.cos(2 * x2) + np.cos(x1)))
    text = MODULUS_SMALL.replace("n = 64", "n = 108").replace(
        "kind = shear\nm = 1\namplitude = 2e-4", f"kind = custom-file\nfile = {field}"
    )
    cfg = write_config(tmp_path / "m.ini", text)
    cases = ((cfg, ["spectrum"]), (cfg, ["instability"]), (cfg, ["modulus", "--trajectory"]))
    for config, args in cases:
        out = tmp_path / "o"
        assert main([args[0], "--config", config, "--out", str(out)] + args[1:]) == 2
        assert not out.exists()
        assert "exceeds cap 5000" in capsys.readouterr().err

    # the power method assembles no section: instability gets past validation
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(cli, "_build_steady", reached)
    power = write_config(tmp_path / "p.ini", text + "[spectrum]\nmethod = power\n")
    with pytest.raises(Reached):
        main(["instability", "--config", power, "--out", str(tmp_path / "o")])


def test_cmd_out_that_is_a_file_fails_before_computing(tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("reached computation")

    monkeypatch.setattr(cli, "_build_steady", never)
    cfg = steady_ini(tmp_path, n=24, m=2, amplitude=10.0)
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    for command in ("steady", "spectrum", "evolve", "instability", "modulus"):
        for out in (taken, taken / "below"):
            assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert taken.read_text() == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini", "taken"]


def test_cmd_blow_up_prints_its_diagnostics(tmp_path, monkeypatch, capsys):
    # a guard factor below 1 trips at the first observation after the start
    monkeypatch.setattr(dynamics, "GRAD_GUARD_FACTOR", 0.5)
    cfg = steady_ini(tmp_path, n=16, m=2, amplitude=10.0, extra="[time]\nt_max = 0.1\n")
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "gradient guard tripped at t=0.050000" in err
    for key in ("t", "l2", "linf", "linf_grad", "hhalf", "energy_flux"):
        assert f"\n  {key} = " in err


def test_cmd_spectrum_zero_state(tmp_path):
    cfg = steady_ini(tmp_path, n=16, amplitude=0.0, extra="[spectrum]\nk = 4\n")
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    summary = (out / "spectrum_summary.txt").read_text()
    assert "lambda = -1" in summary
    rows = (out / "spectrum.csv").read_text().strip().splitlines()
    assert rows[0] == "re,im"
    assert len(rows) == (2 * 4 + 1) ** 2 - 1 + 1


def test_cmd_evolve_steady_flat(tmp_path):
    cfg = steady_ini(
        tmp_path,
        m=1,
        amplitude=1.0,
        extra="[time]\nt_max = 0.5\ndt_max = 0.005\nobserve_every = 0.1\n",
    )
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    rows = np.genfromtxt(out / "series.csv", delimiter=",", names=True)
    l2 = rows["l2"]
    assert np.max(np.abs(l2 - l2[0])) < 1e-8 * l2[0]


def test_cmd_evolve_single_mode_decay_and_energy_balance(tmp_path):
    g = GridSpec(64)
    x1, _ = meshgrid(g)
    init = tmp_path / "init.sqgf"
    sqgf.write_field(init, PhysicalField(g, np.sin(x1)))
    cfg = steady_ini(
        tmp_path,
        amplitude=0.0,
        extra=(
            f"[time]\nt_max = 1.0\ndt_max = 0.001\nobserve_every = 0.05\n"
            f"initial = {init}\n"
        ),
    )
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    rows = np.genfromtxt(out / "series.csv", delimiter=",", names=True)
    expect = rows["l2"][0] * np.exp(-rows["t"])
    assert np.max(np.abs(rows["l2"] - expect)) < 1e-8
    # post-processing energy check: d(l2^2)/dt matches the recorded flux
    de = np.diff(rows["l2"] ** 2) / np.diff(rows["t"])
    mid = 0.5 * (rows["energy_flux"][1:] + rows["energy_flux"][:-1])
    assert np.max(np.abs(de - mid)) < 0.01 * np.max(np.abs(mid))


def test_cmd_evolve_deterministic(tmp_path):
    cfg = steady_ini(
        tmp_path,
        m=2,
        amplitude=1.0,
        extra="[time]\nt_max = 0.2\ndt_max = 0.005\nobserve_every = 0.05\n",
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        outs.append((out / "series.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cmd_short_sweep_fails_before_computing(tmp_path, monkeypatch):
    # two epsilons cannot fit the escape law: exit 2 before the steady state,
    # the spectrum or the pool is built
    def never(*args, **kwargs):
        raise AssertionError("reached computation")

    for name in ("_build_steady", "_build_spectrum", "_pool"):
        monkeypatch.setattr(cli, name, never)
    cfg = steady_ini(
        tmp_path, n=24, m=2, amplitude=10.0, extra="[experiment]\nepsilons = 1e-2,1e-3\n"
    )
    out = tmp_path / "o"
    for jobs in ("1", "2"):
        assert main(["instability", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 2
        assert not out.exists()


def test_cmd_epsilons_sharing_a_series_file_fail_before_computing(tmp_path, monkeypatch):
    # series_eps_{eps:.3e}.csv: a repeated name would overwrite a run's series
    def never(*args, **kwargs):
        raise AssertionError("reached computation")

    for name in ("_build_steady", "_build_spectrum", "_pool"):
        monkeypatch.setattr(cli, name, never)
    out = tmp_path / "o"
    for eps in ("1e-2,1e-2,1e-3,1e-4", "1.00004e-2,1e-2,1e-3,1e-4"):
        cfg = steady_ini(
            tmp_path, n=24, m=2, amplitude=10.0, extra=f"[experiment]\nepsilons = {eps}\n"
        )
        assert main(["instability", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()


def test_series_csv_header_is_the_series_keys(tmp_path, monkeypatch):
    returned = {}

    def keep(name):
        fn = getattr(cli, name)

        def wrapper(*args, **kwargs):
            returned[name] = fn(*args, **kwargs)
            return returned[name]

        monkeypatch.setattr(cli, name, wrapper)

    keep("evolve")
    keep("run_perturbation")
    cfg = steady_ini(
        tmp_path, n=24, m=2, amplitude=10.0,
        extra="[time]\nt_max = 0.1\nobserve_every = 0.05\n[experiment]\nepsilons = 1e-2\n",
    )
    for command in ("evolve", "instability"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
    header = (tmp_path / "evolve" / "series.csv").read_text().splitlines()[0]
    header_eps = (tmp_path / "instability" / "series_eps_1.000e-02.csv").read_text().splitlines()[0]
    assert header == "t,l2,linf,linf_grad,hhalf,energy_flux"
    assert header_eps == header + ",duhamel_residual"
    assert header.split(",") == list(returned["evolve"].series)
    assert header_eps.split(",") == list(returned["run_perturbation"].series)


def test_cmd_instability_refuses_stable_state(tmp_path):
    cfg = steady_ini(tmp_path, n=32, m=2, amplitude=1.0)
    assert main(["instability", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_cmd_instability_single_epsilon(tmp_path):
    cfg = steady_ini(
        tmp_path,
        n=48,
        m=2,
        amplitude=10.0,
        extra=(
            "[experiment]\nepsilons = 1e-2\nthreshold = 1.0\n"
            "[time]\nt_max = 3.0\nobserve_every = 0.1\n"
        ),
    )
    out = tmp_path / "o"
    assert main(["instability", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "series_eps_1.000e-02.csv").exists()
    assert not (out / "sweep.csv").exists()


@pytest.mark.slow
def test_cmd_instability_sweep_parallel(tmp_path):
    cfg = steady_ini(
        tmp_path,
        n=48,
        m=2,
        amplitude=10.0,
        extra=(
            "[experiment]\nepsilons = 1e-1,3e-2,3e-3,1e-3\nthreshold = 2.0\n"
            "[time]\nt_max = 30.0\nobserve_every = 0.05\n"
        ),
    )
    out = tmp_path / "o"
    assert main(["instability", "--config", cfg, "--out", str(out), "--jobs", "2"]) == 0
    sweep = np.genfromtxt(out / "sweep.csv", delimiter=",", names=True)
    assert sweep["epsilon"].size == 4
    assert np.all(np.diff(sweep["escape_time"]) > 0)
    summary = (out / "sweep_summary.txt").read_text()
    assert "r_squared" in summary
    # the serial sweep, the benchmark's path, writes the same bytes
    serial = tmp_path / "serial"
    assert main(["instability", "--config", cfg, "--out", str(serial), "--jobs", "1"]) == 0
    assert output_bytes(serial) == output_bytes(out)


def output_bytes(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def short_runs(monkeypatch):
    # every run stops at t = 0.5, far below its threshold
    real = cli.run_perturbation
    monkeypatch.setattr(
        cli, "run_perturbation", lambda exp, eps: real(replace(exp, t_max=0.5), eps)
    )


def guard_trips(monkeypatch):
    # a guard factor below 1 trips at the first observation after the start
    monkeypatch.setattr(dynamics, "GRAD_GUARD_FACTOR", 0.5)


SERIES_FILES = [f"series_eps_1.000e-0{k}.csv" for k in (2, 3, 4, 5)]


def no_patch(monkeypatch):
    pass


@pytest.mark.parametrize(
    "patch,extra,jobs,code,files,stream,message",
    [
        (short_runs, "threshold = 1e9\n", "1", 1, SERIES_FILES + ["sweep.csv"], "out",
         "escape-law fit failed: fewer than two runs escaped"),
        (guard_trips, "threshold = 0.1\n", "1", 3, None, "err",
         "gradient guard tripped at t=0.050000"),
        (guard_trips, "threshold = 0.1\n", "2", 3, None, "err",
         "gradient guard tripped at t=0.050000"),
        # K = 3 < n/3 truncates the k1 chains: the dense residual is 0.486
        (no_patch, "[spectrum]\nk = 3\n", "1", 1, None, "out",
         "spectrum gate failed: residual 4.860e-01 (dense)"),
    ],
    ids=["nothing-escapes", "blow-up-serial", "blow-up-jobs-2", "spectrum-gate"],
)
def test_cmd_instability_exit_codes(
    tmp_path, monkeypatch, capsys, patch, extra, jobs, code, files, stream, message
):
    # a failed escape-law fit is a failed gate: its runs stay on disk, with no
    # summary; a numerical failure, or an eigenpair failing the spectrum gate,
    # writes nothing
    patch(monkeypatch)
    cfg = steady_ini(tmp_path, n=16, m=2, amplitude=10.0, extra="[experiment]\n" + extra)
    out = tmp_path / "o"
    assert main(["instability", "--config", cfg, "--out", str(out), "--jobs", jobs]) == code
    captured = capsys.readouterr()
    assert message in getattr(captured, stream)
    assert (sorted(p.name for p in out.iterdir()) if out.exists() else None) == files
    if code == 3:
        assert "\n  linf_grad = " in captured.err


MODULUS_SMALL = (
    "[grid]\nn = 64\n[steady]\nkind = shear\nm = 1\namplitude = 2e-4\n"
    "[modulus]\ndelta_mod = 0.01\ngamma_mod = 0.01\na = 1.0\ncbig = 10.0\nseed = 9\n"
)


def test_cmd_modulus_default_passes(tmp_path):
    cfg = write_config(tmp_path / "m.ini", MODULUS_SMALL)
    out = tmp_path / "o"
    assert main(["modulus", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "verification.csv").read_text().splitlines()
    assert rows[0] == "xi,omega_B,Omega_B,M_B,F_B,lhs"
    assert "pass = true" in (out / "modulus_summary.txt").read_text()


def test_cmd_modulus_gamma_coefficient_fails(tmp_path, capsys):
    # the inequality holds on the grid, but the long-range coefficient
    # A gamma + 1/(2 pi) - 1/pi is positive: the gate, and its verdict, fail
    cfg = write_config(
        tmp_path / "m.ini",
        MODULUS_SMALL.replace("gamma_mod = 0.01", "gamma_mod = 0.2").replace(
            "delta_mod = 0.01", "delta_mod = 0.25"
        ),
    )
    out = tmp_path / "o"
    assert main(["modulus", "--config", cfg, "--out", str(out)]) == 1
    assert "pass = false" in (out / "modulus_summary.txt").read_text()
    assert capsys.readouterr().out.splitlines()[-1].endswith("(fail)")


def test_cmd_modulus_infeasible_force(tmp_path):
    cfg = write_config(
        tmp_path / "m.ini", MODULUS_SMALL.replace("amplitude = 2e-4", "amplitude = 1.0")
    )
    out = tmp_path / "o"
    assert main(["modulus", "--config", cfg, "--out", str(out)]) == 1
    assert "infeasible" in (out / "modulus_summary.txt").read_text()


def test_cmd_modulus_non_finite_quadrature_exits_3(tmp_path, monkeypatch):
    # a NaN in M_B's integrand only: B selection and Omega_B stay finite
    monkeypatch.setattr(modulus, "_second_diff_s", lambda params, s, u: np.full_like(u, np.nan))
    with pytest.raises(errors.QuadratureError):
        modulus.M_B_with_error(modulus.ModulusParams(B=75.0), 0.1)
    cfg = write_config(tmp_path / "m.ini", MODULUS_SMALL)
    assert main(["modulus", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


MODULUS_TRAJECTORY = (
    MODULUS_SMALL
    + "[time]\nt_max = 1.0\nobserve_every = 0.25\n"
    + "[experiment]\nepsilons = 1e-3\n[spectrum]\nk = 12\n"
)


def test_cmd_modulus_trajectory(tmp_path):
    cfg = write_config(tmp_path / "m.ini", MODULUS_TRAJECTORY)
    out = tmp_path / "o"
    assert main(["modulus", "--config", cfg, "--out", str(out), "--trajectory"]) == 0
    rows = np.genfromtxt(out / "trajectory.csv", delimiter=",", names=True)
    assert np.all(rows["modulus_ratio"] < 1.0)


def nan_quadrature(monkeypatch):
    # a NaN in M_B's integrand only: B selection and Omega_B stay finite
    monkeypatch.setattr(modulus, "_second_diff_s", lambda params, s, u: np.full_like(u, np.nan))


def trajectory_guard_trips(monkeypatch):
    # the guard is the factor times max(||grad theta||_inf, 1), and this field's
    # gradient is about 2.5e-5
    monkeypatch.setattr(dynamics, "GRAD_GUARD_FACTOR", 1e-6)


@pytest.mark.parametrize(
    "patch,config,code,files,stream,message",
    [
        (trajectory_guard_trips, MODULUS_TRAJECTORY, 3, None, "err",
         "gradient guard tripped at t=0.250000"),
        (nan_quadrature, MODULUS_TRAJECTORY, 3, None, "err",
         "quadrature produced a non-finite value"),
        (no_patch, MODULUS_TRAJECTORY.replace("amplitude = 2e-4", "amplitude = 1.0"), 1,
         ["modulus_summary.txt"], "out", "no representable B satisfies"),
    ],
    ids=["trajectory-blow-up", "non-finite-quadrature", "infeasible-B"],
)
def test_cmd_modulus_exit_codes(
    tmp_path, monkeypatch, capsys, patch, config, code, files, stream, message
):
    # a numerical failure writes nothing; an infeasible B writes its summary
    patch(monkeypatch)
    cfg = write_config(tmp_path / "m.ini", config)
    out = tmp_path / "o"
    assert main(["modulus", "--config", cfg, "--out", str(out), "--trajectory"]) == code
    assert message in getattr(capsys.readouterr(), stream)
    assert (sorted(p.name for p in out.iterdir()) if out.exists() else None) == files


def test_cmd_modulus_deterministic(tmp_path):
    cfg = write_config(tmp_path / "m.ini", MODULUS_TRAJECTORY)
    names = ("verification.csv", "trajectory.csv", "modulus_summary.txt")
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        argv = ["modulus", "--config", cfg, "--out", str(out), "--trajectory", "--seed", "5"]
        assert main(argv) == 0
        outs.append([(out / name).read_bytes() for name in names])
    assert outs[0] == outs[1]
