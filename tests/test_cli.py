"""Config parsing, SQGF round-trips, and the command-line front end."""

import struct

import numpy as np
import pytest

from sqglab import cli, errors, sqgf
from sqglab.cli import main
from sqglab.config import load_config
from sqglab.spectral import GridSpec, PhysicalField, meshgrid


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


def test_cmd_negative_seed_is_validation_error(tmp_path):
    cfg = write_config(tmp_path / "m.ini", MODULUS_SMALL)
    out = tmp_path / "o"
    assert main(["modulus", "--config", cfg, "--out", str(out), "--seed", "-1"]) == 2
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

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    cfg = steady_ini(
        tmp_path, n=24, m=2, amplitude=10.0,
        extra="[experiment]\nepsilons = 1e-2,1e-3,1e-4,1e-5\n",
    )
    with pytest.raises(Stop):
        main(["instability", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", "64"])
    assert seen == [4]


def test_cmd_dense_spectrum_over_cap_fails_before_computing(tmp_path):
    # n = 108 without [spectrum] k: K = 36, dense dimension 5328 > 5000
    cfg = write_config(tmp_path / "m.ini", MODULUS_SMALL.replace("n = 64", "n = 108"))
    for args in (["spectrum"], ["instability"], ["modulus", "--trajectory"]):
        out = tmp_path / "o"
        assert main([args[0], "--config", cfg, "--out", str(out)] + args[1:]) == 2
        assert not out.exists()


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


def test_cmd_modulus_gamma_coefficient_fails(tmp_path):
    cfg = write_config(
        tmp_path / "m.ini",
        MODULUS_SMALL.replace("gamma_mod = 0.01", "gamma_mod = 0.2").replace(
            "delta_mod = 0.01", "delta_mod = 0.25"
        ),
    )
    assert main(["modulus", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_cmd_modulus_infeasible_force(tmp_path):
    cfg = write_config(
        tmp_path / "m.ini", MODULUS_SMALL.replace("amplitude = 2e-4", "amplitude = 1.0")
    )
    out = tmp_path / "o"
    assert main(["modulus", "--config", cfg, "--out", str(out)]) == 1
    assert "infeasible" in (out / "modulus_summary.txt").read_text()


def test_cmd_modulus_trajectory(tmp_path):
    cfg = write_config(
        tmp_path / "m.ini",
        MODULUS_SMALL
        + "[time]\nt_max = 1.0\nobserve_every = 0.25\n"
        + "[experiment]\nepsilons = 1e-3\n[spectrum]\nk = 12\n",
    )
    out = tmp_path / "o"
    assert main(["modulus", "--config", cfg, "--out", str(out), "--trajectory"]) == 0
    rows = np.genfromtxt(out / "trajectory.csv", delimiter=",", names=True)
    assert np.all(rows["modulus_ratio"] < 1.0)
