"""Flat INI-style run configuration: sections with key = value pairs, UTF-8,
'#' comments, unknown keys rejected, every value validated before any
computation starts."""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ValidationError


@dataclass
class GridSection:
    n: int = 128


@dataclass
class SteadySection:
    kind: str = "shear"           # shear | custom-file
    m: int = 2
    amplitude: float = 10.0
    file: str | None = None


@dataclass
class TimeSection:
    cfl: float = 0.4
    dt_max: float = 0.02
    t_max: float = 20.0
    observe_every: float = 0.05
    initial: str | None = None    # optional SQGF initial data for evolve


@dataclass
class SpectrumSection:
    K: int | None = None          # default floor(n/3)
    method: str = "dense"         # dense | power
    tau_pow: float = 0.5


@dataclass
class ExperimentSection:
    epsilons: list[float] = field(default_factory=lambda: [1e-2, 1e-3, 1e-4, 1e-5])
    threshold: float | None = None
    R: float = 2.0


@dataclass
class ModulusSection:
    delta_mod: float = 1e-2
    gamma_mod: float = 1e-2
    A: float = 1.0
    Cbig: float = 10.0
    seed: int = 0


@dataclass
class IoSection:
    out_dir: str = "out"


@dataclass
class RunConfig:
    grid: GridSection = field(default_factory=GridSection)
    steady: SteadySection = field(default_factory=SteadySection)
    time: TimeSection = field(default_factory=TimeSection)
    spectrum: SpectrumSection = field(default_factory=SpectrumSection)
    experiment: ExperimentSection = field(default_factory=ExperimentSection)
    modulus: ModulusSection = field(default_factory=ModulusSection)
    io: IoSection = field(default_factory=IoSection)


_PARSERS = {
    ("grid", "n"): int,
    ("steady", "kind"): str,
    ("steady", "m"): int,
    ("steady", "amplitude"): float,
    ("steady", "file"): str,
    ("time", "cfl"): float,
    ("time", "dt_max"): float,
    ("time", "t_max"): float,
    ("time", "observe_every"): float,
    ("time", "initial"): str,
    ("spectrum", "k"): int,
    ("spectrum", "method"): str,
    ("spectrum", "tau_pow"): float,
    ("experiment", "epsilons"): lambda s: [float(x) for x in s.split(",") if x.strip()],
    ("experiment", "threshold"): float,
    ("experiment", "r"): float,
    ("modulus", "delta_mod"): float,
    ("modulus", "gamma_mod"): float,
    ("modulus", "a"): float,
    ("modulus", "cbig"): float,
    ("modulus", "seed"): int,
    ("io", "out_dir"): str,
}

_ATTRS = {
    ("spectrum", "k"): "K",
    ("experiment", "r"): "R",
    ("modulus", "a"): "A",
    ("modulus", "cbig"): "Cbig",
}


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot parse config: {exc}") from exc

    cfg = RunConfig()
    for section in parser.sections():
        target = getattr(cfg, section, None)
        if target is None:
            raise ValidationError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            parse = _PARSERS.get((section, key))
            if parse is None:
                raise ValidationError(f"unknown key '{key}' in section [{section}]")
            attr = _ATTRS.get((section, key), key)
            try:
                setattr(target, attr, parse(raw))
            except ValueError as exc:
                raise ValidationError(
                    f"bad value for [{section}] {key} = {raw!r}: {exc}"
                ) from exc
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    g, st, tm, sp, ex, mo = cfg.grid, cfg.steady, cfg.time, cfg.spectrum, cfg.experiment, cfg.modulus
    if g.n % 2 != 0 or g.n < 8:
        raise ValidationError(f"grid n must be even and >= 8, got {g.n}")
    if st.kind not in ("shear", "custom-file"):
        raise ValidationError(f"steady kind must be shear or custom-file, got {st.kind!r}")
    if st.kind == "shear" and not 1 <= st.m <= g.n // 3:
        raise ValidationError(f"shear wavenumber m={st.m} outside [1, n/3]")
    if st.kind == "custom-file" and not st.file:
        raise ValidationError("steady kind custom-file requires a file path")
    if st.kind == "custom-file" and not Path(st.file).is_file():
        raise ValidationError(f"steady file not found: {st.file}")
    if tm.initial is not None and not Path(tm.initial).is_file():
        raise ValidationError(f"time initial file not found: {tm.initial}")
    if not 0.0 < tm.cfl <= 1.0:
        raise ValidationError("time cfl must lie in (0, 1]")
    if tm.dt_max <= 0 or tm.t_max <= 0 or tm.observe_every <= 0:
        raise ValidationError("time dt_max, t_max, observe_every must be positive")
    if sp.K is not None and not 1 <= sp.K <= g.n // 3:
        raise ValidationError(f"spectrum K={sp.K} outside [1, n/3]")
    if sp.method not in ("dense", "power"):
        raise ValidationError(f"spectrum method must be dense or power, got {sp.method!r}")
    if sp.tau_pow <= 0:
        raise ValidationError("spectrum tau_pow must be positive")
    if not ex.epsilons:
        raise ValidationError("experiment epsilons must be nonempty")
    if any(not 0 < e <= 1 for e in ex.epsilons):
        raise ValidationError("experiment epsilons must lie in (0, 1]")
    if sorted(ex.epsilons, reverse=True) != ex.epsilons:
        raise ValidationError("experiment epsilons must be sorted descending")
    if ex.R <= 1.0:
        raise ValidationError("experiment R must exceed ||phi|| = 1")
    if ex.threshold is not None and ex.threshold <= 0:
        raise ValidationError("experiment threshold must be positive")
    # omega is increasing and concave only for delta <= 4/9 and
    # gamma <= 4 delta (1 - 1.5 sqrt(delta))
    if not 0.0 < mo.delta_mod <= 4.0 / 9.0:
        raise ValidationError("modulus delta_mod must lie in (0, 4/9]")
    gamma_cap = min(mo.delta_mod, 4.0 * mo.delta_mod * (1.0 - 1.5 * mo.delta_mod**0.5))
    if not 0.0 < mo.gamma_mod <= gamma_cap:
        raise ValidationError(f"modulus gamma_mod must lie in (0, {gamma_cap:.6g}] for this delta")
    if mo.A <= 0 or mo.Cbig <= 0:
        raise ValidationError("modulus A and Cbig must be positive")
    if mo.seed < 0 or mo.seed > 2**64 - 1:
        raise ValidationError("modulus seed must be a 64-bit unsigned integer")
