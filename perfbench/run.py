"""sqglab benchmark: one workload through the ``sqglab`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run times fresh ``sqglab`` processes
(``wall_s``, ``peak_rss_mb``) and set-up-only processes (``setup_s``).  With
``--trace 1`` it runs the subcommand once untraced and once under
``tracer.py``, then ``probes.py``, and reports the per-layer metrics.  Every
output is checked (``workloads.py``).  The last line of standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import scipy

from workloads import WORKLOADS, Checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"

SETUP_PROBES = 4
DEADLINE_S = 170.0

SETUP_CODE = (
    "import sys\n"
    "import sqglab.cli\n"
    "from sqglab.config import load_config\n"
    "from sqglab.dynamics import shear_steady_state\n"
    "from sqglab.spectral import GridSpec\n"
    "load_config(sys.argv[1])\n"
    "shear_steady_state(GridSpec(int(sys.argv[2])), int(sys.argv[3]), float(sys.argv[4]))\n"
)

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "spectral.fft_calls": "count",
    "spectral.fft_pair_ms": "ms",
    "spectral.inverse_s": "s",
    "spectral.inverse.calls": "count",
    "dynamics.nonlinear_term_ms": "ms",
    "dynamics.step_full_ms": "ms",
    "dynamics.step_perturbation_ms": "ms",
    "dynamics.observed_norms_ms": "ms",
    "dynamics.evolve_s": "s",
    "dynamics.make_steady_s": "s",
    "linop.assemble_dense_s": "s",
    "linop.eigensolve_s": "s",
    "linop.dense_dim": "count",
    "linop.apply_L_ms": "ms",
    "linop.evolve_linear_ms": "ms",
    "growth.run_perturbation_s": "s",
    "growth.run_perturbation.calls": "count",
    "growth.records": "count",
    "modulus.verify_inequality_s": "s",
    "modulus.quad_calls": "count",
    "modulus.omega_calls": "count",
    "modulus.Omega_B_ms": "ms",
    "modulus.M_B_ms": "ms",
    "modulus.choose_B_s": "s",
    "modulus.empirical_modulus_ms": "ms",
    "modulus.empirical_modulus.calls": "count",
    "cli.bytes_written": "bytes",
    "sqgf.read_field_s": "s",
    "sqgf.write_field_s": "s",
    "import_s": "s",
    "trace.overhead_s": "s",
}

# span totals reported as <layer>_s, and medians of spans reported as <layer>_ms
SPAN_TOTALS = ("spectral.inverse", "dynamics.evolve", "dynamics.make_steady", "linop.assemble_dense",
               "growth.run_perturbation", "modulus.verify_inequality", "modulus.choose_B",
               "sqgf.read_field", "sqgf.write_field")
SPAN_MEDIANS = {"modulus.Omega_B_ms": "modulus.Omega_B_with_error",
                "modulus.M_B_ms": "modulus.M_B_with_error",
                "modulus.empirical_modulus_ms": "modulus.empirical_modulus"}
COUNTS = ("spectral.fft_calls", "spectral.inverse.calls", "linop.dense_dim",
          "growth.run_perturbation.calls", "modulus.quad_calls", "modulus.omega_calls",
          "modulus.empirical_modulus.calls")


class Deadline(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def run_child(argv: list[str], cwd: Path, t_end: float, stdout_path: Path):
    """Run one process to its exit; return (exit code, wall s, peak RSS MB)."""
    timeout = t_end - time.monotonic()
    if timeout <= 0:
        raise Deadline(argv[1])
    reaped = []
    with open(stdout_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        # wait4 returns the child's own resource usage, peak RSS included
        reaper = threading.Thread(target=lambda: reaped.append(os.wait4(proc.pid, 0)), daemon=True)
        reaper.start()
        reaper.join(timeout)
        wall = time.perf_counter() - start
        if reaper.is_alive():
            proc.kill()
            reaper.join()
            proc.returncode = -9
            raise Deadline(argv[1])
    _, status, usage = reaped[0]
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def machine_info() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    info["blas_threads"] = blas_threads()
    return info


def blas_threads():
    """Thread count OpenBLAS will use in the children (they inherit this environment)."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def span_metrics(trace: dict) -> dict:
    spans = trace["spans"]
    durations: dict[str, list[float]] = {}
    for name, start, end, _ in spans:
        durations.setdefault(name, []).append(end - start)
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for layer in SPAN_TOTALS:
        if layer in durations:
            out[layer + "_s"] = sum(durations[layer])
    if "linop.rightmost_eigenpair" in durations:
        out["linop.eigensolve_s"] = sum(
            end - start - child_time[i]
            for i, (name, start, end, _) in enumerate(spans) if name == "linop.rightmost_eigenpair")
    for metric, layer in SPAN_MEDIANS.items():
        if layer in durations:
            out[metric] = 1e3 * statistics.median(durations[layer])
    counts = trace["counts"]
    for key in COUNTS:
        out[key] = counts.get(key, 0)
    out["growth.records"] = sum(trace["results"]["records"])
    out["import_s"] = trace["import_s"]
    return out


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (SRC / "sqglab" / "cli.py").is_file():
        print(f"no sqglab source under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2

    t_end = time.monotonic() + DEADLINE_S
    wl = WORKLOADS[args.workload]
    work = RUNS / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = work / "children.log"
    extra = wl.prepare(work, args.seed)
    info = machine_info()
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"workload {wl.name}: sqglab {' '.join(wl.argv(work, Path('OUT'), extra))}")

    checks = Checks()
    attempted = failed = 0
    metrics: dict[str, float] = {}
    python = sys.executable

    def check(out, traced=None):
        try:
            wl.check(out, work, checks, traced)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            checks.require(False, f"cannot read the output in {out.name}: {exc!r}")

    def invoke(argv):
        """One program invocation; returns (ok, wall, rss)."""
        nonlocal attempted, failed
        attempted += 1
        code, wall, rss = run_child(argv, work, t_end, log)
        if code != 0:
            failed += 1
            print(f"  exit code {code}: {' '.join(argv[1:4])} ... (see {log})")
        return code == 0, wall, rss

    units = END_TO_END if args.trace == 0 else PER_LAYER
    start = time.monotonic()
    try:
        if args.trace == 0:
            setup = []
            for _ in range(SETUP_PROBES):
                ok, wall, _ = invoke([python, "-c", SETUP_CODE, str(work / "run.ini"),
                                      str(wl.n), str(wl.m), repr(wl.amplitude)])
                if ok:
                    setup.append(wall)
            walls, rss = [], []
            while True:
                round_start = time.monotonic()
                out = work / "out"
                ok, wall, peak = invoke([python, "-m", "sqglab.cli", *wl.argv(work, out, extra)])
                if ok:
                    check(out)
                    walls.append(wall)
                    rss.append(peak)
                shutil.rmtree(out, ignore_errors=True)
                now = time.monotonic()
                # start another round only if it should end inside the window
                if now - start + (now - round_start) > args.seconds:
                    break
            if setup:
                metrics["setup_s"] = statistics.median(setup)
            if walls:
                metrics["wall_s"] = statistics.median(walls)
                metrics["peak_rss_mb"] = statistics.median(rss)
        else:
            out_plain, out_traced = work / "out_untraced", work / "out_traced"
            ok_plain, wall_plain, _ = invoke([python, "-m", "sqglab.cli", *wl.argv(work, out_plain, extra)])
            if ok_plain:
                check(out_plain)
            trace_file = work / "trace.json"
            ok_traced, wall_traced, _ = invoke([python, str(HERE / "tracer.py"), str(trace_file), "--",
                                                *wl.argv(work, out_traced, extra)])
            if ok_traced:
                trace = json.loads(trace_file.read_text())
                check(out_traced, trace)
                metrics.update(span_metrics(trace))
                metrics["cli.bytes_written"] = dir_bytes(out_traced)
            if ok_plain and ok_traced:
                metrics["trace.overhead_s"] = wall_traced - wall_plain
            missing = [k for k, unit in PER_LAYER.items() if unit in ("s", "ms") and k not in metrics
                       and k not in ("trace.overhead_s", "import_s")]
            probe_file = work / "probes.json"
            ok, _, _ = invoke([python, str(HERE / "probes.py"), str(probe_file), "--n", str(wl.n),
                               "--m", str(wl.m), "--amplitude", repr(wl.amplitude), "--seed",
                               str(args.seed), "--work", str(work), "--fallback", *missing])
            if ok:
                probed = json.loads(probe_file.read_text())
                metrics.update(probed["probes"])
                fallback = span_metrics(probed)
                metrics.update((k, fallback[k]) for k in missing if k in fallback)
    except Deadline as exc:
        failed += 1
        print(f"  stopped at the {DEADLINE_S:.0f} s deadline in {exc}")

    for failure in checks.failures:
        print(f"  CHECK FAILED: {failure}")
    result_metrics = {}
    for name, unit in units.items():
        if name in metrics:
            result_metrics[name] = {"value": metrics[name], "unit": unit}
            print(f"{name} = {metrics[name]!r} {unit}")
    print(f"attempted {attempted}, failed {failed}, checks {'passed' if not checks.failures else 'FAILED'}")
    report = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "machine": info,
              "attempted": attempted, "failed": failed, "check_failures": checks.failures,
              "metrics": result_metrics}
    (work / "report.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({"correct": not checks.failures, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
