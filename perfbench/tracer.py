"""Traced run of one sqglab subcommand, with the spans recorded from outside
the program.

    python3 tracer.py TRACE_JSON -- <sqglab arguments>

Imports ``sqglab.cli``, wraps the public functions at each module boundary,
runs ``sqglab.cli.main`` and, at exit, writes the spans (name, start, end,
parent), the call counts and a few returned values to TRACE_JSON.  Hot
functions (2-D FFTs, ``quad``, the scalar modulus) are counted, not spanned.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (module, function) pairs that get a span per call
SPANNED = {
    "sqglab.spectral": ("forward", "inverse", "norm_l2", "norm_linf", "norm_linf_grad", "norm_hs"),
    "sqglab.dynamics": ("shear_steady_state", "make_steady", "nonlinear_term", "step", "evolve",
                        "observed_norms"),
    "sqglab.linop": ("apply_L", "assemble_dense", "rightmost_eigenpair", "evolve_linear"),
    "sqglab.growth": ("run_perturbation", "epsilon_sweep", "fit_growth_rate"),
    "sqglab.modulus": ("choose_B", "verify_inequality", "empirical_modulus", "Omega_B",
                       "Omega_B_with_error", "M_B", "M_B_with_error"),
    "sqglab.config": ("load_config",),
    "sqglab.cli": ("main", "cmd_steady", "cmd_spectrum", "cmd_evolve", "cmd_instability", "cmd_modulus"),
    "sqglab.sqgf": ("read_field", "write_field"),
}
FFT_2D = ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.results: dict[str, list] = {"spectra": [], "records": []}
        self._patched: list = []

    def spanned(self, name, fn, on_return=None):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start - self.t0, end - self.t0, parent)
                counts[name + ".calls"] += 1
            if on_return is not None:
                on_return(out)
            return out

        return wrapper

    def counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, original, wrapper, namespaces):
        """Rebind every name bound to ``original`` in the given modules."""
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def install(self):
        import numpy.fft
        import scipy.integrate

        ours = [m for name, m in sys.modules.items() if name == "sqglab" or name.startswith("sqglab.")]
        for modname, names in SPANNED.items():
            mod = sys.modules.get(modname)
            for fname in names:
                fn = getattr(mod, fname, None)
                if callable(fn):
                    short = modname.split(".", 1)[1] + "." + fname
                    self._replace(fn, self.spanned(short, fn, self._capture(short)), ours)
        fft_modules = [numpy.fft] + ([sys.modules["scipy.fft"]] if "scipy.fft" in sys.modules else [])
        for fmod in fft_modules:
            for fname in FFT_2D:
                fn = getattr(fmod, fname, None)
                if fn is not None:
                    self._replace(fn, self.counted("spectral.fft_calls", fn), ours + [fmod])
        self._replace(scipy.integrate.quad, self.counted("modulus.quad_calls", scipy.integrate.quad),
                      ours + [scipy.integrate])
        omega = getattr(sys.modules.get("sqglab.modulus"), "omega", None)
        if omega is not None:
            self._replace(omega, self.counted("modulus.omega_calls", omega), ours)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _capture(self, name):
        if name == "linop.assemble_dense":
            return lambda A: self.counts.__setitem__(
                "linop.dense_dim", max(self.counts["linop.dense_dim"], int(A.shape[0])))
        if name == "linop.rightmost_eigenpair":
            return lambda res: self.results["spectra"].append(
                {"lambda": float(res.rightmost.real), "residual": float(res.residual),
                 "method": res.method})
        if name == "growth.run_perturbation":
            return lambda rec: self.results["records"].append(int(len(rec.t)))
        return None

    def dump(self, path, **extra):
        data = {"spans": self.spans, "counts": dict(self.counts), "results": self.results, **extra}
        with open(path, "w") as fh:
            json.dump(data, fh)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py TRACE_JSON -- <sqglab arguments>", file=sys.stderr)
        return 2
    out_path, args = argv[0], argv[2:]
    start = time.perf_counter()
    import sqglab.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        code = sqglab.cli.main(args)
    finally:
        tracer.uninstall()
        tracer.dump(out_path, import_s=import_s)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
