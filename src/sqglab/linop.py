"""The linearized operator L theta = -q0.grad(theta) - q.grad(theta0) - Lambda(theta)
about a steady state, its shifted version L - shift, dense truncated assembly,
rightmost-eigenpair computation, and the linear semigroup.

L is applied through `dynamics.advection`, the kernel the time stepper uses,
in its linearized variant, and the semigroup is stepped by the same
`dynamics.if_rk4_step`.  With truncation K = floor(n/3) the assembled matrix
is therefore an exact representation of the implemented operator on the
retained modes, so eigenpair residuals are limited only by the eigensolver
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .dynamics import SteadyState, advection, decay_factors, if_rk4_step
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DomainError,
    ResolutionError,
    ResourceError,
)
from .spectral import (
    GridSpec,
    SpectralField,
    lambda_pow,
    norm_l2,
    to_coeffs,
)

DENSE_CAP_DEFAULT = 5000


@dataclass
class LinearOperator:
    """L - shift about the stored steady state (shift = 0 gives L itself)."""

    steady: SteadyState
    shift: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.shift):
            raise DomainError("operator shift must be finite")

    @property
    def grid(self) -> GridSpec:
        return self.steady.grid


def _linearized(op: LinearOperator):
    """c -> -q0.grad(c) - q(c).grad(theta0): L less its dissipation."""
    return partial(advection, grid=op.grid, base=op.steady.advection_base, nonlinear=0.0)


def _apply(op: LinearOperator, c: np.ndarray) -> np.ndarray:
    """(L - shift) c for coefficients with any leading axes."""
    return _linearized(op)(c) - (op.grid.kmag + op.shift) * c


def apply_L(op: LinearOperator, theta: SpectralField) -> SpectralField:
    """(L - shift) theta; accepts complex-valued fields."""
    if theta.grid.n != op.grid.n:
        raise ConfigurationError("field grid does not match operator grid")
    if not theta.mean_free:
        raise DomainError("apply_L requires a mean-free field")
    return SpectralField(op.grid, _apply(op, theta.coeffs))


def truncation_modes(K: int) -> list[tuple[int, int]]:
    """Deterministic ordering of modes with 0 < max(|k1|,|k2|) <= K."""
    return [
        (k1, k2)
        for k1 in range(-K, K + 1)
        for k2 in range(-K, K + 1)
        if (k1, k2) != (0, 0)
    ]


def assemble_dense(op: LinearOperator, K: int, cap: int = DENSE_CAP_DEFAULT) -> np.ndarray:
    """Finite section of L - shift on span{e^{ik.x} : 0 < max|k_i| <= K}.

    Column j holds the coefficients of (L - shift) e^{ik_j.x} restricted to
    the truncation set, computed through the spectral kernels.
    """
    g = op.grid
    if K > g.dealias_radius:
        raise ResolutionError(
            f"truncation K={K} exceeds the alias-free radius n/3={g.dealias_radius}"
        )
    modes = truncation_modes(K)
    M = len(modes)
    if M > cap:
        raise ResourceError(f"dense dimension {M} exceeds cap {cap}")
    rows = np.array([k1 % g.n for k1, _ in modes])
    cols = np.array([k2 % g.n for _, k2 in modes])
    A = np.empty((M, M), dtype=np.complex128)
    chunk = max(1, min(32, M))
    for start in range(0, M, chunk):
        stop = min(start + chunk, M)
        basis = np.zeros((stop - start, g.n, g.n), dtype=np.complex128)
        for b, j in enumerate(range(start, stop)):
            basis[b, rows[j], cols[j]] = 1.0
        out = _apply(op, basis)
        A[:, start:stop] = out[:, rows, cols].T
    return A


@dataclass
class SpectrumResult:
    """Eigenvalues of the truncated operator and the rightmost eigenpair.

    residual is ||L phi - mu phi||_{L2}.  For the dense method at
    K = floor(n/3) it is at rounding level.  For the semigroup power method
    the eigenpair is certified by propagator_residual = ||E(tau) phi - g phi||
    instead: its L-residual is limited by the O(dt^4) discretization of the
    propagator, not by iteration convergence.
    """

    truncation: int
    eigenvalues: np.ndarray
    rightmost: complex
    eigenfunction: SpectralField
    residual: float
    method: str
    iterations: int = 0
    propagator_residual: float = 0.0

    @property
    def growth_rate(self) -> float:
        return float(self.rightmost.real)


def _embed(modes, vec, grid: GridSpec) -> np.ndarray:
    c = np.zeros((grid.n, grid.n), dtype=np.complex128)
    for (k1, k2), a in zip(modes, vec):
        c[k1 % grid.n, k2 % grid.n] = a
    return c


def _normalize_phase(c: np.ndarray) -> np.ndarray:
    """Unit L2 norm; phase fixed by making the largest coefficient real positive."""
    c = c / (2.0 * np.pi * np.linalg.norm(c))
    j = int(np.argmax(np.abs(c)))
    pivot = c.flat[j]
    if np.abs(pivot) > 0:
        c = c * (np.abs(pivot) / pivot)
    return c


def rightmost_eigenpair(
    op: LinearOperator,
    K: int | None = None,
    method: str = "dense",
    cap: int = DENSE_CAP_DEFAULT,
    tau_pow: float = 0.5,
    tol: float = 1e-7,
    max_iter: int = 400,
    dt_linear: float = 1e-3,
    seed: int = 0,
    pow_residual_tol: float = 1e-9,
) -> SpectrumResult:
    """Rightmost eigenpair of L - shift by dense solve or semigroup power iteration."""
    K = op.grid.dealias_radius if K is None else K
    if method == "dense":
        return _rightmost_dense(op, K, cap)
    if method == "power":
        return _rightmost_power(
            op, K, tau_pow, tol, max_iter, dt_linear, seed, pow_residual_tol
        )
    raise DomainError(f"unknown eigensolver method {method!r}")


def _rightmost_dense(op: LinearOperator, K: int, cap: int) -> SpectrumResult:
    A = assemble_dense(op, K, cap=cap)
    w, V = np.linalg.eig(A)
    order = np.lexsort((-w.imag, -w.real))
    top = order[0]
    modes = truncation_modes(K)
    c = _normalize_phase(_embed(modes, V[:, top], op.grid))
    phi = SpectralField(op.grid, c)
    mu = complex(w[top])
    res = _residual(op, phi, mu)
    return SpectrumResult(
        truncation=K,
        eigenvalues=w,
        rightmost=mu,
        eigenfunction=phi,
        residual=res,
        method="dense",
    )


def _residual(op: LinearOperator, phi: SpectralField, mu: complex) -> float:
    r = _apply(op, phi.coeffs) - mu * phi.coeffs
    return 2.0 * np.pi * float(np.linalg.norm(r))


def _random_band(g: GridSpec, rng, band: int) -> np.ndarray:
    """Coefficients of a random real mean-free field on 0 < max(|k1|,|k2|) <= band."""
    c = to_coeffs(rng.standard_normal((g.n, g.n)), g.n)
    c *= (np.abs(g.k1) <= band) & (np.abs(g.k2) <= band) & g.dealias_mask
    c[0, 0] = 0.0
    return c


def _orthonormalize(v1: np.ndarray, v2: np.ndarray):
    # projection coefficient is real for conjugate-symmetric (real-field) input
    v1 = v1 / np.linalg.norm(v1)
    v2 = v2 - np.vdot(v1, v2).real * v1
    v2 = v2 / np.linalg.norm(v2)
    return v1, v2


def _rightmost_power(
    op: LinearOperator,
    K: int,
    tau: float,
    tol: float,
    max_iter: int,
    dt_linear: float,
    seed: int,
    pow_residual_tol: float,
) -> SpectrumResult:
    """Two-dimensional real subspace iteration on v -> e^{(L-shift) tau} v.

    The dominant eigenvalue of L is either real (possibly of multiplicity two
    for symmetric steady states) or a conjugate pair; both cases live in a
    two-dimensional real invariant subspace.  The complex pair is recovered
    from the 2x2 Rayleigh quotient.
    """
    g = op.grid
    rng = np.random.default_rng(seed)
    v1, v2 = _orthonormalize(_random_band(g, rng, K), _random_band(g, rng, K))
    prev = None
    re_mu = None
    prop_res = np.inf
    for it in range(1, max_iter + 1):
        pair = np.stack([v1, v2])
        prop = _evolve_linear_coeffs(op, pair, tau, dt_linear)
        # 2x2 Rayleigh quotient in the current orthonormal basis
        a11 = np.vdot(v1, prop[0]).real
        a12 = np.vdot(v1, prop[1]).real
        a21 = np.vdot(v2, prop[0]).real
        a22 = np.vdot(v2, prop[1]).real
        gvals, gvecs = np.linalg.eig(np.array([[a11, a12], [a21, a22]]))
        dominant = int(np.argmax(np.abs(gvals)))
        growth = gvals[dominant]
        w = gvecs[:, dominant]
        phi_c = w[0] * v1 + w[1] * v2
        prop_res = 2.0 * np.pi * float(
            np.linalg.norm(w[0] * prop[0] + w[1] * prop[1] - growth * phi_c)
        )
        re_mu = float(np.log(np.abs(growth)) / tau)
        if prev is not None and abs(re_mu - prev) < tol and prop_res < pow_residual_tol:
            break
        prev = re_mu
        v1, v2 = _orthonormalize(prop[0], prop[1])
    else:
        raise ConvergenceError(
            f"power iteration did not converge in {max_iter} iterations "
            f"(rate estimate {re_mu}, propagator residual {prop_res:.3e})"
        )

    mu = complex(np.log(growth + 0j) / tau)
    c = _normalize_phase(phi_c)
    phi = SpectralField(g, c)
    res = _residual(op, phi, mu)
    eigs = np.array(
        [complex(np.log(z + 0j) / tau) for z in gvals], dtype=np.complex128
    )
    return SpectrumResult(
        truncation=K,
        eigenvalues=eigs,
        rightmost=mu,
        eigenfunction=phi,
        residual=res,
        method="power",
        iterations=it,
        propagator_residual=prop_res,
    )


def _evolve_linear_coeffs(
    op: LinearOperator, c: np.ndarray, t: float, dt_target: float
) -> np.ndarray:
    """Fixed-step IF-RK4 for d_t theta = (L - shift) theta; batched-capable."""
    if t == 0.0:
        return c.copy()
    steps = max(1, int(np.ceil(t / dt_target)))
    dt = t / steps
    e1, e2 = decay_factors(op.grid, dt, op.shift)
    explicit = _linearized(op)
    for _ in range(steps):
        c = if_rk4_step(explicit, c, dt, e1, e2)
    return c


def evolve_linear(
    op: LinearOperator, theta: SpectralField, t: float, dt_target: float = 1e-3
) -> SpectralField:
    """Numerical e^{(L - shift) t} theta."""
    if t < 0:
        raise DomainError("evolve_linear requires t >= 0")
    if not theta.mean_free:
        raise DomainError("evolve_linear requires a mean-free field")
    if theta.grid.n != op.grid.n:
        raise ConfigurationError("field grid does not match operator grid")
    return SpectralField(op.grid, _evolve_linear_coeffs(op, theta.coeffs, t, dt_target))


def smoothing_probe(
    op_delta: LinearOperator,
    v: SpectralField,
    t: float,
    gamma_interp: float,
    dt_target: float = 1e-3,
) -> float:
    """Ratio t^g ||e^{L_delta t} v|| / (||v||^{1-g} ||Lambda^{-1} v||^g).

    op_delta must carry shift = lambda + delta for the smoothing inequality to
    be the one being probed; the function itself only evaluates the ratio.
    """
    if t <= 0:
        raise DomainError("smoothing probe requires t > 0")
    if not 0.0 <= gamma_interp <= 1.0:
        raise DomainError("gamma_interp must lie in [0, 1]")
    nv = norm_l2(v)
    if nv == 0:
        raise DomainError("smoothing probe requires a nonzero field")
    n_minus = norm_l2(lambda_pow(v, -1.0))
    ev = evolve_linear(op_delta, v, t, dt_target)
    return t**gamma_interp * norm_l2(ev) / (nv ** (1 - gamma_interp) * n_minus**gamma_interp)


def smoothing_probe_supremum(
    op_delta: LinearOperator,
    gamma_interp: float,
    band: int,
    t_grid,
    n_samples: int = 20,
    seed: int = 0,
    dt_target: float = 2e-3,
) -> float:
    """Empirical constant: sup of the probe ratio over random band-limited fields."""
    g = op_delta.grid
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(n_samples):
        v = SpectralField(g, _random_band(g, rng, band))
        for t in t_grid:
            best = max(best, smoothing_probe(op_delta, v, float(t), gamma_interp, dt_target))
    return best
