"""The linearized operator L theta = -q0.grad(theta) - q.grad(theta0) - Lambda(theta)
about a steady state, its shifted version L - shift, dense truncated assembly,
rightmost-eigenpair computation, and the linear semigroup.

L is applied through `dynamics.advection`, the kernel the time stepper uses,
in its linearized variant, and the semigroup is stepped by the same
`dynamics.if_rk4_step`.  With truncation K = floor(n/3) the assembled matrix
is therefore an exact representation of the implemented operator on the
retained modes, so eigenpair residuals are limited only by the eigensolver
arithmetic.  Grids too large to assemble use ARPACK on the matrix-free
propagator e^{tau (L - shift)} instead, over the same mode index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence
from scipy.sparse.linalg import LinearOperator as ScipyLinearOperator
from scipy.sparse.linalg import eigs

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


def mode_index(grid: GridSpec, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Array indices (rows, cols) of `truncation_modes(K)` in a coefficient array."""
    k = np.array(truncation_modes(K), dtype=int).reshape(-1, 2) % grid.n
    return k[:, 0], k[:, 1]


def dense_dimension(K: int, cap: int = DENSE_CAP_DEFAULT) -> int:
    """Size of the dense section at truncation K; ResourceError above cap."""
    M = (2 * K + 1) ** 2 - 1
    if M > cap:
        raise ResourceError(f"dense dimension {M} exceeds cap {cap}")
    return M


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
    M = dense_dimension(K, cap)
    rows, cols = mode_index(g, K)
    A = np.empty((M, M), dtype=np.complex128)
    chunk = max(1, min(32, M))
    for start in range(0, M, chunk):
        stop = min(start + chunk, M)
        basis = np.zeros((stop - start, g.n, g.n), dtype=np.complex128)
        basis[np.arange(stop - start), rows[start:stop], cols[start:stop]] = 1.0
        out = _apply(op, basis)
        A[:, start:stop] = out[:, rows, cols].T
    return A


@dataclass
class SpectrumResult:
    """Eigenvalues of the truncated operator and the rightmost eigenpair.

    residual is ||L phi - mu phi||_{L2}.  For the dense method at
    K = floor(n/3) it is at rounding level.  For the iterative method (ARPACK
    on the propagator E(tau)) eigenvalues holds the two Ritz values
    log(g) / tau, iterations counts propagator applications, and the
    eigenpair is certified by propagator_residual = 2 pi ||E(tau) x - g x||
    for the unit coefficient vector x instead: its L-residual is limited by
    the O(dt^4) discretization of the propagator, not by convergence.
    """

    truncation: int
    eigenvalues: np.ndarray
    rightmost: complex
    eigenfunction: SpectralField
    residual: float
    method: str
    iterations: int = 0
    propagator_residual: float = 0.0


def _embed(index, vec, grid: GridSpec) -> np.ndarray:
    c = np.zeros((grid.n, grid.n), dtype=np.complex128)
    c[index] = vec
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
    tol: float = 1e-10,
    max_iter: int = 400,
    dt_linear: float = 1e-3,
    seed: int = 0,
) -> SpectrumResult:
    """Rightmost eigenpair of L - shift by dense solve on the truncation K, or
    (method "power") by ARPACK on e^{tau_pow (L - shift)} over all alias-free
    modes from a seeded random start of band K; tol bounds its relative
    propagator residual and max_iter its restarts."""
    K = op.grid.dealias_radius if K is None else K
    if method == "dense":
        return _rightmost_dense(op, K, cap)
    if method == "power":
        return _rightmost_power(op, K, tau_pow, tol, max_iter, dt_linear, seed)
    raise DomainError(f"unknown eigensolver method {method!r}")


def _rightmost_index(w: np.ndarray) -> int:
    """Largest real part first, then largest imaginary part."""
    return int(np.lexsort((-w.imag, -w.real))[0])


def _result(op, K, index, w, top, vec, method, **extra) -> SpectrumResult:
    phi = SpectralField(op.grid, _normalize_phase(_embed(index, vec, op.grid)))
    mu = complex(w[top])
    r = _apply(op, phi.coeffs) - mu * phi.coeffs
    return SpectrumResult(
        truncation=K,
        eigenvalues=w,
        rightmost=mu,
        eigenfunction=phi,
        residual=2.0 * np.pi * float(np.linalg.norm(r)),
        method=method,
        **extra,
    )


def _rightmost_dense(op: LinearOperator, K: int, cap: int) -> SpectrumResult:
    w, V = np.linalg.eig(assemble_dense(op, K, cap=cap))
    top = _rightmost_index(w)
    return _result(op, K, mode_index(op.grid, K), w, top, V[:, top], "dense")


def _random_band(g: GridSpec, rng, band: int) -> np.ndarray:
    """Coefficients of a random real mean-free field on 0 < max(|k1|,|k2|) <= band."""
    c = to_coeffs(rng.standard_normal((g.n, g.n)), g.n)
    c *= (np.abs(g.k1) <= band) & (np.abs(g.k2) <= band) & g.dealias_mask
    c[0, 0] = 0.0
    return c


def _rightmost_power(
    op: LinearOperator,
    K: int,
    tau: float,
    tol: float,
    max_iter: int,
    dt_linear: float,
    seed: int,
) -> SpectrumResult:
    """ARPACK (implicitly restarted Arnoldi) on v -> e^{(L-shift) tau} v.

    The dominant eigenvalue of L is either real (possibly of multiplicity two
    for symmetric steady states) or a conjugate pair: two Ritz values hold it.
    """
    g = op.grid
    index = mode_index(g, g.dealias_radius)
    calls = 0

    def propagate(x):
        nonlocal calls
        calls += 1
        return _evolve_linear_coeffs(op, _embed(index, x.ravel(), g), tau, dt_linear)[index]

    M = index[0].size
    E = ScipyLinearOperator((M, M), matvec=propagate, dtype=np.complex128)
    v0 = _random_band(g, np.random.default_rng(seed), K)[index]
    try:
        gvals, X = eigs(E, k=2, which="LM", v0=v0, tol=tol, maxiter=max_iter)
    except ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"ARPACK did not converge in {max_iter} restarts ({calls} propagator "
            f"calls, {len(exc.eigenvalues)} of 2 Ritz values converged)"
        ) from exc
    mus = np.log(gvals) / tau
    top = _rightmost_index(mus)
    x = X[:, top]
    prop_res = 2.0 * np.pi * float(np.linalg.norm(propagate(x) - gvals[top] * x))
    return _result(
        op, K, index, mus, top, x, "power", iterations=calls, propagator_residual=prop_res
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
