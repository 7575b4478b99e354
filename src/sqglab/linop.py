"""The linearized operator L theta = -q0.grad(theta) - q.grad(theta0) - Lambda(theta)
about a steady state, its shifted version L - shift, dense truncated assembly,
rightmost-eigenpair computation, the linear semigroup, stepped by IF-RK4
(`evolve_linear`), and the smoothing probe, exact through the section's block
exponentials.  Growth experiments take their linear reference from the
eigenpair itself, not from this semigroup (see `growth.run_perturbation`).

L is applied through `dynamics.advection`, the kernel the time stepper uses,
in its linearized variant, and the semigroup is stepped by the same
`dynamics.if_rk4_step`.  With truncation K = floor(n/3) the assembled matrix
is therefore an exact representation of the implemented operator on the
retained modes, so eigenpair residuals are limited only by the eigensolver
arithmetic.  When theta0 does not depend on x1 (no coefficient off k1 = 0),
L commutes with x1-translations and keeps k1: the dense section is then
assembled a k2 column at a time, held as its 2K + 1 diagonal k1-blocks of
size at most 2K + 1 (a `DenseSection`; the M x M matrix is never formed) and
eigensolved block by block in k1, the Fourier-chain structure of Meshalkin &
Sinai.  Otherwise the section is one block of size M.  The dense cap bounds
the largest block.  Grids too large to assemble use ARPACK on the
matrix-free propagator e^{tau (L - shift)} instead, over the same mode index.

The kernel and the step work on half-spectra of real fields.  L is real, so
a complex field (basis probe, ARPACK vector, eigenfunction) goes through them
as the pair of its real and imaginary parts, two slots of one stack, and
`_through_real` recombines the results.
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
    mirror,
    real_imag_halves,
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


def _through_real(fn, c: np.ndarray) -> np.ndarray:
    """fn, a real-linear map of half-spectra, applied to the full complex
    coefficients c (any leading axes) as fn(Re) + i fn(Im), with Re and Im as
    two slots of one stack; the Im slot is skipped when it is zero."""
    n = c.shape[-1]
    re, im = real_imag_halves(c)
    if not np.any(im):
        return mirror(fn(re), n)
    out = fn(np.stack([re, im]))
    return mirror(out[0], n) + 1j * mirror(out[1], n)


def _apply(op: LinearOperator, c: np.ndarray) -> np.ndarray:
    """(L - shift) c for full coefficients with any leading axes."""
    linearized, decay = _linearized(op), op.grid.half_kmag + op.shift
    return _through_real(lambda h: linearized(h) - decay * h, c)


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


def check_dense_cap(width: int, cap: int = DENSE_CAP_DEFAULT) -> None:
    """ResourceError when the largest dense block, of size width, exceeds cap."""
    if width > cap:
        raise ResourceError(f"dense block size {width} exceeds cap {cap}")


def _blocks(op: LinearOperator, K: int) -> tuple[np.ndarray, np.ndarray]:
    """(block, probe) label of each mode of `truncation_modes(K)`: its k1 and
    its k2 column when theta0 has no coefficient off k1 = 0 (then L keeps
    k1), else block 0 and a probe of its own.  The test is exact: a theta0
    with any coefficient off k1 = 0, however small, couples the k1."""
    k1, k2 = np.array(truncation_modes(K), dtype=int).reshape(-1, 2).T
    if np.any(op.steady.theta0.coeffs[1:]):
        return np.zeros_like(k1), np.arange(k1.size)
    return k1, k2 + K


@dataclass
class DenseSection:
    """The dense section as its diagonal blocks in mode order: k1 = -K, ..., K
    for an x1-invariant theta0, else one block of size M.  Entries between
    different blocks are exact zeros."""

    blocks: list[np.ndarray]

    @property
    def shape(self) -> tuple[int, int]:
        M = sum(len(b) for b in self.blocks)
        return M, M


def assemble_dense(op: LinearOperator, K: int, cap: int = DENSE_CAP_DEFAULT) -> DenseSection:
    """Finite section of L - shift on span{e^{ik.x} : 0 < max|k_i| <= K}.

    Column j holds the coefficients of (L - shift) e^{ik_j.x} restricted to
    the truncation set, computed through the spectral kernels on stacks of
    basis fields.  For a steady state independent of x1 one basis field per
    k2 column sets every k1 of that column: L keeps k1, so the image in row
    k1 is the column of mode (k1, k2), 2K + 1 kernel applications in all, and
    the section is 2K + 1 blocks, one per k1, of size at most 2K + 1.
    Otherwise each basis field is one mode, M applications into one block.
    ResourceError when the largest block exceeds cap.
    """
    g = op.grid
    if K > g.dealias_radius:
        raise ResolutionError(
            f"truncation K={K} exceeds the alias-free radius n/3={g.dealias_radius}"
        )
    rows, cols = mode_index(g, K)
    block, probe = _blocks(op, K)
    # modes are ordered by k1: each block is a contiguous run of modes
    segments = np.split(np.arange(block.size), np.flatnonzero(np.diff(block)) + 1)
    check_dense_cap(max(s.size for s in segments), cap)
    blocks = [np.zeros((s.size, s.size), dtype=np.complex128) for s in segments]
    n_probes, chunk = int(probe.max(initial=-1)) + 1, 8
    for start in range(0, n_probes, chunk):
        stop = min(start + chunk, n_probes)
        j = np.flatnonzero((probe >= start) & (probe < stop))
        basis = np.zeros((stop - start, g.n, g.n), dtype=np.complex128)
        basis[probe[j] - start, rows[j], cols[j]] = 1.0
        out = _apply(op, basis)
        for s, b in zip(segments, blocks):
            in_chunk = (probe[s] >= start) & (probe[s] < stop)
            b[:, in_chunk] = out[probe[s[in_chunk]] - start, rows[s, None], cols[s, None]]
    return DenseSection(blocks)


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
    propagator residual and max_iter its restarts.  cap bounds the largest
    block of the dense section (`assemble_dense`): 2K + 1 when theta0 is
    independent of x1, M = (2K + 1)^2 - 1 otherwise.

    The dense solve works block by block when theta0 is independent of x1: it
    eigensolves the k1 = 0, 1, ..., K blocks of the section, appends the
    conjugate spectrum of each k1 > 0 block for k1 < 0, and takes phi from the
    block holding the eigenvalue of largest real part, ties within
    1e-12 max(1, |mu|) going to the smaller k1.  For a shear state phi thus
    lives on one k1 >= 0.  When mu is repeated in that block (eigenvalues
    within the same tolerance), phi is the projection onto its eigenspace of
    the first mode whose projection weight is within 1e-6 of the largest, so
    it does not depend on which basis of the eigenspace the eigensolver
    returns."""
    K = op.grid.dealias_radius if K is None else K
    if method == "dense":
        return _rightmost_dense(op, K, cap)
    if method == "power":
        return _rightmost_power(op, K, tau_pow, tol, max_iter, dt_linear, seed)
    raise DomainError(f"unknown eigensolver method {method!r}")


def _rightmost_index(w: np.ndarray) -> int:
    """Largest real part first, then largest imaginary part."""
    return int(np.lexsort((-w.imag, -w.real))[0])


def _result(op, K, index, w, mu, vec, method, **extra) -> SpectrumResult:
    phi = SpectralField(op.grid, _normalize_phase(_embed(index, vec, op.grid)))
    r = _apply(op, phi.coeffs) - mu * phi.coeffs
    return SpectrumResult(
        truncation=K,
        eigenvalues=w,
        rightmost=complex(mu),
        eigenfunction=phi,
        residual=2.0 * np.pi * float(np.linalg.norm(r)),
        method=method,
        **extra,
    )


def _rightmost_dense(op: LinearOperator, K: int, cap: int) -> SpectrumResult:
    blocks = assemble_dense(op, K, cap=cap).blocks
    ends = np.cumsum([len(b) for b in blocks])
    mid = len(blocks) // 2  # the k1 = 0 block: blocks run over k1 = -K..K, or are one
    spectra, best = [], None
    for i in range(mid, len(blocks)):
        w, V = np.linalg.eig(blocks[i])
        spectra += [w, w.conj()] if i > mid else [w]
        top = _rightmost_index(w)
        if best is None or w[top].real > best[0].real + 1e-12 * max(1.0, abs(best[0])):
            best = w[top], slice(ends[i] - len(w), ends[i]), w, V
    mu, s, w, V = best
    Q, _ = np.linalg.qr(V[:, np.abs(w - mu) <= 1e-12 * max(1.0, abs(mu))])
    weight = np.sum(np.abs(Q) ** 2, axis=1)
    j = int(np.argmax(weight >= (1.0 - 1e-6) * weight.max()))
    vec = np.zeros(ends[-1], dtype=np.complex128)
    vec[s] = Q @ Q[j].conj()
    return _result(op, K, mode_index(op.grid, K), np.concatenate(spectra), mu, vec, "dense")


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
    from scipy.sparse.linalg import ArpackNoConvergence, eigs
    from scipy.sparse.linalg import LinearOperator as ScipyLinearOperator

    g = op.grid
    index = mode_index(g, g.dealias_radius)
    calls = 0

    def propagate(x):
        nonlocal calls
        calls += 1
        return _evolve_linear_coeffs(op, _embed(index, x.ravel(), g), tau, dt_linear)[index]

    M = index[0].size
    E = ScipyLinearOperator((M, M), matvec=propagate, dtype=np.complex128)
    rng = np.random.default_rng(seed)
    v0 = _random_band(g, rng, K)[index]
    try:
        # rng also draws any restart vector ARPACK asks for (else OS entropy)
        gvals, X = eigs(E, k=2, which="LM", v0=v0, tol=tol, maxiter=max_iter, rng=rng)
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
        op, K, index, mus, mus[top], x, "power", iterations=calls, propagator_residual=prop_res
    )


def _evolve_linear_coeffs(
    op: LinearOperator, c: np.ndarray, t: float, dt_target: float
) -> np.ndarray:
    """Fixed-step IF-RK4 for d_t theta = (L - shift) theta on full
    coefficients; batched-capable."""
    if t == 0.0:
        return c.copy()
    steps = max(1, int(np.ceil(t / dt_target)))
    dt = t / steps
    e1, e2 = decay_factors(op.grid, dt, op.shift)
    explicit = _linearized(op)

    def propagate(h):
        for _ in range(steps):
            h = if_rk4_step(explicit, h, dt, e1, e2)
        return h

    return _through_real(propagate, c)


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


def _probe_ratios(
    op_delta: LinearOperator, c: np.ndarray, t_grid, gamma_interp: float
) -> np.ndarray:
    """The probe ratios of the fields c (shape (S, n, n)), one row per field and
    one column per time of t_grid.  The section at K = n/3 is the implemented
    operator on the alias-free modes and keeps them, so e^{L_delta t} is exactly
    one block exponential per (t, block) (scaling and squaring, Higham 2005)."""
    from scipy.linalg import expm

    ts = [float(t) for t in t_grid]
    if any(t <= 0 for t in ts):
        raise DomainError("smoothing probe requires t > 0")
    if not 0.0 <= gamma_interp <= 1.0:
        raise DomainError("gamma_interp must lie in [0, 1]")
    g = op_delta.grid
    if not np.all(np.any(c, axis=(-2, -1))):
        raise DomainError("smoothing probe requires a nonzero field")
    if c.shape[-1] != g.n:
        raise ConfigurationError("field grid does not match operator grid")
    if np.any(c[:, 0, 0]) or np.any(c[:, ~g.dealias_mask]):
        raise DomainError("smoothing probe requires a mean-free field on the alias-free modes")
    blocks = assemble_dense(op_delta, g.dealias_radius).blocks
    index = mode_index(g, g.dealias_radius)
    v = c[:, index[0], index[1]]
    nv, nl = (np.linalg.norm(w, axis=1) for w in (v, v / g.kmag[index]))
    scale = nv ** (1 - gamma_interp) * nl**gamma_interp
    segments = np.split(v, np.cumsum([len(b) for b in blocks])[:-1], axis=1)
    ratios = np.empty((len(c), len(ts)))
    for j, t in enumerate(ts):
        ev = [s @ expm(t * b).T for s, b in zip(segments, blocks)]
        ratios[:, j] = t**gamma_interp * np.linalg.norm(np.hstack(ev), axis=1) / scale
    return ratios


def smoothing_probe(
    op_delta: LinearOperator, v: SpectralField, t: float, gamma_interp: float
) -> float:
    """Ratio t^g ||e^{L_delta t} v|| / (||v||^{1-g} ||Lambda^{-1} v||^g).

    op_delta must carry shift = lambda + delta for the smoothing inequality to
    be the one being probed; the function itself only evaluates the ratio.
    v must lie on the alias-free modes, and op_delta's section within the cap.
    """
    return float(_probe_ratios(op_delta, v.coeffs[None], [t], gamma_interp)[0, 0])


def smoothing_probe_supremum(
    op_delta: LinearOperator,
    gamma_interp: float,
    band: int,
    t_grid,
    n_samples: int = 20,
    seed: int = 0,
) -> float:
    """Empirical constant: sup of the probe ratio over random band-limited
    fields and the times of t_grid, the fields taken as one stack."""
    g = op_delta.grid
    rng = np.random.default_rng(seed)
    c = np.array([_random_band(g, rng, band) for _ in range(n_samples)]).reshape(-1, g.n, g.n)
    return float(_probe_ratios(op_delta, c, t_grid, gamma_interp).max(initial=0.0))
