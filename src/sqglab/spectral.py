"""Fourier representation of scalar fields on the 2-torus [0, 2pi]^2.

Convention: f(x) = sum_k fhat_k exp(i k.x) with no normalization on the sum,
so symbol multipliers act literally on the coefficients.  The forward
transform divides by n^2.

Two storage layouts share numpy's FFT ordering (integer wavenumbers from
fftfreq, k1 along axis 0):

* full: complex (..., n, n) arrays.  `SpectralField`, the norms, SQGF output
  and every public interface use it.  Real fields satisfy
  fhat(-k) = conj(fhat(k)), exactly when made by `mirror` (as `forward` and
  the time loop make them); complex-valued
  fields (e.g. eigenfunctions of the linearized operator) use the same
  storage without the symmetry.
* half: the rfft2 half-spectrum (..., n, n/2 + 1) of a real field, the
  columns k2 = 0..n/2 of the full layout (column n/2 is the full layout's
  k2 = -n/2).  The time loop and the advection kernel work in it.  `half`
  and `mirror` convert, the latter by conjugate symmetry, no FFT.

Every transform is an rfft2/irfft2; a complex field goes through one as the
half-spectra of its real and imaginary parts (`real_imag_halves`).  One table,
`GridSpec.advection_symbols`, holds the velocity and gradient symbols.

Mean-free fields have fhat(0,0) = 0 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DataError, DomainError, SymmetryError

TWO_PI = 2.0 * np.pi

#: Relative tolerance used when classifying a field as conjugate-symmetric.
SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Uniform n x n collocation grid on [0, 2pi]^2, n even."""

    n: int

    def __post_init__(self):
        if self.n % 2 != 0 or self.n < 8:
            raise DomainError(f"grid size must be even and >= 8, got n={self.n}")

    @property
    def dx(self) -> float:
        return TWO_PI / self.n

    @cached_property
    def x(self) -> np.ndarray:
        return np.arange(self.n) * self.dx

    @cached_property
    def k1(self) -> np.ndarray:
        """Integer wavenumber along axis 0, broadcast to (n, n)."""
        k = np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)
        return np.broadcast_to(k[:, None], (self.n, self.n))

    @cached_property
    def k2(self) -> np.ndarray:
        k = np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)
        return np.broadcast_to(k[None, :], (self.n, self.n))

    @cached_property
    def kmag(self) -> np.ndarray:
        return np.hypot(self.k1, self.k2)

    @property
    def dealias_radius(self) -> int:
        return self.n // 3

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """True where max(|k1|,|k2|) <= n/3 (modes kept by the 2/3 rule)."""
        r = self.dealias_radius
        return (np.abs(self.k1) <= r) & (np.abs(self.k2) <= r)

    @cached_property
    def nyquist_mask(self) -> np.ndarray:
        """True away from the k_i = -n/2 rows (where odd derivatives are ill-defined)."""
        ny = -(self.n // 2)
        return (self.k1 != ny) & (self.k2 != ny)

    @cached_property
    def advection_symbols(self) -> np.ndarray:
        """Symbols of (u1, u2, d_1, d_2) with u = (R2, -R1), shape (4, n, n):
        i k_j / |k| for the velocity, i k_j for the gradient, Nyquist rows zeroed."""
        with np.errstate(divide="ignore"):
            inv_k = np.where(self.kmag > 0, 1.0 / self.kmag, 0.0)
        one = np.ones_like(inv_k)
        ik = np.stack([1j * self.k2, -1j * self.k1, 1j * self.k1, 1j * self.k2])
        return ik * np.stack([inv_k, inv_k, one, one]) * self.nyquist_mask

    # the same arrays on the half-spectrum columns k2 = 0..n/2, contiguous

    @cached_property
    def half_kmag(self) -> np.ndarray:
        return half(self.kmag)

    @cached_property
    def half_dealias_mask(self) -> np.ndarray:
        return half(self.dealias_mask)

    @cached_property
    def half_advection_symbols(self) -> np.ndarray:
        return half(self.advection_symbols)


@dataclass
class SpectralField:
    """Scalar field stored as Fourier coefficients; treat as immutable."""

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != (self.grid.n, self.grid.n):
            raise DataError(
                f"coefficient array shape {self.coeffs.shape} does not match n={self.grid.n}"
            )
        if self.coeffs.dtype != np.complex128:
            self.coeffs = self.coeffs.astype(np.complex128)

    @property
    def mean_free(self) -> bool:
        return self.coeffs[0, 0] == 0.0

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())


@dataclass
class PhysicalField:
    """Real collocation values on the n x n grid, values[i1, i2] = f(x1_i1, x2_i2)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.grid.n, self.grid.n):
            raise DataError(
                f"value array shape {self.values.shape} does not match n={self.grid.n}"
            )


def meshgrid(grid: GridSpec):
    """Collocation coordinates (X1, X2), each (n, n), x1 along axis 0."""
    return np.meshgrid(grid.x, grid.x, indexing="ij")


# -- transforms --------------------------------------------------------------

def forward(p: PhysicalField) -> SpectralField:
    """Physical values -> Fourier coefficients (divides by n^2).

    A mean that is negligible against the field magnitude (rounding noise of
    analytically mean-free data) is snapped to exactly zero.
    """
    if not np.all(np.isfinite(p.values)):
        raise DataError("physical field contains non-finite values")
    c = to_coeffs(p.values, p.grid.n)
    scale = np.max(np.abs(c))
    if scale > 0 and np.abs(c[0, 0]) <= 1e-13 * scale:
        c[0, 0] = 0.0
    return SpectralField(p.grid, c)


def inverse(s: SpectralField) -> PhysicalField:
    """Fourier coefficients -> real physical values; rejects input whose
    imaginary part exceeds SYMMETRY_RTOL times the field magnitude."""
    re, im = real_imag_halves(s.coeffs)
    if not np.any(im):  # exactly conjugate-symmetric, as the program makes real fields
        return PhysicalField(s.grid, half_values(re, s.grid.n))
    re, im = half_values(np.stack([re, im]), s.grid.n)
    scale = np.sqrt(np.max(re * re + im * im))
    if scale > 0 and np.max(np.abs(im)) > SYMMETRY_RTOL * scale:
        raise SymmetryError(
            "conjugate symmetry broken: imaginary residue "
            f"{np.max(np.abs(im)) / scale:.3e} of field magnitude"
        )
    return PhysicalField(s.grid, re)


def to_coeffs(values: np.ndarray, n: int) -> np.ndarray:
    """Full, exactly conjugate-symmetric coefficients of real values."""
    return mirror(half_coeffs(values), n)


def half(c: np.ndarray) -> np.ndarray:
    """Half-spectrum columns k2 = 0..n/2 of full coefficients, as a contiguous copy."""
    return np.ascontiguousarray(c[..., : c.shape[-1] // 2 + 1])


def mirror(h: np.ndarray, n: int) -> np.ndarray:
    """Full, exactly conjugate-symmetric coefficients of the real field with
    half-spectrum h: the columns k2 = -n/2 + 1..-1 are conj(h) at (-k1, -k2),
    and the columns k2 = 0 and n/2, which hold both k and -k, are averaged
    with their reflection."""
    rows = -np.arange(n) % n
    c = np.empty(h.shape[:-1] + (n,), dtype=np.complex128)
    c[..., : n // 2 + 1] = h
    for j in (0, n // 2):
        c[..., j] = 0.5 * (h[..., j] + np.conj(h[..., rows, j]))
    c[..., n // 2 + 1 :] = np.conj(h[..., rows, n // 2 - 1 : 0 : -1])
    return c


@lru_cache(maxsize=8)
def _reflected_index(n: int) -> np.ndarray:
    """Flat indices into an n x n layout of (-k1, -k2) for the half-spectrum
    columns k2 = 0..n/2; read-only, since every caller shares it."""
    idx = (-np.arange(n) % n)[:, None] * n + (-np.arange(n // 2 + 1) % n)
    idx.setflags(write=False)
    return idx


def real_imag_halves(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half-spectra of the real and imaginary parts of the complex field with
    full coefficients c (any leading axes): (c + r) / 2 and (c - r) / 2i with
    r = conj(c) at (-k1, -k2).  The imaginary part is exactly zero when c is
    exactly conjugate-symmetric."""
    n = c.shape[-1]
    r = np.conj(c.reshape(c.shape[:-2] + (n * n,))[..., _reflected_index(n)])
    c = c[..., : n // 2 + 1]
    return 0.5 * (c + r), -0.5j * (c - r)


def half_values(h: np.ndarray, n: int) -> np.ndarray:
    """Real collocation values of half-spectra with any leading axes."""
    return np.fft.irfft2(h, s=(n, n), norm="forward")


def half_coeffs(values: np.ndarray) -> np.ndarray:
    """Half-spectra of real values with any leading axes (divides by n^2)."""
    return np.fft.rfft2(values, norm="forward")


def from_values(grid: GridSpec, values: np.ndarray) -> SpectralField:
    """Convenience: real values -> SpectralField."""
    return forward(PhysicalField(grid, np.asarray(values, dtype=np.float64)))


# -- symbol multipliers -------------------------------------------------------

def lambda_pow(s: SpectralField, a: float) -> SpectralField:
    """Fractional dissipation symbol |k|^a; a < 0 requires a mean-free field."""
    if a < 0 and not s.mean_free:
        raise DomainError("lambda_pow with negative exponent requires a mean-free field")
    g = s.grid
    with np.errstate(divide="ignore"):
        mult = np.where(g.kmag > 0, g.kmag**a, 0.0)
    return SpectralField(g, s.coeffs * mult)


def riesz(s: SpectralField, j: int) -> SpectralField:
    """Riesz transform R_j = d_j Lambda^{-1}, symbol i k_j / |k|."""
    if not s.mean_free:
        raise DomainError("riesz transform requires a mean-free field")
    if j not in (1, 2):
        raise DomainError(f"riesz component must be 1 or 2, got {j}")
    # the velocity slots of the advection symbols: u1 = R2, u2 = -R1
    u = s.grid.advection_symbols
    return SpectralField(s.grid, s.coeffs * (u[0] if j == 2 else -u[1]))


def velocity_from_theta(s: SpectralField):
    """Velocity (R2 theta, -R1 theta) induced by the scalar."""
    u1 = riesz(s, 2)
    u2 = riesz(s, 1)
    u2.coeffs = -u2.coeffs
    return u1, u2


def derivative(s: SpectralField, j: int) -> SpectralField:
    """Partial derivative d_j, symbol i k_j, Nyquist row zeroed."""
    if j not in (1, 2):
        raise DomainError(f"derivative direction must be 1 or 2, got {j}")
    return SpectralField(s.grid, s.coeffs * s.grid.advection_symbols[j + 1])


def dealias(s: SpectralField) -> SpectralField:
    """2/3-rule projection: zero modes with max(|k1|,|k2|) > n/3."""
    return SpectralField(s.grid, s.coeffs * s.grid.dealias_mask)


def embed(s: SpectralField, grid: GridSpec) -> SpectralField:
    """Zero-pad a field onto a finer grid (same wavenumber content)."""
    if grid.n < s.grid.n:
        raise DomainError("embed targets a grid at least as fine as the source")
    if grid.n == s.grid.n:
        return s.copy()
    c = np.zeros((grid.n, grid.n), dtype=np.complex128)
    half = s.grid.n // 2
    for k1 in range(-half, half):
        c[k1 % grid.n, np.arange(-half, half) % grid.n] = s.coeffs[
            k1 % s.grid.n, np.arange(-half, half) % s.grid.n
        ]
    return SpectralField(grid, c)


# -- norms and inner products -------------------------------------------------

def norm_l2(s: SpectralField) -> float:
    """L2 norm by Parseval: ||f|| = 2pi (sum |fhat|^2)^{1/2}."""
    c = s.coeffs
    return TWO_PI * float(np.sqrt(np.sum(c.real**2 + c.imag**2)))


@lru_cache(maxsize=8)
def _hs_weights(grid: GridSpec, sigma: float) -> np.ndarray:
    """|k|^{2 sigma}, with the (0, 0) entry 1 for sigma = 0 and 0 otherwise;
    read-only, since every caller shares it."""
    with np.errstate(divide="ignore"):
        w = np.where(grid.kmag > 0, grid.kmag ** (2.0 * sigma), 0.0)
    if sigma == 0:
        w[0, 0] = 1.0
    w.setflags(write=False)
    return w


def norm_hs(s: SpectralField, sigma: float) -> float:
    """Homogeneous Sobolev seminorm (sum |k|^{2 sigma} |fhat|^2)^{1/2} * 2pi."""
    w = _hs_weights(s.grid, sigma)
    return TWO_PI * float(np.sqrt(np.sum(w * np.abs(s.coeffs) ** 2)))


def norm_linf(s: SpectralField) -> float:
    return float(np.max(np.abs(inverse(s).values)))


def norm_linf_grad(s: SpectralField) -> float:
    """sup over the grid of the Euclidean norm of the gradient, from one stacked
    transform of the half-spectrum; s must be conjugate-symmetric (`norm_linf`'s
    `inverse` checks it)."""
    d1, d2 = half_values(half(s.coeffs) * s.grid.half_advection_symbols[2:], s.grid.n)
    return float(np.max(np.hypot(d1, d2)))


def inner_l2(a: SpectralField, b: SpectralField) -> float:
    """(a, b)_{L2} for real fields, computed spectrally."""
    a, b = a.coeffs, b.coeffs
    return TWO_PI**2 * float(np.sum(a.real * b.real + a.imag * b.imag))

