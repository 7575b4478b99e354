"""Nonlocal maximum-principle machinery: the piecewise modulus of continuity,
its rescaling by the slope parameter B, the advection / dissipation / force
bound functionals, selection of B, verification of the key inequality on
(0, d], and empirical modulus checking of gridded fields.

The modulus is
    omega(s) = s - s^{3/2}                                   for 0 <= s <= delta,
    omega(s) = delta - delta^{3/2} + gamma log(1 + log(s/delta)/4)   for s > delta,
with 0 < gamma < delta < 1, and omega_B(xi) = omega(B xi).  The slope at the
origin is B, so a field with strict modulus omega_B has gradient below B.
Note the log-log growth: in double precision omega_B(d) cannot exceed roughly
max_{delta,gamma} [delta - delta^{3/2} + gamma log(1 + 178)], about 1.3, no
matter how large B is taken.  Force and oscillation scales beyond that are
genuinely out of reach of this modulus family (the B-selection reports the
gap rather than silently failing).

B is selected on the grid 1.25**j, 1e-6 <= B <= B_CAP: every selection
condition is monotone in B, so one integer bisection on j finds each
condition's least grid point, and B is the largest of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, QuadratureError
from .spectral import SpectralField, inverse

#: Torus diameter, fixed throughout.
TORUS_DIAMETER = 2.0 * math.pi * math.sqrt(2.0)

#: Largest B the grid search will consider ((B*xi)^{3/2} must not overflow).
B_CAP = 1e280


@dataclass(frozen=True)
class ModulusParams:
    """Parameters of the rescaled modulus omega_B and the verification problem."""

    delta_mod: float = 1e-2
    gamma_mod: float = 1e-2
    B: float = 1.0
    A: float = 1.0          # velocity-modulus constant of the advection bound
    C_big: float = 10.0     # 'sufficiently large' constant in the B selection
    d: float = TORUS_DIAMETER

    def __post_init__(self):
        if not 0.0 < self.delta_mod < 1.0:
            raise DomainError("delta_mod must lie in (0, 1)")
        if not 0.0 < self.gamma_mod <= self.delta_mod:
            raise DomainError("gamma_mod must lie in (0, delta_mod]")
        if self.B <= 0 or self.A <= 0:
            raise DomainError("B and A must be positive")

    @property
    def seam(self) -> float:
        """The branch point of omega_B, xi = delta/B."""
        return self.delta_mod / self.B

    def with_B(self, B: float) -> "ModulusParams":
        return ModulusParams(self.delta_mod, self.gamma_mod, B, self.A, self.C_big, self.d)


# -- the modulus and its derivatives ------------------------------------------

def omega(params: ModulusParams, s):
    """Unscaled modulus omega(s); vectorized."""
    s = np.asarray(s, dtype=float)
    de, ga = params.delta_mod, params.gamma_mod
    lo = np.minimum(s, de)  # clamp per branch so the unused side cannot overflow
    hi = np.maximum(s, de)
    first = lo - lo**1.5
    second = de - de**1.5 + ga * np.log1p(0.25 * np.log(hi / de))
    out = np.where(s <= de, first, second)
    return out if out.ndim else float(out)


def _omega_prime(params: ModulusParams, s):
    s = np.asarray(s, dtype=float)
    de, ga = params.delta_mod, params.gamma_mod
    lo = np.minimum(s, de)
    hi = np.maximum(s, de)
    first = 1.0 - 1.5 * np.sqrt(lo)
    u = 1.0 + 0.25 * np.log(hi / de)
    second = ga / (4.0 * hi * u)
    out = np.where(s <= de, first, second)
    return out if out.ndim else float(out)


def omega_B(params: ModulusParams, xi):
    return omega(params, params.B * np.asarray(xi, dtype=float))


def omega_B_prime(params: ModulusParams, xi):
    return params.B * _omega_prime(params, params.B * np.asarray(xi, dtype=float))


# -- bound functionals ---------------------------------------------------------

_QUAD_OPTS = dict(epsabs=1e-11, epsrel=1e-11, limit=400)


def _enrich_geometric(points, ratio=10.0):
    """Insert geometric midpoints into intervals spanning > ratio in scale,
    so the adaptive rule never faces a many-decade piece at once."""
    out = [points[0]]
    for a, b in zip(points[:-1], points[1:]):
        if a > 0 and b / a > ratio:
            step = a * ratio
            while step < b / ratio * (1 + 1e-12):
                out.append(step)
                step *= ratio
        out.append(b)
    return out


def _quad_pieces(f, points, infinite_tail=False, opts=None):
    """Integrate f over consecutive [points[i], points[i+1]], summing errors."""
    opts = opts or _QUAD_OPTS
    total, err = 0.0, 0.0
    points = _enrich_geometric(points)
    for a, b in zip(points[:-1], points[1:]):
        if b <= a:
            continue
        v, e = quad(f, a, b, **opts)
        total += v
        err += e
    if infinite_tail:
        v, e = quad(f, points[-1], np.inf, **opts)
        total += v
        err += e
    if not np.isfinite(total):
        raise QuadratureError("quadrature did not converge to a finite value")
    return total, err


def Omega_B_with_error(params: ModulusParams, xi: float, opts=None):
    """Advection bound A (int_0^xi omega_B/eta + xi int_xi^inf omega_B/eta^2)."""
    if xi <= 0:
        raise DomainError("Omega_B requires xi > 0")
    seam = params.seam

    def f1(eta):
        return omega(params, params.B * eta) / eta

    def f2(eta):
        return omega(params, params.B * eta) / eta**2

    pts1 = [0.0] + ([seam] if 0.0 < seam < xi else []) + [xi]
    v1, e1 = _quad_pieces(f1, pts1, opts=opts)
    pts2 = [xi] + ([seam] if seam > xi else [])
    v2, e2 = _quad_pieces(f2, pts2, infinite_tail=True, opts=opts)
    return params.A * (v1 + xi * v2), params.A * (e1 + xi * e2)


def Omega_B(params: ModulusParams, xi: float) -> float:
    return Omega_B_with_error(params, xi)[0]


# Taylor coefficients of (1+w)^{3/2} + (1-w)^{3/2} - 2 in powers of w^2:
# 2 * binom(3/2, 2k) w^{2k}, generated by the binomial recurrence
def _pow32_coeffs(terms=8):
    out, c, k = [], 1.0, 0
    while len(out) < terms:
        c *= (1.5 - k) / (k + 1)
        k += 1
        if k % 2 == 0:
            out.append(c)
    return out


_POW32 = _pow32_coeffs()


def _pow32_second(w: float) -> float:
    """(1+w)^{3/2} + (1-w)^{3/2} - 2, cancellation-free for small w."""
    if w >= 0.3:
        return (1.0 + w) ** 1.5 + (1.0 - w) ** 1.5 - 2.0
    w2, p, acc = w * w, w * w, 0.0
    for c in _POW32:
        acc += c * p
        p *= w2
    return 2.0 * acc


def _second_diff_s(params: ModulusParams, s: float, u: float) -> float:
    """omega(s+2u) + omega(s-2u) - 2 omega(s) without catastrophic
    cancellation, for 0 < 2u <= s (arguments in unscaled units)."""
    de, ga = params.delta_mod, params.gamma_mod
    if s + 2 * u <= de:
        # first branch: the linear parts cancel exactly
        return -(s**1.5) * _pow32_second(2 * u / s)
    if s - 2 * u >= de:
        # log-log branch: log1p(a) + log1p(b) - 2 log1p(c) via exact algebra
        w = 2 * u / s
        L = math.log(s / de)
        log_m = math.log1p(-w * w)
        q = 0.25 * log_m
        r = (L * log_m + math.log1p(w) * math.log1p(-w)) / 16.0
        c = 1.0 + 0.25 * L
        return ga * math.log1p((q + r) / (c * c))
    # straddling the seam: the corner jump dominates and direct evaluation
    # is accurate where the value matters
    return float(
        omega(params, s + 2 * u) + omega(params, s - 2 * u) - 2.0 * omega(params, s)
    )


def M_B_with_error(params: ModulusParams, xi: float, opts=None):
    """Dissipation bound (negative): the two singular-kernel integrals of the
    one-dimensional reduction of Lambda along the segment between the pair."""
    if xi <= 0:
        raise DomainError("M_B requires xi > 0")
    B, seam = params.B, params.seam
    ob_xi = float(omega_B(params, xi))

    # a corner of omega_B exactly at xi makes the first integral diverge to
    # -infinity (concavity kink); report it as such
    if abs(B * xi - params.delta_mod) <= 1e-12 * params.delta_mod:
        return -np.inf, 0.0

    s = B * xi

    def f1(eta):
        return _second_diff_s(params, s, B * eta) / eta**2

    corner = 0.5 * abs(xi - seam)
    kinks1 = [c for c in (corner,) if 0.0 < c < xi / 2.0]
    v1, e1 = _quad_pieces(f1, [0.0] + kinks1 + [xi / 2.0], opts=opts)

    big_t = 100.0 * max(xi, seam, 1.0)

    def f2(eta):
        return (
            omega(params, B * (2 * eta + xi))
            - omega(params, B * (2 * eta - xi))
            - 2.0 * ob_xi
        ) / eta**2

    kinks2 = [c for c in ((seam - xi) / 2.0, (seam + xi) / 2.0) if xi / 2.0 < c < big_t]
    pieces = [xi / 2.0] + sorted(set(kinks2)) + [big_t]
    v2, e2 = _quad_pieces(f2, pieces, opts=opts)
    # analytic tail: the -2 omega_B(xi) part integrates exactly; the increment
    # part is nonnegative and bounded via concavity
    v2 += -2.0 * ob_xi / big_t
    diff_bound = 2.0 * xi * float(omega_B_prime(params, 2 * big_t - xi)) / big_t
    v2 += 0.5 * diff_bound
    e2 += 0.5 * diff_bound

    return (v1 + v2) / math.pi, (e1 + e2) / math.pi


def M_B(params: ModulusParams, xi: float) -> float:
    return M_B_with_error(params, xi)[0]


def F_B(params: ModulusParams, xi: float, f_linf: float, grad_f_linf: float) -> float:
    """Force bound: mean value theorem below the seam, 2||f|| beyond it."""
    if xi < 0 or f_linf < 0 or grad_f_linf < 0:
        raise DomainError("F_B requires nonnegative xi and norms")
    if xi <= params.seam:
        return xi * grad_f_linf
    return 2.0 * f_linf


# -- B selection ----------------------------------------------------------------

#: B lies on the grid 1.25**j, j from the first point >= 1e-6 up to B_CAP.
_GRID = 1.25
_J_LO = math.ceil(math.log(1e-6) / math.log(_GRID))
_J_HI = math.floor(math.log(B_CAP) / math.log(_GRID))


@dataclass
class ChooseBResult:
    B: float | None
    feasible: bool
    minima: dict = field(default_factory=dict)
    notes: str = ""


def _least_j(ok, lo: int) -> int | None:
    """Smallest j in [lo, _J_HI] with ok(_GRID**j), for ok monotone in B;
    None when even the top of the grid fails."""
    if ok(_GRID**lo):
        return lo
    hi = _J_HI
    if not ok(_GRID**hi):
        return None
    while hi - lo > 1:  # ok fails at lo and holds at hi
        mid = (lo + hi) // 2
        if ok(_GRID**mid):
            hi = mid
        else:
            lo = mid
    return hi


def choose_B(
    theta0_norms: tuple[float, float],
    f_norms: tuple[float, float],
    params: ModulusParams,
    theta0: SpectralField | None = None,
    seed: int = 0,
) -> ChooseBResult:
    """Smallest B on the grid 1.25**j in [1e-6, B_CAP] satisfying the
    selection conditions.

    Conditions (each monotone in B): the double-exponential lower bound
    B >= C ||grad Theta0|| exp(exp(C ||Theta0||)); A B^2 >= ||grad f||;
    omega_B(d)/d >= 4 pi ||f||; and, when the field is supplied, the strict
    empirical modulus of Theta0 below 0.95, searched from the largest of the
    others.  Each condition's least exponent comes from one bisection on j,
    `minima` holds each condition's grid minimum and B is their maximum.
    Returns a failure report with the minima (inf for a condition no grid
    point meets) when no representable B works.
    """
    th_linf, th_grad = theta0_norms
    f_linf, f_grad = f_norms
    C = params.C_big
    try:
        de_min = C * th_grad * math.exp(math.exp(C * th_linf)) if th_grad else 0.0
    except OverflowError:
        de_min = math.inf
    fg_min = math.sqrt(f_grad / params.A)  # A B^2 >= ||grad f||, without forming B^2
    conditions = {
        "double_exponential": lambda B: B >= de_min,
        "force_gradient": lambda B: B >= fg_min,
        "force_level": lambda B: omega(params, B * params.d) / params.d >= 4.0 * math.pi * f_linf,
    }
    exps = {name: _least_j(ok, _J_LO) for name, ok in conditions.items()}
    minima = {name: math.inf if j is None else _GRID**j for name, j in exps.items()}
    if None in exps.values():
        return ChooseBResult(
            None,
            False,
            minima,
            notes=(
                "no representable B satisfies the selection conditions; "
                f"per-condition minima: {minima}"
            ),
        )
    j = max(exps.values())

    if theta0 is not None:
        j = _least_j(lambda B: empirical_modulus(theta0, params.with_B(B), seed=seed) < 0.95, j)
        if j is None:
            minima["strict_modulus"] = math.inf
            return ChooseBResult(
                None,
                False,
                minima,
                notes=(
                    "the field's oscillation exceeds what omega_B can reach "
                    "for any representable B (log-log saturation)"
                ),
            )
        minima["strict_modulus"] = _GRID**j
    return ChooseBResult(_GRID**j, True, minima)


# -- inequality verification ----------------------------------------------------

@dataclass
class VerificationReport:
    xi_grid: np.ndarray
    omega_vals: np.ndarray
    advection: np.ndarray
    dissipation: np.ndarray
    force: np.ndarray
    lhs: np.ndarray
    quad_errors: np.ndarray
    max_lhs: float
    quadrature_error: float
    passed: bool
    short_range_bracket_max: float
    long_range_coefficient: float


def default_xi_grid(params: ModulusParams, n: int = 200) -> np.ndarray:
    """Log-spaced grid on (0, d], densified around the seam, seam included."""
    base = np.geomspace(1e-5 * params.d, params.d, n)
    seam = params.seam
    pts = [base]
    if seam < params.d:
        pts.append(seam * np.geomspace(0.2, 5.0, 25))
        pts.append(np.array([seam]))
    grid = np.unique(np.concatenate(pts))
    return grid[(grid > 0) & (grid <= params.d)]


def verify_inequality(
    params: ModulusParams,
    f_norms: tuple[float, float],
    xi_grid: np.ndarray | None = None,
    quad_opts=None,
) -> VerificationReport:
    """Check advection + force + dissipation < 0 on the xi grid.

    Passes only when the margin beats the accumulated quadrature error at
    every grid point.
    """
    if xi_grid is None:
        xi_grid = default_xi_grid(params)
    xi_grid = np.asarray(xi_grid, dtype=float)
    if np.any(xi_grid <= 0) or np.any(xi_grid > params.d * (1 + 1e-12)):
        raise DomainError("xi grid must lie in (0, d]")
    f_linf, f_grad = f_norms

    rows = np.empty((xi_grid.size, 5))
    for i, xi in enumerate(xi_grid):
        ob = float(omega_B(params, xi))
        obp = float(omega_B_prime(params, xi))
        adv, e_adv = Omega_B_with_error(params, xi, opts=quad_opts)
        dis, e_dis = M_B_with_error(params, xi, opts=quad_opts)
        frc = F_B(params, xi, f_linf, f_grad)
        rows[i] = (ob, adv * obp, dis, frc, e_adv * obp + e_dis)
    lhs = rows[:, 1] + rows[:, 2] + rows[:, 3]
    errs = rows[:, 4]
    finite = np.isfinite(lhs)
    max_lhs = float(np.max(lhs[finite])) if np.any(finite) else -np.inf
    passed = bool(np.all(np.where(finite, lhs + errs, -np.inf) < 0.0))

    s = params.B * xi_grid
    short = s <= params.delta_mod
    if np.any(short):
        bracket = params.A * (4.0 + np.log(params.delta_mod / s[short])) - (
            3.0 / (4.0 * math.pi)
        ) * s[short] ** -0.5
        short_max = float(np.max(bracket))
    else:
        short_max = -np.inf
    coeff = params.A * params.gamma_mod + 1.0 / (2.0 * math.pi) - 1.0 / math.pi

    return VerificationReport(
        xi_grid=xi_grid,
        omega_vals=rows[:, 0],
        advection=rows[:, 1],
        dissipation=rows[:, 2],
        force=rows[:, 3],
        lhs=lhs,
        quad_errors=errs,
        max_lhs=max_lhs,
        quadrature_error=float(np.max(errs)),
        passed=passed,
        short_range_bracket_max=short_max,
        long_range_coefficient=float(coeff),
    )


# -- empirical modulus ------------------------------------------------------------

def empirical_modulus(
    theta: SpectralField,
    params: ModulusParams,
    n_random_pairs: int = 100_000,
    seed: int = 0,
    max_offset: int = 8,
) -> float:
    """Worst |Theta(x) - Theta(y)| / omega_B(|x - y|) over sampled pairs.

    Short range: every grid-pair offset with |o| <= max_offset cells (the
    binding scale, where the slope B is tested).  Long range: seeded random
    pairs on the periodic extension over [-2pi, 2pi]^2.
    """
    g = theta.grid
    v = inverse(theta).values
    dx = g.dx
    worst = 0.0
    for o1 in range(0, max_offset + 1):
        for o2 in range(-max_offset, max_offset + 1):
            if o1 == 0 and o2 <= 0:
                continue
            dist = math.hypot(o1, o2) * dx
            if dist > max_offset * dx:
                continue
            diff = float(np.max(np.abs(v - np.roll(v, (-o1, -o2), axis=(0, 1)))))
            worst = max(worst, diff / float(omega_B(params, dist)))

    rng = np.random.default_rng(seed)
    idx = rng.integers(0, 2 * g.n, size=(4, n_random_pairs))
    sep = np.hypot(idx[0] - idx[2], idx[1] - idx[3]) * dx
    keep = sep > 0
    va = v[idx[0][keep] % g.n, idx[1][keep] % g.n]
    vb = v[idx[2][keep] % g.n, idx[3][keep] % g.n]
    ratios = np.abs(va - vb) / omega_B(params, sep[keep])
    if ratios.size:
        worst = max(worst, float(np.max(ratios)))
    return worst
