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
gap rather than silently failing).  omega, its derivative, omega_B and the
force bound F_B take a float or an array of points.

The bound functionals are Kiselev-Nazarov-Volberg's (Invent. Math. 167,
2007).  The advection bound Omega_B is in closed form: its head integral is
elementary, and its tail integral above the seam reduces to the exponential
integral E1 at arguments >= 4, which a continued fraction gives to rounding.
The dissipation bound M_B takes a float or an array of points: it is two
integrals over pieces split at the kinks of omega_B, each by one tanh-sinh
rule (Takahasi & Mori, Publ. RIMS 9, 1974) with one row per point, plus an
analytic tail bounded by concavity.  The rule runs level by level over all
rows at once, and each row halves its step until its successive levels agree
to tol max(1, |I|), after which it is not evaluated again; M_B's reported
error is the sum of those halving estimates and the tail bound, and Omega_B's
is 0.  No scipy module is imported.

B is selected on the grid 1.25**j, 1e-6 <= B <= B_CAP: every selection
condition is monotone in B, so one integer bisection on j finds each
condition's least grid point, and B is the largest of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import DomainError, QuadratureError
from .spectral import GridSpec, SpectralField, inverse

#: Torus diameter, fixed throughout.
TORUS_DIAMETER = 2.0 * math.pi * math.sqrt(2.0)

#: Largest B the grid search will consider ((B*xi)^{3/2} must not overflow).
B_CAP = 1e280

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class ModulusParams:
    """Parameters of the rescaled modulus omega_B and the verification problem."""

    delta_mod: float = 1e-2
    gamma_mod: float = 1e-2
    B: float = 1.0
    A: float = 1.0          # velocity-modulus constant of the advection bound
    C_big: float = 10.0     # 'sufficiently large' constant in the B selection
    d = TORUS_DIAMETER      # unannotated: a class constant, not a field

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
        return replace(self, B=B)


# -- the modulus and its derivatives ------------------------------------------

def omega(params: ModulusParams, s):
    """Unscaled modulus omega(s) of s >= 0, a float or an array.  Each branch
    is evaluated on its own points only."""
    de = params.delta_mod
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    low = s <= de
    out[low] = s[low] - s[low] ** 1.5
    high = ~low
    out[high] = de - de**1.5 + params.gamma_mod * np.log1p(0.25 * np.log(s[high] / de))
    return out[()]


def _omega_prime(params: ModulusParams, s):
    de = params.delta_mod
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    low = s <= de
    out[low] = 1.0 - 1.5 * np.sqrt(s[low])
    high = ~low
    out[high] = params.gamma_mod / (4.0 * s[high] * (1.0 + 0.25 * np.log(s[high] / de)))
    return out[()]


def omega_B(params: ModulusParams, xi):
    return omega(params, params.B * xi)


def omega_B_prime(params: ModulusParams, xi):
    return params.B * _omega_prime(params, params.B * xi)


# -- bound functionals ---------------------------------------------------------

def _exp_E1(z: float) -> float:
    """e^z E1(z) for z >= 4, from the continued fraction
    E1(z) = e^-z / (z + 1 - 1^2/(z + 3 - 2^2/(z + 5 - ...))) by the modified
    Lentz method; at z >= 4 it reaches rounding within 30 terms."""
    b = z + 1.0
    c = math.inf
    d = h = 1.0 / b
    for i in range(1, 60):
        b += 2.0
        d = 1.0 / (b - i * i * d)
        c = b - i * i / c
        h *= c * d
        if abs(c * d - 1.0) <= _EPS:
            break
    return h


def Omega_B_with_error(params: ModulusParams, xi: float):
    """Advection bound A (int_0^xi omega_B/eta + xi int_xi^inf omega_B/eta^2)
    in closed form.  With x = B xi it is A (int_0^x omega/s + x int_x^inf
    omega/s^2), whose first integral is elementary and whose second reduces to
    E1 above the seam:
        x int_x^inf omega/s^2 = omega(x) + gamma e^z E1(z),  z = 4 + log(x/delta),
    and below it the elementary part up to delta plus that value at delta.
    The error returned is 0: there is no quadrature, only rounding."""
    if xi <= 0:
        raise DomainError("Omega_B requires xi > 0")
    de, ga = params.delta_mod, params.gamma_mod
    x = params.B * xi
    c0 = de - de**1.5
    if x <= de:
        head = x - (2.0 / 3.0) * x**1.5
        at_seam = (c0 + ga * _exp_E1(4.0)) / de
        tail = x * (math.log(de / x) - 2.0 * (math.sqrt(de) - math.sqrt(x)) + at_seam)
    else:
        u = math.log(x / de)
        head = de - (2.0 / 3.0) * de**1.5 + c0 * u + ga * ((4.0 + u) * math.log1p(0.25 * u) - u)
        tail = omega(params, x) + ga * _exp_E1(4.0 + u)
    return params.A * (head + tail), 0.0


def Omega_B(params: ModulusParams, xi: float) -> float:
    return Omega_B_with_error(params, xi)[0]


#: The rule's nodes are t = k 2^-level for |t| <= _T_MAX, where the weight
#: has fallen below 1e-20 of the piece length, from level _LEVELS[0] on.
_T_MAX = 3.5
_LEVELS = range(3, 12)

#: Most nodes one call of the integrand sees: a level with more is split into
#: runs of whole pieces, which bounds the rule's memory at any tol.
_NODE_CHUNK = 1 << 14


def _tanh_sinh(f, points, tol):
    """Integrals of the array function f over [points[:, 0], points[:, -1]],
    split at the points, by the tanh-sinh rule (Takahasi & Mori, Publ. RIMS 9,
    1974): eta = a + (b - a) / (1 + exp(-pi sinh t)) on each piece, trapezoid
    in t.  points holds one row of split points per integral, f(x, rows)
    takes the nodes and each node's row, and zero-length pieces are skipped.
    All pieces and nodes of a level, over every row still refining, go
    through f together.  Each node is formed from its distance to the nearer
    end, so f is never asked for a point outside [a, b], and nodes near an
    end at 0 keep their relative precision.

    Each row halves its step h = 2^-level (reusing the nodes so far) until
    its halving estimate |I_h - I_2h| meets tol max(1, |I_h|), or the last
    level; a row that has stopped is not evaluated again.  Returns
    (I_h, |I_h - I_2h|), one entry per row.  Raises QuadratureError on a
    non-finite sum.
    """
    points = np.asarray(points, dtype=float)
    n_rows = len(points)
    a, b = points[:, :-1], points[:, 1:]
    live = b > a
    row = np.nonzero(live)[0]  # each piece's row, pieces in row order
    a, b = a[live], b[live]
    span = b - a

    def nodes_sum(t, refining):
        # c is the node's distance from the nearer end over the length;
        # 1 - c = e c without cancellation
        e = np.exp(np.pi * np.sinh(t))
        c = 1.0 / (1.0 + e)
        w_t = np.pi * np.cosh(t) * c * (e * c)
        pieces = np.flatnonzero(refining[row])
        per_run = max(1, _NODE_CHUNK // (2 * t.size))
        sums = np.zeros(n_rows)
        for lo in range(0, pieces.size, per_run):
            run = pieces[lo : lo + per_run]
            sp = span[run, None]
            d = sp * c
            at = np.repeat(row[run], t.size)
            fx = f(np.concatenate([(a[run, None] + d).ravel(), (b[run, None] - d).ravel()]),
                   np.concatenate([at, at])).reshape(2, run.size, t.size)
            sums += np.bincount(row[run], np.sum(sp * w_t * (fx[0] + fx[1]), axis=1), n_rows)
        return sums

    h = 2.0 ** -_LEVELS[0]
    refining = np.ones(n_rows, bool)
    total = np.bincount(row, 0.25 * np.pi * span * f(a + 0.5 * span, row), n_rows)
    total = total + nodes_sum(h * np.arange(1, int(_T_MAX / h) + 1), refining)
    value, estimate = h * total, np.full(n_rows, math.inf)
    for _ in _LEVELS[1:]:
        h *= 0.5
        total += nodes_sum(h * np.arange(1, int(_T_MAX / h) + 1, 2), refining)
        estimate = np.where(refining, np.abs(h * total - value), estimate)
        value = np.where(refining, h * total, value)
        if not np.all(np.isfinite(value[refining])):
            raise QuadratureError("quadrature produced a non-finite value")
        refining &= ~(estimate <= tol * np.maximum(1.0, np.abs(value)))
        if not refining.any():
            break
    return value, estimate


def _pow32_second(w):
    """(1+w)^{3/2} + (1-w)^{3/2} - 2 for 0 < w <= 1, cancellation-free:
    with c = 1 - sqrt(1 - w^2) and d = 1 - sqrt(1 - c/2) it equals
    2 (c - d (1 + c)), and both are formed without subtraction."""
    c = w * w / (1.0 + np.sqrt(1.0 - w * w))
    d = 0.5 * c / (1.0 + np.sqrt(1.0 - 0.5 * c))
    return 2.0 * (c - d * (1.0 + c))


def _second_diff_s(params: ModulusParams, s: np.ndarray, u: np.ndarray) -> np.ndarray:
    """omega(s+2u) + omega(s-2u) - 2 omega(s) without catastrophic
    cancellation, for arrays of 0 < 2u <= s of one shape (unscaled units)."""
    de, ga = params.delta_mod, params.gamma_mod
    out = np.empty_like(u)
    # first branch: the linear parts cancel exactly
    first = s + 2 * u <= de
    sf = s[first]
    out[first] = -(sf**1.5) * _pow32_second(2 * u[first] / sf)
    # log-log branch: log1p(a) + log1p(b) - 2 log1p(c) via exact algebra
    loglog = s - 2 * u >= de
    sl = s[loglog]
    w = 2 * u[loglog] / sl
    L = np.log(sl / de)
    log_m = np.log1p(-w * w)
    q = 0.25 * log_m
    r = (L * log_m + np.log1p(w) * np.log1p(-w)) / 16.0
    c = 1.0 + 0.25 * L
    out[loglog] = ga * np.log1p((q + r) / (c * c))
    # straddling the seam: the corner jump dominates and direct evaluation
    # is accurate where the value matters
    straddle = ~(first | loglog)
    ss, us = s[straddle], u[straddle]
    out[straddle] = omega(params, ss + 2 * us) + omega(params, ss - 2 * us) - 2.0 * omega(params, ss)
    return out


def M_B_with_error(params: ModulusParams, xi, tol: float = 1e-11):
    """Dissipation bound (negative) at xi, a float or an array: the two
    singular-kernel integrals of the one-dimensional reduction of Lambda along
    the segment between the pair, by the tanh-sinh rule over pieces split at
    the kinks of omega_B, plus an analytic tail.  Every point is one row of
    each rule, so a whole grid takes two calls of _tanh_sinh; each row stops
    once its halving estimate is within tol max(1, |I|), and its error is the
    sum of those estimates and the tail's bound.  A point at the seam returns
    (-inf, 0)."""
    xi = np.asarray(xi, dtype=float)
    if np.any(xi <= 0):
        raise DomainError("M_B requires xi > 0")
    B, seam = params.B, params.seam

    # a corner of omega_B exactly at xi makes the first integral diverge to
    # -infinity (concavity kink); report it as such
    at_seam = np.abs(B * xi - params.delta_mod) <= 1e-12 * params.delta_mod
    value, error = np.full(xi.shape, -np.inf), np.zeros(xi.shape)
    x = xi[~at_seam]
    s, ob_x, half = B * x, omega_B(params, x), x / 2.0

    def f1(eta, rows):
        return _second_diff_s(params, s[rows], B * eta) / eta**2

    # split at the corner |xi - seam| / 2 where it lies inside (0, xi/2)
    corner = np.minimum(0.5 * np.abs(x - seam), half)
    v1, e1 = _tanh_sinh(f1, np.stack([np.zeros_like(x), corner, half], axis=1), tol)

    big_t = 100.0 * np.maximum(np.maximum(x, seam), 1.0)

    def f2(eta, rows):
        xr = x[rows]
        return (
            omega(params, B * (2 * eta + xr))
            - omega(params, B * (2 * eta - xr))
            - 2.0 * ob_x[rows]
        ) / eta**2

    # split at the kinks (seam -+ xi) / 2 where they lie inside (xi/2, big_t)
    kinks = [np.clip(k, half, big_t) for k in ((seam - x) / 2.0, (seam + x) / 2.0)]
    v2, e2 = _tanh_sinh(f2, np.stack([half, *kinks, big_t], axis=1), tol)
    # analytic tail: the -2 omega_B(xi) part integrates exactly; the increment
    # part is nonnegative and bounded via concavity
    v2 += -2.0 * ob_x / big_t
    diff_bound = 2.0 * x * omega_B_prime(params, 2 * big_t - x) / big_t
    v2 += 0.5 * diff_bound
    e2 += 0.5 * diff_bound

    value[~at_seam], error[~at_seam] = (v1 + v2) / math.pi, (e1 + e2) / math.pi
    if xi.ndim == 0:
        return float(value), float(error)
    return value, error


def M_B(params: ModulusParams, xi: float) -> float:
    return M_B_with_error(params, xi)[0]


def F_B(params: ModulusParams, xi, f_linf: float, grad_f_linf: float):
    """Force bound at xi, a float or an array: mean value theorem below the
    seam, 2||f|| beyond it."""
    if np.any(xi < 0) or f_linf < 0 or grad_f_linf < 0:
        raise DomainError("F_B requires nonnegative xi and norms")
    return np.where(xi <= params.seam, xi * grad_f_linf, 2.0 * f_linf)[()]


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
    max_lhs: float
    quadrature_error: float
    passed: bool
    short_range_bracket_max: float
    long_range_coefficient: float


def default_xi_grid(params: ModulusParams) -> np.ndarray:
    """200 log-spaced points on (0, d], densified around the seam, seam included."""
    base = np.geomspace(1e-5 * params.d, params.d, 200)
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
    tol: float = 1e-11,
) -> VerificationReport:
    """Check advection + force + dissipation < 0 on the xi grid.

    Passes only when the margin beats the quadrature error at every grid
    point: M_B's, at its tolerance tol; Omega_B is in closed form.
    """
    if xi_grid is None:
        xi_grid = default_xi_grid(params)
    xi_grid = np.asarray(xi_grid, dtype=float)
    if np.any(xi_grid <= 0) or np.any(xi_grid > params.d * (1 + 1e-12)):
        raise DomainError("xi grid must lie in (0, d]")
    f_linf, f_grad = f_norms

    # Omega_B is per point, since E1's continued fraction stops per argument;
    # M_B takes the whole grid, each point refining as its own row
    adv = np.array([Omega_B_with_error(params, xi)[0] for xi in xi_grid.tolist()])
    dis, errs = M_B_with_error(params, xi_grid, tol)
    advection = adv * omega_B_prime(params, xi_grid)
    force = F_B(params, xi_grid, f_linf, f_grad)
    lhs = advection + dis + force
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
        omega_vals=omega_B(params, xi_grid),
        advection=advection,
        dissipation=dis,
        force=force,
        lhs=lhs,
        max_lhs=max_lhs,
        quadrature_error=float(np.max(errs)),
        passed=passed,
        short_range_bracket_max=short_max,
        long_range_coefficient=float(coeff),
    )


# -- empirical modulus ------------------------------------------------------------

@lru_cache(maxsize=8)
def _pair_sample(n: int, n_random_pairs: int, seed: int, max_offset: int):
    """The pairs empirical_modulus checks on an n x n grid: the short-range
    offsets (o1, o2) and their lengths, and the long-range pairs as flat
    indices (a, b) and their separations.  Read-only, since every call with
    the same arguments shares them."""
    dx = GridSpec(n).dx
    o1, o2 = np.mgrid[0 : max_offset + 1, -max_offset : max_offset + 1].reshape(2, -1)
    near = ((o1 > 0) | (o2 > 0)) & (o1 * o1 + o2 * o2 <= max_offset**2)
    o1, o2 = o1[near], o2[near]

    rng = np.random.default_rng(seed)
    idx = rng.integers(0, 2 * n, size=(4, n_random_pairs))
    sep = np.hypot(idx[0] - idx[2], idx[1] - idx[3]) * dx
    keep = sep > 0
    i1, i2, j1, j2 = idx[:, keep] % n
    sample = (o1, o2, np.hypot(o1, o2) * dx, i1 * n + i2, j1 * n + j2, sep[keep])
    for arr in sample:
        arr.setflags(write=False)
    return sample


def empirical_modulus(
    theta: SpectralField,
    params: ModulusParams,
    n_random_pairs: int = 100_000,
    seed: int = 0,
    max_offset: int = 8,
) -> float:
    """Worst |Theta(x) - Theta(y)| / omega_B(|x - y|) over sampled pairs.

    Short range: every grid-pair offset with |o| <= max_offset cells (the
    binding scale, where the slope B is tested), each a view into one
    wrap-padded copy of the field.  Long range: seeded random pairs on the
    periodic extension over [-2pi, 2pi]^2.  The pairs depend only on the grid
    and the arguments, so they are drawn once (_pair_sample) and each call
    does one inverse transform, two gathers and one omega_B.
    """
    n = theta.grid.n
    o1, o2, dist, a, b, sep = _pair_sample(n, n_random_pairs, seed, max_offset)
    v = inverse(theta).values
    m = max_offset
    wrapped = np.pad(v, m, mode="wrap")
    diffs = [np.max(np.abs(v - wrapped[m + i : m + i + n, m + j : m + j + n]))
             for i, j in zip(o1.tolist(), o2.tolist())]
    short = np.array(diffs) / omega_B(params, dist)

    flat = v.ravel()
    ratios = np.abs(flat[a] - flat[b]) / omega_B(params, sep)
    return float(max(np.max(short, initial=0.0), np.max(ratios, initial=0.0)))
