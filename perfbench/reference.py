"""Reference computations made apart from the program (numpy and scipy only).

* ``shear_chain_lambda``: rightmost eigenvalue of the operator linearised about
  the shear theta0 = -A cos(m x2), from its Fourier chains (Meshalkin & Sinai
  1961).  The shear does not depend on x1, so the operator is block-diagonal
  in k1, and the single mode couples k2 only to k2 +- m.
* ``Omega_B_closed``: the advection bound Omega_B of Kiselev-Nazarov-Volberg
  (Invent. Math. 167, 2007) for the piecewise modulus, reduced to elementary
  functions and the exponential integral E1.
* ``energy_ledger``: d/dt ||Theta||^2 integrated over recorded flux samples by
  the trapezoid rule, with the rule's own error estimate.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import exp1

TORUS_DIAMETER = 2.0 * math.pi * math.sqrt(2.0)


# -- shear spectrum from Fourier chains ----------------------------------------

def shear_chain_matrices(A: float, m: int, K: int):
    """Yield (k1, k2 list, chain matrix) for every chain of the truncation
    0 < max(|k1|, |k2|) <= K.

    About theta0 = -A cos(m x2) the velocity is (A sin(m x2), 0) and
    (L theta)_k = -|k| theta_k + (A k1 / 2) [c(k - m e2) theta_{k - m e2}
    - c(k + m e2) theta_{k + m e2}] with c(j) = m/|j| - 1.
    """
    for k1 in range(-K, K + 1):
        for r in range(m):
            k2s = [k2 for k2 in range(-K, K + 1) if (k2 - r) % m == 0 and (k1, k2) != (0, 0)]
            if not k2s:
                continue
            pos = {k2: i for i, k2 in enumerate(k2s)}
            T = np.zeros((len(k2s), len(k2s)))
            for k2, i in pos.items():
                T[i, i] = -math.hypot(k1, k2)
                for shift, sign in ((-m, 1.0), (m, -1.0)):
                    j = pos.get(k2 + shift)
                    if j is not None:
                        T[i, j] = sign * 0.5 * A * k1 * (m / math.hypot(k1, k2 + shift) - 1.0)
            yield k1, k2s, T


def shear_chain_eigenvalues(A: float, m: int, K: int) -> np.ndarray:
    """Every eigenvalue of the truncated operator, chain by chain."""
    return np.concatenate([np.linalg.eigvals(T) for _, _, T in shear_chain_matrices(A, m, K)])


def shear_chain_lambda(A: float, m: int, K: int) -> float:
    """Largest real part of the truncated spectrum."""
    return float(np.max(shear_chain_eigenvalues(A, m, K).real))


# -- the modulus and the closed-form advection bound ----------------------------

def omega(s: float, delta: float, gamma: float) -> float:
    """omega(s) = s - s^{3/2} up to delta, then delta - delta^{3/2} + gamma log(1 + log(s/delta)/4)."""
    if s <= delta:
        return s - s**1.5
    return delta - delta**1.5 + gamma * math.log1p(0.25 * math.log(s / delta))


def omega_prime(s: float, delta: float, gamma: float) -> float:
    """Derivative of omega; the left branch is taken at s = delta."""
    if s <= delta:
        return 1.0 - 1.5 * math.sqrt(s)
    return gamma / (s * (4.0 + math.log(s / delta)))


def _tail_integral(x: float, delta: float, gamma: float) -> float:
    """int_x^inf omega(s)/s^2 ds."""
    if x > delta:
        u = math.log(x / delta)
        return omega(x, delta, gamma) / x + gamma / delta * math.exp(4.0) * exp1(4.0 + u)
    at_seam = omega(delta, delta, gamma) / delta + gamma / delta * math.exp(4.0) * exp1(4.0)
    return math.log(delta / x) - 2.0 * (math.sqrt(delta) - math.sqrt(x)) + at_seam


def _head_integral(x: float, delta: float, gamma: float) -> float:
    """int_0^x omega(s)/s ds."""
    if x <= delta:
        return x - (2.0 / 3.0) * x**1.5
    u = math.log(x / delta)
    c0 = delta - delta**1.5
    return delta - (2.0 / 3.0) * delta**1.5 + c0 * u + gamma * ((4.0 + u) * math.log1p(0.25 * u) - u)


def Omega_B_closed(xi: float, A: float, B: float, delta: float, gamma: float) -> float:
    """A (int_0^xi omega_B(eta)/eta d eta + xi int_xi^inf omega_B(eta)/eta^2 d eta),
    omega_B(eta) = omega(B eta).  With x = B xi both integrals become integrals
    of omega in x."""
    if xi <= 0:
        raise ValueError("Omega_B needs xi > 0")
    x = B * xi
    return A * (_head_integral(x, delta, gamma) + x * _tail_integral(x, delta, gamma))


def force_level_ok(B: float, f_linf: float, delta: float, gamma: float,
                   d: float = TORUS_DIAMETER) -> bool:
    """omega_B(d)/d >= 4 pi ||f||_inf."""
    return omega(B * d, delta, gamma) / d >= 4.0 * math.pi * f_linf


# -- energy ledger ----------------------------------------------------------------

def energy_ledger(t: np.ndarray, l2: np.ndarray, flux: np.ndarray, t0: float, t1: float):
    """Compare ||Theta(t1)||^2 - ||Theta(t0)||^2 with the trapezoid integral of
    the recorded flux d/dt ||Theta||^2 over [t0, t1].

    Returns (change, integral, rule_error).  rule_error is the Richardson
    estimate |T_h - T_2h| / 3 of the trapezoid rule's own error on the
    recorded cadence; it needs an even number of intervals in the window.
    """
    sel = np.nonzero((t >= t0 - 1e-9) & (t <= t1 + 1e-9))[0]
    if sel.size < 3 or (sel.size - 1) % 2:
        raise ValueError("the window needs an even number (>= 2) of recorded intervals")
    tt, ff = t[sel], flux[sel]
    fine = float(np.trapezoid(ff, tt))
    coarse = float(np.trapezoid(ff[::2], tt[::2]))
    change = float(l2[sel[-1]] ** 2 - l2[sel[0]] ** 2)
    return change, fine, abs(fine - coarse) / 3.0
