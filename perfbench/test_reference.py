"""Known cases for the benchmark's reference computations.

    python3 -m pytest perfbench/test_reference.py
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import reference as ref

SRC = Path(__file__).resolve().parent.parent / "src"


def _truncation_abs_k(K):
    return sorted(-math.hypot(k1, k2) for k1 in range(-K, K + 1) for k2 in range(-K, K + 1)
                  if (k1, k2) != (0, 0))


@pytest.mark.parametrize("m,K", [(1, 4), (2, 5), (3, 7)])
def test_chain_zero_amplitude_is_minus_abs_k(m, K):
    w = ref.shear_chain_eigenvalues(0.0, m, K)
    assert sorted(w.real) == _truncation_abs_k(K)
    assert np.all(w.imag == 0.0)


def test_chain_modes_cover_the_truncation_once():
    seen = [(k1, k2) for k1, k2s, _ in ref.shear_chain_matrices(10.0, 2, 6) for k2 in k2s]
    assert len(seen) == len(set(seen)) == 13 * 13 - 1


def test_chain_spectrum_is_symmetric_in_k1():
    chains = {(k1, k2s[0]): np.sort_complex(np.linalg.eigvals(T))
              for k1, k2s, T in ref.shear_chain_matrices(10.0, 2, 8)}
    for (k1, r), w in chains.items():
        np.testing.assert_allclose(w, chains[(-k1, r)], rtol=1e-12, atol=1e-12)


def test_chain_lambda_converges_in_K():
    lam21 = ref.shear_chain_lambda(10.0, 2, 21)
    lam23 = ref.shear_chain_lambda(10.0, 2, 23)
    assert abs(lam21 - lam23) < 1e-9
    assert abs(lam23 - 0.6781831890) < 1e-9


@pytest.mark.parametrize("A", [2.0, 7.0, 10.0, 20.0])
def test_chain_lambda_below_gradient_bound(A):
    # the energy identity gives lambda <= ||grad theta0||_inf - 1 = A m - 1
    assert ref.shear_chain_lambda(A, 2, 12) <= 2 * A - 1


def test_chain_lambda_matches_the_program_dense_spectrum():
    sys.path.insert(0, str(SRC))
    try:
        from sqglab.dynamics import shear_steady_state
        from sqglab.linop import LinearOperator, rightmost_eigenpair
        from sqglab.spectral import GridSpec
    finally:
        sys.path.remove(str(SRC))
    res = rightmost_eigenpair(LinearOperator(shear_steady_state(GridSpec(24), 2, 10.0)), K=8)
    assert abs(res.rightmost.real - ref.shear_chain_lambda(10.0, 2, 8)) < 1e-10


def _Omega_B_by_quad(xi, A, B, delta, gamma):
    def w(eta):
        return ref.omega(B * eta, delta, gamma)

    seam = delta / B
    head = sum(quad(lambda e: w(e) / e, a, b, epsabs=0, epsrel=1e-13, limit=200)[0]
               for a, b in ((0.0, min(seam, xi)), (min(seam, xi), xi)) if b > a)
    tail = sum(quad(lambda e: w(e) / e**2, a, b, epsabs=0, epsrel=1e-13, limit=200)[0]
               for a, b in ((xi, max(seam, xi)), (max(seam, xi), 10 * max(seam, xi)))
               if b > a)
    tail += quad(lambda e: w(e) / e**2, 10 * max(seam, xi), np.inf, epsabs=0, epsrel=1e-13, limit=200)[0]
    return A * (head + xi * tail)


@pytest.mark.parametrize("B", [1.0, 1.25**20])
@pytest.mark.parametrize("ratio", [1e-3, 0.3, 0.999, 1.001, 3.0, 1e3])
def test_Omega_B_closed_form_matches_quadrature(B, ratio):
    delta = gamma = 0.01
    xi = ratio * delta / B
    closed = ref.Omega_B_closed(xi, 1.0, B, delta, gamma)
    direct = _Omega_B_by_quad(xi, 1.0, B, delta, gamma)
    assert abs(closed - direct) <= 1e-9 * abs(direct)


def test_omega_prime_matches_difference_quotient():
    delta = gamma = 0.01
    for s in (1e-4, 5e-3, 2e-2, 10.0):
        h = 1e-6 * s
        fd = (ref.omega(s + h, delta, gamma) - ref.omega(s - h, delta, gamma)) / (2 * h)
        assert abs(fd - ref.omega_prime(s, delta, gamma)) <= 1e-6 * abs(fd)


def test_energy_ledger_exact_for_linear_flux():
    t = np.linspace(0.0, 2.0, 41)
    change, integral, err = ref.energy_ledger(t, np.sqrt(1.0 + t**2), 2.0 * t, 0.0, 2.0)
    assert abs(change - integral) < 1e-12 and err < 1e-12


def test_energy_ledger_error_estimate_is_exact_for_quadratic_flux():
    # E(t) = 1 + t^3: the trapezoid error on 3 t^2 is exactly what Richardson estimates
    t = np.linspace(0.0, 2.0, 41)
    change, integral, err = ref.energy_ledger(t, np.sqrt(1.0 + t**3), 3.0 * t**2, 1.0, 2.0)
    assert err > 0
    assert abs(abs(change - integral) - err) < 1e-12


def test_energy_ledger_needs_an_even_window():
    t = np.linspace(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        ref.energy_ledger(t, np.ones_like(t), np.zeros_like(t), 0.0, 1.0)
