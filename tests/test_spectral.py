"""Spectral core: transforms, multipliers, norms, dealiasing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqglab import errors
from sqglab.spectral import (
    GridSpec,
    PhysicalField,
    SpectralField,
    dealias,
    derivative,
    forward,
    from_values,
    half,
    inverse,
    lambda_pow,
    meshgrid,
    mirror,
    norm_hs,
    norm_l2,
    norm_linf,
    norm_linf_grad,
    riesz,
    velocity_from_theta,
)


def random_band_limited(grid, rng, kmax=None, amplitude=1.0):
    """Random real mean-free field supported on max|k_i| <= kmax."""
    kmax = kmax if kmax is not None else grid.dealias_radius
    v = rng.standard_normal((grid.n, grid.n))
    s = from_values(grid, amplitude * v / np.max(np.abs(v)))
    c = s.coeffs * ((np.abs(grid.k1) <= kmax) & (np.abs(grid.k2) <= kmax))
    c[0, 0] = 0.0
    return SpectralField(grid, c)


@pytest.fixture
def grid():
    return GridSpec(32)


def test_grid_validation():
    with pytest.raises(errors.DomainError):
        GridSpec(15)
    with pytest.raises(errors.DomainError):
        GridSpec(4)


def test_forward_single_mode():
    # sin(x2) has modes k = (0, +-1) with coefficients -+ i/2
    g = GridSpec(16)
    _, x2 = meshgrid(g)
    s = from_values(g, np.sin(x2))
    assert abs(s.coeffs[0, 1] - (-0.5j)) < 1e-14
    assert abs(s.coeffs[0, -1] - (+0.5j)) < 1e-14
    mask = np.ones((16, 16), dtype=bool)
    mask[0, 1] = mask[0, -1] = False
    assert np.max(np.abs(s.coeffs[mask])) < 1e-14


def test_forward_zero():
    g = GridSpec(16)
    s = from_values(g, np.zeros((16, 16)))
    assert np.all(s.coeffs == 0)


def test_forward_rejects_nonfinite(grid):
    v = np.zeros((grid.n, grid.n))
    v[3, 4] = np.nan
    with pytest.raises(errors.DataError):
        forward(PhysicalField(grid, v))


def test_round_trip(grid):
    rng = np.random.default_rng(7)
    v = rng.standard_normal((grid.n, grid.n))
    p = inverse(forward(PhysicalField(grid, v)))
    assert np.max(np.abs(p.values - v)) < 1e-12 * np.max(np.abs(v))


def test_inverse_cos_mode():
    g = GridSpec(16)
    c = np.zeros((16, 16), dtype=complex)
    c[1, 0] = 0.5
    c[-1, 0] = 0.5
    x1, _ = meshgrid(g)
    p = inverse(SpectralField(g, c))
    assert np.max(np.abs(p.values - np.cos(x1))) < 1e-13


def reflect_conj(c):
    """conj(c) at (-k1, -k2) on the full layout, for any leading axes."""
    return np.conj(np.roll(c[..., ::-1, ::-1], (1, 1), axis=(-2, -1)))


@pytest.mark.parametrize("n", [8, 24, 64, 70])
def test_mirror_of_half_is_exact_for_real_fields(n):
    g = GridSpec(n)
    rng = np.random.default_rng(n)
    c = forward(PhysicalField(g, rng.standard_normal((n, n)))).coeffs
    assert np.array_equal(c, reflect_conj(c))
    assert np.array_equal(mirror(half(c), n), c)
    # any exactly conjugate-symmetric array, Nyquist row and column included
    z = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    z = z + reflect_conj(z)
    assert np.array_equal(mirror(half(z), n), z)
    # and mirror makes any half-spectrum exactly conjugate-symmetric
    full = mirror(half(rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))), n)
    assert np.array_equal(full, reflect_conj(full))


def test_inverse_rejects_asymmetric(grid):
    c = np.zeros((grid.n, grid.n), dtype=complex)
    c[1, 2] = 1.0  # no conjugate partner
    with pytest.raises(errors.SymmetryError):
        inverse(SpectralField(grid, c))
    c[-1, -2] = 1.0 + 1e-14j  # a partner off by far less than rtol: the residue is dropped
    x1, x2 = meshgrid(grid)
    assert np.max(np.abs(inverse(SpectralField(grid, c)).values - 2 * np.cos(x1 + 2 * x2))) < 1e-13


def test_parseval(grid):
    rng = np.random.default_rng(3)
    v = rng.standard_normal((grid.n, grid.n))
    s = forward(PhysicalField(grid, v))
    phys = np.sqrt(np.sum(v**2) * grid.dx**2)
    assert abs(norm_l2(s) - phys) < 1e-12 * phys


def test_lambda_pow_single_modes():
    g = GridSpec(16)
    x1, x2 = meshgrid(g)
    s = from_values(g, np.sin(x2))
    out = inverse(lambda_pow(s, 1.0)).values
    assert np.max(np.abs(out - np.sin(x2))) < 1e-13
    s2 = from_values(g, np.sin(2 * x1))
    out2 = inverse(lambda_pow(s2, 1.0)).values
    assert np.max(np.abs(out2 - 2 * np.sin(2 * x1))) < 1e-13


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_lambda_pow_inverse_pair(grid, a):
    rng = np.random.default_rng(11)
    v = random_band_limited(grid, rng)
    back = lambda_pow(lambda_pow(v, a), -a)
    assert np.max(np.abs(back.coeffs - v.coeffs)) < 1e-12


def test_lambda_pow_negative_requires_mean_free(grid):
    c = np.zeros((grid.n, grid.n), dtype=complex)
    c[0, 0] = 1.0
    with pytest.raises(errors.DomainError):
        lambda_pow(SpectralField(grid, c), -1.0)


def test_riesz_hand_symbol():
    # R2 sin(x2): symbol i k2/|k| on modes (0,+-1) -> cos(x2); R1 sin(x2) = 0
    g = GridSpec(16)
    _, x2 = meshgrid(g)
    s = from_values(g, np.sin(x2))
    r2 = inverse(riesz(s, 2)).values
    assert np.max(np.abs(r2 - np.cos(x2))) < 1e-13
    r1 = riesz(s, 1)
    assert np.max(np.abs(r1.coeffs)) < 1e-15


def test_riesz_identity(grid):
    rng = np.random.default_rng(5)
    v = random_band_limited(grid, rng)
    out = riesz(riesz(v, 1), 1).coeffs + riesz(riesz(v, 2), 2).coeffs
    # Nyquist rows are zeroed by riesz, so compare on the masked set
    expect = -v.coeffs * grid.nyquist_mask
    assert np.max(np.abs(out - expect)) < 1e-12


def test_riesz_contraction_and_mean(grid):
    rng = np.random.default_rng(9)
    v = random_band_limited(grid, rng)
    r = riesz(v, 2)
    assert r.mean_free
    assert norm_l2(r) <= norm_l2(v) * (1 + 1e-12)
    with pytest.raises(errors.DomainError):
        c = v.coeffs.copy()
        c[0, 0] = 1.0
        riesz(SpectralField(grid, c), 1)


def test_velocity_from_theta_shear():
    # theta = -cos(x2) -> U = (sin(x2), 0)
    g = GridSpec(32)
    _, x2 = meshgrid(g)
    u1, u2 = velocity_from_theta(from_values(g, -np.cos(x2)))
    assert np.max(np.abs(inverse(u1).values - np.sin(x2))) < 1e-13
    assert np.max(np.abs(inverse(u2).values)) < 1e-14


def test_velocity_from_theta_x1_mode():
    # theta = sin(x1) -> U = (0, -cos(x1)) by evaluating i k1/|k| on (+-1, 0)
    g = GridSpec(32)
    x1, _ = meshgrid(g)
    u1, u2 = velocity_from_theta(from_values(g, np.sin(x1)))
    assert np.max(np.abs(inverse(u1).values)) < 1e-14
    assert np.max(np.abs(inverse(u2).values + np.cos(x1))) < 1e-13


def test_velocity_zero():
    g = GridSpec(16)
    u1, u2 = velocity_from_theta(from_values(g, np.zeros((16, 16))))
    assert np.all(u1.coeffs == 0) and np.all(u2.coeffs == 0)


def test_velocity_divergence_free(grid):
    rng = np.random.default_rng(13)
    v = random_band_limited(grid, rng)
    u1, u2 = velocity_from_theta(v)
    div = derivative(u1, 1).coeffs + derivative(u2, 2).coeffs
    assert np.max(np.abs(div)) < 1e-12


def test_stream_function_route_matches_riesz_route(grid):
    # U = grad^perp(Lambda^{-1} theta) must equal (R2 theta, -R1 theta)
    rng = np.random.default_rng(17)
    theta = random_band_limited(grid, rng)
    psi = lambda_pow(theta, -1.0)
    u1_stream = derivative(psi, 2)
    u2_stream = derivative(psi, 1)
    u2_stream.coeffs = -u2_stream.coeffs
    u1, u2 = velocity_from_theta(theta)
    assert np.max(np.abs(u1.coeffs - u1_stream.coeffs)) < 1e-12
    assert np.max(np.abs(u2.coeffs - u2_stream.coeffs)) < 1e-12


def test_derivative_basics():
    g = GridSpec(16)
    x1, _ = meshgrid(g)
    s = from_values(g, np.sin(x1))
    assert np.max(np.abs(inverse(derivative(s, 1)).values - np.cos(x1))) < 1e-13
    assert np.max(np.abs(derivative(s, 2).coeffs)) < 1e-15


def test_derivative_commutes(grid):
    rng = np.random.default_rng(19)
    v = random_band_limited(grid, rng)
    a = derivative(derivative(v, 1), 2).coeffs
    b = derivative(derivative(v, 2), 1).coeffs
    assert np.max(np.abs(a - b)) < 1e-12


def test_dealias_rule(grid):
    n = grid.n
    c = np.zeros((n, n), dtype=complex)
    c[n // 2 - 1, 0] = 1.0  # mode (n/2 - 1, 0): beyond n/3 for n=32
    c[1, 1] = 1.0
    out = dealias(SpectralField(grid, c))
    assert out.coeffs[n // 2 - 1, 0] == 0.0
    assert out.coeffs[1, 1] == 1.0


def test_dealias_never_increases_energy(grid):
    rng = np.random.default_rng(23)
    v = forward(PhysicalField(grid, rng.standard_normal((grid.n, grid.n))))
    assert norm_l2(dealias(v)) <= norm_l2(v) + 1e-15


def test_norm_values():
    g = GridSpec(32)  # n divisible by 4: grid contains the maximizer
    _, x2 = meshgrid(g)
    s = from_values(g, np.sin(x2))
    assert abs(norm_l2(s) - np.sqrt(2.0) * np.pi) < 1e-12
    assert abs(norm_linf(s) - 1.0) < 1e-12
    assert abs(norm_linf_grad(from_values(g, -np.cos(x2))) - 1.0) < 1e-12
    assert abs(norm_hs(s, 0.0) - norm_l2(s)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(
    k1=st.integers(min_value=-5, max_value=5),
    k2=st.integers(min_value=-5, max_value=5),
    amp=st.floats(min_value=0.1, max_value=10.0),
)
def test_hs_norm_single_mode_property(k1, k2, amp):
    # ||amp*cos(k.x)||_{H^s} = 2pi * |k|^s * amp / sqrt(2) for k != 0
    if k1 == 0 and k2 == 0:
        return
    g = GridSpec(16)
    x1, x2 = meshgrid(g)
    s = from_values(g, amp * np.cos(k1 * x1 + k2 * x2))
    kmag = np.hypot(k1, k2)
    for sigma in (0.5, 1.0):
        expect = 2 * np.pi * kmag**sigma * amp / np.sqrt(2.0)
        assert abs(norm_hs(s, sigma) - expect) < 1e-10 * max(expect, 1.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_round_trip_property(seed):
    g = GridSpec(16)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((g.n, g.n))
    p = inverse(forward(PhysicalField(g, v)))
    assert np.max(np.abs(p.values - v)) < 1e-12 * max(1.0, np.max(np.abs(v)))


def test_embed_preserves_collocation_values():
    from sqglab.spectral import embed

    g32, g64 = GridSpec(32), GridSpec(64)
    rng = np.random.default_rng(21)
    v = random_band_limited(g32, rng, kmax=9)
    fine = embed(v, g64)
    coarse_vals = inverse(v).values
    fine_vals = inverse(fine).values
    assert np.max(np.abs(fine_vals[::2, ::2] - coarse_vals)) < 1e-12
    assert abs(norm_l2(fine) - norm_l2(v)) < 1e-12
