"""Linearized operator: dense assembly vs closed-form oracle, eigensolvers,
semigroup evolution, smoothing probe."""

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from sqglab import errors
from sqglab.dynamics import make_steady, shear_steady_state
from sqglab.growth import linear_reference, real_eigenfunction
from sqglab.linop import (
    LinearOperator,
    apply_L,
    assemble_dense,
    evolve_linear,
    mode_index,
    rightmost_eigenpair,
    smoothing_probe,
    smoothing_probe_supremum,
    truncation_modes,
)
from sqglab.spectral import (
    GridSpec,
    SpectralField,
    derivative,
    from_values,
    inner_l2,
    inverse,
    meshgrid,
    norm_hs,
    norm_l2,
    norm_linf_grad,
    velocity_from_theta,
)


def test_apply_L_is_real_linear():
    # L is real: on a complex field it acts as L(Re) + i L(Im)
    g = GridSpec(32)
    op = LinearOperator(shear_steady_state(g, m=2, amplitude=10.0), shift=0.3)
    rng = np.random.default_rng(11)
    c = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    c *= g.dealias_mask
    c[0, 0] = 0.0
    r = np.conj(np.roll(c[::-1, ::-1], (1, 1), axis=(0, 1)))
    re, im = SpectralField(g, 0.5 * (c + r)), SpectralField(g, -0.5j * (c - r))
    got = apply_L(op, SpectralField(g, c)).coeffs
    expect = apply_L(op, re).coeffs + 1j * apply_L(op, im).coeffs
    assert np.max(np.abs(got - expect)) < 1e-14 * np.max(np.abs(expect))


def zero_steady(grid):
    return make_steady(from_values(grid, np.zeros((grid.n, grid.n))))


def shear_oracle_matrix(m, a, K):
    """Independent closed-form matrix for theta0 = -a cos(m x2).

    Derived by convolving the single-mode velocity with the symbols:
    (L th)_k = -|k| th_k + (a k1/2) [ (m/|k-| - 1) th_{k-} + (1 - m/|k+|) th_{k+} ]
    with k-/+ = (k1, k2 -/+ m), entries dropped outside the truncation ball.
    """
    modes = truncation_modes(K)
    idx = {k: i for i, k in enumerate(modes)}
    M = len(modes)
    A = np.zeros((M, M), dtype=complex)
    for (k1, k2), i in idx.items():
        A[i, i] = -np.hypot(k1, k2)
        for s in (-1, +1):
            kk = (k1, k2 + s * m)
            if kk in idx:
                nm = np.hypot(*kk)
                if s == -1:
                    A[i, idx[kk]] += (a * k1 / 2.0) * (m / nm - 1.0)
                else:
                    A[i, idx[kk]] += (a * k1 / 2.0) * (1.0 - m / nm)
    return A


def random_pert(grid, rng, kmax=5, amp=1.0):
    c = np.zeros((grid.n, grid.n), dtype=complex)
    for k1 in range(-kmax, kmax + 1):
        for k2 in range(-kmax, kmax + 1):
            if (k1, k2) == (0, 0):
                continue
            c[k1, k2] = rng.standard_normal() + 1j * rng.standard_normal()
    c = amp * 0.5 * (c + np.conj(np.roll(c[::-1, ::-1], (1, 1), axis=(0, 1))))
    return SpectralField(grid, c)


@pytest.fixture(scope="module")
def g48():
    return GridSpec(48)


@pytest.fixture(scope="module")
def unstable(g48):
    """Shear steady state past the instability threshold (lambda > 0)."""
    return shear_steady_state(g48, m=2, amplitude=10.0)


@pytest.fixture(scope="module")
def unstable_dense(g48, unstable):
    return rightmost_eigenpair(LinearOperator(unstable), K=g48.dealias_radius)


def test_apply_L_reduces_to_dissipation(g48):
    _, x2 = meshgrid(g48)
    op = LinearOperator(zero_steady(g48))
    theta = from_values(g48, np.sin(x2))
    out = apply_L(op, theta)
    assert np.max(np.abs(inverse(out).values + np.sin(x2))) < 1e-12
    op_shift = LinearOperator(zero_steady(g48), shift=0.7)
    out2 = apply_L(op_shift, theta)
    assert np.max(np.abs(inverse(out2).values + 1.7 * np.sin(x2))) < 1e-12


def test_apply_L_linearity(g48, unstable):
    rng = np.random.default_rng(0)
    op = LinearOperator(unstable)
    t1, t2 = random_pert(g48, rng), random_pert(g48, rng)
    a, b = 0.37, -1.21
    combo = SpectralField(g48, a * t1.coeffs + b * t2.coeffs)
    lhs = apply_L(op, combo).coeffs
    rhs = a * apply_L(op, t1).coeffs + b * apply_L(op, t2).coeffs
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(lhs))


def test_apply_L_energy_identity(g48, unstable):
    # (L th, th) = -||Lam^{1/2} th||^2 - (q.grad(theta0), th), each side by
    # an independent route (spectral apply vs physical-space quadrature)
    rng = np.random.default_rng(1)
    op = LinearOperator(unstable)
    for theta in (unstable.theta0, random_pert(g48, rng, kmax=6)):
        lhs = inner_l2(apply_L(op, theta), theta)
        u1, u2 = velocity_from_theta(theta)
        g1 = inverse(derivative(unstable.theta0, 1)).values
        g2 = inverse(derivative(unstable.theta0, 2)).values
        prod = inverse(u1).values * g1 + inverse(u2).values * g2
        quad = np.sum(prod * inverse(theta).values) * g48.dx**2
        rhs = -norm_hs(theta, 0.5) ** 2 - quad
        scale = norm_l2(theta) ** 2 * max(1.0, norm_linf_grad(unstable.theta0))
        assert abs(lhs - rhs) < 1e-10 * scale


def test_apply_L_grid_mismatch(unstable):
    other = GridSpec(32)
    with pytest.raises(errors.ConfigurationError):
        apply_L(LinearOperator(unstable), from_values(other, np.zeros((32, 32))))


def test_assemble_dense_diagonal_for_zero_state():
    g = GridSpec(16)
    op = LinearOperator(zero_steady(g))
    K = 3
    A = scipy.linalg.block_diag(*assemble_dense(op, K).blocks)
    modes = truncation_modes(K)
    expect = np.diag([-np.hypot(k1, k2) for k1, k2 in modes])
    assert np.max(np.abs(A - expect)) < 1e-13


@pytest.mark.parametrize("m,a,K", [(1, 1.0, 2), (2, 10.0, 6)])
def test_assemble_dense_matches_shear_oracle(m, a, K):
    g = GridSpec(48)
    op = LinearOperator(shear_steady_state(g, m=m, amplitude=a))
    A = scipy.linalg.block_diag(*assemble_dense(op, K).blocks)
    B = shear_oracle_matrix(m, a, K)
    assert np.max(np.abs(A - B)) < 1e-12 * max(1.0, np.max(np.abs(B)))
    # sparsity: coupling only between modes with equal k1 and k2 differing by m
    modes = truncation_modes(K)
    for i, (k1, k2) in enumerate(modes):
        for j, (l1, l2) in enumerate(modes):
            if abs(A[i, j]) > 1e-13:
                assert (i == j) or (k1 == l1 and abs(k2 - l2) == m)


def test_mode_index_matches_truncation_modes():
    g = GridSpec(16)
    rows, cols = mode_index(g, 5)
    assert list(zip(rows, cols)) == [(k1 % 16, k2 % 16) for k1, k2 in truncation_modes(5)]


def test_assemble_dense_validation(g48, unstable):
    # the cap bounds the largest block: 2K + 1 = 25 for the shear at K = 12,
    # M = 624 for a state that depends on x1
    op = LinearOperator(unstable)
    with pytest.raises(errors.ResolutionError):
        assemble_dense(op, g48.dealias_radius + 1)
    with pytest.raises(errors.ResourceError):
        assemble_dense(op, 12, cap=24)
    x1, _ = meshgrid(g48)
    op_x1 = LinearOperator(make_steady(from_values(g48, -10.0 * np.cos(2 * x1))))
    with pytest.raises(errors.ResourceError):
        assemble_dense(op_x1, 12, cap=100)


def test_shear_runs_dense_under_a_cap_below_M():
    # n = 24, K = 8: M = 288, but no block is wider than 2K + 1 = 17
    op = LinearOperator(shear_steady_state(GridSpec(24), m=2, amplitude=10.0))
    section = assemble_dense(op, 8, cap=20)
    assert section.shape == (288, 288)
    assert max(len(b) for b in section.blocks) == 17
    assert rightmost_eigenpair(op, K=8, cap=20).residual < 1e-12


def test_trivial_spectrum(g48):
    # theta0 = 0, K = 4: dense spectrum is exactly {-|k|} with multiplicities
    op = LinearOperator(zero_steady(GridSpec(16)))
    res = rightmost_eigenpair(op, K=4)
    expect = sorted(-np.hypot(k1, k2) for k1, k2 in truncation_modes(4))
    got = np.sort(res.eigenvalues.real)
    assert np.max(np.abs(got - np.array(expect))) < 1e-10
    assert np.max(np.abs(res.eigenvalues.imag)) < 1e-10
    assert abs(res.rightmost - (-1.0)) < 1e-10
    assert res.residual < 1e-8


def test_spectrum_conjugation_closure(unstable_dense):
    # every eigenvalue has a conjugate partner somewhere in the list
    w = unstable_dense.eigenvalues
    dist = np.abs(w[:, None] - np.conj(w)[None, :])
    assert np.max(np.min(dist, axis=1)) < 1e-10 * max(1.0, np.max(np.abs(w)))


def test_growth_rate_bound(g48, unstable, unstable_dense):
    # Re mu <= ||grad theta0||_inf for every computed spectrum
    beta = norm_linf_grad(unstable.theta0)
    assert np.max(unstable_dense.eigenvalues.real) <= beta + 1e-10


def test_unstable_shear_dense(unstable_dense):
    assert unstable_dense.rightmost.real > 0.5
    assert unstable_dense.residual < 1e-8
    phi = unstable_dense.eigenfunction
    assert abs(norm_l2(phi) - 1.0) < 1e-12


def test_rate_nondecreasing_in_amplitude(g48):
    rates = []
    for a in (4.0, 8.0, 12.0):
        op = LinearOperator(shear_steady_state(g48, m=2, amplitude=a))
        res = rightmost_eigenpair(op, K=12)
        rates.append(res.rightmost.real)
    assert rates[0] < rates[1] < rates[2]


def test_truncation_drift(unstable):
    # converged rate changes by < 1e-6 from K to K+2 (grids sized to keep
    # every truncation alias-free)
    g1, g2 = GridSpec(48), GridSpec(54)
    lam = []
    for g, K in ((g1, 16), (g2, 18)):
        ss = shear_steady_state(g, m=2, amplitude=10.0)
        lam.append(rightmost_eigenpair(LinearOperator(ss), K=K).rightmost.real)
    assert abs(lam[1] - lam[0]) < 1e-6


def _k1_rows(phi):
    """The k1 (array rows) on which a coefficient array has support."""
    g = phi.grid
    return sorted({int(g.k1[i, 0]) for i in np.flatnonzero(np.any(phi.coeffs != 0, axis=1))})


def test_dense_phi_is_one_k1_block():
    op = LinearOperator(shear_steady_state(GridSpec(24), m=2, amplitude=10.0))
    runs = [rightmost_eigenpair(op) for _ in range(2)]
    assert _k1_rows(runs[0].eigenfunction) == [1]
    assert runs[0].residual < 1e-12
    assert np.array_equal(runs[0].eigenfunction.coeffs, runs[1].eigenfunction.coeffs)


def test_dense_tie_goes_to_smaller_k1():
    # theta0 = -2e-4 cos(x2): lambda = -1 has multiplicity 4, two copies in
    # k1 = 0 (modes (0, +-1)) and one in each of k1 = +-1 (modes (+-1, 0))
    g = GridSpec(24)
    op = LinearOperator(shear_steady_state(g, m=1, amplitude=2e-4))
    res = rightmost_eigenpair(op)
    assert abs(res.rightmost - (-1.0)) < 1e-12
    assert _k1_rows(res.eigenfunction) == [0]
    assert np.sum(np.abs(res.eigenvalues + 1.0) < 1e-10) == 4
    A = scipy.linalg.block_diag(*assemble_dense(op, g.dealias_radius).blocks)
    k1 = np.array(truncation_modes(g.dealias_radius))[:, 0]
    for k, copies in ((0, 2), (1, 1), (-1, 1)):
        b = np.flatnonzero(k1 == k)
        w = np.linalg.eigvals(A[np.ix_(b, b)])
        assert np.sum(np.abs(w + 1.0) < 1e-10) == copies


def test_degenerate_phi_independent_of_grid():
    # lambda = -1 is double in the k1 = 0 block of theta0 = -2e-4 cos(x2);
    # phi must not depend on the basis of that eigenspace the solver returns
    K, phis = 8, []
    for n in (24, 26, 30, 32, 48):
        g = GridSpec(n)
        res = rightmost_eigenpair(LinearOperator(shear_steady_state(g, m=1, amplitude=2e-4)), K=K)
        phis.append(res.eigenfunction.coeffs[mode_index(g, K)])
    for phi in phis[1:]:
        assert np.max(np.abs(phi - phis[0])) < 1e-12


@pytest.mark.parametrize("m", [1, 2])
def test_block_spectrum_matches_full_matrix(m):
    g = GridSpec(24)
    K = g.dealias_radius
    op = LinearOperator(shear_steady_state(g, m=m, amplitude=10.0))
    section = assemble_dense(op, K)
    assert len(section.blocks) == 2 * K + 1
    assert max(len(b) for b in section.blocks) <= 2 * K + 1
    A = scipy.linalg.block_diag(*section.blocks)
    k1 = np.array(truncation_modes(K))[:, 0]
    assert np.all(A[k1[:, None] != k1[None, :]] == 0)
    full = np.linalg.eigvals(A)
    res = rightmost_eigenpair(op, K=K)
    assert res.eigenvalues.shape == full.shape
    # the two multisets agree: optimal one-to-one matching of the eigenvalues
    dist = np.abs(res.eigenvalues[:, None] - full[None, :])
    rows, cols = linear_sum_assignment(dist)
    assert np.max(dist[rows, cols]) < 1e-10


def section_expm(op, t, c):
    """Oracle for e^{t L} c on alias-free data c: scipy's exponential of each
    block of the section at K = n/3, which is L on every alias-free mode."""
    K = op.grid.dealias_radius
    blocks = assemble_dense(op, K).blocks
    index = mode_index(op.grid, K)
    parts = np.split(c[index], np.cumsum([len(b) for b in blocks])[:-1])
    out = np.zeros_like(c)
    out[index] = np.concatenate([scipy.linalg.expm(t * b) @ x for b, x in zip(blocks, parts)])
    return out


def test_linear_reference_is_the_semigroup():
    # Re(phi) of an exact eigenpair is advanced by e^{lambda t}: the closed
    # form agrees with the block exponentials to rounding, and with the
    # IF-RK4 semigroup to its O(dt^4) error
    g = GridSpec(24)
    op = LinearOperator(shear_steady_state(g, m=2, amplitude=10.0))
    spec = rightmost_eigenpair(op)
    assert abs(spec.rightmost.imag) < 1e-12
    psi = real_eigenfunction(spec)
    t = 1.0
    got = linear_reference(spec)(t)
    scale = np.exp(spec.rightmost.real * t) * np.linalg.norm(psi.coeffs)
    assert np.linalg.norm(got - section_expm(op, t, psi.coeffs)) < 1e-12 * scale
    assert np.linalg.norm(got - evolve_linear(op, psi, t, 1e-3).coeffs) < 1e-11 * scale
    # on generic band-limited data the IF-RK4 error falls by 2^4 per halved dt
    x1, x2 = meshgrid(g)
    c = from_values(g, np.cos(3 * x1 + x2) + np.sin(5 * x2))
    exact = section_expm(op, 0.5, c.coeffs)
    errs = [np.linalg.norm(evolve_linear(op, c, 0.5, dt).coeffs - exact) for dt in (2e-3, 1e-3)]
    assert errs[1] < 1e-8 * np.linalg.norm(exact)
    assert 12.0 < errs[0] / errs[1] < 20.0


def test_x1_dependent_state_takes_one_block():
    # theta0 = -10 cos(2 x1) is the canonical shear with the axes swapped: it
    # has coefficients off k1 = 0, so the whole section is one block, and its
    # rightmost eigenvalue equals the x2-shear's by the axis-swap symmetry
    g = GridSpec(24)
    x1, _ = meshgrid(g)
    op_x1 = LinearOperator(make_steady(from_values(g, -10.0 * np.cos(2 * x1))))
    K = g.dealias_radius
    section = assemble_dense(op_x1, K)
    assert [len(b) for b in section.blocks] == [(2 * K + 1) ** 2 - 1]
    A = scipy.linalg.block_diag(*section.blocks)
    k1 = np.array(truncation_modes(K))[:, 0]
    assert np.any(A[k1[:, None] != k1[None, :]] != 0)
    lam_x1 = rightmost_eigenpair(op_x1).rightmost.real
    lam_x2 = rightmost_eigenpair(LinearOperator(shear_steady_state(g, 2, 10.0))).rightmost.real
    assert abs(lam_x1 - lam_x2) < 1e-10


def test_dense_vs_power_agreement(g48, unstable, unstable_dense):
    res_p = rightmost_eigenpair(
        LinearOperator(unstable), method="power", tau_pow=0.5, dt_linear=2e-3, seed=3
    )
    assert abs(res_p.rightmost.real - unstable_dense.rightmost.real) < 1e-4
    # iteration is certified on the propagator; the L-residual is bounded by
    # the O(dt^4) discretization of e^{L tau}
    assert res_p.propagator_residual < 1e-8
    assert res_p.residual < 1e-3


def test_power_on_zero_state():
    op = LinearOperator(zero_steady(GridSpec(16)))
    res = rightmost_eigenpair(op, K=4, method="power", dt_linear=1e-3, seed=1)
    assert abs(res.rightmost.real - (-1.0)) < 1e-6


def test_power_nonconvergence_raises():
    # one ARPACK restart cannot reach a tolerance below rounding
    op = LinearOperator(shear_steady_state(GridSpec(24), m=2, amplitude=10.0))
    with pytest.raises(errors.ConvergenceError):
        rightmost_eigenpair(op, method="power", max_iter=1, tol=1e-17, dt_linear=2e-2)


def test_power_deterministic():
    op = LinearOperator(shear_steady_state(GridSpec(24), m=2, amplitude=10.0))
    runs = [
        rightmost_eigenpair(op, method="power", dt_linear=2e-2, seed=5) for _ in range(2)
    ]
    assert runs[0].rightmost == runs[1].rightmost
    assert np.array_equal(runs[0].eigenfunction.coeffs, runs[1].eigenfunction.coeffs)
    assert runs[0].iterations == runs[1].iterations


def test_evolve_linear_pure_decay():
    g = GridSpec(32)
    _, x2 = meshgrid(g)
    op = LinearOperator(zero_steady(g))
    theta = from_values(g, np.sin(x2))
    out = evolve_linear(op, theta, 1.0)
    expect = np.exp(-1.0) * np.sin(x2)
    assert np.max(np.abs(inverse(out).values - expect)) < 1e-10
    zero = evolve_linear(op, from_values(g, np.zeros((32, 32))), 1.0)
    assert np.all(zero.coeffs == 0)


def test_evolve_linear_eigenfunction(g48, unstable, unstable_dense):
    op = LinearOperator(unstable)
    phi = unstable_dense.eigenfunction
    mu = unstable_dense.rightmost
    for t in (0.5, 2.0):
        ev = evolve_linear(op, phi, t, dt_target=1e-3)
        diff = ev.coeffs - np.exp(mu * t) * phi.coeffs
        assert 2 * np.pi * np.linalg.norm(diff) < 1e-6


def test_evolve_linear_semigroup_property(g48, unstable):
    rng = np.random.default_rng(5)
    op = LinearOperator(unstable)
    v = random_pert(g48, rng, kmax=4, amp=1.0)
    for t, s in ((0.3, 0.2), (0.17, 0.4)):
        once = evolve_linear(op, v, t + s, dt_target=1e-3)
        twice = evolve_linear(op, evolve_linear(op, v, s, dt_target=1e-3), t, dt_target=1e-3)
        assert norm_l2(SpectralField(g48, once.coeffs - twice.coeffs)) < 1e-8


def test_evolve_linear_matches_expm_oracle():
    # small truncation: dense matrix exponential vs matrix-free stepping
    g = GridSpec(16)
    K = g.dealias_radius  # 5: matrix is the exact implemented operator
    ss = shear_steady_state(g, m=1, amplitude=0.8)
    op = LinearOperator(ss)
    A = scipy.linalg.block_diag(*assemble_dense(op, K).blocks)
    modes = truncation_modes(K)
    rng = np.random.default_rng(8)
    v = random_pert(g, rng, kmax=3, amp=0.5)
    vec = np.array([v.coeffs[k1 % g.n, k2 % g.n] for k1, k2 in modes])
    t = 0.75
    expm_vec = scipy.linalg.expm(A * t) @ vec
    ev = evolve_linear(op, v, t, dt_target=5e-4)
    got = np.array([ev.coeffs[k1 % g.n, k2 % g.n] for k1, k2 in modes])
    assert 2 * np.pi * np.linalg.norm(got - expm_vec) < 1e-6


def test_smoothing_probe_gamma_zero_short_time(g48, unstable, unstable_dense):
    lam = unstable_dense.rightmost.real
    delta = min(0.1, lam * 0.5 / 4)
    op_d = LinearOperator(unstable, shift=lam + delta)
    rng = np.random.default_rng(2)
    v = random_pert(g48, rng, kmax=4)
    r = smoothing_probe(op_d, v, 1e-4, 0.0)
    assert abs(r - 1.0) < 1e-3


def test_smoothing_probe_eigenfunction_closed_form(g48, unstable, unstable_dense):
    # e^{L_delta t} phi = e^{(mu - lam - delta) t} phi, so the probe ratio is
    # t^g e^{-delta t} (||phi|| / ||Lam^{-1} phi||)^g
    from sqglab.spectral import lambda_pow

    lam = unstable_dense.rightmost.real
    gamma = 0.5
    delta = min(0.1, lam * gamma / 4)
    op_d = LinearOperator(unstable, shift=lam + delta)
    phi = unstable_dense.eigenfunction
    ratio_lm = norm_l2(phi) / norm_l2(lambda_pow(phi, -1.0))
    for t in (0.5, 1.0, 2.0):
        got = smoothing_probe(op_d, phi, t, gamma)
        expect = t**gamma * np.exp(-delta * t) * ratio_lm**gamma
        assert abs(got - expect) < 1e-4 * max(expect, 1.0)


def test_smoothing_probe_domain_errors(g48, unstable):
    op = LinearOperator(unstable, shift=1.0)
    rng = np.random.default_rng(4)
    v = random_pert(g48, rng)
    with pytest.raises(errors.DomainError):
        smoothing_probe(op, v, 0.0, 0.5)
    with pytest.raises(errors.DomainError):
        smoothing_probe(op, v, 1.0, 1.5)


def test_smoothing_probe_constant_stable_under_refinement(g48, unstable, unstable_dense):
    lam = unstable_dense.rightmost.real
    gamma = 0.5
    delta = min(0.1, lam * gamma / 4)
    op_d = LinearOperator(unstable, shift=lam + delta)
    ts = [0.01, 0.1, 0.5, 1.0, 2.0]
    c6 = smoothing_probe_supremum(op_d, gamma, band=6, t_grid=ts, n_samples=6, seed=0)
    c10 = smoothing_probe_supremum(op_d, gamma, band=10, t_grid=ts, n_samples=6, seed=0)
    assert np.isfinite(c6) and np.isfinite(c10)
    assert max(c6, c10) / min(c6, c10) < 2.0


def test_smoothing_probe_field_off_the_section(g48, unstable):
    # the exact semigroup acts on the alias-free, mean-free modes only
    op = LinearOperator(unstable, shift=1.0)
    v = random_pert(g48, np.random.default_rng(4), kmax=4)
    for k in ((0, 0), (17, 3)):
        c = v.coeffs.copy()
        c[k] = 1.0
        with pytest.raises(errors.DomainError):
            smoothing_probe(op, SpectralField(g48, c), 1.0, 0.5)


def test_smoothing_probe_over_dense_cap_fails_before_any_kernel_call(monkeypatch):
    # theta0 depends on x1, so the section at n = 106 is one block of
    # M = 71^2 - 1 = 5040 modes, over the cap of 5000
    from sqglab import linop

    g = GridSpec(106)
    x1, _ = meshgrid(g)
    op = LinearOperator(make_steady(from_values(g, -10.0 * np.cos(2 * x1))), shift=1.0)
    v = random_pert(g, np.random.default_rng(3), kmax=4)

    def kernel(*args, **kwargs):
        raise AssertionError("kernel called")

    monkeypatch.setattr(linop, "advection", kernel)
    with pytest.raises(errors.ResourceError, match="5040 exceeds cap 5000"):
        smoothing_probe(op, v, 1.0, 0.5)
