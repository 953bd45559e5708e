import numpy as np
import pytest

from wulff_lab import EllipsoidNorm, fourier_surface, make_grid
from wulff_lab.sphere_grid import legendre_table
from wulff_lab.stability import full_deficit_report


def test_unsupported_dimension():
    with pytest.raises(ValueError, match="unsupported dimension"):
        make_grid(3, 16)


def test_resolution_too_small():
    with pytest.raises(ValueError, match="resolution too small"):
        make_grid(1, 4)


def test_circle_layout(grid256):
    g = grid256
    assert g.n_nodes == 256
    np.testing.assert_allclose(g.weights, 2 * np.pi / 256)
    np.testing.assert_allclose(np.diff(g.angles), 2 * np.pi / 256)
    assert np.max(np.abs(np.linalg.norm(g.nodes, axis=1) - 1)) < 1e-14


def test_sphere_layout(grid2_32):
    g = grid2_32
    assert g.n_nodes == 32 * 64
    assert np.all(g.weights > 0)
    assert abs(g.integrate(np.ones(g.n_nodes)) - 4 * np.pi) < 1e-12 * 4 * np.pi
    assert np.max(np.abs(np.linalg.norm(g.nodes, axis=1) - 1)) < 1e-13
    # no polar nodes by construction
    assert np.min(g.sin_colat) > 0.0


def test_integrate_examples(grid256, grid2_32):
    assert abs(grid256.integrate(np.ones(256)) - 2 * np.pi) < 1e-12
    assert abs(grid256.integrate(np.cos(grid256.angles))) < 1e-12
    assert abs(grid2_32.integrate(np.ones(grid2_32.n_nodes)) - 4 * np.pi) < 1e-11


def test_integrate_length_mismatch(grid256):
    with pytest.raises(ValueError, match="does not match"):
        grid256.integrate(np.ones(100))


def test_harmonics_integrate_to_zero(grid256, grid2_32):
    # circle: pure waves up to the Nyquist degree
    for k in (1, 2, 7, 64, 128):
        assert abs(grid256.integrate(np.cos(k * grid256.angles))) < 1e-10
        assert abs(grid256.integrate(np.sin(k * grid256.angles))) < 1e-10
    # sphere: restrictions of low-degree harmonic polynomials
    x, y, z = grid2_32.nodes.T
    for field in (z, x, x * y, z ** 2 - 1.0 / 3.0, x * y * z,
                  z ** 3 - 0.6 * z):
        assert abs(grid2_32.integrate(field)) < 1e-10


def test_gradient_constant_is_zero(grid256, grid2_32):
    for g in (grid256, grid2_32):
        grad = g.gradient(np.ones(g.n_nodes))
        assert np.max(np.abs(grad)) < 1e-12


def test_gradient_cosine_circle(grid256):
    g = grid256
    grad = g.gradient(np.cos(g.angles))
    exact = -np.sin(g.angles)[:, None] * g.frame[0]
    assert np.max(np.abs(grad - exact)) < 1e-8


def test_gradient_linear_restriction_sphere(grid2_32):
    # f = theta.e has tangential gradient e - (theta.e) theta
    g = grid2_32
    e = np.array([0.36, -0.48, 0.8])
    f = g.nodes @ e
    grad = g.gradient(f)
    exact = e[None, :] - f[:, None] * g.nodes
    assert np.max(np.linalg.norm(grad - exact, axis=1)) < 1e-8


@pytest.mark.parametrize("dim, resolution", [(1, 256), (2, 32)])
def test_frame_derivatives_of_linear_restriction(dim, resolution):
    # l = a.theta restricted to the sphere has gradient a - l theta, so
    # v_i = a.e_i, and covariant Hessian -l times the identity; h carries
    # rounding amplified by k^2 on the circle and by 1/sin^2 near the poles
    # (2.2e-12 and 2.4e-12 here)
    g = make_grid(dim, resolution)
    a = np.array([0.36, -0.48, 0.8])[:dim + 1]
    ell = g.nodes @ a
    v, h = g.frame_derivatives(ell)
    np.testing.assert_allclose(v, g.frame @ a, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(h, -ell * np.eye(dim)[:, :, None], rtol=0.0,
                               atol=1e-11)


def test_gradient_matches_finite_differences(grid2_32):
    # independent check: central differences of f along great circles
    g = grid2_32
    f_fn = lambda p: np.sin(2.0 * p[..., 0]) * p[..., 2]
    grad = g.gradient(f_fn(g.nodes))
    h = 1e-5
    rng = np.random.default_rng(3)
    idx = rng.choice(g.n_nodes, size=40, replace=False)
    for i in idx:
        theta = g.nodes[i]
        for tang in g.frame[:, i]:
            plus = theta * np.cos(h) + tang * np.sin(h)
            minus = theta * np.cos(h) - tang * np.sin(h)
            fd = (f_fn(plus) - f_fn(minus)) / (2 * h)
            assert abs(grad[i] @ tang - fd) < 1e-5


def test_gradient_is_tangential(grid256, grid2_32):
    rng = np.random.default_rng(0)
    for g in (grid256, grid2_32):
        f = np.sin(3 * g.nodes[:, 0]) + g.nodes[:, -1] ** 2
        grad = g.gradient(f)
        assert np.max(np.abs(np.einsum("ij,ij->i", grad, g.nodes))) < 1e-9


def test_divergence_compatibility():
    # integral of f * lap(g) + grad f . grad g over the sphere vanishes
    for res in (16, 24, 32):
        g = make_grid(2, res)
        x, y, z = g.nodes.T
        f = np.sin(2 * x) * z
        h = np.cos(y + z)
        resid = abs(g.integrate(f * g.laplacian(h))
                    + g.integrate(np.einsum("ij,ij->i",
                                            g.gradient(f), g.gradient(h))))
        assert resid < 1e-10


def test_gradient_convergence_order():
    errs = []
    res_list = (12, 16, 24)
    e = np.array([0.6, 0.64, 0.48])
    e /= np.linalg.norm(e)
    for res in res_list:
        g = make_grid(2, res)
        f = np.sin(3.0 * (g.nodes @ e))
        grad = g.gradient(f)
        exact = 3.0 * np.cos(3.0 * (g.nodes @ e))[:, None] \
            * (e[None, :] - (g.nodes @ e)[:, None] * g.nodes)
        errs.append(np.max(np.linalg.norm(grad - exact, axis=1)))
    order = np.polyfit(np.log(1.0 / np.asarray(res_list, float)),
                       np.log(errs), 1)[0]
    assert order > 3.0  # documented as second order or better


def test_laplacian_eigenfunction(grid2_32):
    # zonal harmonic of degree 2: Delta Y = -l(l+1) Y
    g = grid2_32
    y2 = 1.5 * g.nodes[:, 2] ** 2 - 0.5
    assert np.max(np.abs(g.laplacian(y2) + 6.0 * y2)) < 1e-7


def test_spectral_filter_identity_on_smooth(grid2_32):
    # low-degree fields pass through the truncation unchanged
    g = grid2_32
    f = g.nodes[:, 0] * g.nodes[:, 2]
    assert np.max(np.abs(g.spectral_filter(f) - f)) < 1e-13


def test_immutability(grid256):
    with pytest.raises(ValueError):
        grid256.nodes[0, 0] = 5.0


def _ridge_field(lmax, seed):
    """A random field of degree <= lmax as a function of directions: a sum
    of powers (e . x)^d, d <= lmax, of linear forms, exact at any point."""
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((6, 3))
    e /= np.linalg.norm(e, axis=1)[:, None]
    deg = np.concatenate([[lmax, lmax - 1], rng.integers(0, lmax + 1, 4)])
    c = rng.uniform(-1.0, 1.0, 6)
    return lambda x: ((x / np.linalg.norm(x, axis=1)[:, None]) @ e.T) ** deg @ c


@pytest.mark.parametrize("res", [16, 32, 48, 64])
def test_band_limited_field_round_trips(res):
    # the Gauss-Legendre grid transforms degrees l <= nlat - 1 exactly, so
    # the truncation returns a field of that degree up to roundoff
    # (measured 8e-16 to 6e-15 relative)
    grid = make_grid(2, res)
    f = _ridge_field(res - 1, res)(grid.nodes)
    resid = np.max(np.abs(grid.spectral_filter(f) - f))
    assert resid <= 5e-14 * np.max(np.abs(f))


@pytest.mark.parametrize("res", [16, 32, 48, 64])
def test_laplacian_of_spherical_harmonic(res):
    # Delta Y_lm = -l(l+1) Y_lm up to the top degree L = nlat - 1, in
    # absolute terms roundoff in the coefficients times L(L+1)
    grid = make_grid(2, res)
    top = res - 1
    p, _ = legendre_table(grid.cos_colat, top)
    lon = np.arctan2(grid.nodes[:, 1], grid.nodes[:, 0])
    for l, m in [(1, 0), (2, 1), (top // 2, top // 3), (top, 0), (top, 5),
                 (top, top - 1), (top, top)]:
        y = np.repeat(p[m, l], grid.nlon) * np.cos(m * lon)
        resid = np.max(np.abs(grid.laplacian(y) + l * (l + 1) * y))
        assert resid <= 1e-13 * top * (top + 1) * np.max(np.abs(y)), (l, m)


@pytest.mark.parametrize("res", [16, 32, 48, 64])
def test_legendre_table_is_orthonormal(res):
    # under the grid's Gauss weights, for each order m over degrees
    # m..nlat-1; the weights are the Gauss-Legendre ones, more accurate
    # than numpy's (whose relative error reaches 1e-12 at 48 nodes and
    # leaves this Gram matrix off by 1e-13)
    grid = make_grid(2, res)
    mu = grid.cos_colat
    w = grid.weights[::grid.nlon] * grid.nlon / (2.0 * np.pi)
    ref_mu, ref_w = np.polynomial.legendre.leggauss(res)
    np.testing.assert_allclose(mu, ref_mu[::-1], rtol=0, atol=1e-15)
    np.testing.assert_allclose(w, ref_w[::-1], rtol=1e-11)
    p, _ = legendre_table(mu, res - 1)
    gram = np.einsum("mlj,j,mkj->mlk", p, w, p)
    for m in range(res):
        np.testing.assert_allclose(gram[m, m:, m:], np.eye(res - m),
                                   rtol=0, atol=3e-14)
    # zero below the diagonal l < m, and the closed forms of low degree
    assert not np.any(p[np.tril_indices(res, -1)])
    s = np.sqrt(1.0 - mu ** 2)
    np.testing.assert_allclose(p[0, 1], np.sqrt(1.5) * mu, atol=1e-15)
    np.testing.assert_allclose(p[1, 1], np.sqrt(0.75) * s, atol=1e-15)
    np.testing.assert_allclose(p[0, 2], np.sqrt(2.5) * (1.5 * mu ** 2 - 0.5),
                               atol=1e-15)


@pytest.mark.parametrize("res", [16, 48])
def test_legendre_derivative_matches_central_difference(res):
    colat = np.arccos(np.polynomial.legendre.leggauss(res)[0])
    h = 1e-6
    _, dp = legendre_table(np.cos(colat), res - 1)
    plus, _ = legendre_table(np.cos(colat + h), res - 1)
    minus, _ = legendre_table(np.cos(colat - h), res - 1)
    fd = (plus - minus) / (2.0 * h)
    assert np.max(np.abs(fd - dp)) <= 1e-8 * np.max(np.abs(dp))


@pytest.mark.parametrize("dim, res", [(1, 64), (1, 65), (2, 16), (2, 48)])
@pytest.mark.parametrize("a", [1e-3, 1.0, 1e3])
def test_shifted_laplace_solve_inverts(dim, res, a):
    # (I - a Delta) applied to the solution returns the input; measured as
    # a normwise backward error, since evaluating a*Delta(x) in floating
    # point already carries a * |Delta| * |x| * eps.  The sphere grid has
    # 2 nlat^2 nodes but nlat^2 coefficients, so white noise is returned as
    # its projection on degrees l <= nlat - 1
    grid = make_grid(dim, res)
    f = np.random.default_rng(res).standard_normal(grid.n_nodes)
    x = grid.shifted_laplace_solve(f, a)
    target = grid.spectral_filter(f)
    lap_norm = (res // 2) ** 2 if dim == 1 else grid.curvature_symbol_bound
    resid = np.max(np.abs(x - a * grid.laplacian(x) - target))
    assert resid <= 1e-12 * (np.max(np.abs(target))
                             + a * lap_norm * np.max(np.abs(x)))


def _smooth_coefficient(grid, scale):
    t = grid.angles
    return scale * (1.0 + 0.8 * np.cos(t) + 0.1 * np.sin(3.0 * t))


@pytest.mark.parametrize("res", [16, 63, 64])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_circle_solve_inverts_per_node_coefficient(res, scale):
    # up to 64 nodes (I - diag(a) Delta) x = f holds for a smooth, positive,
    # non-constant a, with Delta applied through the spectral angle
    # derivatives; the same normwise backward error as
    # test_shifted_laplace_solve_inverts
    grid = make_grid(1, res)
    a = _smooth_coefficient(grid, scale)
    f = np.random.default_rng(res).standard_normal(res)
    x = grid.shifted_laplace_solve(f, a)
    _, d2 = grid.angle_derivatives(x)
    resid = np.max(np.abs(x - a * d2 - f))
    assert resid <= 1e-12 * (np.max(np.abs(f))
                             + np.max(a) * (res // 2) ** 2 * np.max(np.abs(x)))


@pytest.mark.parametrize("res", [65, 256, 512])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_circle_solve_splits_modes_above_64_nodes(res, scale):
    # on a finer circle the modes below 32 are the 64-node grid's per-node
    # solve of the field's low modes, each of its nodes carrying the largest
    # coefficient of the grid nodes nearest it; the modes above divide by
    # 1 + max(a) k^2
    grid = make_grid(1, res)
    a = _smooth_coefficient(grid, scale)
    f = np.random.default_rng(res).standard_normal(res)
    xk = np.fft.rfft(grid.shifted_laplace_solve(f, a))
    fk = np.fft.rfft(f)
    k = np.arange(fk.size)
    np.testing.assert_allclose(
        xk[32:], fk[32:] / (1.0 + np.max(a) * k[32:] ** 2),
        rtol=1e-13, atol=1e-13 * np.max(np.abs(fk)))
    coarse = make_grid(1, 64)
    nearest = np.rint(np.arange(res) * 64 / res).astype(int) % 64
    a_64 = np.zeros(64)
    np.maximum.at(a_64, nearest, a)
    assert np.all(a_64[nearest] >= a)
    low = np.zeros(33, dtype=complex)
    low[:32] = fk[:32]
    ref = np.fft.rfft(coarse.shifted_laplace_solve(
        np.fft.irfft(low, n=64) * (64 / res), a_64))[:32] * (res / 64)
    np.testing.assert_allclose(xk[:32], ref, rtol=0,
                               atol=1e-13 * np.max(np.abs(ref)))


@pytest.mark.parametrize("res", [16, 64, 65, 256])
@pytest.mark.parametrize("a", [1e-3, 1.0, 1e3])
def test_circle_solve_constant_array_is_fourier_divide(res, a):
    # a per-node array that is constant agrees with the scalar solve, the
    # division by the symbol 1 + a k^2, up to the LU's normwise error
    grid = make_grid(1, res)
    f = np.random.default_rng(res).standard_normal(res)
    x = grid.shifted_laplace_solve(f, np.full(res, a))
    k = np.fft.rfftfreq(res, d=1.0 / res)
    ref = np.fft.irfft(np.fft.rfft(f) / (1.0 + a * k ** 2), n=res)
    np.testing.assert_array_equal(grid.shifted_laplace_solve(f, a), ref)
    assert np.max(np.abs(x - ref)) <= 1e-13 * (
        np.max(np.abs(f)) + a * (res // 2) ** 2 * np.max(np.abs(ref)))


@pytest.mark.parametrize("res", [32, 512])
def test_circle_solve_builds_dense_operator_once(res):
    # built on the first per-node solve, not with the grid nor for a scalar
    # coefficient, then reused; never larger than 64 x 64
    grid = make_grid(1, res)
    grid.shifted_laplace_solve(np.ones(res), 0.5)
    assert grid._dense is None
    a = _smooth_coefficient(grid, 1.0)
    grid.shifted_laplace_solve(np.ones(res), a)
    d2, nearest = grid._dense
    m = min(res, 64)
    assert d2.shape == (m, m) and nearest.shape == (res,)
    t = 2.0 * np.pi * np.arange(m) / m
    np.testing.assert_allclose(d2 @ np.cos(3.0 * t), -9.0 * np.cos(3.0 * t),
                               atol=1e-12)
    np.testing.assert_allclose(grid.shifted_laplace_solve(np.ones(res), a),
                               1.0, rtol=0, atol=1e-13)
    assert grid._dense[0] is d2


def test_deficit_report_builds_no_dense_operator():
    # the dense matrix is for flows only; a deficit report at N = 512
    # never solves, so it must not pay for it
    grid = make_grid(1, 512)
    surface = fourier_surface(grid, 1.0, [{"k": 2, "delta": 0.05}])
    full_deficit_report(surface, EllipsoidNorm(np.diag([4.0, 1.0])))
    assert grid._dense is None


def test_sphere_solve_rejects_per_node_coefficient():
    grid = make_grid(2, 8)
    with pytest.raises(ValueError, match="constant coefficient"):
        grid.shifted_laplace_solve(np.ones(grid.n_nodes),
                                   np.ones(grid.n_nodes))
