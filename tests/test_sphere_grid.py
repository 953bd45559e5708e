import numpy as np
import pytest

from wulff_lab import make_grid


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
    exact = -np.sin(g.angles)[:, None] * g.tangents
    assert np.max(np.abs(grad - exact)) < 1e-8


def test_gradient_linear_restriction_sphere(grid2_32):
    # f = theta.e has tangential gradient e - (theta.e) theta
    g = grid2_32
    e = np.array([0.36, -0.48, 0.8])
    f = g.nodes @ e
    grad = g.gradient(f)
    exact = e[None, :] - f[:, None] * g.nodes
    assert np.max(np.linalg.norm(grad - exact, axis=1)) < 1e-8


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
        for tang in (g.frame_colat[i], g.frame_lon[i]):
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
    # low-order fields pass through the polar filter unchanged
    g = grid2_32
    f = g.nodes[:, 0] * g.nodes[:, 2]
    assert np.max(np.abs(g.spectral_filter(f) - f)) < 1e-13


def test_immutability(grid256):
    with pytest.raises(ValueError):
        grid256.nodes[0, 0] = 5.0


def _mode_operator(grid, m):
    """Dense Laplacian of longitude mode m, unpacked from the grid's bands."""
    g = grid._ghost
    bands = grid._lat_bands[m % 2]
    a = np.zeros((grid.nlat, grid.nlat))
    for j in range(grid.nlat):
        for i in range(max(0, j - g), min(grid.nlat, j + g + 1)):
            a[i, j] = bands[g + i - j, j]
    return a + np.diag(grid._mk2_lon[m] / grid.sin_colat ** 2)


@pytest.mark.parametrize("res", [16, 32, 48])
def test_mode_operators_reproduce_laplacian(res):
    # folding the ghost rows by (-1)^m gives, per longitude mode, exactly
    # the latitude operator grid.laplacian applies
    grid = make_grid(2, res)
    grid.shifted_laplace_solve(np.zeros(grid.n_nodes), 1.0)
    f = np.random.default_rng(res).standard_normal(grid.n_nodes)
    fk = np.fft.rfft(f.reshape(grid.nlat, grid.nlon), axis=1)
    lk = np.stack([_mode_operator(grid, m) @ fk[:, m]
                   for m in range(fk.shape[1])], axis=1)
    lap = np.fft.irfft(lk, n=grid.nlon, axis=1).reshape(-1)
    ref = grid.laplacian(f)
    assert np.max(np.abs(lap - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("dim, res", [(1, 64), (1, 65), (2, 16), (2, 48)])
@pytest.mark.parametrize("a", [1e-3, 1.0, 1e3])
def test_shifted_laplace_solve_inverts(dim, res, a):
    # (I - a Delta) applied to the solution returns the input; measured as
    # a normwise backward error, since evaluating a*Delta(x) in floating
    # point already carries a * |Delta| * |x| * eps
    grid = make_grid(dim, res)
    f = np.random.default_rng(res).standard_normal(grid.n_nodes)
    x = grid.shifted_laplace_solve(f, a)
    if dim == 1:
        lap_norm = (res // 2) ** 2
    else:
        lap_norm = max(np.max(np.sum(np.abs(_mode_operator(grid, m)), axis=1))
                       for m in range(grid.nlon // 2 + 1))
    resid = np.max(np.abs(x - a * grid.laplacian(x) - f))
    assert resid <= 1e-12 * (np.max(np.abs(f))
                             + a * lap_norm * np.max(np.abs(x)))


def test_shifted_laplace_solve_builds_bands_once():
    # built on the first solve, not with the grid, then reused
    grid = make_grid(2, 16)
    assert grid._lat_bands is None
    grid.shifted_laplace_solve(np.ones(grid.n_nodes), 0.5)
    bands = grid._lat_bands
    np.testing.assert_allclose(grid.shifted_laplace_solve(
        np.ones(grid.n_nodes), 0.5), 1.0, rtol=0, atol=1e-14)
    assert grid._lat_bands is bands
