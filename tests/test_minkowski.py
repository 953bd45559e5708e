import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wulff_lab import (
    EllipsoidNorm,
    EuclideanNorm,
    PerturbedNorm,
    ProductHarmonic,
    SectoralHarmonic,
    make_grid,
    make_wulff,
    norm_from_spec,
    verify_duality,
)
from wulff_lab import minkowski
from wulff_lab.minkowski import _SCAN_MAXIT, MinkowskiNorm, _tangent_frame

from reference import full_hess, harmonic_hess


def _fd_grad(fn, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2 * h)
    return g


def test_euclidean_values(euclid2):
    assert euclid2.value([3.0, 4.0]) == pytest.approx(5.0)
    np.testing.assert_allclose(euclid2.grad([3.0, 4.0]), [0.6, 0.8])
    assert euclid2.dual_value([3.0, 4.0]) == pytest.approx(5.0)


@pytest.mark.parametrize("d", [2, 3])
def test_euclidean_norm_matches_textbook_formulas(d):
    # the euclidean norm runs the ellipsoid code on the identity matrix:
    # check every method against the closed forms of |x|
    norm = EuclideanNorm(d)
    rng = np.random.default_rng(40 + d)
    x = rng.standard_normal((500, d)) * np.exp(rng.uniform(-3.0, 3.0, (500, 1)))
    n = np.sqrt(np.sum(x * x, axis=1))
    u = x / n[:, None]
    assert np.max(np.abs(norm.value(x) - n) / n) < 1e-15
    assert np.max(np.linalg.norm(norm.grad(x) - u, axis=1)) < 1e-15
    # D^2F(u) = I - u u^T is the identity on the tangent frame at unit u
    f, c = norm.tangent_form(u, _tangent_frame(u))
    assert np.max(np.abs(f - 1.0)) < 1e-15
    assert np.max(np.abs(c - np.eye(d - 1)[:, :, None])) < 1e-15
    np.testing.assert_allclose(norm.dual_value(x), norm.value(x), rtol=1e-15)
    np.testing.assert_allclose(norm.dual_grad(x), norm.grad(x), rtol=1e-15,
                               atol=1e-15)
    # ray exits from inside the ball (every ray hits) and from outside it
    theta = rng.standard_normal((500, d))
    theta /= np.linalg.norm(theta, axis=1, keepdims=True)
    scale = 1.2
    for reach in (0.5, 1.5):
        o = rng.standard_normal(d)
        o *= reach * scale / np.linalg.norm(o)
        ot = theta @ o
        disc = ot * ot - o @ o + scale * scale
        hit = disc > 0.0
        s, g = norm.exit_distance(theta, o, scale)
        exact = -ot[hit] + np.sqrt(disc[hit])
        assert np.max(np.abs(s[hit] - exact)) < 4e-15 * (scale + reach * scale)
        p = o[None, :] + s[hit, None] * theta[hit]
        assert np.max(np.abs(g[hit] - p / scale)) < 4e-15
        assert np.all(s[~hit] == -np.inf) and np.all(np.isnan(g[~hit]))
        assert np.all(hit) if reach < 1.0 else 0 < np.sum(hit) < len(hit)
    assert norm.positivity == 1.0
    assert norm.spec() == {"family": "euclidean", "dim": d - 1}
    clone = norm_from_spec(norm.spec())
    assert type(clone) is EuclideanNorm and clone.spec() == norm.spec()
    with pytest.raises(ValueError, match="ambient dimension must be 2 or 3"):
        EuclideanNorm(d + 2)


def test_ellipsoid_values(ellipse2):
    # F = sqrt(4 x1^2 + x2^2), differentiated by hand
    assert ellipse2.value([1.0, 0.0]) == pytest.approx(2.0)
    np.testing.assert_allclose(ellipse2.grad([1.0, 0.0]), [2.0, 0.0])
    assert ellipse2.dual_value([0.0, 1.0]) == pytest.approx(1.0)
    x = np.array([0.7, -1.3])
    np.testing.assert_allclose(ellipse2.grad(x),
                               _fd_grad(ellipse2.value, x), atol=1e-7)


def test_ellipsoid_validation():
    # the second matrix is asymmetric by 2e-6, within numpy's default
    # relative tolerance of allclose
    for bad in ([[1.0, 0.5], [0.0, 1.0]], [[4.0, 0.5], [0.500002, 1.0]]):
        with pytest.raises(ValueError, match="symmetric"):
            EllipsoidNorm(bad)
    with pytest.raises(ValueError, match="positive definite"):
        EllipsoidNorm([[1.0, 0.0], [0.0, -2.0]])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="matrix must be finite"):
            norm_from_spec({"family": "ellipsoid",
                            "matrix": [[1.0, bad], [bad, 1.0]]})


def test_hessian_annihilates_argument(euclid2, ellipse2, perturbed2):
    # the reference Hessians obey D^2F(x) x = 0, on which `tangent_form`
    # rests
    rng = np.random.default_rng(11)
    x = rng.standard_normal((50, 2)) + 0.1
    for norm in (euclid2, ellipse2, perturbed2):
        hx = np.einsum("ijk,ik->ij", full_hess(norm, x), x)
        assert np.max(np.abs(hx)) < 1e-10


def test_grad_requires_nonzero(euclid2, perturbed2):
    for norm in (euclid2, perturbed2):
        with pytest.raises(ValueError, match="x = 0"):
            norm.grad(np.zeros(2))


def test_ellipsoid_dual_brute_force(ellipse2):
    # maximize x.y / F(y) over a million directions
    t = np.linspace(0.0, 2 * np.pi, 1_000_000, endpoint=False)
    y = np.column_stack([np.cos(t), np.sin(t)])
    fy = ellipse2.value(y)
    for x in ([0.0, 1.0], [1.0, 0.0], [0.3, -0.8]):
        brute = np.max(y @ np.asarray(x) / fy)
        assert ellipse2.dual_value(x) == pytest.approx(brute, abs=1e-9)


def test_perturbed_gradient_identity(perturbed2):
    # F(DF0(y)) = 1 on 100 random directions
    rng = np.random.default_rng(5)
    y = rng.standard_normal((100, 2))
    assert np.max(np.abs(perturbed2.value(perturbed2.dual_grad(y)) - 1.0)) < 1e-8


def test_perturbed_construction_rejects_large_eps():
    with pytest.raises(ValueError, match="positive definite"):
        PerturbedNorm(2, 0.5)


def test_duality_report_euclidean(euclid2):
    rep = verify_duality(euclid2, 500, np.random.default_rng(0))
    assert rep.max_residual < 1e-12


def test_duality_report_ellipsoid(ellipse2, ellipse3):
    for norm in (ellipse2, ellipse3):
        rep = verify_duality(norm, 500, np.random.default_rng(1))
        assert rep.max_residual < 1e-9


def test_duality_report_perturbed(perturbed2, perturbed3):
    for norm in (perturbed2, perturbed3):
        rep = verify_duality(norm, 300, np.random.default_rng(2))
        assert rep.max_residual < 1e-6


def test_cauchy_schwarz_simple_gap(euclid2):
    # orthogonal unit vectors: slack exactly 1
    x = np.array([1.0, 0.0])
    y = np.array([0.0, 1.0])
    gap = x @ y - euclid2.value(x) * euclid2.dual_value(y)
    assert gap == pytest.approx(-1.0)


def test_perturbed_biduality(perturbed2):
    # applying the dual construction twice recovers F: the second dual is
    # the support function of the sampled unit dual ball
    g = make_grid(1, 8192)
    rho = perturbed2.wulff_radius(g.nodes)
    boundary = rho[:, None] * g.nodes
    rng = np.random.default_rng(9)
    for x in rng.standard_normal((10, 2)):
        scores = boundary @ x
        j = int(np.argmax(scores))
        sl = [(j - 1) % 8192, j, (j + 1) % 8192]
        vals = scores[sl]
        denom = vals[0] - 2 * vals[1] + vals[2]
        shift = 0.5 * (vals[0] - vals[2]) / denom if denom != 0 else 0.0
        t = g.angles[j] + shift * (2 * np.pi / 8192)
        d = np.array([np.cos(t), np.sin(t)])
        refined = (perturbed2.wulff_radius(d) * d) @ x
        assert abs(max(refined, vals[1]) - perturbed2.value(x)) < 1e-6


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(1e-3, 1e3),
       cx=st.floats(-5, 5), cy=st.floats(-5, 5))
def test_homogeneity(lam, cx, cy):
    norm = EllipsoidNorm(np.diag([4.0, 1.0]))
    pert = PerturbedNorm(2, 0.1)
    x = np.array([cx + 0.01, cy + 7.0])
    for n in (norm, pert):
        assert n.value(lam * x) == pytest.approx(lam * n.value(x), rel=1e-10)
        assert n.dual_value(lam * x) == pytest.approx(
            lam * n.dual_value(x), rel=1e-8)


def test_grad_zero_homogeneous(ellipse2, perturbed2):
    rng = np.random.default_rng(4)
    x = rng.standard_normal((20, 2)) + 0.1
    for norm in (ellipse2, perturbed2):
        np.testing.assert_allclose(norm.grad(3.7 * x), norm.grad(x),
                                   atol=1e-12)


def test_make_wulff_circle(euclid2, grid512):
    w = make_wulff(euclid2, grid512)
    assert w.volume == pytest.approx(np.pi, abs=1e-12)
    assert w.perimeter == pytest.approx(2 * np.pi, abs=1e-10)
    np.testing.assert_allclose(w.rho, 1.0)


def test_make_wulff_ellipse(ellipse2, grid512):
    # semi-axes (2, 1): area pi*a*b
    w = make_wulff(ellipse2, grid512)
    assert w.volume == pytest.approx(2 * np.pi, abs=1e-10)
    assert w.identity_residual < 1e-10


def test_make_wulff_sphere(euclid3, grid2_32):
    w = make_wulff(euclid3, grid2_32)
    assert w.volume == pytest.approx(4 * np.pi / 3, abs=1e-10)
    assert w.perimeter == pytest.approx(4 * np.pi, abs=1e-9)


def test_wulff_rho_duality_identity(perturbed2, grid256):
    w = make_wulff(perturbed2, grid256)
    assert np.max(np.abs(perturbed2.dual_value(grid256.nodes) * w.rho - 1.0)) < 1e-12


def test_wulff_identity_refines(ellipse3, perturbed2):
    prev = {1: None, 2: None}
    for res in (64, 128):
        w = make_wulff(perturbed2, make_grid(1, res))
        if prev[1] is not None:
            assert w.identity_residual < prev[1]
        prev[1] = w.identity_residual
    for res in (16, 24):
        w = make_wulff(ellipse3, make_grid(2, res))
        if prev[2] is not None:
            assert w.identity_residual < prev[2]
        prev[2] = w.identity_residual


def test_norm_from_spec_roundtrip(ellipse2, perturbed2):
    for norm in (EuclideanNorm(3), ellipse2, perturbed2):
        clone = norm_from_spec(norm.spec())
        x = np.array([0.4, -1.1, 0.7][: norm.ambient_dim])
        assert clone.value(x) == pytest.approx(norm.value(x), rel=1e-12)
    with pytest.raises(ValueError, match="unknown norm family"):
        norm_from_spec({"family": "crystalline"})
    # the product harmonic is degree 3 on the 2-sphere: spec() writes its
    # degree, and another degree or dimension is an error, not ignored
    spec = PerturbedNorm(3, 0.1, ProductHarmonic()).spec()
    assert spec["harmonic"] == {"kind": "product", "degree": 3}
    assert type(norm_from_spec(spec).harmonic) is ProductHarmonic
    with pytest.raises(ValueError, match="degree of a product harmonic"):
        norm_from_spec({**spec, "harmonic": {"kind": "product", "degree": 5}})
    with pytest.raises(ValueError, match="product harmonic needs norm.dim 2"):
        norm_from_spec({**spec, "dim": 1})


def test_sectoral_harmonic_is_harmonic():
    h = SectoralHarmonic(4)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((30, 2))
    lap = np.einsum("ijj->i", harmonic_hess(h, x))
    assert np.max(np.abs(lap)) < 1e-12


_HARMONICS = [(2, SectoralHarmonic(2)), (2, SectoralHarmonic(3)),
              (3, SectoralHarmonic(2)), (3, ProductHarmonic())]
_HARMONIC_IDS = ["sectoral2-2d", "sectoral3-2d", "sectoral2-3d",
                 "product-3d"]


@pytest.mark.parametrize("m", [1, 64, 2048])
@pytest.mark.parametrize("d, harmonic", _HARMONICS, ids=_HARMONIC_IDS)
def test_hess_apply_is_the_hessian_contraction(d, harmonic, m):
    # the closed form adds the same products in the same order as the
    # contraction of the d x d Hessian, so it is bit for bit the same
    rng = np.random.default_rng(31 + m)
    x = rng.standard_normal((m, d))
    t = rng.standard_normal((d - 1, m, d))
    assert np.array_equal(
        harmonic.hess_apply(x, t),
        np.einsum("mde,ime->imd", harmonic_hess(harmonic, x), t))


@pytest.mark.parametrize("d, harmonic", _HARMONICS, ids=_HARMONIC_IDS)
def test_perturbed_tangent_form_is_the_hessian_formula(d, harmonic):
    # bit for bit the formula through the d x d harmonic Hessian
    norm = PerturbedNorm(d, 0.07, harmonic)
    rng = np.random.default_rng(32)
    nu = rng.standard_normal((500, d))
    nu /= np.linalg.norm(nu, axis=1, keepdims=True)
    t = np.einsum("imj,jmd->imd", rng.standard_normal((d - 1, 500, d - 1)),
                  _tangent_frame(nu))
    k = harmonic.degree
    f = norm._value_batch(nu)
    ht = np.einsum("mde,ime->imd", harmonic_hess(harmonic, nu), t)
    c = np.einsum("imd,jmd->ijm", t, t)
    c *= k - (k - 1) * f
    c += norm.eps * np.einsum("imd,jmd->ijm", t, ht)
    f_new, c_new = norm.tangent_form(nu, t)
    assert np.array_equal(f_new, f) and np.array_equal(c_new, c)


@pytest.fixture(scope="module")
def near_limit2():
    # sectoral degree 3 stays convex for eps < 1/8
    norm = PerturbedNorm(2, 0.124)
    assert norm.convexity_margin < 0.01
    return norm


def _dense_directions(d):
    # much finer than the norms' own scans (512 angles, res-24 sphere grid)
    if d == 2:
        t = np.linspace(0.0, 2 * np.pi, 1 << 17, endpoint=False)
        return np.column_stack([np.cos(t), np.sin(t)])
    return make_grid(2, 160).nodes


@pytest.mark.parametrize("name", ["perturbed2", "perturbed3", "near_limit2"])
def test_perturbed_dual_beats_dense_scan(name, request):
    norm = request.getfixturevalue(name)
    d = norm.ambient_dim
    dirs = _dense_directions(d)
    inv_f = 1.0 / norm.value(dirs)
    x = np.random.default_rng(8).standard_normal((120, d))
    solved = norm.dual_value(x)
    for lo in range(0, len(x), 20):
        rows = slice(lo, lo + 20)
        brute = np.max((x[rows] @ dirs.T) * inv_f, axis=1)
        assert np.all(solved[rows] >= brute * (1.0 - 1e-14))


@pytest.mark.parametrize("name", ["perturbed2", "perturbed3", "near_limit2"])
def test_perturbed_dual_rows_are_independent(name, request):
    # each row iterates on its own, so batching does not change its answer
    norm = request.getfixturevalue(name)
    x = np.random.default_rng(12).standard_normal((500, norm.ambient_dim))
    batch = norm.dual_value(x)
    single = np.array([norm.dual_value(row) for row in x])
    assert np.max(np.abs(batch - single) / batch) <= 1e-15


@pytest.mark.parametrize("name", ["euclid2", "euclid3", "ellipse2", "ellipse3",
                                  "tilted2", "tilted3", "perturbed2",
                                  "perturbed3", "near_limit2"])
def test_dual_is_the_ray_exit_from_the_origin(name, request):
    # the Wulff radius along theta is where the ray from the origin leaves
    # W, and DF0 there is the dual gradient.  The base class reads the dual
    # off that exit, and the quadric families override it with closed
    # forms: at grid nodes and at random points, every family's dual agrees
    # with the base route and with the exit to roundoff
    norm = request.getfixturevalue(name)
    d = norm.ambient_dim
    rng = np.random.default_rng(21)
    theta = rng.standard_normal((300, d))
    theta /= np.linalg.norm(theta, axis=1, keepdims=True)
    theta = np.concatenate([make_grid(d - 1, 64 if d == 2 else 16).nodes,
                            theta])
    x = theta * rng.uniform(0.5, 2.0, size=len(theta))[:, None]
    s, g = norm.exit_distance(theta, np.zeros(d), 1.0)
    rho = norm.wulff_radius(theta)
    assert np.max(np.abs(s - rho) / rho) <= 1e-14
    for grad, base in ((norm.dual_grad(theta), g),
                       (norm.dual_grad(x), MinkowskiNorm.dual_grad(norm, x))):
        assert np.max(np.linalg.norm(grad - base, axis=1)
                      / np.linalg.norm(base, axis=1)) <= 1e-14
    value, base = norm.dual_value(x), MinkowskiNorm.dual_value(norm, x)
    assert np.max(np.abs(value - base) / base) <= 1e-14


@pytest.mark.parametrize("name", ["perturbed2", "perturbed3", "near_limit2"])
def test_perturbed_dual_scan_pass_matches_cold_dual(name, request,
                                                    monkeypatch):
    # with a one-step first pass no dual row passes the exit certificate:
    # every row takes the scan-seeded second pass once and lands on the
    # answer of the full first pass
    norm = request.getfixturevalue(name)
    x = np.random.default_rng(22).standard_normal((200, norm.ambient_dim))
    cold = norm.dual_grad(x)
    passes = []
    solve = norm._boundary_newton

    def recording(dirs, offset, scale, s, nu, maxit):
        passes.append((len(dirs), maxit))
        return solve(dirs, offset, scale, s, nu, maxit)

    monkeypatch.setattr(norm, "_boundary_newton", recording)
    monkeypatch.setattr(minkowski, "_FIRST_MAXIT", 1)
    scanned = norm.dual_grad(x)
    assert passes == [(200, 1), (200, _SCAN_MAXIT)]
    err = np.linalg.norm(scanned - cold, axis=1) / np.linalg.norm(cold, axis=1)
    assert np.max(err) <= 1e-13


@pytest.mark.parametrize("name", ["perturbed2", "perturbed3", "near_limit2"])
def test_perturbed_convexity_margin_matches_full_hessian(name, request):
    # the margin, read off the tangent form in the frame (nu, B), is the
    # least eigenvalue of D^2(F^2/2) = F D^2F + DF DF^T on the scan
    norm = request.getfixturevalue(name)
    nu = norm._scan_dirs
    g = norm.grad(nu)
    m = (norm.value(nu)[:, None, None] * full_hess(norm, nu)
         + g[:, :, None] * g[:, None, :])
    assert abs(norm.convexity_margin - np.min(np.linalg.eigvalsh(m))) <= 1e-12


@pytest.mark.parametrize("d, harmonic", [
    (2, SectoralHarmonic(2)), (2, SectoralHarmonic(3)),
    (3, SectoralHarmonic(2)), (3, SectoralHarmonic(3)),
    (3, ProductHarmonic()),
], ids=["sectoral2-2d", "sectoral3-2d", "sectoral2-3d", "sectoral3-3d",
        "product-3d"])
def test_tangent_hess_matches_full_hessian(d, harmonic):
    # the dual Newton's tangent block B^T D^2F B, the tangent form on its
    # orthonormal frame, equals the projection of the full Hessian at unit y
    norm = PerturbedNorm(d, 0.05, harmonic)
    y = np.random.default_rng(13).standard_normal((200, d))
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    frame = _tangent_frame(y)
    b = np.stack(frame, axis=-1)
    full = np.swapaxes(b, 1, 2) @ full_hess(norm, y) @ b
    f, block = norm.tangent_form(y, frame)
    assert np.max(np.abs(np.moveaxis(block, -1, 0) - full)) <= 1e-13
    assert np.array_equal(f, norm._value_batch(y))


@pytest.mark.parametrize("name", ["euclid2", "tilted2", "perturbed2",
                                  "euclid3", "tilted3", "perturbed3"])
def test_tangent_form_matches_full_hessian(name, request):
    # at unit nu and tangents of any length and angle, t_i . nu = 0, the
    # closed form is t_i . D^2F(nu) t_j, relative to |t_i| |t_j| max|D^2F|;
    # the tangents are combinations of an orthonormal frame, which keeps
    # t_i . nu at roundoff relative to |t_i| (a projection does not)
    norm = request.getfixturevalue(name)
    d = norm.ambient_dim
    rng = np.random.default_rng(14 + d)
    nu = rng.standard_normal((300, d))
    nu /= np.linalg.norm(nu, axis=1, keepdims=True)
    coef = rng.standard_normal((d - 1, 300, d - 1)) * np.exp(
        rng.uniform(-2.0, 2.0, (d - 1, 300, 1)))
    t = np.einsum("imj,jmd->imd", coef, _tangent_frame(nu))
    f, c = norm.tangent_form(nu, t)
    hess = full_hess(norm, nu)
    full = np.einsum("imd,mde,jme->ijm", t, hess, t)
    size = np.linalg.norm(t, axis=2)
    scale = size[:, None] * size[None] * np.max(np.abs(hess), axis=(1, 2))
    assert c.shape == (d - 1, d - 1, 300)
    assert np.max(np.abs(c - full) / scale) <= 1e-14
    assert np.array_equal(f, norm.value(nu))


@pytest.mark.parametrize("name", ["euclid2", "tilted2", "perturbed2",
                                  "euclid3", "tilted3", "perturbed3"])
def test_tangent_form_layout_is_not_semantics(name, request):
    # the same rows and tangents, stored row-major and node-contiguous,
    # give the same form up to the summation order of the products
    norm = request.getfixturevalue(name)
    d = norm.ambient_dim
    rng = np.random.default_rng(21 + d)
    nu = rng.standard_normal((300, d))
    nu /= np.linalg.norm(nu, axis=1, keepdims=True)
    coef = rng.standard_normal((d - 1, 300, d - 1))
    t = np.einsum("imj,jmd->imd", coef, _tangent_frame(nu))
    f_rows, c_rows = norm.tangent_form(np.ascontiguousarray(nu),
                                       np.ascontiguousarray(t))
    f_nodes, c_nodes = norm.tangent_form(
        np.ascontiguousarray(nu.T).T,
        np.ascontiguousarray(t.transpose(0, 2, 1)).transpose(0, 2, 1))
    assert np.max(np.abs(f_rows - f_nodes)) <= 1e-15 * np.max(np.abs(f_rows))
    assert np.max(np.abs(c_rows - c_nodes)) <= 1e-15 * np.max(np.abs(c_rows))
