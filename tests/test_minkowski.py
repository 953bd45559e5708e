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
from wulff_lab.minkowski import _tangent_frame


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


def test_ellipsoid_values(ellipse2):
    # F = sqrt(4 x1^2 + x2^2), differentiated by hand
    assert ellipse2.value([1.0, 0.0]) == pytest.approx(2.0)
    np.testing.assert_allclose(ellipse2.grad([1.0, 0.0]), [2.0, 0.0])
    assert ellipse2.dual_value([0.0, 1.0]) == pytest.approx(1.0)
    x = np.array([0.7, -1.3])
    np.testing.assert_allclose(ellipse2.grad(x),
                               _fd_grad(ellipse2.value, x), atol=1e-7)


def test_ellipsoid_validation():
    with pytest.raises(ValueError, match="symmetric"):
        EllipsoidNorm([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match="positive definite"):
        EllipsoidNorm([[1.0, 0.0], [0.0, -2.0]])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="matrix must be finite"):
            norm_from_spec({"family": "ellipsoid",
                            "matrix": [[1.0, bad], [bad, 1.0]]})


def test_hessian_annihilates_argument(euclid2, ellipse2, perturbed2):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((50, 2)) + 0.1
    for norm in (euclid2, ellipse2, perturbed2):
        hx = np.einsum("ijk,ik->ij", norm.hess(x), x)
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


def test_sectoral_harmonic_is_harmonic():
    h = SectoralHarmonic(4)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((30, 2))
    lap = np.einsum("ijj->i", h.hess(x))
    assert np.max(np.abs(lap)) < 1e-12


@pytest.mark.parametrize("name", ["perturbed2", "perturbed3"])
def test_perturbed_dual_grad_warm_start(name, request):
    # a start only seeds the Newton solve: exact, nearby and antipodal
    # starts all give the cold answer; the antipodal one lies near the
    # minimizer of x.y/F(y), fails the x.y > 0 certificate and is solved
    # again from the grid scan's seed
    norm = request.getfixturevalue(name)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((200, norm.ambient_dim))
    cold = norm.dual_grad(x)
    noise = 0.05 * rng.standard_normal(cold.shape)
    for start in (cold, cold + noise, -cold):
        warm = norm.dual_grad(x, start=start)
        err = np.linalg.norm(warm - cold, axis=1) / np.linalg.norm(cold, axis=1)
        assert np.max(err) <= 1e-13
    single = norm.dual_grad(x[0], start=-cold[0])
    assert np.linalg.norm(single - cold[0]) <= 1e-13 * np.linalg.norm(cold[0])


@pytest.mark.parametrize("name", ["euclid2", "euclid3", "ellipse2", "ellipse3"])
def test_closed_form_dual_grad_ignores_start(name, request):
    norm = request.getfixturevalue(name)
    x = np.random.default_rng(6).standard_normal((50, norm.ambient_dim))
    cold = norm.dual_grad(x)
    for start in (cold, -cold, x):
        assert np.array_equal(norm.dual_grad(x, start=start), cold)


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


@pytest.mark.parametrize("d, harmonic", [
    (2, SectoralHarmonic(2)), (2, SectoralHarmonic(3)),
    (3, SectoralHarmonic(2)), (3, SectoralHarmonic(3)),
    (3, ProductHarmonic()),
], ids=["sectoral2-2d", "sectoral3-2d", "sectoral2-3d", "sectoral3-3d",
        "product-3d"])
def test_tangent_hess_matches_full_hessian(d, harmonic):
    # the dual Newton's tangent block B^T D^2F B, formed without the terms
    # that carry y, equals the projection of the full Hessian at unit y
    norm = PerturbedNorm(d, 0.05, harmonic)
    y = np.random.default_rng(13).standard_normal((200, d))
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    frame = _tangent_frame(y)
    b = np.stack(frame, axis=-1)
    full = np.swapaxes(b, 1, 2) @ norm._hess_batch(y) @ b
    block = norm._tangent_hess(y, norm._value_batch(y), frame)
    assert np.max(np.abs(block - full)) <= 1e-13
