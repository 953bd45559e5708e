import copy
from dataclasses import fields

import numpy as np
import pytest

from wulff_lab import (
    GeometryCache,
    StarSurface,
    aniso_perimeter,
    flux_volume,
    fourier_surface,
    geometry,
    make_grid,
    make_wulff,
    q_functional,
    sphere_surface,
    surface_from_spec,
    volume,
    weighted_momentum,
    wulff_q_value,
    wulff_surface,
)

from reference import full_hess, metric_geometry


def test_star_surface_validation(grid256):
    with pytest.raises(ValueError, match="positive"):
        StarSurface(grid256, np.full(256, -1.0))
    with pytest.raises(ValueError, match="does not match"):
        StarSurface(grid256, np.ones(100))
    with pytest.raises(ValueError, match="center"):
        StarSurface(grid256, np.ones(256), np.zeros(3))


def test_unit_circle_geometry(grid256, euclid2):
    s = sphere_surface(grid256)
    cache = geometry(s, euclid2)
    assert np.max(np.linalg.norm(cache.normal - grid256.nodes, axis=1)) < 1e-13
    assert np.max(np.abs(cache.aniso_mean_curv - 1.0)) < 1e-12


def test_mean_curvature_on_scaled_wulff(grid512, ellipse2):
    # anisotropic mean curvature is n/a on the rescaled unit dual ball
    for a in (0.5, 1.0, 3.0):
        s = wulff_surface(ellipse2, grid512, a)
        cache = geometry(s, ellipse2)
        assert np.max(np.abs(cache.aniso_mean_curv - 1.0 / a)) < 1e-4


def test_mean_curvature_on_perturbed_wulff(perturbed2):
    g = make_grid(1, 1024)
    cache = geometry(wulff_surface(perturbed2, g), perturbed2)
    assert np.max(np.abs(cache.aniso_mean_curv - 1.0)) < 1e-6


def test_mean_curvature_on_wulff_sphere(ellipse3):
    g = make_grid(2, 48)
    for a in (0.5, 2.0):
        cache = geometry(wulff_surface(ellipse3, g, a), ellipse3)
        assert np.max(np.abs(cache.aniso_mean_curv - 2.0 / a)) < 1e-4


def test_curve_curvature_closed_form(grid512, euclid2):
    # oracle: kappa = (r^2 + 2 r'^2 - r r'') / (r^2 + r'^2)^(3/2)
    t = grid512.angles
    r = 1.0 + 0.3 * np.cos(t)
    rp = -0.3 * np.sin(t)
    rpp = -0.3 * np.cos(t)
    kappa = (r ** 2 + 2 * rp ** 2 - r * rpp) / (r ** 2 + rp ** 2) ** 1.5
    s = StarSurface(grid512, r)
    cache = geometry(s, euclid2)
    assert np.max(np.abs(cache.aniso_mean_curv - kappa)) < 1e-6


def test_normal_matches_embedding_normal(grid512, grid2_32, euclid2, euclid3):
    # curve: rotate the tangent; surface: cross product of chart tangents
    s = fourier_surface(grid512, 1.0, [{"k": 2, "delta": 0.2}])
    cache = geometry(s, euclid2)
    (rt,), _ = grid512.frame_derivatives(s.r)
    tangent = rt[:, None] * grid512.nodes + s.r[:, None] * grid512.frame[0]
    rot = np.column_stack([tangent[:, 1], -tangent[:, 0]])
    rot /= np.linalg.norm(rot, axis=1, keepdims=True)
    assert np.max(np.linalg.norm(cache.normal - rot, axis=1)) < 1e-10

    s2 = fourier_surface(grid2_32, 1.0, [{"kind": "product", "delta": 0.15}])
    cache2 = geometry(s2, euclid3)
    # the frame's second component is r_p / sin, so t2 is the longitude
    # tangent over sin > 0, which leaves the normalized cross product as it is
    (r_t, r_p), _ = grid2_32.frame_derivatives(s2.r)
    t1 = r_t[:, None] * grid2_32.nodes + s2.r[:, None] * grid2_32.frame[0]
    t2 = r_p[:, None] * grid2_32.nodes + s2.r[:, None] * grid2_32.frame[1]
    cr = np.cross(t1, t2)
    cr /= np.linalg.norm(cr, axis=1, keepdims=True)
    assert np.max(np.linalg.norm(cache2.normal - cr, axis=1)) < 1e-10


def test_euler_relation(grid256, perturbed2):
    s = fourier_surface(grid256, 1.0, [{"k": 3, "delta": 0.1}])
    cache = geometry(s, perturbed2)
    resid = (np.einsum("ij,ij->i", perturbed2.grad(cache.normal), cache.normal)
             - cache.f_normal)
    assert np.max(np.abs(resid)) < 1e-13


def _asymmetric_surface(grid):
    if grid.dim == 1:
        return fourier_surface(grid, 1.0, [
            {"k": 2, "delta": 0.08, "phase": 0.4},
            {"k": 3, "delta": 0.05, "phase": 1.3}])
    return fourier_surface(grid, 1.0, [
        {"kind": "product", "delta": 0.08},
        {"kind": "zonal", "k": 3, "delta": 0.05},
        {"kind": "sectoral", "k": 2, "delta": 0.04}])


_NONSYMMETRIC_CASES = [("grid256", "perturbed2"), ("grid256", "tilted2"),
                       ("grid2_32", "perturbed3"), ("grid2_32", "tilted3")]


@pytest.mark.parametrize("grid_name, norm_name", _NONSYMMETRIC_CASES)
def test_mean_curvature_is_first_variation_of_perimeter(request, grid_name,
                                                         norm_name):
    # oracle: d/de per_F(r + e phi) = int H_F * phi * (theta . nu) dmu,
    # with theta . nu = r / |(r, grad r)| the normal speed of a radial push
    grid = request.getfixturevalue(grid_name)
    norm = request.getfixturevalue(norm_name)
    s = _asymmetric_surface(grid)
    x = grid.nodes
    phi = 1.0 + 0.4 * x[:, 0] - 0.3 * x[:, 0] * x[:, 1] + 0.2 * x[:, -1] ** 2
    cache = geometry(s, norm)
    grad = grid.gradient(s.r)
    sq = np.sqrt(s.r ** 2 + np.einsum("ij,ij->i", grad, grad))
    predicted = np.sum(cache.aniso_mean_curv * phi * s.r / sq * cache.area_w)
    eps = 1e-4
    fd = (aniso_perimeter(StarSurface(grid, s.r + eps * phi), norm)
          - aniso_perimeter(StarSurface(grid, s.r - eps * phi), norm)) / (2 * eps)
    assert fd == pytest.approx(predicted, rel=1e-6)


@pytest.mark.parametrize("grid_name, norm_name",
                         _NONSYMMETRIC_CASES + [("grid2_32", "euclid3")])
def test_norm_hess_max_is_top_hessian_eigenvalue(request, grid_name,
                                                 norm_name):
    # D^2F(nu) nu = 0, so the top tangential eigenvalue is the top eigenvalue
    # of the full Hessian; euclid3 has two equal tangential eigenvalues
    grid = request.getfixturevalue(grid_name)
    norm = request.getfixturevalue(norm_name)
    cache = geometry(_asymmetric_surface(grid), norm)
    top = np.linalg.eigvalsh(full_hess(norm, cache.normal))[:, -1]
    np.testing.assert_allclose(cache.norm_hess_max, top, rtol=1e-12)


_METRIC_CASES = ([(1, res, name) for res in (64, 512)
                  for name in ("euclid2", "ellipse2", "perturbed2")]
                 + [(2, res, name) for res in (16, 32)
                    for name in ("euclid3", "ellipse3", "tilted3",
                                 "perturbed3")])


@pytest.mark.parametrize("dim, res, norm_name", _METRIC_CASES)
def test_geometry_matches_metric_formula(request, dim, res, norm_name):
    # oracle: H_F = tr(g^-1 C g^-1 b) and the top eigenvalue of g^-1 C
    # through the chart tangents and the inverse metric, which `geometry`
    # never forms; the area factor against the ambient gradient
    grid = make_grid(dim, res)
    norm = request.getfixturevalue(norm_name)
    s = _asymmetric_surface(grid)
    s = StarSurface(grid, s.r, 0.1 * np.arange(1.0, dim + 2.0))
    cache = geometry(s, norm)
    hf, hess_max = metric_geometry(s, norm)
    np.testing.assert_allclose(cache.aniso_mean_curv, hf, rtol=1e-13, atol=0)
    np.testing.assert_allclose(cache.norm_hess_max, hess_max, rtol=1e-13,
                               atol=0)
    grad = grid.gradient(s.r)
    np.testing.assert_allclose(
        cache.sq, np.sqrt(s.r ** 2 + np.einsum("ij,ij->i", grad, grad)),
        rtol=1e-14, atol=0)


@pytest.mark.parametrize("dim, norm_name", [
    (1, "euclid2"), (1, "tilted2"), (1, "perturbed2"),
    (2, "euclid3"), (2, "tilted3"), (2, "perturbed3")])
def test_geometry_layout_is_not_semantics(request, dim, norm_name):
    # a grid whose nodes and frame are stored row-major gives the same
    # geometry as the node-contiguous grid, up to the summation order of
    # the per-node products; the normal's layout is pinned
    grid = make_grid(dim, 64 if dim == 1 else 16)
    rows = copy.copy(grid)
    rows.nodes = np.ascontiguousarray(grid.nodes)
    rows.frame = np.ascontiguousarray(grid.frame)
    norm = request.getfixturevalue(norm_name)
    s = _asymmetric_surface(grid)
    cache = geometry(s, norm)
    other = geometry(StarSurface(rows, s.r, s.center), norm)
    for f in fields(GeometryCache):
        a, b = getattr(cache, f.name), getattr(other, f.name)
        assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(a)), f.name
    assert cache.normal.T.flags.c_contiguous


def test_volume_examples(grid512, grid2_32, ellipse2):
    assert volume(sphere_surface(grid512)) == pytest.approx(np.pi, abs=1e-12)
    assert volume(sphere_surface(grid2_32, 2.0)) == pytest.approx(
        32 * np.pi / 3, abs=1e-10)
    assert volume(wulff_surface(ellipse2, grid512)) == pytest.approx(
        2 * np.pi, abs=1e-8)


def test_flux_volume_about_shifted_point(grid512, euclid2):
    s = fourier_surface(grid512, 1.0, [{"k": 2, "delta": 0.25}])
    cache = geometry(s, euclid2)
    v = volume(s)
    assert flux_volume(s, cache) == pytest.approx(v, rel=1e-12)
    assert flux_volume(s, cache, about=np.array([0.4, -0.2])) == pytest.approx(
        v, rel=1e-10)


def test_aniso_perimeter_examples(grid512, euclid2, ellipse2, perturbed2):
    assert aniso_perimeter(sphere_surface(grid512), euclid2) == pytest.approx(
        2 * np.pi, abs=1e-10)
    # Wulff perimeter equals (n+1) * enclosed volume, all families
    for norm in (euclid2, ellipse2, perturbed2):
        w = make_wulff(norm, grid512)
        per = aniso_perimeter(wulff_surface(norm, grid512), norm)
        assert per == pytest.approx(2.0 * w.volume, rel=1e-9)


def test_aniso_perimeter_brute_quadrature(grid512, ellipse2):
    # unit circle under the ellipse norm: integral of F(theta) over angles
    t = np.linspace(0.0, 2 * np.pi, 1_000_001)
    vals = np.sqrt(4 * np.cos(t) ** 2 + np.sin(t) ** 2)
    brute = np.trapezoid(vals, t)
    per = aniso_perimeter(sphere_surface(grid512), ellipse2)
    assert per == pytest.approx(brute, rel=1e-10)


def test_weighted_momentum_examples(grid512, euclid2, ellipse2):
    circle = sphere_surface(grid512)
    for p in (1.0, 2.0):
        assert weighted_momentum(circle, euclid2, np.zeros(2), p) == \
            pytest.approx(2 * np.pi, abs=1e-10)
    w = make_wulff(ellipse2, grid512)
    mom = weighted_momentum(wulff_surface(ellipse2, grid512), ellipse2,
                            np.zeros(2), 1.0)
    assert mom == pytest.approx(2.0 * w.volume, rel=1e-9)
    with pytest.raises(ValueError, match=">= 1"):
        weighted_momentum(circle, euclid2, np.zeros(2), 0.5)


def test_q_functional_circle(grid512, euclid2):
    circle = sphere_surface(grid512)
    # closed form: (2 pi)^(-2) (2 pi - pi)
    assert q_functional(circle, euclid2) == pytest.approx(1 / (4 * np.pi),
                                                          abs=1e-12)
    scaled = circle.scaled(3.0)
    assert q_functional(scaled, euclid2) == pytest.approx(1 / (4 * np.pi),
                                                          abs=1e-10)


def test_q_on_wulff_matches_formula(grid512, grid2_32, euclid2, ellipse2,
                                    perturbed2, ellipse3):
    for norm, grid in ((euclid2, grid512), (ellipse2, grid512),
                       (perturbed2, grid512), (ellipse3, grid2_32)):
        w = make_wulff(norm, grid)
        q = q_functional(wulff_surface(norm, grid), norm)
        assert q == pytest.approx(wulff_q_value(w.volume, n=grid.dim),
                                  rel=1e-8)


def test_isoperimetric_sanity_random_surfaces(grid256, euclid2, ellipse2):
    # momentum about any point dominates (n+1) Vol, star-shaped or not convex
    rng = np.random.default_rng(12)
    for _ in range(25):
        harmonics = [{"k": k, "delta": 0.4 * rng.uniform(-1, 1) / k}
                     for k in range(1, 5)]
        try:
            s = fourier_surface(grid256, 1.0, harmonics)
        except ValueError:
            continue
        p = rng.uniform(-0.3, 0.3, 2)
        for norm in (euclid2, ellipse2):
            mom = weighted_momentum(s, norm, p, 1.0)
            assert mom >= (grid256.dim + 1) * volume(s) - 1e-10


def test_functional_convergence_ellipse(ellipse2):
    # closed forms: area 2 pi, perimeter (n+1) * area
    errs = []
    for res in (32, 64, 128):
        g = make_grid(1, res)
        s = wulff_surface(ellipse2, g)
        errs.append(abs(volume(s) - 2 * np.pi)
                    + abs(aniso_perimeter(s, ellipse2) - 4 * np.pi))
    assert errs[1] < errs[0]
    assert errs[2] < 1e-10


def test_equality_case_deficit_zero(grid512, ellipse2):
    # scaled translated dual balls achieve the sharp value of Q
    rng = np.random.default_rng(13)
    for a in (0.5, 1.0, 3.0):
        p = rng.uniform(-0.4, 0.4, 2) * a
        s = wulff_surface(ellipse2, grid512, a, p)
        w = make_wulff(ellipse2, grid512)
        q = q_functional(s, ellipse2, p)
        assert abs(q - wulff_q_value(w.volume, n=1)) < 1e-8


def test_surface_from_spec(grid256, euclid2):
    s = surface_from_spec({"kind": "sphere", "radius": 2.0}, grid256)
    assert volume(s) == pytest.approx(4 * np.pi, abs=1e-10)
    s = surface_from_spec({"kind": "wulff", "scale": 1.5}, grid256, euclid2)
    np.testing.assert_allclose(s.r, 1.5)
    s = surface_from_spec(
        {"kind": "radial-fourier", "r0": 1.0,
         "harmonics": [{"k": 1, "delta": 0.3}], "center": [0.1, 0.2]},
        grid256)
    np.testing.assert_allclose(s.r, 1.0 + 0.3 * np.cos(grid256.angles))
    np.testing.assert_allclose(s.center, [0.1, 0.2])
    with pytest.raises(ValueError, match="unknown surface kind"):
        surface_from_spec({"kind": "torus"}, grid256)
    with pytest.raises(ValueError, match="need a norm"):
        surface_from_spec({"kind": "wulff"}, grid256)


def test_geometry_dimension_mismatch(grid256, euclid3):
    with pytest.raises(ValueError, match="do not match"):
        geometry(sphere_surface(grid256), euclid3)


def test_zonal_harmonic_rejects_negative_degree():
    grid = make_grid(2, 8)
    with pytest.raises(ValueError, match="zonal harmonic degree"):
        fourier_surface(grid, 1.0, [{"kind": "zonal", "k": -1, "delta": 0.1}])


def test_harmonic_keys_per_dimension(grid256):
    # `degree` is another name for `k` on the circle; a key the dimension's
    # harmonics do not take is an error, not silently ignored
    s = fourier_surface(grid256, 1.0, [{"degree": 3, "delta": 0.05}])
    np.testing.assert_allclose(s.r, 1.0 + 0.05 * np.cos(3 * grid256.angles))
    with pytest.raises(ValueError, match="'kind' is not a key of a dim-1"):
        fourier_surface(grid256, 1.0, [{"kind": "zonal", "k": 2}])
    with pytest.raises(ValueError, match="'phase' is not a key of a dim-2"):
        fourier_surface(make_grid(2, 8), 1.0,
                        [{"kind": "zonal", "k": 2, "phase": 0.5}])
    with pytest.raises(ValueError, match="'degree' is another name for 'k'"):
        fourier_surface(grid256, 1.0, [{"k": 2, "degree": 3, "delta": 0.05}])
    with pytest.raises(ValueError, match="product harmonic has degree 3"):
        fourier_surface(make_grid(2, 8), 1.0,
                        [{"kind": "product", "k": 5, "delta": 0.1}])
