from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ellipe

from wulff_lab import (
    StarSurface,
    aniso_perimeter,
    asymmetry_index,
    deficit_pmomentum,
    deficit_thm11,
    fourier_surface,
    full_deficit_report,
    gap_integral,
    hausdorff_to_wulff,
    make_grid,
    make_wulff,
    moduli,
    norm_from_spec,
    pmomentum_chain,
    quantitative_wulff,
    sphere_surface,
    stability_sweep,
    volume,
    weighted_momentum,
    wulff_profile_about,
    wulff_q_value,
    wulff_surface,
)
from wulff_lab import EllipsoidNorm, MinkowskiNorm, PerturbedNorm, stability
from wulff_lab.stability import (
    _cloud_min_dists,
    _interp_radial,
    _symmetric_difference,
)

# the Newton ray solve, which the quadric norms override with a closed form
newton_exit = MinkowskiNorm.exit_distance


def test_deficit_zero_on_translated_wulff(grid512, ellipse2):
    p = np.array([0.3, 0.0])
    s = wulff_surface(ellipse2, grid512, 1.0, p)
    assert abs(deficit_thm11(s, ellipse2, p)) < 1e-8


def test_deficit_zero_on_origin_graph_of_translated_wulff(grid512, ellipse2):
    # harder variant: represent a*W + p as a radial graph about the origin
    p = np.array([0.25, -0.15])
    a = 1.7
    r = wulff_profile_about(ellipse2, grid512, a, p, np.zeros(2))
    s = StarSurface(grid512, r)
    assert abs(deficit_thm11(s, ellipse2, p)) < 1e-8
    assert abs(deficit_pmomentum(s, ellipse2, p, 2.0)) < 1e-8


def test_deficit_positive_and_matches_direct_quadrature(grid512, euclid2):
    # independent oracle: both sides of the sharp inequality by quadrature
    s = fourier_surface(grid512, 1.0, [{"k": 1, "delta": 0.2}])
    d = deficit_thm11(s, euclid2)
    assert d > 0.0
    w = make_wulff(euclid2, grid512)
    lhs = weighted_momentum(s, euclid2, np.zeros(2), 1.0)
    per = aniso_perimeter(s, euclid2)
    rhs = wulff_q_value(w.volume, n=1) * per ** 2 + volume(s)
    assert d == pytest.approx((lhs - rhs) / per ** 2, rel=1e-10)


def test_pmomentum_circle_p2_is_exact_zero(grid512, euclid2):
    # the circle is the euclidean unit dual ball: deficit 0 at p = 2
    assert abs(deficit_pmomentum(sphere_surface(grid512), euclid2,
                                 None, 2.0)) < 1e-12


def test_pmomentum_deficit_on_wulff(grid512, perturbed2):
    s = wulff_surface(perturbed2, grid512, 2.0)
    for p in (1.0, 2.0, 3.0):
        assert abs(deficit_pmomentum(s, perturbed2, None, p)) < 1e-8


def test_pmomentum_chain_ordering(grid512, euclid2):
    s = fourier_surface(grid512, 1.0, [{"k": 1, "delta": 0.2}])
    chain = pmomentum_chain(s, euclid2, None, 2.0)
    assert chain["deficit_p"] > 0.0
    assert chain["slack"] >= -1e-12
    # the Holder lower bound through eps1 is itself a valid lower bound
    assert chain["deficit_p"] >= chain["chain_lower_from_eps1"] - 1e-12


def test_pmomentum_requires_p_at_least_one(grid256, euclid2):
    with pytest.raises(ValueError, match=">= 1"):
        deficit_pmomentum(sphere_surface(grid256), euclid2, None, 0.7)


def test_asymmetry_zero_on_wulff(grid512, ellipse2):
    p0 = np.array([0.2, -0.1])
    res = asymmetry_index(wulff_surface(ellipse2, grid512, 1.3, p0), ellipse2)
    assert res.alpha < 1e-10
    np.testing.assert_allclose(res.center, p0, atol=1e-6)
    assert res.method == "radial"


def test_asymmetry_disk_under_ellipse_norm(grid512, ellipse2):
    # brute-force oracle: dense center grid, high-resolution quadrature
    disk = sphere_surface(grid512)
    res = asymmetry_index(disk, ellipse2)
    assert res.alpha > 0.1
    w = make_wulff(ellipse2, grid512)
    a = (volume(disk) / w.volume) ** 0.5
    best = np.inf
    for cx in np.linspace(-0.02, 0.02, 5):
        for cy in np.linspace(-0.02, 0.02, 5):
            r_w = wulff_profile_about(ellipse2, grid512, a,
                                      np.array([cx, cy]), np.zeros(2))
            sym = grid512.integrate(np.abs(disk.r ** 2 - r_w ** 2)) / 2.0
            best = min(best, sym / volume(disk))
    assert res.alpha == pytest.approx(best, abs=2e-4)


def test_asymmetry_recovers_translation(grid512, euclid2):
    # surface is a translated disk graphed about the origin
    p0 = np.array([0.3, 0.1])
    r = wulff_profile_about(euclid2, grid512, 1.0, p0, np.zeros(2))
    res = asymmetry_index(StarSurface(grid512, r), euclid2)
    assert res.alpha < 1e-8
    np.testing.assert_allclose(res.center, p0, atol=1e-5)


def test_hausdorff_on_scaled_wulff(grid512, ellipse2):
    h = hausdorff_to_wulff(wulff_surface(ellipse2, grid512, 3.0), ellipse2)
    assert h.a == pytest.approx(3.0, abs=1e-12)
    assert h.a_volume == pytest.approx(3.0, abs=1e-12)
    assert h.hausdorff < 1e-10
    assert h.sup_norm < 1e-12


def test_hausdorff_cosine_perturbation(grid512, euclid2):
    # mean of r over the circle is 1, max deviation is delta
    for delta in (0.05, 0.1):
        s = fourier_surface(grid512, 1.0, [{"k": 1, "delta": delta}])
        h = hausdorff_to_wulff(s, euclid2)
        assert h.a == pytest.approx(1.0, abs=1e-12)
        assert h.sup_norm == pytest.approx(delta, abs=1e-12)
        assert h.hausdorff <= h.sup_norm + 1e-12


def test_hausdorff_ellipse_against_circle_fit(grid512, ellipse2, euclid2):
    # oracle: distance from an origin-centered circle of radius a to the
    # ellipse is max(2 - a, a - 1) (extremes of |x| on the ellipse)
    s = wulff_surface(ellipse2, grid512)
    h = hausdorff_to_wulff(s, euclid2)
    exact = max(2.0 - h.a, h.a - 1.0)
    assert h.hausdorff == pytest.approx(exact, abs=1e-10)


@pytest.mark.parametrize("res, rel", [(16, 1.5e-2), (32, 4e-3)])
def test_hausdorff_ellipsoid_against_sphere_fit(res, rel, ellipse3, euclid3):
    # oracle: distance from an origin-centered sphere of radius a to the
    # ellipsoid with semi-axes (2, 1.5, 1) is max(2 - a, a - 1); the nodal
    # radial gap misses it by 4.4e-2 / 1.2e-2 at these resolutions
    s = wulff_surface(ellipse3, make_grid(2, res))
    h = hausdorff_to_wulff(s, euclid3)
    exact = max(2.0 - h.a, h.a - 1.0)
    assert h.hausdorff == pytest.approx(exact, rel=rel)


_HAUSDORFF_SURFACES = {
    1: [{"k": 2, "delta": 0.1}, {"k": 3, "delta": 0.05, "phase": 0.4}],
    2: [{"kind": "zonal", "k": 2, "delta": 0.1},
        {"kind": "sectoral", "k": 3, "delta": 0.05}],
}


def _hausdorff_norm(family, dim):
    if family == "ellipsoid":
        return EllipsoidNorm(np.diag([4.0, 2.25, 1.0][-dim - 1:]))
    return PerturbedNorm(dim + 1, 0.1)


@pytest.mark.parametrize("dim, res", [(1, 64), (1, 128), (2, 16), (2, 32)])
@pytest.mark.parametrize("family", ["ellipsoid", "perturbed"])
def test_hausdorff_within_radial_gap(dim, res, family):
    # a sample's partner along its own direction lies within the radial
    # gap, so the distance never exceeds the gap read on the same samples
    norm = _hausdorff_norm(family, dim)
    grid = make_grid(dim, res)
    c = np.full(dim + 1, 0.2)
    for s in (fourier_surface(grid, 1.0, _HAUSDORFF_SURFACES[dim], c),
              # the Wulff shape graphed about a point off its center
              StarSurface(grid, wulff_profile_about(norm, grid, 1.0, c,
                                                    np.zeros(dim + 1)), -c)):
        h = hausdorff_to_wulff(s, norm)
        assert 0.0 < h.hausdorff <= h.sup_norm + 1e-12


@pytest.mark.parametrize("dim, res", [(1, 64), (2, 16)])
@pytest.mark.parametrize("family", ["ellipsoid", "perturbed"])
def test_hausdorff_of_translated_wulff_falls_with_resolution(dim, res, family):
    # what is left is the interpolation error of a Wulff radius whose
    # harmonic series does not end
    norm = _hausdorff_norm(family, dim)
    dist = []
    for grid in (make_grid(dim, res), make_grid(dim, 2 * res)):
        s = wulff_surface(norm, grid, 1.3, np.full(dim + 1, 0.2))
        h = hausdorff_to_wulff(s, norm)
        assert h.a == pytest.approx(1.3, abs=1e-12)
        dist.append(h.hausdorff)
    assert dist[0] < 2e-3
    assert dist[1] < dist[0] / 5.0


def test_gap_zero_on_wulff(grid512, perturbed2):
    gap = gap_integral(wulff_surface(perturbed2, grid512), perturbed2)
    assert abs(gap.gap) < 1e-9
    assert abs(gap.gap_normalized) < 1e-9


def test_gap_identity_and_ratio_bounds(grid512, euclid2):
    # surface and divergence forms agree; the gradient surrogate stays
    # comparable to the gap across the sweep
    ratios = []
    for delta in (0.05, 0.1, 0.2):
        s = fourier_surface(grid512, 1.0, [{"k": 2, "delta": delta}])
        gap = gap_integral(s, euclid2)
        assert gap.gap > 0.0
        assert gap.identity_residual < 1e-6
        ratios.append(gap.ratio)
    assert 0.2 < min(ratios) and max(ratios) < 1.0


def test_gap_identity_off_center(grid512, ellipse2):
    s = fourier_surface(grid512, 1.0, [{"k": 2, "delta": 0.1}])
    gap = gap_integral(s, ellipse2, np.array([0.2, -0.1]))
    assert gap.gap > 0.0
    assert gap.identity_residual < 1e-8


@pytest.mark.parametrize("q", [0.2, 0.7, 0.92])
def test_gap_divergence_form_closed_form_disk_and_ball(grid512, grid2_32,
                                                       euclid2, euclid3, q):
    # the volume side integrates 1/|x - P| exactly along the rays from P:
    # over the disk of radius R it is 4R E(d^2/R^2) (E the complete elliptic
    # integral of the second kind, parameter m = k^2), over the ball
    # 2 pi (R^2 - d^2/3), with d = |P|
    radius = 1.3
    d = q * radius
    p2 = d * np.array([np.cos(0.4), np.sin(0.4)])
    disk = gap_integral(sphere_surface(grid512, radius), euclid2, p2)
    exact = 2 * np.pi * radius - 4 * radius * ellipe(d * d / radius ** 2)
    assert disk.divergence_form == pytest.approx(exact, rel=1e-12)
    p3 = d * np.array([1.0, -2.0, 0.5]) / np.sqrt(5.25)
    ball = gap_integral(sphere_surface(grid2_32, radius), euclid3, p3)
    exact = 4 * np.pi * radius ** 2 - 4 * np.pi * (radius ** 2 - d * d / 3)
    assert ball.divergence_form == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("name", ["ellipse3", "perturbed3"])
def test_gap_identity_off_center_sphere(grid2_32, name, request):
    # the deficits workload's zonal surface, weighted about a point off its
    # star center: surface and divergence forms still agree
    norm = request.getfixturevalue(name)
    s = fourier_surface(grid2_32, 1.0, [{"kind": "zonal", "k": 2, "delta": 0.08},
                                        {"kind": "zonal", "k": 3, "delta": 0.045}])
    gap = gap_integral(s, norm, np.array([0.0, 0.0, 0.3]))
    assert gap.gap > 0.0
    assert gap.identity_residual < 1e-4


@pytest.mark.parametrize("res", [16, 32])
def test_regraph_radial_interpolates_a_few_times(res, ellipse3, monkeypatch):
    # the re-graph about an off-center weight center takes bracketed secant
    # steps on every ray: a handful of interpolations, each root on the
    # interpolated surface to roundoff
    grid = make_grid(2, res)
    s = fourier_surface(grid, 1.0, [{"kind": "zonal", "k": 2, "delta": 0.08},
                                    {"kind": "zonal", "k": 3, "delta": 0.045}])
    c = np.array([0.1, 0.0, 0.05])
    calls = []

    def counting(surface, dirs, *rest):
        calls.append(len(dirs))
        return _interp_radial(surface, dirs, *rest)

    monkeypatch.setattr(stability, "_interp_radial", counting)
    gap = gap_integral(s, ellipse3, c)
    assert len(calls) <= 16
    assert gap.identity_residual < (1e-6 if res == 16 else 1e-12)
    r_c = stability._regraph_radial(s, c)
    y = c[None, :] + r_c[:, None] * grid.nodes
    dist = np.linalg.norm(y, axis=1)
    assert np.max(np.abs(dist - _interp_radial(s, y / dist[:, None]))) <= 1e-14


@pytest.mark.parametrize("center", [[2.0, 0.0], [0.9, 0.0]],
                         ids=["outside", "outside-kernel"])
def test_gap_integral_rejects_center_not_star(grid256, euclid2, center):
    # r = 1 + 0.3 cos 3t is star-shaped about the origin but not about
    # (0.9, 0), which lies inside it
    s = fourier_surface(grid256, 1.0, [{"k": 3, "delta": 0.3}])
    with pytest.raises(ValueError, match="not star-shaped"):
        gap_integral(s, euclid2, np.array(center))


def test_quantitative_wulff_examples(grid512, euclid2):
    qw = quantitative_wulff(wulff_surface(euclid2, grid512), euclid2)
    assert abs(qw.alpha_sq) < 1e-15
    assert abs(qw.deficit) < 1e-12
    assert not qw.ratio_defined
    qw2 = quantitative_wulff(
        fourier_surface(grid512, 1.0, [{"k": 1, "delta": 0.1}]), euclid2)
    assert qw2.alpha_sq > 0.0
    assert qw2.deficit > 0.0
    assert np.isfinite(qw2.ratio)


def test_quantitative_wulff_sweep_monotone(grid512, euclid2):
    prev_a, prev_d = 0.0, 0.0
    for delta in (0.05, 0.1, 0.2):
        qw = quantitative_wulff(
            fourier_surface(grid512, 1.0, [{"k": 1, "delta": delta}]),
            euclid2)
        assert qw.alpha_sq > prev_a and qw.deficit > prev_d
        prev_a, prev_d = qw.alpha_sq, qw.deficit


def test_moduli_values():
    assert moduli(0.0, 1) == (0.0, 0.0)
    assert moduli(1.0, 1) == (2.0, 2.0)
    assert moduli(1.0, 2) == (2.0, 2.0)
    f1, f2 = moduli(1e-4, 1)
    assert f1 == pytest.approx(0.11, abs=1e-12)
    assert f2 == pytest.approx(1e-4 ** (1.0 / 6.0) + 0.01, abs=1e-12)
    assert f2 == pytest.approx(0.2254, abs=5e-5)
    with pytest.raises(ValueError, match="nonnegative"):
        moduli(-1.0, 1)


@settings(max_examples=50, deadline=None)
@given(s1=st.floats(0.0, 10.0), ds=st.floats(1e-6, 10.0),
       n=st.integers(1, 2))
def test_moduli_strictly_increasing(s1, ds, n):
    a = moduli(s1, n)
    b = moduli(s1 + ds, n)
    assert b[0] > a[0] and b[1] > a[1]


def test_stability_sweep_table(grid512, euclid2):
    rows = stability_sweep(
        {"deltas": [0.05, 0.1, 0.2, 0.4], "harmonics": [{"k": 1, "delta": 1.0}]},
        euclid2, grid512)
    eps = [r["eps1"] for r in rows]
    alpha = [r["alpha"] for r in rows]
    dist = [r["hausdorff"] for r in rows]
    assert all(np.diff(eps) > 0) and all(np.diff(alpha) > 0)
    assert all(np.diff(dist) > 0)
    for r in rows:
        assert not r["zero_over_zero"]
        assert np.isfinite(r["ratio_alpha_f1"]) and np.isfinite(r["ratio_dist_f2"])


def test_stability_sweep_ellipse_norm(grid512, ellipse2):
    rows = stability_sweep(
        {"deltas": [0.1, 0.2], "harmonics": [{"k": 1, "delta": 1.0}]},
        ellipse2, grid512)
    for r in rows:
        assert r["eps1"] > 0.0
        assert np.isfinite(r["ratio_alpha_f1"])
        assert np.isfinite(r["ratio_dist_f2"])
        assert not r["zero_over_zero"]


def test_stability_sweep_wulff_family_zero_convention(grid512, euclid2):
    rows = stability_sweep(
        {"deltas": [0.1, 0.2], "harmonics": [{"k": 1, "delta": 0.0}]},
        euclid2, grid512)
    for r in rows:
        assert r["zero_over_zero"]
        assert r["ratio_alpha_f1"] == 0.0
        assert r["ratio_dist_f2"] == 0.0


def test_equality_detection_from_small_deficit(grid512, ellipse2):
    # eps1 at roundoff implies the surface is a rescaled translated Wulff
    # shape: recover (a, P) and check the radial profiles coincide
    p0 = np.array([0.2, 0.1])
    a0 = 1.4
    r = wulff_profile_about(ellipse2, grid512, a0, p0, np.zeros(2))
    s = StarSurface(grid512, r)
    assert abs(deficit_thm11(s, ellipse2, p0)) < 1e-9
    res = asymmetry_index(s, ellipse2)
    fitted = wulff_profile_about(ellipse2, grid512, res.scale, res.center,
                                 np.zeros(2))
    assert np.max(np.abs(s.r - fitted)) < 1e-5


@pytest.mark.parametrize("name, dim, res, p0", [
    ("perturbed2", 1, 256, [0.2, -0.15]),
    ("perturbed3", 2, 16, [0.15, -0.1, 0.05]),
], ids=["perturbed2", "perturbed3"])
def test_wulff_profile_about_perturbed_off_center(name, dim, res, p0, request):
    # the re-graph solves F0(offset + s*theta) = scale along every node
    norm = request.getfixturevalue(name)
    grid = make_grid(dim, res)
    p0 = np.array(p0)
    scale = 1.3
    s = wulff_profile_about(norm, grid, scale, p0, np.zeros(dim + 1))
    x = -p0[None, :] + s[:, None] * grid.nodes
    assert np.max(np.abs(norm.dual_value(x) - scale)) <= 1e-12 * scale
    # a translated rescaled perturbed Wulff shape has zero asymmetry
    res = asymmetry_index(wulff_surface(norm, grid, scale, p0), norm)
    assert res.alpha <= 1e-6
    assert res.method == "radial"


def _brute_min_dists(pts_a, pts_b):
    d = np.linalg.norm(pts_a[:, None, :] - pts_b[None, :, :], axis=2)
    return d.min(axis=1)


@pytest.mark.parametrize("d", [2, 3])
def test_cloud_min_dists_matches_brute_force(d):
    rng = np.random.default_rng(10 + d)
    b = rng.standard_normal((300, d))
    clouds = [(rng.standard_normal((200, d)), b),
              # duplicated points give exact ties in both roles
              (np.concatenate([b[:50], b[:50]]), np.concatenate([b, b[:100]]))]
    for pts_a, pts_b in clouds:
        dist, idx = _cloud_min_dists(pts_a, pts_b)
        ref = _brute_min_dists(pts_a, pts_b)
        assert np.array_equal(dist, ref)
        assert np.array_equal(np.linalg.norm(pts_a - pts_b[idx], axis=1), ref)


def test_wulff_profile_about_rejects_outside_center(grid256, euclid2):
    # the graph center must lie strictly inside: outside the unit disk, and
    # exactly on its boundary (offsets whose F0 is 1 in floating point), the
    # call raises; just inside it does not
    for wulff_center in ([3.0, 0.0], [1.2, 0.0], [-1.0, 0.0], [0.0, 1.0],
                         [0.6, -0.8]):
        with pytest.raises(ValueError, match="outside"):
            wulff_profile_about(euclid2, grid256, 1.0, np.array(wulff_center),
                                np.zeros(2))
    s = wulff_profile_about(euclid2, grid256, 1.0, np.array([1.0 - 1e-9, 0.0]),
                            np.zeros(2))
    assert np.min(s) > 0.0


@pytest.mark.parametrize("name, dim", [
    ("euclid2", 1), ("ellipse2", 1), ("perturbed2", 1),
    ("euclid3", 2), ("ellipse3", 2), ("perturbed3", 2),
])
def test_inside_test_at_the_boundary(name, dim, request, monkeypatch):
    # the star center at F0(offset)/scale = 0.9995, 1 - 1e-9, 1 and 1.2 of
    # the body: the one-sided formula runs only strictly inside, and there it
    # equals the two-sided one; along the first axis the quadric bodies are
    # met exactly at F0 = 1, where the rays must see the center as outside
    norm = request.getfixturevalue(name)
    grid = make_grid(dim, 128 if dim == 1 else 16)
    kind = {} if dim == 1 else {"kind": "zonal"}
    surface = fourier_surface(grid, 1.0, [{**kind, "k": 2, "delta": 0.1}])
    scale = 1.0
    rng = np.random.default_rng(30 + dim)
    axis = np.eye(dim + 1)[0]
    quadric = name != f"perturbed{dim + 1}"

    def two_sided(*args, **kw):
        wulff_profile_about(*args, **kw)
        raise ValueError("forced through the two-sided formula")

    for u in (axis, rng.standard_normal(dim + 1)):
        for frac in (0.9995, 1.0 - 1e-9, 1.0, 1.2):
            offset = frac * scale * u / norm.dual_value(u)
            center = surface.center - offset
            try:
                wulff_profile_about(norm, grid, scale, center, surface.center)
                inside = True
            except ValueError as exc:
                assert "outside" in str(exc)
                inside = False
            if frac != 1.0:
                assert inside == (frac < 1.0)
            elif quadric and u is axis:
                assert not inside
            value = _symmetric_difference(surface, norm, scale, center)
            with monkeypatch.context() as m:
                m.setattr(stability, "wulff_profile_about", two_sided)
                forced = _symmetric_difference(surface, norm, scale, center)
            assert value > 0.0
            if inside:
                assert abs(value - forced) <= 1e-12 * value
            else:
                assert value == forced


def test_full_deficit_report(grid256, ellipse2):
    s = fourier_surface(grid256, 1.0, [{"k": 1, "delta": 0.15}])
    rep = full_deficit_report(s, ellipse2, p_exponents=(1.0, 2.0))
    d = asdict(rep)
    assert d["eps1"] > 0.0
    assert d["eps_p"]["2.0"] > -1e-10
    assert d["alpha"] > 0.0
    assert d["hausdorff"] > 0.0
    assert d["gap"] > 0.0
    assert d["f1_eps1"] > 0.0
    assert rep.asymmetry_method == "radial"


def _disk_lens(d):
    # area of the intersection of two unit disks at distance d
    if d >= 2.0:
        return 0.0
    return 2.0 * np.arccos(d / 2.0) - (d / 2.0) * np.sqrt(4.0 - d * d)


@pytest.mark.parametrize("d", [0.5, 1.05, 1.5, 2.5])
def test_symmetric_difference_two_disks(grid512, euclid2, d):
    # centers at 1.05 and beyond leave the unit disk: the ray integral then
    # needs the entry point s_in as well as the exit s_out
    value = _symmetric_difference(sphere_surface(grid512), euclid2, 1.0,
                                  np.array([d, 0.0]))
    exact = 2.0 * np.pi - 2.0 * _disk_lens(d)
    assert value == pytest.approx(exact, rel=1e-3)


def test_symmetric_difference_two_balls(grid2_32, euclid3):
    d = 1.05
    value = _symmetric_difference(sphere_surface(grid2_32), euclid3, 1.0,
                                  np.array([d, 0.0, 0.0]))
    lens = np.pi * (4.0 + d) * (2.0 - d) ** 2 / 12.0
    assert value == pytest.approx(8.0 * np.pi / 3.0 - 2.0 * lens, rel=1e-3)


def test_symmetric_difference_off_center_against_monte_carlo(grid512,
                                                             perturbed2):
    # independent reference: seeded sampling of a box holding both bodies,
    # with membership in Omega from the closed-form radial function
    s = StarSurface(grid512, 1.0 + 0.2 * np.cos(2.0 * grid512.angles))
    p, scale = np.array([1.1, 0.4]), 0.9
    assert perturbed2.dual_value(-p) > scale
    value = _symmetric_difference(s, perturbed2, scale, p)

    lo, hi = np.array([-1.3, -1.3]), np.array([2.3, 1.6])
    reach = scale * np.max(perturbed2.wulff_radius(grid512.nodes))
    assert np.all(lo < np.minimum(p - reach, -1.2))
    assert np.all(np.maximum(p + reach, 1.2) < hi)
    rng = np.random.default_rng(7)
    x = rng.uniform(lo, hi, size=(400_000, 2))
    t = np.arctan2(x[:, 1], x[:, 0])
    in_omega = np.linalg.norm(x, axis=1) <= 1.0 + 0.2 * np.cos(2.0 * t)
    in_wulff = perturbed2.dual_value(x - p) <= scale
    frac = np.mean(in_omega != in_wulff)
    box = float(np.prod(hi - lo))
    sigma = box * np.sqrt(frac * (1.0 - frac) / len(x))
    assert abs(value - box * frac) <= 4.0 * sigma


@pytest.mark.parametrize("threshold", [0.999, 1.0])
def test_symmetric_difference_continuous_across_switch(grid256, euclid2,
                                                       threshold):
    # r = 1 + 0.3 cos(theta) against the unit disk centered at (x, 0): the
    # s_in solve switches on, and s_in crosses 0, where C leaves the disk;
    # the value may not jump there, nor just inside it
    s = StarSurface(grid256, 1.0 + 0.3 * np.cos(grid256.angles))
    h = 1e-5

    def value(x):
        return _symmetric_difference(s, euclid2, 1.0, np.array([x, 0.0]))

    left, right = value(threshold - h), value(threshold + h)
    slope = max(abs(value(threshold - h) - value(threshold - 3 * h)),
                abs(value(threshold + 3 * h) - value(threshold + h))) / (2 * h)
    assert slope > 0.0
    assert abs(right - left) <= 1.5 * slope * 2 * h


def test_asymmetry_index_off_center_search_is_deterministic(grid512, euclid2,
                                                            monkeypatch):
    # a disk graphed about a point near its rim: Nelder-Mead probes centers
    # that leave the star center outside the translated disk
    p0 = np.array([0.96, 0.0])
    r = wulff_profile_about(euclid2, grid512, 1.0, p0, np.zeros(2))
    surface = StarSurface(grid512, r)
    probes = []

    def recording(surface, norm, scale, center, *rest, **kw):
        probes.append(euclid2.dual_value(-center) / scale)
        return _symmetric_difference(surface, norm, scale, center, *rest, **kw)

    monkeypatch.setattr(stability, "_symmetric_difference", recording)
    first = asymmetry_index(surface, euclid2)
    assert max(probes) >= 1.0
    second = asymmetry_index(surface, euclid2)
    assert first.alpha == second.alpha
    assert np.array_equal(first.center, second.center)
    assert first.alpha < 1e-8
    np.testing.assert_allclose(first.center, p0, atol=1e-5)
    assert first.method == "radial"


def _inside_offset(norm, rng, scale, frac):
    # a random offset at F0 = frac * scale
    u = rng.standard_normal(norm.ambient_dim)
    return frac * scale * u / norm.dual_value(u)


def _warm_starts(norm, dirs, prev, scale):
    # the Newton roots at `prev`, with rows of a miss (-inf) and rows whose
    # warm point lies far behind the offset, where the slope is negative
    s0, g0 = newton_exit(norm, dirs, prev, scale)
    assert np.all(np.isfinite(s0))
    s0, g0 = s0.copy(), g0.copy()
    s0[::5], g0[::5] = -np.inf, np.nan
    s0[2::5] = -10.0 * scale * np.max(norm.value(dirs))
    return s0, g0


@pytest.mark.parametrize("name, dim", [
    ("euclid2", 1), ("ellipse2", 1), ("perturbed2", 1),
    ("euclid3", 2), ("ellipse3", 2), ("perturbed3", 2),
])
def test_exit_distance_warm_start_matches_cold(name, dim, request):
    # a start may speed the Newton ray solve but never changes its roots
    norm = request.getfixturevalue(name)
    dirs = make_grid(dim, 64 if dim == 1 else 12).nodes
    rng = np.random.default_rng(dim)
    scale = 1.3
    tol = 1e-13 * scale
    for _ in range(3):
        prev = _inside_offset(norm, rng, scale, rng.uniform(0.0, 0.9))
        near = prev + 1e-3 * rng.standard_normal(dim + 1)
        jump = _inside_offset(norm, rng, scale, rng.uniform(0.0, 0.9))
        s0, g0 = _warm_starts(norm, dirs, prev, scale)
        for offset in (near, jump):
            cold, g_cold = newton_exit(norm, dirs, offset, scale)
            warm, g_warm = newton_exit(norm, dirs, offset, scale,
                                       start=(s0, g0))
            assert np.all(np.isfinite(warm))
            assert np.max(np.abs(warm - cold)) <= tol
            exact = norm.dual_grad(offset[None, :] + warm[:, None] * dirs)
            assert np.max(np.abs(g_warm - exact)) <= 1e-10
            assert np.max(np.abs(g_cold - exact)) <= 1e-10


@pytest.mark.parametrize("name, dim", [
    ("euclid2", 1), ("ellipse2", 1), ("tilted2", 1),
    ("euclid3", 2), ("ellipse3", 2), ("tilted3", 2),
])
def test_newton_exit_distance_matches_quadric_closed_form(name, dim, request):
    # the quadric norms solve their rays in closed form; the Newton path they
    # no longer run is pinned against it, cold and warm-started
    norm = request.getfixturevalue(name)
    dirs = make_grid(dim, 64 if dim == 1 else 12).nodes
    rng = np.random.default_rng(10 + dim)
    scale = 1.3
    for _ in range(3):
        prev = _inside_offset(norm, rng, scale, rng.uniform(0.0, 0.9))
        start = _warm_starts(norm, dirs, prev, scale)
        offset = _inside_offset(norm, rng, scale, rng.uniform(0.0, 0.9))
        exact, g_exact = norm.exit_distance(dirs, offset, scale)
        assert np.all(exact > 0.0)
        for warm in (None, start):
            s, g = newton_exit(norm, dirs, offset, scale, start=warm)
            assert np.max(np.abs(s - exact)) <= 1e-13 * scale
            assert np.max(np.abs(g - g_exact)) <= 1e-10
    # outside the body: the same rays miss, and the hits have equal roots
    for frac in (1.2, 2.0, 4.0):
        offset = _inside_offset(norm, rng, scale, frac)
        exact, g_exact = norm.exit_distance(dirs, offset, scale)
        s, _ = newton_exit(norm, dirs, offset, scale)
        miss = np.isinf(exact)
        assert 0 < np.sum(miss) < len(dirs)
        assert np.array_equal(np.isinf(s), miss)
        assert np.all(exact[miss] < 0.0) and np.all(np.isnan(g_exact[miss]))
        assert np.max(np.abs(s[~miss] - exact[~miss])) <= 1e-13 * scale


def test_exit_distance_warm_start_keeps_misses(euclid2, perturbed2):
    # offsets outside the body: lines that miss it stay misses, and the
    # roots of the lines that hit do not move
    dirs = make_grid(1, 64).nodes
    scale = 1.0
    for norm in (euclid2, perturbed2):
        prev = np.array([1.6, 0.3])
        start = newton_exit(norm, dirs, prev, scale)
        for offset in (prev + np.array([0.01, -0.02]), np.array([-1.4, 0.9])):
            cold, _ = newton_exit(norm, dirs, offset, scale)
            warm, _ = newton_exit(norm, dirs, offset, scale, start=start)
            assert 0 < np.sum(np.isinf(cold)) < len(dirs)
            assert np.array_equal(np.isinf(warm), np.isinf(cold))
            hit = np.isfinite(cold)
            assert np.max(np.abs(warm[hit] - cold[hit])) <= 1e-13 * scale


def test_asymmetry_warm_rays_save_dual_solves(monkeypatch):
    # the deficits benchmark's perturbed zonal surface at res 16: seeding
    # each evaluation's ray solve with the last one's roots and gradients
    # saves dual solves without moving the result beyond roundoff
    norm = norm_from_spec({"family": "perturbed", "dim": 2, "epsilon": 0.1,
                           "harmonic": {"kind": "product"}})
    grid = make_grid(2, 16)
    surface = fourier_surface(grid, 1.0, [
        {"kind": "zonal", "k": 2, "delta": 0.0802},
        {"kind": "zonal", "k": 3, "delta": 0.0451}])
    calls = []
    dual_grad = norm.dual_grad

    def counting(x, start=None):
        calls.append(len(x))
        return dual_grad(x, start)

    monkeypatch.setattr(norm, "dual_grad", counting)
    warm = asymmetry_index(surface, norm)
    n_warm = len(calls)

    def cold_exit(dirs, offset, scale, start=None):
        return newton_exit(norm, dirs, offset, scale)

    monkeypatch.setattr(norm, "exit_distance", cold_exit)
    calls.clear()
    cold = asymmetry_index(surface, norm)
    assert n_warm <= 0.8 * len(calls)
    assert abs(warm.alpha - cold.alpha) <= 1e-11
    np.testing.assert_allclose(warm.center, cold.center, rtol=0.0, atol=1e-7)
    assert warm.converged and cold.converged


def _dense_interp(surface, dirs):
    # the explicit phase-matrix form of the trigonometric interpolant
    n_nodes = surface.grid.n_nodes
    coeff = np.fft.rfft(surface.r) / n_nodes
    t = np.arctan2(dirs[:, 1], dirs[:, 0])
    phase = np.exp(1j * np.outer(t, np.arange(len(coeff))))
    scale = np.ones(len(coeff))
    scale[1:] = 2.0
    if n_nodes % 2 == 0:
        scale[-1] = 1.0
    return (phase @ (coeff * scale)).real


@pytest.mark.parametrize("dim, n_nodes", [
    *(pytest.param(1, n, id=str(n)) for n in (64, 65, 512, 511)),
    *(pytest.param(2, n, id=f"sphere-{n}") for n in (16, 32))])
def test_interp_radial_reproduces_band_limited_field(dim, n_nodes):
    rng = np.random.default_rng(n_nodes)
    if dim == 2:
        # powers (e . x)^l of linear forms, one of every degree l <= nlat - 1
        e = rng.standard_normal((n_nodes, 3))
        e /= np.linalg.norm(e, axis=1)[:, None]
        c = 0.1 * rng.uniform(-1.0, 1.0, n_nodes)

        def field(x):
            x = x / np.linalg.norm(x, axis=1)[:, None]
            return 1.0 + (x @ e.T) ** np.arange(n_nodes) @ c

        grid = make_grid(2, n_nodes)
        surface = StarSurface(grid, field(grid.nodes))
        dirs = rng.uniform(0.5, 2.0, (4 * grid.n_nodes, 1)) \
            * rng.standard_normal((4 * grid.n_nodes, 3))
        assert np.max(np.abs(_interp_radial(surface, dirs)
                             - field(dirs))) <= 1e-12
        return
    # every mode below Nyquist, plus the Nyquist cosine for even N
    k = np.arange(1, (n_nodes - 1) // 2 + 1)
    a, b = 0.1 * rng.standard_normal((2, len(k))) / k
    nyquist = 0.01 if n_nodes % 2 == 0 else 0.0

    def field(t):
        kt = np.outer(t, k)
        return (1.0 + np.cos(kt) @ a + np.sin(kt) @ b
                + nyquist * np.cos(0.5 * n_nodes * t))

    grid = make_grid(1, n_nodes)
    surface = StarSurface(grid, field(grid.angles))
    t = rng.uniform(-np.pi, np.pi, 4 * n_nodes)
    dirs = rng.uniform(0.5, 2.0, len(t))[:, None] * np.column_stack(
        [np.cos(t), np.sin(t)])
    got = _interp_radial(surface, dirs)
    assert np.max(np.abs(got - field(t))) <= 1e-13
    assert np.max(np.abs(got - _dense_interp(surface, dirs))) <= 1e-14
