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
    family_surfaces,
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
from wulff_lab import EllipsoidNorm, PerturbedNorm, minkowski, stability
from wulff_lab.minkowski import _FIRST_MAXIT, _SCAN_MAXIT
from wulff_lab.sphere_grid import SphereGrid
from wulff_lab.stability import (
    _directed_hausdorff,
    _line_roots,
    _signed_line_integrals,
    _symmetric_difference,
)

from reference import (asymmetry_reference,
                       directed_hausdorff_exhaustive, nested_exit)


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
    interpolate = SphereGrid.interpolate

    def counting(self, field, dirs):
        calls.append(len(dirs))
        return interpolate(self, field, dirs)

    monkeypatch.setattr(SphereGrid, "interpolate", counting)
    gap = gap_integral(s, ellipse3, c)
    assert len(calls) <= 16
    assert gap.identity_residual < (1e-6 if res == 16 else 1e-12)
    r_c = stability._regraph_radial(s, c)
    y = c[None, :] + r_c[:, None] * grid.nodes
    dist = np.linalg.norm(y, axis=1)
    assert np.max(np.abs(dist - grid.interpolate(s.r, y / dist[:, None]))) \
        <= 1e-14


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
    rows = stability_sweep(family_surfaces(
        {"deltas": [0.05, 0.1, 0.2, 0.4], "harmonics": [{"k": 1, "delta": 1.0}]},
        grid512), euclid2)
    eps = [r["eps1"] for r in rows]
    alpha = [r["alpha"] for r in rows]
    dist = [r["hausdorff"] for r in rows]
    assert all(np.diff(eps) > 0) and all(np.diff(alpha) > 0)
    assert all(np.diff(dist) > 0)
    for r in rows:
        assert not r["zero_over_zero"]
        assert np.isfinite(r["ratio_alpha_f1"]) and np.isfinite(r["ratio_dist_f2"])


def test_stability_sweep_ellipse_norm(grid512, ellipse2):
    rows = stability_sweep(family_surfaces(
        {"deltas": [0.1, 0.2], "harmonics": [{"k": 1, "delta": 1.0}]},
        grid512), ellipse2)
    for r in rows:
        assert r["eps1"] > 0.0
        assert np.isfinite(r["ratio_alpha_f1"])
        assert np.isfinite(r["ratio_dist_f2"])
        assert not r["zero_over_zero"]


def test_stability_sweep_wulff_family_zero_convention(grid512, euclid2):
    rows = stability_sweep(family_surfaces(
        {"deltas": [0.1, 0.2], "harmonics": [{"k": 1, "delta": 0.0}]},
        grid512), euclid2)
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


def _unit(v):
    return v / np.linalg.norm(v, axis=1)[:, None]


def _hausdorff_clouds(d):
    """(label, pts_a, pts_b, normal_b) sampled along shared directions."""
    rng = np.random.default_rng(10 + d)
    dirs = _unit(rng.standard_normal((300, d)))
    r_a, r_b = 1.0 + 0.2 * rng.random((2, 300))
    pts_b = r_b[:, None] * dirs
    normal_b = _unit(dirs + 0.3 * rng.standard_normal((300, d)))
    # a doubled direction repeats its sample in both clouds, an exact tie
    # between two partners whose normals differ
    twice = np.concatenate([np.arange(300), np.arange(50)])
    other_normal = _unit(rng.standard_normal((50, d)))
    # a radial graph over grid directions rotated by three grid steps: every
    # sample keeps a near partner, but its own direction's partner lies
    # three steps away, so the bound prunes few rows
    grid = make_grid(d - 1, 64 if d == 2 else 16)
    steps = 2.0 * np.pi * 3.0 / (grid.resolution * (1 if d == 2 else 2))
    c, s = np.cos(steps), np.sin(steps)
    rot = np.array([[c, -s], [s, c]]) if d == 2 else \
        np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    nodes = grid.nodes
    graph = (1.0 + 0.2 * nodes[:, 0] ** 2 + 0.1 * nodes[:, 1])[:, None] * nodes
    return [
        ("random", r_a[:, None] * dirs, pts_b, normal_b),
        ("tied", r_a[twice, None] * dirs[twice], pts_b[twice],
         np.concatenate([normal_b, other_normal])),
        ("identical", pts_b, pts_b.copy(), normal_b),
        ("rotated", graph @ rot.T, graph, _unit(nodes + 0.1 * graph)),
    ]


@pytest.mark.parametrize("d", [2, 3])
def test_directed_hausdorff_matches_exhaustive_reference(d, monkeypatch):
    # the pruned search returns the unpruned one's value bit for bit, with
    # one row per pass and with the default passes
    for pairs in (1, stability._HAUSDORFF_PASS_PAIRS):
        monkeypatch.setattr(stability, "_HAUSDORFF_PASS_PAIRS", pairs)
        for label, pts_a, pts_b, normal_b in _hausdorff_clouds(d):
            got = _directed_hausdorff(pts_a, pts_b, normal_b)
            assert got == directed_hausdorff_exhaustive(pts_a, pts_b,
                                                        normal_b), label
            if label == "identical":
                assert got == 0.0
            elif label == "rotated":
                # the bound of most rows exceeds the result: they are searched
                bound = np.linalg.norm(pts_a - pts_b, axis=1)
                assert np.mean(bound > got) > 0.5


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
def test_inside_test_at_the_boundary(name, dim, request):
    # the star center at F0(offset)/scale = 0.9995, 1 - 1e-9, 1 and 1.2 of
    # the body: the symmetric difference is evaluated only strictly inside,
    # and raises elsewhere; along the first axis the quadric bodies are met
    # exactly at F0 = 1, where the rays must see the center as outside
    norm = request.getfixturevalue(name)
    grid = make_grid(dim, 128 if dim == 1 else 16)
    kind = {} if dim == 1 else {"kind": "zonal"}
    surface = fourier_surface(grid, 1.0, [{**kind, "k": 2, "delta": 0.1}])
    scale = 1.0
    rng = np.random.default_rng(30 + dim)
    axis = np.eye(dim + 1)[0]
    quadric = name != f"perturbed{dim + 1}"
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
            if inside:
                assert _symmetric_difference(surface, norm, scale, center)[0] > 0.0
            else:
                with pytest.raises(ValueError, match="outside"):
                    _symmetric_difference(surface, norm, scale, center)


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


def test_full_deficit_report_solves_the_dual_once(grid256, ellipse2,
                                                  monkeypatch):
    # the gap integral and every deficit share one dual solve at the
    # surface points
    s = fourier_surface(grid256, 1.0, [{"k": 1, "delta": 0.15}])
    w = make_wulff(ellipse2, grid256)
    calls = []
    dual_value = ellipse2.dual_value

    def counting(x):
        calls.append(np.array_equal(x, s.points))
        return dual_value(x)

    monkeypatch.setattr(ellipse2, "dual_value", counting)
    full_deficit_report(s, ellipse2, p_exponents=(1.0, 2.0, 3.0), wulff=w)
    assert sum(calls) == 1


def _disk_lens(d):
    # area of the intersection of two unit disks at distance d
    if d >= 2.0:
        return 0.0
    return 2.0 * np.arccos(d / 2.0) - (d / 2.0) * np.sqrt(4.0 - d * d)


@pytest.mark.parametrize("d", [0.5, 1.05, 1.5, 2.5])
def test_symmetric_difference_two_disks(grid512, euclid2, d):
    # inside, the lens formula to roundoff: R - S changes sign at two
    # angles, where the line integrals are split exactly; centers at 1.05
    # and beyond leave the star center outside the translated disk, where
    # the symmetric difference is not evaluated
    center = np.array([d, 0.0])
    if d >= 1.0:
        with pytest.raises(ValueError, match="outside"):
            _symmetric_difference(sphere_surface(grid512), euclid2, 1.0, center)
        return
    value = _symmetric_difference(sphere_surface(grid512), euclid2, 1.0,
                                  center)[0]
    exact = 2.0 * np.pi - 2.0 * _disk_lens(d)
    assert value == pytest.approx(exact, rel=1e-14)


def test_symmetric_difference_two_balls(grid2_32, euclid3):
    # two unit balls at distance 0.5, along x and along the polar axis: the
    # nodal sum erred by 1.2e-5 and 6.6e-4; the exact line integrals err by
    # 8.3e-5 along x (the longitude rule across the kinks) and 4e-16 along
    # the axis, where every line meets the kink at right angles
    d = 0.5
    lens = np.pi * (4.0 + d) * (2.0 - d) ** 2 / 12.0
    for axis in (0, 2):
        center = d * np.eye(3)[axis]
        value = _symmetric_difference(sphere_surface(grid2_32), euclid3, 1.0,
                                      center)[0]
        assert value == pytest.approx(8.0 * np.pi / 3.0 - 2.0 * lens, rel=1e-4)


def test_symmetric_difference_off_center_against_monte_carlo(grid512,
                                                             perturbed2):
    # independent reference: seeded sampling of a box holding both bodies,
    # with membership in Omega from the closed-form radial function
    s = StarSurface(grid512, 1.0 + 0.2 * np.cos(2.0 * grid512.angles))
    p, scale = np.array([0.45, 0.2]), 0.9
    assert perturbed2.dual_value(-p) < scale
    value = _symmetric_difference(s, perturbed2, scale, p)[0]

    lo, hi = np.array([-1.3, -1.3]), np.array([1.6, 1.3])
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


def _random_lines(rng, lines, degree):
    c = (rng.standard_normal((lines, degree + 1))
         + 1j * rng.standard_normal((lines, degree + 1)))
    c /= 1.0 + np.arange(degree + 1)
    c[:, 0] = c[:, 0].real
    return c


def test_line_roots_match_a_dense_scan():
    # the sign changes of random line polynomials against a scan of 2^20
    # angles, and a residual 1 - d - cos(psi - 1) whose two roots lie
    # 2 acos(1 - d) apart, far inside one sample spacing for small d
    rng = np.random.default_rng(5)
    for degree in (4, 16, 64):
        c = _random_lines(rng, 3, degree)
        line, psi, up = _line_roots(c)
        scan = 2.0 * np.pi * np.arange(1 << 20) / (1 << 20)
        for k in range(3):
            t = np.fft.irfft(np.concatenate([[c[k, 0].real], c[k, 1:] / 2.0])
                             * (1 << 20), n=1 << 20)
            cross = np.flatnonzero((t >= 0.0) != (np.roll(t, -1) >= 0.0))
            found = psi[line == k]
            assert len(found) == len(cross)
            assert np.max(np.abs(found - scan[cross] - np.pi / (1 << 20)),
                          initial=0.0) <= np.pi / (1 << 20)
            assert np.array_equal(up[line == k], t[(cross + 1) % (1 << 20)] >= 0.0)
    for d in (1e-4, 1e-6, 1e-10):
        c = np.zeros((1, 11), dtype=complex)
        c[0, 0], c[0, 1] = 1.0 - d, -np.exp(-1j)
        _, psi, up = _line_roots(c)
        half = np.arccos(1.0 - d)
        assert 2.0 * half < 2.0 * np.pi / (8 * 11)
        np.testing.assert_allclose(psi - 1.0, [-half, half], rtol=0.0,
                                   atol=1e-9)
        assert list(up) == [False, True]
        value = _signed_line_integrals(np.ones(1), c[None])[0][0]
        exact = 2.0 * np.pi * (1.0 - d) + 4.0 * (np.sin(half)
                                                 - (1.0 - d) * half)
        assert value == pytest.approx(exact, rel=1e-14)


def test_signed_line_integrals_differentiate_the_integral_of_abs():
    # along T_0 + h T_1 the integral of |T_0| has the derivative
    # sum_k w_k (integral of sign(T_0) T_1) and, T being linear in h, the
    # second derivative the root Hessian: both against differences
    rng = np.random.default_rng(6)
    c = np.stack([_random_lines(rng, 2, 12), _random_lines(rng, 2, 12)])
    w = np.array([0.7, 1.3])
    got, hess = _signed_line_integrals(w, c, hessian=True)

    def along(h):
        return _signed_line_integrals(w, c + h * c[1] * np.eye(2)[:, 0, None,
                                                                   None])[0][0]

    h = 1e-6
    assert (along(h) - along(-h)) / (2.0 * h) == pytest.approx(got[1],
                                                               rel=1e-8)
    h = 1e-4
    second = (along(h) - 2.0 * got[0] + along(-h)) / h ** 2
    assert second == pytest.approx(hess[0, 0], rel=1e-5)


def test_symmetric_difference_of_one_sign_is_the_nodal_quadrature(
        grid512, grid2_32, euclid2, ellipse3):
    # where R - S keeps one sign, the integral of |R - S| is that of R - S,
    # which the nodal rule integrates exactly on the grid's expansion
    for grid, norm in ((grid512, euclid2), (grid2_32, ellipse3)):
        n = grid.dim
        surface = fourier_surface(grid, 1.0, [
            {**({} if n == 1 else {"kind": "zonal"}), "k": 2, "delta": 0.05}])
        center = np.zeros(n + 1)
        for scale in (0.3, 3.0):
            value, _, _, signed = _symmetric_difference(surface, norm, scale,
                                                        center)
            assert abs(value - abs(signed)) <= 1e-14 * value


def test_asymmetry_index_off_center_search_is_deterministic(grid512, euclid2,
                                                            monkeypatch):
    # a disk graphed about a point near its rim: the search certifies the
    # disk's center, repeats bit for bit, and never evaluates a center
    # that leaves the star center outside the translated disk
    p0 = np.array([0.96, 0.0])
    r = wulff_profile_about(euclid2, grid512, 1.0, p0, np.zeros(2))
    surface = StarSurface(grid512, r)
    probes = []

    def recording(surface, norm, scale, center, *rest, **kw):
        probes.append(euclid2.dual_value(-center) / scale)
        return _symmetric_difference(surface, norm, scale, center, *rest, **kw)

    monkeypatch.setattr(stability, "_symmetric_difference", recording)
    first = asymmetry_index(surface, euclid2)
    assert first.converged
    assert max(probes) < 1.0
    second = asymmetry_index(surface, euclid2)
    assert first.alpha == second.alpha
    assert np.array_equal(first.center, second.center)
    assert first.alpha < 1e-8
    np.testing.assert_allclose(first.center, p0, atol=1e-5)
    assert first.method == "radial"


@pytest.mark.parametrize("name, dim, res", [("perturbed2", 1, 512),
                                             ("perturbed3", 2, 16)])
def test_asymmetry_index_off_center_search_is_deterministic_perturbed(
        name, dim, res, request, monkeypatch):
    # the perturbed twin: W graphed about a point at F0 = 0.96 of its rim.
    # The search certifies its end (alpha at its lower bound: R - S keeps
    # one sign there, to the resolution of the re-graphed W), repeats bit
    # for bit and matches the reference ray solve; no row reaches the miss
    # test, since no evaluated center leaves the body
    norm = request.getfixturevalue(name)
    grid = make_grid(dim, res)
    e1 = np.eye(dim + 1)[0]
    p0 = 0.96 * e1 / norm.dual_value(-e1)
    surface = StarSurface(grid, wulff_profile_about(norm, grid, 1.0, p0,
                                                    np.zeros(dim + 1)))
    tested = []
    meets = norm._meets
    exit_distance = norm.exit_distance

    def recording(dirs, offset, scale):
        tested.append(len(dirs))
        return meets(dirs, offset, scale)

    def dual_grad(x):
        # the dual is the ray exit from the origin; the unpatched one, so
        # that the reference below does not call itself
        theta = x / np.linalg.norm(x, axis=1, keepdims=True)
        return exit_distance(theta, np.zeros(dim + 1), 1.0)[1]

    def reference(dirs, offset, scale, start=None):
        return nested_exit(norm, dirs, offset, scale, dual_grad)

    monkeypatch.setattr(norm, "_meets", recording)
    first = asymmetry_index(surface, norm)
    assert first.converged and not tested
    second = asymmetry_index(surface, norm)
    assert first.alpha == second.alpha
    assert np.array_equal(first.center, second.center)
    np.testing.assert_allclose(first.center, p0, rtol=0.0, atol=1e-5)
    with monkeypatch.context() as m:
        m.setattr(norm, "exit_distance", reference)
        ref = asymmetry_index(surface, norm)
    assert ref.converged
    assert abs(first.alpha - ref.alpha) <= 1e-11
    np.testing.assert_allclose(first.center, ref.center, rtol=0.0, atol=1e-7)


_ZONAL23 = {   # the deficits benchmark's zonal amplitudes at seeds 1-3
    1: (0.08038188730948831, 0.04505101380514788),
    2: (0.0800282756838634, 0.04501697439903178),
    3: (0.08018497758327404, 0.04512078400771924),
}
_DEFICITS_NORMS = {
    "perturbed": {"family": "perturbed", "dim": 2, "epsilon": 0.1,
                  "harmonic": {"kind": "product"}},
    "ellipsoid": {"family": "ellipsoid", "matrix": [[4.0, 0.0, 0.0],
                                                    [0.0, 2.25, 0.0],
                                                    [0.0, 0.0, 1.0]]},
    # tilted: the zonal surface's barycenter lies on its axis, and the
    # least value off it
    "tilted": {"family": "ellipsoid",
               "matrix": [[4.0, 0.0, 1.0], [0.0, 2.25, 0.0], [1.0, 0.0, 1.0]]},
}
# the deficits benchmark's euclidean sweep at seed 1
_SWEEP_PHASE, _SWEEP_SCALE = 5.324583204732311, 0.9853745697644961


def _zonal23(seed):
    a2, a3 = _ZONAL23[seed]
    return fourier_surface(make_grid(2, 16), 1.0, [
        {"kind": "zonal", "k": 2, "delta": a2},
        {"kind": "zonal", "k": 3, "delta": a3}])


def _asymmetry_case(case):
    kind, arg = case
    if kind == "sweep":
        surface = fourier_surface(make_grid(1, 512), 1.0, [
            {"k": 1, "delta": _SWEEP_SCALE * arg, "phase": _SWEEP_PHASE}])
        return surface, norm_from_spec({"family": "euclidean", "dim": 1})
    return _zonal23(arg), norm_from_spec(_DEFICITS_NORMS[kind])


@pytest.mark.parametrize("case", [
    *[(kind, seed) for seed in (1, 2, 3) for kind in ("perturbed", "ellipsoid")],
    *[("sweep", d) for d in (0.05, 0.1, 0.2, 0.4)],
    ("tilted", 1),
], ids=lambda case: f"{case[0]}-{case[1]}")
def test_asymmetry_index_matches_multistart_reference(case):
    # every search of the deficits benchmark at seeds 1-3 (one sweep) and
    # the tilted example: certified, alpha against a brute fine-grid
    # quadrature of the symmetric difference at the search's center, with
    # exact ray exits (2e-7 relative on the 8192-angle circle, 3e-4 on the
    # res-128 sphere: the brute rule's error at the kinks, and at res 16
    # the search's own resolution), and no lower reference value at the
    # former starts' offsets +-0.02*scale from it
    surface, norm = _asymmetry_case(case)
    res = asymmetry_index(surface, norm)
    fine = 8192 if surface.grid.dim == 1 else 128
    alpha = asymmetry_reference(surface, norm, res.center, fine)
    assert res.converged
    assert abs(res.alpha - alpha) <= (2e-7 if fine == 8192 else 3e-4) * alpha
    for e in 0.02 * res.scale * np.eye(len(res.center)):
        for sign in (1.0, -1.0):
            assert asymmetry_reference(surface, norm, res.center + sign * e,
                                       fine) > alpha


def test_asymmetry_index_leaves_the_axis_of_a_zonal_surface():
    # the zonal surface under the tilted ellipsoid norm: its barycenter has
    # x, y ~ 1e-17, and the least value lies off the axis, at a center
    # that is stable with resolution (the nodal objective's ripple minima
    # put it at x = -0.0246, +0.020 and -0.005 at res 16, 24 and 32)
    norm = norm_from_spec(_DEFICITS_NORMS["tilted"])
    a2, a3 = _ZONAL23[1]
    centers = []
    for res in (16, 24, 32):
        surface = fourier_surface(make_grid(2, res), 1.0, [
            {"kind": "zonal", "k": 2, "delta": a2},
            {"kind": "zonal", "k": 3, "delta": a3}])
        result = asymmetry_index(surface, norm)
        assert result.converged
        centers.append(result.center)
        if res == 16:
            assert round(result.alpha, 5) == 0.64806
    x = [c[0] for c in centers]
    assert x[0] == pytest.approx(0.0121, abs=1e-4)
    assert x[1] == pytest.approx(0.0115, abs=1e-4)
    assert x[2] == pytest.approx(x[1], abs=1e-4)


def test_asymmetry_index_certifies_a_face_minimum_of_the_nodal_objective():
    # under an anisotropic norm the least value of the nodal sum of
    # |R - S| can lie between two of its kinks, on a face where no vertex
    # certificate holds; the integrated objective is smooth there, and the
    # search certifies its minimum
    surface = fourier_surface(make_grid(1, 64), 1.0, [
        {"k": 1, "delta": 0.15, "phase": 0.4},
        {"k": 4, "delta": 0.1, "phase": 0.4}])
    norm = EllipsoidNorm(np.diag([4.0, 1.0]))
    res = asymmetry_index(surface, norm)
    assert res.converged
    alpha = asymmetry_reference(surface, norm, res.center, 8192)
    assert abs(res.alpha - alpha) <= 2e-7 * alpha


def test_asymmetry_index_leaves_a_saddle_at_the_barycenter():
    # a surface symmetric under x -> -x and y -> -y: the barycenter is
    # stationary by symmetry, but a saddle, and the least value lies at
    # x = +-0.0037; the curvature check moves the search off it
    surface = fourier_surface(make_grid(2, 12), 1.0, [
        {"kind": "sectoral", "k": 4, "delta": 0.011613317568645715},
        {"kind": "sectoral", "k": 2, "delta": 0.05149417840185952}])
    res = asymmetry_index(surface, norm_from_spec({"family": "euclidean",
                                                   "dim": 2}))
    assert res.converged
    assert abs(res.center[0]) == pytest.approx(0.00367, abs=1e-5)


def _inside_offset(norm, rng, scale, frac):
    # a random offset at F0 = frac * scale
    u = rng.standard_normal(norm.ambient_dim)
    return frac * scale * u / norm.dual_value(u)


def _warm_starts(norm, dirs, prev, scale):
    # the roots at `prev`, with rows of a miss (-inf) and rows whose warm
    # point lies far behind the offset
    s0, g0 = nested_exit(norm, dirs, prev, scale)
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
    # a start may speed the ray solve but never changes its roots
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
            cold, g_cold = norm.exit_distance(dirs, offset, scale)
            warm, g_warm = norm.exit_distance(dirs, offset, scale,
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
    # the reference nested Newton solve, the oracle of the perturbed ray
    # exits, against the closed form of the quadric norms
    norm = request.getfixturevalue(name)
    dirs = make_grid(dim, 64 if dim == 1 else 12).nodes
    rng = np.random.default_rng(10 + dim)
    scale = 1.3
    for _ in range(3):
        offset = _inside_offset(norm, rng, scale, rng.uniform(0.0, 0.9))
        exact, g_exact = norm.exit_distance(dirs, offset, scale)
        assert np.all(exact > 0.0)
        s, g = nested_exit(norm, dirs, offset, scale)
        assert np.max(np.abs(s - exact)) <= 1e-13 * scale
        assert np.max(np.abs(g - g_exact)) <= 1e-10
    # outside the body: the same rays miss, and the hits have equal roots
    for frac in (1.2, 2.0, 4.0):
        offset = _inside_offset(norm, rng, scale, frac)
        exact, g_exact = norm.exit_distance(dirs, offset, scale)
        s, _ = nested_exit(norm, dirs, offset, scale)
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
        start = norm.exit_distance(dirs, prev, scale)
        for offset in (prev + np.array([0.01, -0.02]), np.array([-1.4, 0.9])):
            cold, _ = norm.exit_distance(dirs, offset, scale)
            warm, _ = norm.exit_distance(dirs, offset, scale, start=start)
            nested, _ = nested_exit(norm, dirs, offset, scale)
            assert 0 < np.sum(np.isinf(cold)) < len(dirs)
            assert np.array_equal(np.isinf(cold), np.isinf(nested))
            assert np.array_equal(np.isinf(warm), np.isinf(cold))
            hit = np.isfinite(cold)
            assert np.max(np.abs(warm[hit] - cold[hit])) <= 1e-13 * scale


def test_perturbed_exit_distance_starts_only_cold_rows_at_the_ball(
        perturbed3, monkeypatch):
    # the euclidean ball's exit seeds only the rows without a finite start:
    # with every row warm it is not solved at all
    dirs = make_grid(2, 8).nodes
    offset, scale = np.array([0.1, -0.05, 0.02]), 1.2
    start = perturbed3.exit_distance(dirs, offset, scale)
    calls = []
    quadric_exit = minkowski._quadric_exit

    def counting(rows, *args):
        calls.append(len(rows))
        return quadric_exit(rows, *args)

    monkeypatch.setattr(minkowski, "_quadric_exit", counting)
    moved = offset + 1e-3
    warm = perturbed3.exit_distance(dirs, moved, scale, start)
    assert calls == []
    s0 = start[0].copy()
    s0[:3] = -np.inf
    partial = perturbed3.exit_distance(dirs, moved, scale, (s0, start[1]))
    assert calls == [3]
    cold = perturbed3.exit_distance(dirs, moved, scale)
    for s, _ in (warm, partial):
        assert np.max(np.abs(s - cold[0])) <= 1e-13 * scale


def test_asymmetry_warm_rays_save_newton_steps(monkeypatch):
    # the deficits benchmark's perturbed zonal surface at res 16: seeding
    # each evaluation's ray solve with the last one's roots and normals,
    # moved to their predicted exits, saves Newton steps, one
    # `tangent_form` call each, without moving the result beyond roundoff
    norm = norm_from_spec({"family": "perturbed", "dim": 2, "epsilon": 0.1,
                           "harmonic": {"kind": "product"}})
    grid = make_grid(2, 16)
    surface = fourier_surface(grid, 1.0, [
        {"kind": "zonal", "k": 2, "delta": 0.0802},
        {"kind": "zonal", "k": 3, "delta": 0.0451}])
    calls = []
    tangent_form = norm.tangent_form

    def counting(nu, t):
        calls.append(len(nu))
        return tangent_form(nu, t)

    monkeypatch.setattr(norm, "tangent_form", counting)
    warm = asymmetry_index(surface, norm)
    n_warm = len(calls)
    exit_distance = norm.exit_distance

    def cold_exit(dirs, offset, scale, start=None):
        return exit_distance(dirs, offset, scale)

    monkeypatch.setattr(norm, "exit_distance", cold_exit)
    calls.clear()
    cold = asymmetry_index(surface, norm)
    assert n_warm <= 0.5 * len(calls), (n_warm, len(calls))
    assert abs(warm.alpha - cold.alpha) <= 1e-11
    np.testing.assert_allclose(warm.center, cold.center, rtol=0.0, atol=1e-7)
    assert warm.converged and cold.converged


@pytest.mark.parametrize("spec, warm", [
    ({"family": "euclidean", "dim": 2}, False),
    ({"family": "ellipsoid", "matrix": [[4, 0, 1], [0, 2.25, 0], [1, 0, 1]]},
     False),
    ({"family": "perturbed", "dim": 2, "epsilon": 0.1,
      "harmonic": {"kind": "product"}}, True),
], ids=["euclid3", "tilted3", "perturbed3"])
def test_asymmetry_hands_a_start_only_to_a_norm_that_reads_it(
        monkeypatch, spec, warm):
    # the quadric families solve their ray exits in closed form, so their
    # search predicts no warm start and hands exit_distance none; the
    # perturbed family's search hands one to every evaluation, the first
    # predicted from the scaled Wulff shape about its own center
    norm = norm_from_spec(spec)
    assert norm.exit_reads_start is warm
    surface = fourier_surface(make_grid(2, 12), 1.0, [
        {"kind": "zonal", "k": 2, "delta": 0.08},
        {"kind": "zonal", "k": 3, "delta": 0.045}])
    starts = []
    exit_distance = norm.exit_distance
    # the Wulff shape's dual rays are exits from the origin too: built
    # before the patch, so that only the search's calls are recorded
    wulff = make_wulff(norm, surface.grid)

    def recording(dirs, offset, scale, start=None):
        starts.append(start)
        return exit_distance(dirs, offset, scale, start)

    monkeypatch.setattr(norm, "exit_distance", recording)
    result = asymmetry_index(surface, norm, wulff)
    assert result.converged and len(starts) > 1
    assert all((s is not None) is warm for s in starts)


@pytest.mark.parametrize("spec, res", [
    pytest.param({"family": "perturbed", "dim": 1, "epsilon": 0.1}, 64,
                 id="perturbed2"),
    pytest.param({"family": "perturbed", "dim": 2, "epsilon": 0.1}, 12,
                 id="perturbed3"),
    pytest.param({"family": "perturbed", "dim": 1, "epsilon": 0.08,
                  "harmonic": {"kind": "sectoral", "degree": 2}}, 512,
                 id="sectoral2-512"),
])
def test_perturbed_exit_distance_matches_nested_newton(spec, res):
    # the joint Newton solve on the Wulff boundary against the reference
    # nested solve, cold and warm-started, inside the body, near its
    # boundary and outside it
    norm = norm_from_spec(spec)
    dim = spec["dim"]
    dirs = make_grid(dim, res).nodes
    rng = np.random.default_rng(40 + res)
    scale = 1.3
    for frac in (0.0, 0.3, 0.6, 0.95, 0.999):
        prev = _inside_offset(norm, rng, scale, rng.uniform(0.0, 0.95))
        start = _warm_starts(norm, dirs, prev, scale)
        offset = _inside_offset(norm, rng, scale, frac)
        nested, _ = nested_exit(norm, dirs, offset, scale)
        for warm in (None, start):
            s, g = norm.exit_distance(dirs, offset, scale, start=warm)
            assert np.max(np.abs(s - nested)) <= 1e-13 * scale
            exact = norm.dual_grad(offset[None, :] + s[:, None] * dirs)
            assert np.max(np.abs(g - exact)) <= 1e-10
    # outside the body: the same rays miss, and the hits have equal roots
    for frac in (1.001, 1.2, 2.0, 4.0):
        offset = _inside_offset(norm, rng, scale, frac)
        nested, _ = nested_exit(norm, dirs, offset, scale)
        s, g = norm.exit_distance(dirs, offset, scale)
        miss = np.isinf(nested)
        assert 0 < np.sum(miss) < len(dirs)
        assert np.array_equal(np.isinf(s), miss)
        assert np.all(s[miss] < 0.0) and np.all(np.isnan(g[miss]))
        assert np.max(np.abs(s[~miss] - nested[~miss])) <= 1e-13 * scale


@pytest.mark.parametrize("name, dim", [("perturbed2", 1), ("perturbed3", 2)])
def test_perturbed_exit_distance_certificate_sends_entries_to_scan_pass(
        name, dim, request, monkeypatch):
    # warm-started at the entry point s0 = -s_out(-theta) with DF0 there,
    # every row is a root of the joint system with nu.theta < 0: the
    # certificate rejects it, and the scan-seeded pass finds the exit
    norm = request.getfixturevalue(name)
    dirs = make_grid(dim, 64 if dim == 1 else 12).nodes
    rng = np.random.default_rng(50 + dim)
    scale = 1.3
    offset = _inside_offset(norm, rng, scale, 0.5)
    back, g_back = nested_exit(norm, -dirs, offset, scale)
    assert np.all(np.einsum("ij,ij->i", g_back, dirs) < 0.0)
    exit_s, _ = nested_exit(norm, dirs, offset, scale)
    passes = []
    solve = norm._boundary_newton

    def recording(dirs, offset, scale, s, nu, maxit):
        passes.append((len(dirs), maxit))
        return solve(dirs, offset, scale, s, nu, maxit)

    monkeypatch.setattr(norm, "_boundary_newton", recording)
    s, _ = norm.exit_distance(dirs, offset, scale, start=(-back, g_back))
    assert passes == [(len(dirs), _FIRST_MAXIT), (len(dirs), _SCAN_MAXIT)]
    assert np.max(np.abs(s - exit_s)) <= 1e-13 * scale


@pytest.mark.parametrize("spec", [
    pytest.param({"family": "perturbed", "dim": 1, "epsilon": 0.1},
                 id="perturbed2"),
    pytest.param({"family": "perturbed", "dim": 1, "epsilon": 0.124},
                 id="near-limit2"),
])
def test_perturbed_exit_distance_misses_match_projection_interval(spec):
    # in the plane the line o + s*theta meets scale*W iff u.o lies in
    # [-scale*F(-u), scale*F(u)], the projection of scale*W on the normal
    # u of theta: on dense directions, with some lines close to tangent,
    # the misses are exactly those, and the hits have the reference roots
    norm = norm_from_spec(spec)
    theta = make_grid(1, 4096).nodes
    u = np.column_stack([-theta[:, 1], theta[:, 0]])
    rng = np.random.default_rng(61)
    scale = 1.3
    closest = np.inf   # the least margin of a hit: how near tangent it is
    for frac in (1.001, 1.05, 1.2, 2.0, 4.0):
        offset = _inside_offset(norm, rng, scale, frac)
        proj = u @ offset
        margin = np.minimum(scale * norm.value(u) - proj,
                            scale * norm.value(-u) + proj)
        s, g = norm.exit_distance(theta, offset, scale)
        assert 0 < np.sum(margin <= 0.0) < len(theta)
        assert np.array_equal(np.isinf(s), margin <= 0.0)
        assert np.all(np.isnan(g[margin <= 0.0]))
        hit = margin > 0.0
        nested, _ = nested_exit(norm, theta[hit], offset, scale)
        assert np.max(np.abs(s[hit] - nested)) <= 1e-13 * scale
        closest = min(closest, np.min(margin[hit]))
    assert closest <= 1e-4 * scale


@pytest.mark.parametrize("spec, res, harmonics", [
    pytest.param({"family": "perturbed", "dim": 2, "epsilon": 0.1,
                  "harmonic": {"kind": "product"}}, 16,
                 [{"kind": "zonal", "k": 2, "delta": 0.0802},
                  {"kind": "zonal", "k": 3, "delta": 0.0451}], id="zonal-16"),
    pytest.param({"family": "perturbed", "dim": 1, "epsilon": 0.1}, 128,
                 [{"k": 2, "delta": 0.1}, {"k": 3, "delta": 0.05, "phase": 0.4}],
                 id="curve-128"),
])
def test_asymmetry_search_makes_no_dual_ray_solves(spec, res, harmonics,
                                                   monkeypatch):
    # every ray of the translation search passes the joint solve's
    # certificate: the Wulff construction is the only dual solve, and no
    # row takes the miss test or the second pass
    norm = norm_from_spec(spec)
    surface = fourier_surface(make_grid(spec["dim"], res), 1.0, harmonics)
    calls = []

    def counting(method):
        def wrapped(x, *args, **kw):
            calls.append(len(x))
            return method(x, *args, **kw)
        return wrapped

    monkeypatch.setattr(norm, "dual_value", counting(norm.dual_value))
    monkeypatch.setattr(norm, "dual_grad", counting(norm.dual_grad))

    def second_pass(*args, **kw):
        raise AssertionError("a ray failed the first pass")

    monkeypatch.setattr(norm, "_meets", second_pass)
    monkeypatch.setattr(norm, "_scan_pass", second_pass)
    res = asymmetry_index(surface, norm)
    assert res.converged and res.alpha > 0.0
    assert len(calls) <= 1
