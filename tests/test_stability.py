import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ellipe

from wulff_lab import (
    FlowConfig,
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
    pmomentum_chain,
    quantitative_wulff,
    run_flow,
    select_t_epsilon,
    sphere_surface,
    stability_sweep,
    volume,
    weighted_momentum,
    wulff_profile_about,
    wulff_q_value,
    wulff_surface,
)
from wulff_lab import stability
from wulff_lab.stability import (
    _cloud_min_dists,
    _interp_radial,
    _symmetric_difference,
)


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
        assert h.bound_ok


def test_hausdorff_ellipse_against_circle_fit(grid512, ellipse2, euclid2):
    # oracle: distance from an origin-centered circle of radius a to the
    # ellipse is max(2 - a, a - 1) (extremes of |x| on the ellipse)
    s = wulff_surface(ellipse2, grid512)
    h = hausdorff_to_wulff(s, euclid2)
    exact = max(2.0 - h.a, h.a - 1.0)
    assert h.hausdorff == pytest.approx(exact, abs=1e-3)


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
    with pytest.raises(ValueError, match="outside"):
        wulff_profile_about(euclid2, grid256, 1.0, np.array([3.0, 0.0]),
                            np.zeros(2))


def test_select_t_epsilon(grid256, euclid2):
    s = fourier_surface(grid256, 1.0, [{"k": 2, "delta": 0.1}])
    cfg = FlowConfig(norm=euclid2, surface=s, t_end=0.05, cfl=0.8,
                     cadence=0.002)
    trace, _ = run_flow(cfg)
    t_eps, idx, gap = select_t_epsilon(trace)
    eps = trace.q[0] - wulff_q_value(np.pi, n=1)
    assert 0.0 < t_eps <= np.sqrt(eps) + 1e-12
    assert gap >= 0.0


def test_full_deficit_report(grid256, ellipse2):
    s = fourier_surface(grid256, 1.0, [{"k": 1, "delta": 0.15}])
    rep = full_deficit_report(s, ellipse2, p_exponents=(1.0, 2.0))
    d = rep.to_dict()
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
    # s_in solve switches on at F0(C - p) = 0.999*scale, and s_in crosses 0
    # where C leaves the disk; neither may make the value jump
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

    def recording(surface, norm, scale, center):
        probes.append(euclid2.dual_value(-center) / scale)
        return _symmetric_difference(surface, norm, scale, center)

    monkeypatch.setattr(stability, "_symmetric_difference", recording)
    first = asymmetry_index(surface, euclid2)
    assert max(probes) >= 1.0
    second = asymmetry_index(surface, euclid2)
    assert first.alpha == second.alpha
    assert np.array_equal(first.center, second.center)
    assert first.alpha < 1e-8
    np.testing.assert_allclose(first.center, p0, atol=1e-5)
    assert first.method == "radial"


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


@pytest.mark.parametrize("n_nodes", [64, 65, 512, 511])
def test_interp_radial_reproduces_band_limited_field(n_nodes):
    rng = np.random.default_rng(n_nodes)
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
