import numpy as np
import pytest

from wulff_lab import (
    EllipsoidNorm,
    EuclideanNorm,
    FlowConfig,
    MeanConvexityError,
    PerturbedNorm,
    SectoralHarmonic,
    StarSurface,
    fourier_surface,
    geometry,
    make_grid,
    monotonicity_report,
    norm_from_spec,
    q_functional,
    radial_speed,
    run_flow,
    sphere_surface,
    stable_dt,
    step,
    wulff_surface,
)


def test_speed_on_round_spheres(grid256, grid2_32, euclid2, euclid3):
    # exact: F(nu) = 1, |grad r| = 0, H_F = n / r0, so dr/dt = r0 / n
    for r0 in (1.0, 1.5):
        assert np.max(np.abs(radial_speed(sphere_surface(grid256, r0), euclid2)
                             - r0)) < 1e-12
        assert np.max(np.abs(radial_speed(sphere_surface(grid2_32, r0), euclid3)
                             - r0 / 2.0)) < 1e-10


def test_speed_on_wulff_is_self_similar(grid512, ellipse2, perturbed2):
    # on a*W the speed equals a*rho/n pointwise, the self-similar profile;
    # the perturbed profile carries slow-decaying spectral content, so its
    # discretization error at this resolution is larger (see the curvature
    # refinement test), not a defect of the speed formula
    for norm, tol in ((ellipse2, 5e-7), (perturbed2, 5e-4)):
        rho = norm.wulff_radius(grid512.nodes)
        for a in (0.7, 2.0):
            s = wulff_surface(norm, grid512, a)
            speed = radial_speed(s, norm)
            assert np.max(np.abs(speed - a * rho)) < tol * max(a, 1.0)
            # node-wise formula through the geometric quantities
            cache = geometry(s, norm)
            grad = grid512.gradient(s.r)
            grad_sq = np.einsum("ij,ij->i", grad, grad)
            formula = cache.f_normal * np.sqrt(s.r ** 2 + grad_sq) \
                / (cache.aniso_mean_curv * s.r)
            assert np.max(np.abs(speed - formula)) < 1e-14


def test_speed_requires_mean_convexity(grid256, euclid2):
    # r = 1 + 0.45 cos(2t) has negative curvature near t = pi/2
    s = fourier_surface(grid256, 1.0, [{"k": 2, "delta": 0.45}])
    with pytest.raises(MeanConvexityError, match="F-mean-convex"):
        radial_speed(s, euclid2)


def test_step_identity_at_zero_dt(grid256, euclid2):
    s = sphere_surface(grid256)
    s1, err = step(s, euclid2, 0.0)
    assert s1 is s and err == 0.0


def test_step_matches_exponential(grid2_32, euclid3):
    # the rescaled unit sphere is a fixed point: one step gives exp(dt/2)
    s = sphere_surface(grid2_32)
    dt = 1e-3
    s1, _ = step(s, euclid3, dt)
    assert np.max(np.abs(s1.r - np.exp(dt / 2.0))) < 5e-11


def test_step_keeps_wulff_profile(grid256, ellipse2):
    s = wulff_surface(ellipse2, grid256)
    dt = 1e-3
    s1, _ = step(s, ellipse2, dt)
    ratio = s1.r / s.r
    assert np.max(np.abs(ratio - ratio.mean())) < 1e-8


def test_flow_config_validation(grid256, euclid2):
    s = sphere_surface(grid256)
    with pytest.raises(ValueError, match="t_end"):
        FlowConfig(norm=euclid2, surface=s, t_end=-1.0)
    with pytest.raises(ValueError, match="cfl"):
        FlowConfig(norm=euclid2, surface=s, t_end=1.0, cfl=1.5)
    for steps in (0, -3):
        with pytest.raises(ValueError, match="max_steps"):
            FlowConfig(norm=euclid2, surface=s, t_end=1.0, max_steps=steps)


def test_flow_rejects_inadmissible_surface(grid256, euclid2):
    s = fourier_surface(grid256, 1.0, [{"k": 2, "delta": 0.45}])
    cfg = FlowConfig(norm=euclid2, surface=s, t_end=0.1)
    with pytest.raises(MeanConvexityError):
        run_flow(cfg)


def test_flow_max_steps_guard(grid256, euclid2):
    cfg = FlowConfig(norm=euclid2, surface=sphere_surface(grid256),
                     t_end=1.0, max_steps=10)
    with pytest.raises(RuntimeError, match="max step count"):
        run_flow(cfg)


def test_circle_flow_perimeter_growth(euclid2):
    g = make_grid(1, 128)
    cfg = FlowConfig(norm=euclid2, surface=sphere_surface(g),
                     t_end=1.0, cfl=0.8, cadence=0.25)
    trace, final = run_flow(cfg)
    summary = trace.summary()
    # perimeter grows like e^t, radius like e^t (n = 1)
    assert abs(trace.perimeter[-1] / (2 * np.pi * np.e) - 1.0) < 1e-3
    assert np.max(np.abs(trace.snapshots[-1] / np.e - 1.0)) < 1e-4
    assert summary["rescaled_perimeter_residual"] < 1e-3
    # rescaled surface is back at unit scale
    assert np.max(np.abs(final.r - 1.0)) < 1e-4


def test_wulff_flow_q_constant_and_self_similar(ellipse2):
    g = make_grid(1, 128)
    start = wulff_surface(ellipse2, g)
    cfg = FlowConfig(norm=ellipse2, surface=start, t_end=1.0, cfl=0.8,
                     cadence=0.2)
    trace, _ = run_flow(cfg)
    assert np.max(trace.q) - np.min(trace.q) < 1e-9
    rep = monotonicity_report(trace)
    assert rep.max_increment <= 1e-9
    # a*W flows to (a e^t) W for curves: the profile stays a Wulff multiple
    ratio = trace.snapshots[-1] / start.r
    assert np.max(np.abs(ratio - np.e)) < 1e-4
    assert np.max(np.abs(ratio / ratio.mean() - 1.0)) < 1e-9


def test_flow_convergence_to_wulff(euclid2):
    g = make_grid(1, 96)
    cfg = FlowConfig(norm=euclid2,
                     surface=fourier_surface(g, 1.0, [{"k": 1, "delta": 0.3}]),
                     t_end=6.0, cfl=1.0, cadence=0.25)
    trace, final = run_flow(cfg)
    assert trace.sup_dist[-1] < 1e-3
    assert trace.summary()["q_max_increment"] <= 1e-8
    # fitted scale against the two bookkeeping candidates
    summary = trace.summary()
    assert summary["fitted_a_final"] == pytest.approx(
        summary["a_candidate_perimeter"], rel=1e-3)


def test_monotonicity_generic_curve_ellipse(ellipse2):
    g = make_grid(1, 96)
    s = fourier_surface(g, 1.0, [{"k": 2, "delta": 0.12}])
    cfg = FlowConfig(norm=ellipse2, surface=s, t_end=4.0, cfl=1.0, cadence=0.1)
    trace, _ = run_flow(cfg)
    assert np.max(np.diff(trace.q)) <= 1e-8
    assert trace.q[-1] <= trace.q[0]


def test_q_derivative_matches_formula(grid256, euclid2):
    # flow a short burst recording every step, compare dQ/dt with the
    # variational formula (the spec family with a safely convex amplitude)
    s = fourier_surface(grid256, 1.0, [{"k": 2, "delta": 0.15}])
    cfg = FlowConfig(norm=euclid2, surface=s, t_end=2e-4, cfl=0.5, cadence=0.0)
    trace, _ = run_flow(cfg)
    rep = monotonicity_report(trace)
    assert rep.derivative_rel_error < 1e-3
    assert rep.derivative_formula < 0.0


def test_barrier_preserved_along_flow(ellipse2):
    g = make_grid(1, 96)
    s = fourier_surface(g, 1.0, [{"k": 1, "delta": 0.25}])
    cfg = FlowConfig(norm=ellipse2, surface=s, t_end=2.0, cfl=1.0,
                     cadence=0.25)
    trace, _ = run_flow(cfg)
    summary = trace.summary()
    assert summary["barrier_preserved"]
    assert trace.barrier_lo[0] > 0.0


def test_rescaled_min_curvature_stays_positive(euclid2):
    g = make_grid(1, 96)
    s = fourier_surface(g, 1.0, [{"k": 1, "delta": 0.3}])
    cfg = FlowConfig(norm=euclid2, surface=s, t_end=3.0, cfl=1.0, cadence=0.25)
    trace, _ = run_flow(cfg)
    assert np.min(trace.min_hf) >= 0.5 * trace.min_hf[0]
    # converges toward the value on the limit shape
    assert trace.min_hf[-1] == pytest.approx(1.0, abs=0.05)


def test_cfl_calibration_on_circle(grid256, euclid2):
    # the implicit stabilization removes the explicit bound: 200 steps at
    # 50 times it stay round (an explicit scheme blows up at 3 times)
    s = sphere_surface(grid256)
    dt = 50.0 * stable_dt(s, euclid2)
    surf = s
    for _ in range(200):
        surf, _ = step(surf, euclid2, dt)
    assert np.max(np.abs(surf.r / surf.r.mean() - 1.0)) < 1e-10


@pytest.mark.parametrize("dim, res, norm", [
    (1, 128, EllipsoidNorm(np.diag([4.0, 1.0]))),
    (1, 128, PerturbedNorm(2, 0.08, SectoralHarmonic(2))),
    (2, 16, EuclideanNorm(3)),
    (2, 32, EuclideanNorm(3)),
], ids=["ellipse2", "perturbed2", "euclid3-16", "euclid3-32"])
def test_step_fixes_rescaled_wulff_shapes(dim, res, norm):
    # where the grid resolves W (|g(aW)| at round-off), one long step from
    # a*W is exactly exp(dt/n) * a*W, and the step is 1-homogeneous
    grid = make_grid(dim, res)
    s = wulff_surface(norm, grid, 1.3)
    dt = 0.25
    s1, _ = step(s, norm, dt)
    assert np.max(np.abs(s1.r / (np.exp(dt / dim) * s.r) - 1.0)) <= 1e-12
    s2, _ = step(s.scaled(3.7), norm, dt)
    assert np.max(np.abs(s2.r / (3.7 * s1.r) - 1.0)) <= 1e-14


@pytest.mark.parametrize("norm", [EllipsoidNorm(np.diag([4.0, 2.25, 1.0])),
                                  PerturbedNorm(3, 0.1)],
                         ids=["ellipse3", "perturbed3"])
def test_step_on_unresolved_wulff_shape_adds_no_bias(norm):
    # on the res-16 sphere grid a*W is not a discrete fixed point (the
    # discrete g(aW) is 1e-3 to 1e-2 of r); the step moves the shape by no
    # more than dt * |g(aW)| and scales exactly
    grid = make_grid(2, 16)
    s = StarSurface(grid, grid.spectral_filter(
        1.3 * norm.wulff_radius(grid.nodes)))
    dt = 0.25
    g = radial_speed(s, norm) - s.r / 2.0
    s1, _ = step(s, norm, dt)
    dev = np.max(np.abs(s1.r * np.exp(-dt / 2.0) - s.r))
    assert dev <= dt * np.max(np.abs(g))
    s2, _ = step(s.scaled(0.4), norm, dt)
    assert np.max(np.abs(s2.r / (0.4 * s1.r) - 1.0)) <= 1e-14


def _heun_flow(norm, surface, t_end, cfl):
    """Reference: the explicit Heun stepping under the parabolic bound that
    run_flow used before its IMEX step.  Returns the final raw surface."""
    grid = surface.grid
    surface = StarSurface(grid, grid.spectral_filter(surface.r),
                          surface.center)
    t = 0.0
    while t < t_end - 1e-13:
        cache = geometry(surface, norm)
        dt = min(cfl * stable_dt(surface, norm, cache), t_end - t)
        k1 = radial_speed(surface, norm, cache)
        r1 = grid.spectral_filter(surface.r + dt * k1)
        k2 = radial_speed(StarSurface(grid, r1, surface.center), norm)
        surface = StarSurface(
            grid, grid.spectral_filter(surface.r + 0.5 * dt * (k1 + k2)),
            surface.center)
        t += dt
    return surface


_SUITE_CURVES = {
    "tilt": [{"k": 1, "delta": 0.3}],
    "two-lobe": [{"k": 1, "delta": 0.25, "phase": 1.0}],
    "oval": [{"k": 2, "delta": 0.08}],
    "tri": [{"k": 3, "delta": 0.03}, {"k": 1, "delta": 0.1, "phase": 0.5}],
    "mixed": [{"k": 2, "delta": 0.06}, {"k": 1, "delta": 0.15, "phase": 4.0}],
}


def test_imex_flow_agrees_with_heun_reference():
    # the 15 curve x norm flows of the acceptance suite to t = 0.5
    grid = make_grid(1, 64)
    norms = (EuclideanNorm(2), EllipsoidNorm(np.diag([4.0, 1.0])),
             PerturbedNorm(2, 0.08, SectoralHarmonic(2)))
    t_end = 0.5
    worst_r = worst_q = 0.0
    for harmonics in _SUITE_CURVES.values():
        surface = fourier_surface(grid, 1.0, harmonics)
        for norm in norms:
            trace, final = run_flow(FlowConfig(norm=norm, surface=surface,
                                               t_end=t_end, cfl=1.0,
                                               cadence=0.25))
            ref = _heun_flow(norm, surface, t_end, 1.0)
            worst_r = max(worst_r, float(np.max(np.abs(
                final.r - np.exp(-t_end) * ref.r))))
            worst_q = max(worst_q, abs(trace.q[-1] - q_functional(
                ref, norm, np.zeros(2))))
    assert worst_r <= 1e-3
    assert worst_q <= 1e-4


def test_per_node_stabilizer_step_count_and_accuracy(monkeypatch, ellipse2):
    # on the tilt curve under diag(4,1) the diffusion coefficient varies
    # strongly from node to node; a constant stabilizer at its maximum took
    # 169 steps here at 64 nodes and 173 at 256, the per-node one (on the
    # modes below 32 at 256 nodes) about a third of that, and both results
    # stay within 1e-3 of a 64-node run at a 100 times tighter tolerance
    def flow(res):
        grid = make_grid(1, res)
        return run_flow(FlowConfig(
            norm=ellipse2, surface=fourier_surface(
                grid, 1.0, _SUITE_CURVES["tilt"]),
            t_end=0.5, cfl=1.0, cadence=0.25))
    runs = {res: flow(res) for res in (64, 256)}
    assert max(trace.steps_taken for trace, _ in runs.values()) <= 85
    monkeypatch.setattr("wulff_lab.iamcf._RTOL", 5e-4)
    _, ref = flow(64)
    assert np.max(np.abs(runs[64][1].r - ref.r)) <= 1e-3
    assert np.max(np.abs(runs[256][1].r[::4] - ref.r)) <= 1e-3


def test_records_fall_on_cadence_marks(euclid2):
    g = make_grid(1, 64)
    s = fourier_surface(g, 1.0, [{"k": 2, "delta": 0.08}])
    trace, _ = run_flow(FlowConfig(norm=euclid2, surface=s, t_end=0.7,
                                   cfl=1.0, cadence=0.25))
    assert list(trace.times) == [0.0, 0.25, 0.5, 0.7]
    # fewer steps than the explicit bound allows, and never below it
    assert trace.steps_taken < 0.7 / stable_dt(s, euclid2)


@pytest.mark.parametrize("dim, res, t_end, cadence", [
    (1, 256, 1.0, 0.25), (2, 48, 0.1, 0.05)], ids=["circle", "sphere"])
def test_derivative_error_on_round_spheres_is_floored(dim, res, t_end, cadence):
    # dQ/dt vanishes on round spheres, where the finite difference and the
    # formula are both round-off; the relative error must not read their
    # quotient
    norm = EuclideanNorm(dim + 1)
    trace, _ = run_flow(FlowConfig(norm=norm,
                                   surface=sphere_surface(make_grid(dim, res)),
                                   t_end=t_end, cfl=0.8, cadence=cadence))
    rep = monotonicity_report(trace)
    assert abs(rep.derivative_formula) < 1e-15
    assert rep.derivative_rel_error <= 1e-3


def test_derivative_error_unfloored_on_moving_shape(ellipse3):
    # the flow-sphere benchmark's zonal surface: dQ/dt is far above the
    # round-off floor, so the relative error is the plain ratio
    grid = make_grid(2, 32)
    s = fourier_surface(grid, 1.0, [{"kind": "zonal", "k": 2, "delta": 0.1}])
    trace, _ = run_flow(FlowConfig(norm=ellipse3, surface=s, t_end=0.1,
                                   cfl=0.8, cadence=0.05))
    rep = monotonicity_report(trace)
    assert rep.derivative_rel_error == abs(
        rep.derivative_fd - rep.derivative_formula) / abs(rep.derivative_formula)
    assert rep.derivative_rel_error < 1e-2


@pytest.mark.parametrize("dim, res, spec", [
    (1, 64, {"family": "euclidean", "dim": 1}),
    (1, 64, {"family": "ellipsoid", "matrix": [[4.0, 0.0], [0.0, 1.0]]}),
    (1, 64, {"family": "perturbed", "dim": 1, "epsilon": 0.08,
             "harmonic": {"kind": "sectoral", "degree": 2}}),
    (2, 16, {"family": "ellipsoid",
             "matrix": [[4.0, 0.0, 1.0], [0.0, 2.25, 0.0], [1.0, 0.0, 1.0]]}),
    (2, 16, {"family": "perturbed", "dim": 2, "epsilon": 0.1,
             "harmonic": {"kind": "product"}}),
], ids=["euclid-1", "ellipse-1", "perturbed-1", "ellipsoid-2", "perturbed-2"])
def test_flow_reads_only_the_tangent_form(dim, res, spec, monkeypatch):
    # the flow and its dQ/dt check read D^2F through `tangent_form` alone
    # (no norm family has a full Hessian), and each record solves the dual
    # norm once, besides the Wulff shape's
    norm = norm_from_spec(spec)
    calls = []

    def counting(x):
        calls.append(len(x))
        return dual_value(x)

    dual_value = norm.dual_value
    monkeypatch.setattr(norm, "dual_value", counting)
    harmonics = ([{"k": 2, "delta": 0.06}, {"k": 1, "delta": 0.15}] if dim == 1
                 else [{"kind": "zonal", "k": 2, "delta": 0.05}])
    surface = fourier_surface(make_grid(dim, res), 1.0, harmonics)
    trace, _ = run_flow(FlowConfig(norm, surface, t_end=0.04, cadence=0.02))
    assert trace.steps_taken > 0
    assert len(calls) == 1 + len(trace.times)
    monotonicity_report(trace)
