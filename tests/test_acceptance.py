"""Acceptance suite.

One test per acceptance criterion; each prints a PASS/FAIL line with the
measured quantity and enforces the stated tolerance (and runtime budget
where one is stated).  Run with `pytest -v -s tests/test_acceptance.py` to
see the lines as they complete.
"""

import json
import time

import numpy as np
import pytest

from wulff_lab import (
    EllipsoidNorm,
    EuclideanNorm,
    FlowConfig,
    PerturbedNorm,
    SectoralHarmonic,
    deficit_pmomentum,
    deficit_thm11,
    family_surfaces,
    fourier_surface,
    geometry,
    make_grid,
    make_wulff,
    quantitative_wulff,
    run_flow,
    sphere_surface,
    stability_sweep,
    verify_duality,
    wulff_surface,
)
from wulff_lab.cli import run as cli_run


def _report(num, name, ok, detail):
    line = f"CRITERION {num:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def norms():
    return {
        "euclid2": EuclideanNorm(2),
        "euclid3": EuclideanNorm(3),
        "ellipse2": EllipsoidNorm(np.diag([4.0, 1.0])),
        "ellipse3": EllipsoidNorm(np.diag([4.0, 2.25, 1.0])),
        "perturbed2": PerturbedNorm(2, 0.1),
        "perturbed3": PerturbedNorm(3, 0.1),
    }


def test_criterion_01_duality_suite(norms):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_closed = 0.0
    for key in ("euclid2", "euclid3", "ellipse2", "ellipse3"):
        rep = verify_duality(norms[key], 1000, rng)
        worst_closed = max(worst_closed, rep.max_residual)
    worst_pert = 0.0
    for key in ("perturbed2", "perturbed3"):
        rep = verify_duality(norms[key], 1000, rng)
        worst_pert = max(worst_pert, rep.max_residual)
    elapsed = time.perf_counter() - t0
    ok = worst_closed < 1e-10 and worst_pert < 1e-6 and elapsed < 5.0
    _report(1, "duality residuals",
            ok, f"closed-form {worst_closed:.2e} (tol 1e-10), "
                f"perturbed {worst_pert:.2e} (tol 1e-6), {elapsed:.1f}s (< 5s)")


def test_criterion_02_wulff_identity(norms):
    worst = 0.0
    for key in ("euclid2", "ellipse2", "perturbed2"):
        w = make_wulff(norms[key], make_grid(1, 512))
        worst = max(worst, w.identity_residual)
    for key in ("euclid3", "ellipse3", "perturbed3"):
        w = make_wulff(norms[key], make_grid(2, 64))
        worst = max(worst, w.identity_residual)
    ok = worst < 1e-6
    _report(2, "perimeter = (n+1) volume on the Wulff shape",
            ok, f"max relative residual {worst:.2e} (tol 1e-6)")


def test_criterion_03_equality_cases(norms):
    t0 = time.perf_counter()
    grid = make_grid(1, 512)
    rng = np.random.default_rng(103)
    worst = 0.0
    for key in ("euclid2", "ellipse2", "perturbed2"):
        norm = norms[key]
        for a in (0.5, 1.0, 3.0):
            p = rng.uniform(-a, a, size=2)
            s = wulff_surface(norm, grid, a, p)
            worst = max(worst, abs(deficit_thm11(s, norm, p)))
            for pexp in (1.0, 2.0, 3.0):
                worst = max(worst, abs(deficit_pmomentum(s, norm, p, pexp)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-7 and elapsed < 30.0
    _report(3, "deficits vanish on rescaled translated Wulff shapes",
            ok, f"max |deficit| {worst:.2e} (tol 1e-7), {elapsed:.1f}s (< 30s)")


def test_criterion_04_flow_exactness(norms):
    t0 = time.perf_counter()
    cfg1 = FlowConfig(norm=norms["euclid2"],
                      surface=sphere_surface(make_grid(1, 256)),
                      t_end=1.0, cfl=0.8, cadence=0.25)
    trace1, _ = run_flow(cfg1)
    err1 = float(np.max(np.abs(trace1.snapshots[-1] / np.e - 1.0)))
    cfg2 = FlowConfig(norm=norms["euclid3"],
                      surface=sphere_surface(make_grid(2, 48)),
                      t_end=1.0, cfl=0.8, cadence=0.25)
    trace2, _ = run_flow(cfg2)
    err2 = float(np.max(np.abs(trace2.snapshots[-1] / np.exp(0.5) - 1.0)))
    elapsed = time.perf_counter() - t0
    ok = err1 < 1e-4 and err2 < 1e-4 and elapsed < 120.0 and elapsed < 600.0
    _report(4, "spheres follow r0 * exp(t/n)",
            ok, f"n=1 rel err {err1:.2e}, n=2 rel err {err2:.2e} (tol 1e-4), "
                f"{elapsed:.1f}s (< 2 min; n=2 run < 10 min)")


def test_criterion_05_perimeter_growth_law(norms):
    grid = make_grid(1, 128)
    s = fourier_surface(grid, 1.0, [{"k": 1, "delta": 0.3}])
    cfg = FlowConfig(norm=norms["ellipse2"], surface=s, t_end=1.0,
                     cfl=0.8, cadence=0.1)
    trace, _ = run_flow(cfg)
    resid = float(np.max(np.abs(
        trace.perimeter / (trace.perimeter[0] * np.exp(trace.times)) - 1.0)))
    ok = resid < 1e-3
    _report(5, "anisotropic perimeter grows like e^t",
            ok, f"max relative residual {resid:.2e} (tol 1e-3)")


_FLOW_CURVES = {
    "tilt": [{"k": 1, "delta": 0.3}],
    "two-lobe": [{"k": 1, "delta": 0.25, "phase": 1.0}],
    "oval": [{"k": 2, "delta": 0.08}],
    "tri": [{"k": 3, "delta": 0.03}, {"k": 1, "delta": 0.1, "phase": 0.5}],
    "mixed": [{"k": 2, "delta": 0.06}, {"k": 1, "delta": 0.15, "phase": 4.0}],
}


@pytest.fixture(scope="module")
def flow_suite(norms):
    """Fifteen runs (5 curves x 3 norms) to t = 10, shared by criteria 6-7."""
    grid = make_grid(1, 64)
    flow_norms = {
        "euclid": norms["euclid2"],
        "ellipse": norms["ellipse2"],
        "perturbed": PerturbedNorm(2, 0.08, SectoralHarmonic(2)),
    }
    t0 = time.perf_counter()
    runs = {}
    for cname, harmonics in _FLOW_CURVES.items():
        surface = fourier_surface(grid, 1.0, harmonics)
        for nname, norm in flow_norms.items():
            assert geometry(surface, norm).min_mean_curv > 0.25
            cfg = FlowConfig(norm=norm, surface=surface, t_end=10.0,
                             cfl=1.0, cadence=0.25)
            trace, _ = run_flow(cfg)
            runs[(cname, nname)] = trace
    print(f"\n[flow suite: 15 runs to t=10 in "
          f"{time.perf_counter() - t0:.1f}s]")
    return runs


def test_criterion_06_monotonicity(flow_suite):
    worst = -np.inf
    for (cname, nname), trace in flow_suite.items():
        inc = float(np.max(np.diff(trace.q)))
        worst = max(worst, inc)
    ok = worst <= 1e-8
    _report(6, "Q nonincreasing over 5 curves x 3 norms",
            ok, f"max increment {worst:.2e} (tol 1e-8)")


def test_criterion_07_convergence_to_wulff(flow_suite):
    worst_dist = 0.0
    worst_slope = -np.inf
    for (cname, nname), trace in flow_suite.items():
        worst_dist = max(worst_dist, float(trace.sup_dist[-1]))
        # fit the exponential regime: after the initial transient and above
        # the discretization floor the run eventually settles on
        floor = float(np.min(trace.sup_dist))
        mask = ((trace.sup_dist > max(10.0 * floor, 1e-11))
                & (trace.sup_dist < trace.sup_dist[0] / 10.0))
        t = trace.times[mask]
        y = np.log(trace.sup_dist[mask])
        assert len(t) >= 5, f"too few samples in regime for {cname}/{nname}"
        slope, intercept = np.polyfit(t, y, 1)
        rms = float(np.sqrt(np.mean((y - (slope * t + intercept)) ** 2)))
        assert rms < 0.3, f"log-distance not linear for {cname}/{nname}"
        worst_slope = max(worst_slope, float(slope))
    ok = worst_dist < 1e-3 and worst_slope < -0.1
    _report(7, "exponential convergence to a rescaled Wulff shape",
            ok, f"sup|r_hat/rho - a| at t=10: {worst_dist:.2e} (tol 1e-3), "
                f"slowest log-slope {worst_slope:.2f} (< -0.1)")


def random_star_surface(grid, norm, rng, max_tries=200):
    """Rejection-sample a strictly F-mean-convex curve: radial Fourier modes
    k = 1..4 of amplitude 0.25 * U(-1, 1) / k^2 and uniform phase, drawn
    again until min H_F > 0 under `norm`."""
    for _ in range(max_tries):
        harmonics = [{"k": k, "delta": 0.25 * rng.uniform(-1.0, 1.0) / k ** 2,
                      "phase": rng.uniform(0.0, 2.0 * np.pi)}
                     for k in range(1, 5)]
        surf = fourier_surface(grid, 1.0, harmonics)
        if geometry(surf, norm).min_mean_curv > 1e-6:
            return surf
    raise RuntimeError("could not sample an F-mean-convex curve")


def test_random_star_surface_is_admissible(grid256, ellipse2):
    rng = np.random.default_rng(14)
    s = random_star_surface(grid256, ellipse2, rng)
    assert geometry(s, ellipse2).min_mean_curv > 0


def test_criterion_08_deficit_positivity(norms):
    grid = make_grid(1, 128)
    rng = np.random.default_rng(108)
    cycle = [norms["euclid2"], norms["ellipse2"], norms["perturbed2"]]
    worst = np.inf
    for i in range(50):
        norm = cycle[i % 3]
        s = random_star_surface(grid, norm, rng)
        worst = min(worst, deficit_thm11(s, norm))
        worst = min(worst, deficit_pmomentum(s, norm, None, 2.0))
    ok = worst >= -1e-8
    _report(8, "deficits nonnegative on 50 random admissible curves",
            ok, f"most negative deficit {worst:.2e} (tol -1e-8)")


@pytest.fixture(scope="module")
def sweep_rows(norms):
    t0 = time.perf_counter()
    rows = stability_sweep(family_surfaces(
        {"deltas": [0.05, 0.1, 0.2, 0.4], "harmonics": [{"k": 1, "delta": 1.0}]},
        make_grid(1, 512)), norms["euclid2"])
    return rows, time.perf_counter() - t0


def test_criterion_09_stability_scaling(sweep_rows):
    rows, elapsed = sweep_rows
    r_alpha = [r["ratio_alpha_f1"] for r in rows]
    r_dist = [r["ratio_dist_f2"] for r in rows]
    spread = max(max(r_alpha) / min(r_alpha), max(r_dist) / min(r_dist))
    finite = all(np.isfinite(r_alpha + r_dist))
    alpha = [r["alpha"] for r in rows]
    dist = [r["hausdorff"] for r in rows]
    f1 = [r["f1_eps1"] for r in rows]
    f2 = [r["f2_eps1"] for r in rows]
    monotone = (all(np.diff(alpha) > 0) and all(np.diff(dist) > 0)
                and all(np.diff(f1) > 0) and all(np.diff(f2) > 0))
    ok = finite and spread < 1e2 and monotone and elapsed < 300.0
    _report(9, "modulus ratios bounded along r = 1 + delta cos",
            ok, f"ratio spread {spread:.1f} (< 100), monotone columns: "
                f"{monotone}, {elapsed:.1f}s (< 5 min)")


def test_criterion_10_quantitative_wulff(sweep_rows):
    rows, _ = sweep_rows
    deficits = [r["qw_deficit"] for r in rows]
    ratios = [r["qw_alpha_sq"] / r["qw_deficit"] for r in rows]
    ok = (min(deficits) >= -1e-10 and all(np.isfinite(ratios))
          and max(ratios) < 1e2)
    _report(10, "quantitative Wulff deficit sign and ratio",
            ok, f"min deficit {min(deficits):.2e} (>= 0), "
                f"alpha^2/deficit in [{min(ratios):.2f}, {max(ratios):.2f}]")


def test_criterion_11_determinism(tmp_path):
    cfg = {
        "norm": {"family": "perturbed", "dim": 1, "epsilon": 0.1},
        "grid": {"dim": 1, "resolution": 96},
        "surface": {"kind": "radial-fourier", "r0": 1.0,
                    "harmonics": [{"k": 1, "delta": 0.2}]},
        "flow": {"t_end": 0.3, "cfl": 0.8, "cadence": 0.05},
        "seed": 7,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    blobs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert cli_run("flow", str(path), out) == 0
        blobs.append((out / "summary.json").read_bytes()
                     + (out / "trace.csv").read_bytes())
    ok = blobs[0] == blobs[1]
    _report(11, "identical config and seed give byte-identical outputs",
            ok, f"{len(blobs[0])} bytes compared")
