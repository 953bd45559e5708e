"""Inverse anisotropic mean curvature flow on radial graphs.

The flow moves each surface point with normal velocity F(normal)/H_F, which
for a radial graph r(theta, t) about a fixed center reduces to

    dr/dt = F(normal) * sqrt(r^2 + |grad r|^2) / (H_F * r).

Time stepping is explicit two-stage Runge-Kutta (Heun) under a parabolic
CFL bound derived from the linearized radial operator.  The companion
"modified" trajectory -- the surface rescaled by exp(-t/n) and recentered
toward a chosen point P -- is obtained by bookkeeping on the stored radial
field, and is what the recorded diagnostics (the monotone quotient Q, the
distance to a fitted rescaled Wulff shape, the barrier range) refer to.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .hypersurface import (
    MeanConvexityError,
    StarSurface,
    geometry,
    q_functional,
    volume,
    weighted_momentum,
)

# Margin applied to the exact linear stability bound of the Heun scheme.
_CFL_MARGIN = 0.85

TRACE_COLUMNS = ("t", "dt", "Q", "perimeter_F", "volume", "minHF",
                 "supDistToWulff")

# Per-record arrays of a FlowTrace, appended to while running.
_RECORD_FIELDS = ("times", "dts", "q", "perimeter", "volume", "min_hf",
                  "sup_dist", "fitted_a", "barrier_lo", "barrier_hi")


def radial_speed(surface, norm, cache=None):
    """dr/dt field of the flow; requires H_F > 0 everywhere."""
    if cache is None:
        cache = geometry(surface, norm)
    if cache.min_mean_curv <= 0.0:
        raise MeanConvexityError(
            "flow left the strictly F-mean-convex class "
            f"(min H_F = {cache.min_mean_curv:.3e})")
    grad_sq = np.einsum("ij,ij->i", cache.grad_r, cache.grad_r)
    sq = np.sqrt(surface.r ** 2 + grad_sq)
    return cache.f_normal * sq / (cache.aniso_mean_curv * surface.r)


def _diffusion_bound(surface, cache):
    """Per-node bound on the second-derivative coefficient of the linearized
    radial operator, measured against unit chart wavenumbers."""
    return cache.f_normal * cache.norm_hess_max / (
        cache.aniso_mean_curv ** 2 * surface.r ** 2)


def stable_dt(surface, norm, cache=None):
    """Largest time step the explicit scheme tolerates on this surface."""
    if cache is None:
        cache = geometry(surface, norm)
    if cache.min_mean_curv <= 0.0:
        raise MeanConvexityError("stable_dt requires strict F-mean convexity")
    dmax = float(np.max(_diffusion_bound(surface, cache)))
    return 2.0 * _CFL_MARGIN / (surface.grid.curvature_symbol_bound * dmax)


def step(surface, norm, dt, cache=None):
    """One Heun step of the radial flow; dt=0 returns the surface unchanged.

    Stage values and the final update pass through the grid's spectral
    filter, which keeps the explicit scheme stable near the poles of
    latitude-longitude grids (it is the identity on circle grids).
    """
    if dt == 0.0:
        return surface
    grid = surface.grid
    k1 = radial_speed(surface, norm, cache)
    r1 = grid.spectral_filter(surface.r + dt * k1)
    k2 = radial_speed(StarSurface(grid, r1, surface.center), norm)
    r_new = grid.spectral_filter(surface.r + 0.5 * dt * (k1 + k2))
    if not np.all(np.isfinite(r_new)) or np.any(r_new <= 0.0):
        raise RuntimeError("non-finite or non-positive radial update; "
                           "reduce the CFL factor or refine the grid")
    return StarSurface(grid, r_new, surface.center)


@dataclass
class FlowConfig:
    """Inputs of one flow run.

    cadence is the diagnostic recording interval in flow time; records are
    taken at every step crossing a cadence mark, plus t=0 and t=t_end.
    A nonpositive cadence records every step.
    """

    norm: object
    surface: StarSurface
    t_end: float
    cfl: float = 0.8
    max_steps: int = 500_000
    center: np.ndarray = None
    cadence: float = 0.05

    def __post_init__(self):
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        if self.center is None:
            self.center = np.zeros(self.surface.grid.dim + 1)
        else:
            self.center = np.asarray(self.center, dtype=float)


@dataclass
class FlowTrace:
    """Diagnostics sampled along a flow run.

    All per-record arrays refer to the modified (rescaled, recentered)
    trajectory except `perimeter` and `volume`, which are the raw surface's.
    `snapshots` holds the raw radial fields so later analyses can rebuild
    either trajectory at any recorded time.
    """

    grid: object
    norm: object
    center: np.ndarray               # rescale target P
    surface_center: np.ndarray       # star center of the raw graphs
    wulff_rho: np.ndarray = field(repr=False)
    times: np.ndarray = None
    dts: np.ndarray = None
    q: np.ndarray = None
    perimeter: np.ndarray = None
    volume: np.ndarray = None
    min_hf: np.ndarray = None        # of the rescaled surface
    sup_dist: np.ndarray = None      # max |r_hat/rho - a| with fitted a
    fitted_a: np.ndarray = None
    barrier_lo: np.ndarray = None    # min/max of dual_value(x_hat - P)
    barrier_hi: np.ndarray = None
    snapshots: list = field(default_factory=list, repr=False)
    steps_taken: int = 0

    def __post_init__(self):
        for name in _RECORD_FIELDS:
            if getattr(self, name) is None:
                setattr(self, name, [])

    def _record(self, **kw):
        for name, value in kw.items():
            getattr(self, name).append(value)

    def finalize(self):
        for name in _RECORD_FIELDS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        if len(self.times) and np.any(np.diff(self.times) <= 0.0):
            raise RuntimeError("trace times are not strictly increasing")
        if np.any(self.perimeter <= 0.0) or np.any(self.volume <= 0.0):
            raise RuntimeError("trace recorded a non-positive perimeter or volume")
        return self

    @property
    def n(self):
        return self.grid.dim

    def rescaled_surface(self, index):
        """Modified-trajectory surface at record `index`."""
        t = self.times[index]
        scale = np.exp(-t / self.n)
        c = scale * self.surface_center + (1.0 - scale) * self.center
        return StarSurface(self.grid, scale * self.snapshots[index], c)

    def raw_surface(self, index):
        return StarSurface(self.grid, self.snapshots[index], self.surface_center)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_COLUMNS)
            for i in range(len(self.times)):
                writer.writerow([repr(float(v)) for v in (
                    self.times[i], self.dts[i], self.q[i], self.perimeter[i],
                    self.volume[i], self.min_hf[i], self.sup_dist[i])])

    def summary(self):
        n = self.n
        per0 = self.perimeter[0]
        rescaled_per = np.exp(-self.times) * self.perimeter
        wulff_per = self.grid.integrate(self.wulff_rho ** (n + 1))
        drift = float(np.linalg.norm(
            np.exp(-self.times[-1] / n) * self.surface_center
            + (1.0 - np.exp(-self.times[-1] / n)) * self.center - self.center))
        return {
            "records": int(len(self.times)),
            "steps": int(self.steps_taken),
            "t_final": float(self.times[-1]),
            "q_initial": float(self.q[0]),
            "q_final": float(self.q[-1]),
            "q_max_increment": float(np.max(np.diff(self.q))) if len(self.q) > 1 else 0.0,
            "perimeter_growth_residual": float(np.max(np.abs(
                self.perimeter / (per0 * np.exp(self.times)) - 1.0))),
            "rescaled_perimeter_residual": float(np.max(np.abs(
                rescaled_per / per0 - 1.0))),
            "min_hf_final": float(self.min_hf[-1]),
            "sup_dist_final": float(self.sup_dist[-1]),
            "fitted_a_final": float(self.fitted_a[-1]),
            "a_candidate_perimeter": float((per0 / wulff_per) ** (1.0 / n)),
            "barrier_initial": [float(self.barrier_lo[0]), float(self.barrier_hi[0])],
            "barrier_range": [float(np.min(self.barrier_lo)),
                              float(np.max(self.barrier_hi))],
            "barrier_preserved": bool(
                np.min(self.barrier_lo) >= self.barrier_lo[0] - 1e-6
                and np.max(self.barrier_hi) <= self.barrier_hi[0] + 1e-6),
            "center_distance_to_target": drift,
        }


def _record_state(trace, surface, norm, t, dt, cache):
    n = surface.grid.dim
    scale = np.exp(-t / n)
    r_hat = scale * surface.r
    ratio = r_hat / trace.wulff_rho
    a = surface.grid.mean(ratio)
    sup_dist = float(np.max(np.abs(ratio - a)))
    c_hat = scale * surface.center + (1.0 - scale) * trace.center
    x_hat = c_hat[None, :] + r_hat[:, None] * surface.grid.nodes
    barrier = norm.dual_value(x_hat - trace.center[None, :])
    trace._record(
        times=t, dts=dt,
        q=q_functional(surface, norm, trace.center, cache),
        perimeter=float(np.sum(cache.aniso_area_w)),
        volume=volume(surface),
        min_hf=float(np.exp(t / n) * cache.min_mean_curv),
        sup_dist=sup_dist,
        fitted_a=float(a),
        barrier_lo=float(np.min(barrier)),
        barrier_hi=float(np.max(barrier)),
    )
    trace.snapshots.append(surface.r)


def run_flow(config):
    """Run the flow to t_end; returns (FlowTrace, final rescaled surface)."""
    norm = config.norm
    grid = config.surface.grid
    surface = StarSurface(grid, grid.spectral_filter(config.surface.r),
                          config.surface.center)

    cache = geometry(surface, norm)
    if cache.min_mean_curv <= 0.0:
        raise MeanConvexityError(
            "initial surface is not strictly F-mean convex "
            f"(min H_F = {cache.min_mean_curv:.3e})")

    trace = FlowTrace(grid=grid, norm=norm, center=config.center,
                      surface_center=surface.center,
                      wulff_rho=norm.wulff_radius(grid.nodes))
    t = 0.0
    _record_state(trace, surface, norm, t, 0.0, cache)
    cadence = config.cadence
    next_mark = cadence if cadence > 0.0 else 0.0

    steps = 0
    while t < config.t_end - 1e-13:
        dt = min(config.cfl * stable_dt(surface, norm, cache),
                 config.t_end - t)
        surface = step(surface, norm, dt, cache)
        t += dt
        steps += 1
        if steps > config.max_steps:
            raise RuntimeError(
                f"max step count {config.max_steps} exceeded at t = {t:.4g}")
        cache = geometry(surface, norm)
        if (cadence <= 0.0 or t >= next_mark - 1e-12
                or t >= config.t_end - 1e-13):
            _record_state(trace, surface, norm, t, dt, cache)
            if cadence > 0.0:
                next_mark = cadence * (np.floor(t / cadence + 1e-9) + 1.0)
    trace.steps_taken = steps
    trace.finalize()
    return trace, trace.rescaled_surface(len(trace.times) - 1)


# --------------------------------------------------------------------------
# Monotonicity diagnostics
# --------------------------------------------------------------------------


def q_derivative_formula(surface, norm, center, cache=None):
    """Exact dQ/dt of the flow evaluated on one surface.

    Combines the scale variation of the perimeter with the first variation
    of the weighted momentum and the enclosed volume.
    """
    if cache is None:
        cache = geometry(surface, norm)
    n = surface.grid.dim
    center = np.asarray(center, dtype=float)
    per = float(np.sum(cache.aniso_area_w))
    mom = weighted_momentum(surface, norm, center, 1.0, cache)
    vol = volume(surface)
    rel = cache.points - center[None, :]
    dual_grad = norm.dual_grad(rel)
    align = np.einsum("ij,ij->i", dual_grad, cache.aniso_normal)
    correction = float(np.sum((align - 1.0) / cache.aniso_mean_curv
                              * cache.aniso_area_w))
    return per ** (-1.0 - 1.0 / n) * (
        -mom / n + (1.0 + 1.0 / n) * vol + correction)


@dataclass
class MonotonicityReport:
    max_increment: float
    increments: np.ndarray = field(repr=False)
    derivative_fd: float
    derivative_formula: float
    derivative_rel_error: float
    derivative_time: float

    def to_dict(self):
        return {
            "max_increment": self.max_increment,
            "derivative_fd": self.derivative_fd,
            "derivative_formula": self.derivative_formula,
            "derivative_rel_error": self.derivative_rel_error,
            "derivative_time": self.derivative_time,
        }


def monotonicity_report(trace):
    """Step-to-step increments of Q plus a consistency check of dQ/dt
    against the variational formula at an early recorded time."""
    if len(trace.times) < 2:
        raise ValueError("monotonicity report needs at least two samples")
    increments = np.diff(trace.q)
    if len(trace.times) >= 3:
        idx = 1
        fd = (trace.q[2] - trace.q[0]) / (trace.times[2] - trace.times[0])
    else:
        idx = 0
        fd = (trace.q[1] - trace.q[0]) / (trace.times[1] - trace.times[0])
    surf = trace.raw_surface(idx)
    formula = q_derivative_formula(surf, trace.norm, trace.center)
    denom = max(abs(formula), 1e-30)
    return MonotonicityReport(
        max_increment=float(np.max(increments)),
        increments=increments,
        derivative_fd=float(fd),
        derivative_formula=float(formula),
        derivative_rel_error=float(abs(fd - formula) / denom),
        derivative_time=float(trace.times[idx]),
    )
