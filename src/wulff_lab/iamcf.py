"""Inverse anisotropic mean curvature flow on radial graphs.

The flow moves each surface point with normal velocity F(normal)/H_F, which
for a radial graph r(theta, t) about a fixed center reduces to

    dr/dt = F(normal) * sqrt(r^2 + |grad r|^2) / (H_F * r).

Time stepping is a two-stage IMEX trapezoid on the rescaled field
u = exp(-t/n) r (see `step`): the stiff part c*Delta u is solved implicitly,
with c each node's linearized diffusion coefficient on circles (on the
lowest modes of a fine circle, see `step`) and their maximum on spheres, so
the step size is set by an embedded error estimate rather than a parabolic
bound.  A rescaled Wulff shape is an exact fixed point of the step.  The
companion "modified" trajectory -- the surface rescaled by exp(-t/n) and
recentered toward a chosen point P -- is obtained by bookkeeping on the
stored radial field, and is what the recorded diagnostics (the monotone
quotient Q, the distance to a fitted rescaled Wulff shape, the barrier
range) refer to.
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

# Margin applied to the exact linear stability bound of an explicit
# two-stage scheme (see stable_dt).
_CFL_MARGIN = 0.85

# Relative tolerance of the embedded error estimate of `step`, against the
# step's own increment.
_RTOL = 0.05

TRACE_COLUMNS = ("t", "dt", "Q", "perimeter_F", "volume", "minHF",
                 "supDistToWulff")

# Floor of the dQ/dt relative error's denominator, relative to the size of
# the formula's terms: a round-off multiple, far below any moving shape's
# dQ/dt.
_ROUNDOFF_FLOOR = 1e6 * np.finfo(float).eps

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
    radial operator, measured against unit chart wavenumbers.

    `step` uses it node by node on circles and its maximum on spheres as
    the implicit stabilizer; `stable_dt` uses its maximum.  It must
    dominate the true coefficient at every node: see `step`."""
    return cache.f_normal * cache.norm_hess_max / (
        cache.aniso_mean_curv ** 2 * surface.r ** 2)


def stable_dt(surface, norm, cache=None):
    """Largest time step an explicit two-stage scheme tolerates here.

    The IMEX step has no such bound; `run_flow` takes cfl times this value as
    its first step and as the floor under the error-controlled step.
    """
    if cache is None:
        cache = geometry(surface, norm)
    if cache.min_mean_curv <= 0.0:
        raise MeanConvexityError("stable_dt requires strict F-mean convexity")
    dmax = float(np.max(_diffusion_bound(surface, cache)))
    return 2.0 * _CFL_MARGIN / (surface.grid.curvature_symbol_bound * dmax)


def step(surface, norm, dt, cache=None):
    """One IMEX trapezoid step of the radial flow.

    Returns (new surface, error ratio); dt=0 returns (surface, 0.0).

    The step acts on the rescaled field u = exp(-t/n) r, whose velocity
    g(u) = V(u) - u/n vanishes on rescaled Wulff shapes.  V is 1-homogeneous,
    so the step is applied to r itself and the result multiplied by
    exp(dt/n).  The stabilizing term c*Delta is implicit and everything
    else explicit:

        u1    = u + S_dt (dt g(u)),
        u_new = u1 + S_dt/2 (u - u1 + dt/2 (g(u) + g(u1))),

    with S_a = (I - a c Delta)^-1 the grid's shifted Laplace solve.  The
    second line is (I - dt/2 c Delta)^-1 [u + dt/2 (g(u) + g(u1))
    - dt/2 c Delta u1].

    On circles c = diag(D_i), each node's own `_diffusion_bound` D_i; the
    grid solves that exactly up to 64 nodes, and on a finer circle for the
    modes below 32 only, with max_i D_i above them (see
    `SphereGrid.shifted_laplace_solve`).  On spheres the spectral solve takes
    one constant, so c = max_i D_i.  Where D varies from node to node, a
    constant c adds a splitting error of order c k^2 dt that the error
    estimate below reads as the flow's, and the step shrinks.  c must
    dominate D at every node: in the stiff limit a mode's amplification is
    1 - 3 rho + rho^2 with rho = D / c, which leaves [-1, 1] for rho in
    (1, 2), so c = max/2 or c = mean is unstable.  rho = 1 gives -1: a
    stiff mode is carried undamped, not grown.  On curves the true
    coefficient is D_i r^2 / (r^2 + r'^2), so rho = 1 only where r' = 0.

    The error ratio max|u_new - u1| over (1e-9 max u + _RTOL max|u_new - u|)
    compares the first-order stage with the second-order result; it is
    scaled by the step's own increment, so it stays meaningful as the shape
    converges.  Stage values pass through the grid's spectral filter (the
    identity on circle grids).
    """
    if dt == 0.0:
        return surface, 0.0
    grid = surface.grid
    n = grid.dim
    if cache is None:
        cache = geometry(surface, norm)
    c = _diffusion_bound(surface, cache)
    if n > 1:
        c = float(np.max(c))
    u = surface.r
    g0 = radial_speed(surface, norm, cache) - u / n
    u1 = grid.spectral_filter(
        u + grid.shifted_laplace_solve(dt * g0, dt * c))
    g1 = radial_speed(StarSurface(grid, u1, surface.center), norm) - u1 / n
    u_new = grid.spectral_filter(u1 + grid.shifted_laplace_solve(
        u - u1 + 0.5 * dt * (g0 + g1), 0.5 * dt * c))
    if not np.all(np.isfinite(u_new)) or np.any(u_new <= 0.0):
        raise RuntimeError("non-finite or non-positive radial update; "
                           "reduce the CFL factor or refine the grid")
    err = float(np.max(np.abs(u_new - u1)) / (
        1e-9 * np.max(u) + _RTOL * np.max(np.abs(u_new - u))))
    return StarSurface(grid, np.exp(dt / n) * u_new, surface.center), err


@dataclass
class FlowConfig:
    """Inputs of one flow run.

    cadence is the diagnostic recording interval in flow time: steps are
    cut to land exactly on every multiple of it and on t_end, and records
    are taken there and at t=0.  A nonpositive cadence records every step.
    cfl in (0, 1] scales `stable_dt`, the explicit scheme's bound; that
    scaled bound is the first time step and the floor under the
    error-controlled steps after it.
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
    mark = 1
    dt_ctrl = 0.0
    steps = 0
    while t < config.t_end:
        next_t = mark * cadence
        if cadence <= 0.0 or next_t > config.t_end - 1e-12:
            next_t = config.t_end
        dt_want = max(dt_ctrl, config.cfl * stable_dt(surface, norm, cache))
        clipped = t + dt_want >= next_t
        dt = next_t - t if clipped else dt_want
        surface, err = step(surface, norm, dt, cache)
        t = next_t if clipped else t + dt
        steps += 1
        if steps > config.max_steps:
            raise RuntimeError(
                f"max step count {config.max_steps} exceeded at t = {t:.4g}")
        grow = min(2.0, 0.9 / np.sqrt(err)) if err > 0.0 else 2.0
        # a step cut short at a mark does not show that dt_want could grow,
        # only (when even the short step erred) that it must shrink
        dt_ctrl = dt_want * min(grow, 1.0) if clipped else dt * grow
        cache = geometry(surface, norm)
        if clipped or cadence <= 0.0:
            _record_state(trace, surface, norm, t, dt, cache)
            if clipped:
                mark += 1
    trace.steps_taken = steps
    trace.finalize()
    return trace, trace.rescaled_surface(len(trace.times) - 1)


# --------------------------------------------------------------------------
# Monotonicity diagnostics
# --------------------------------------------------------------------------


def _q_derivative_terms(surface, norm, center, cache=None):
    """Exact dQ/dt of the flow on one surface, split as (prefactor, terms):
    the scale variation of the perimeter and the first variations of the
    weighted momentum and the enclosed volume."""
    if cache is None:
        cache = geometry(surface, norm)
    n = surface.grid.dim
    center = np.asarray(center, dtype=float)
    per = float(np.sum(cache.aniso_area_w))
    mom = weighted_momentum(surface, norm, center, 1.0, cache)
    vol = volume(surface)
    rel = surface.points - center[None, :]
    dual_grad = norm.dual_grad(rel)
    align = np.einsum("ij,ij->i", dual_grad, norm.grad(cache.normal))
    correction = float(np.sum((align - 1.0) / cache.aniso_mean_curv
                              * cache.aniso_area_w))
    return per ** (-1.0 - 1.0 / n), (-mom / n, (1.0 + 1.0 / n) * vol,
                                      correction)


@dataclass
class MonotonicityReport:
    max_increment: float
    derivative_fd: float
    derivative_formula: float
    derivative_rel_error: float
    derivative_time: float


def monotonicity_report(trace):
    """The largest step-to-step increment of Q plus a consistency check of
    dQ/dt against the variational formula at an early recorded time."""
    if len(trace.times) < 2:
        raise ValueError("monotonicity report needs at least two samples")
    if len(trace.times) >= 3:
        idx = 1
        fd = (trace.q[2] - trace.q[0]) / (trace.times[2] - trace.times[0])
    else:
        idx = 0
        fd = (trace.q[1] - trace.q[0]) / (trace.times[1] - trace.times[0])
    surf = trace.raw_surface(idx)
    prefactor, terms = _q_derivative_terms(surf, trace.norm, trace.center)
    formula = prefactor * sum(terms)
    # on a stationary shape (a round sphere) dQ/dt is zero and both values
    # are round-off; the floor keeps the ratio from reading their quotient
    denom = max(abs(formula),
                _ROUNDOFF_FLOOR * prefactor * sum(abs(x) for x in terms))
    return MonotonicityReport(
        max_increment=float(np.max(np.diff(trace.q))),
        derivative_fd=float(fd),
        derivative_formula=float(formula),
        derivative_rel_error=float(abs(fd - formula) / denom),
        derivative_time=float(trace.times[idx]),
    )
