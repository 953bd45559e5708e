"""Deficits, asymmetry, Hausdorff distance and stability moduli.

Everything here measures how far a star-shaped surface is from being a
rescaled (and translated) Wulff shape: the deficits of the sharp weighted
isoperimetric inequalities, the volume-normalized asymmetry index, the
Hausdorff distance to a fitted rescaled Wulff shape, the pointwise
Cauchy-Schwarz gap integral, and the moduli that convert deficits into
distance bounds.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.spatial import cKDTree

from .hypersurface import (
    aniso_perimeter,
    fourier_surface,
    geometry,
    q_functional,
    volume,
    weighted_momentum,
    wulff_q_value,
)
from .minkowski import make_wulff


def _wulff(norm, grid, wulff=None):
    if wulff is not None:
        if wulff.grid is not grid:
            raise ValueError("wulff shape was sampled on a different grid")
        return wulff
    return make_wulff(norm, grid)


# --------------------------------------------------------------------------
# Inequality deficits
# --------------------------------------------------------------------------


def deficit_thm11(surface, norm, center=None, cache=None, wulff=None):
    """Deficit of the sharp weighted inequality: Q(surface) minus the value
    attained by rescaled Wulff shapes.  Nonnegative for star-shaped,
    F-mean-convex surfaces; zero exactly on rescaled translates of the
    Wulff shape centered at `center`."""
    w = _wulff(norm, surface.grid, wulff)
    q = q_functional(surface, norm, center, cache)
    return q - wulff_q_value(w.volume, n=surface.grid.dim)


def deficit_pmomentum(surface, norm, center=None, p=2.0, cache=None, wulff=None):
    """Deficit of the p-momentum inequality, normalized by the surface's
    anisotropic perimeter and volume."""
    if p < 1.0:
        raise ValueError(f"momentum exponent must be >= 1, got {p}")
    if cache is None:
        cache = geometry(surface, norm)
    n = surface.grid.dim
    c = np.zeros(n + 1) if center is None else np.asarray(center, dtype=float)
    w = _wulff(norm, surface.grid, wulff)
    mom_p = weighted_momentum(surface, norm, c, p, cache)
    per = float(np.sum(cache.aniso_area_w))
    vol = volume(surface)
    return mom_p / (per * vol ** (p / (n + 1.0))) - w.volume ** (-p / (n + 1.0))


def pmomentum_chain(surface, norm, center=None, p=2.0, cache=None, wulff=None):
    """The p-momentum deficit together with its lower bound through the
    first momentum (Holder's inequality), both evaluated by quadrature."""
    if cache is None:
        cache = geometry(surface, norm)
    n = surface.grid.dim
    c = np.zeros(n + 1) if center is None else np.asarray(center, dtype=float)
    w = _wulff(norm, surface.grid, wulff)
    per = float(np.sum(cache.aniso_area_w))
    vol = volume(surface)
    mom1 = weighted_momentum(surface, norm, c, 1.0, cache)
    deficit_p = deficit_pmomentum(surface, norm, c, p, cache, w)
    holder_lower = (mom1 / per) ** p / vol ** (p / (n + 1.0)) \
        - w.volume ** (-p / (n + 1.0))
    eps1 = deficit_thm11(surface, norm, c, cache, w)
    chain_lower = ((vol + per ** (1.0 + 1.0 / n)
                    * (eps1 + wulff_q_value(w.volume, n=n)))
                   / (per * vol ** (1.0 / (n + 1.0)))) ** p \
        - w.volume ** (-p / (n + 1.0))
    return {
        "deficit_p": deficit_p,
        "holder_lower": holder_lower,
        "chain_lower_from_eps1": chain_lower,
        "slack": deficit_p - holder_lower,
    }


# --------------------------------------------------------------------------
# Wulff shape re-graphed about an arbitrary center
# --------------------------------------------------------------------------


def _exit_distance(norm, dirs, offset, scale):
    """Largest root s of F0(offset + s*dir) = scale along each row of dirs.

    F0 is convex along every line, so a Newton iteration started beyond the
    root, at max F(dir) * scale + |offset| with slack (the Wulff radius
    1/F0(dir) never exceeds F(dir)), decreases monotonically onto it.  Each
    step makes one dual solve: F0 is 1-homogeneous, so F0(x) = x.DF0(x), and
    DF0 is warm-started from the previous step's gradient.  A row whose slope
    turns nonpositive has passed the minimum of F0 on its line without a
    root: the line misses the body and the row returns -inf.
    """
    rho_bound = float(np.max(norm.value(dirs)))
    out = np.full(len(dirs), -np.inf)
    s = np.full(len(dirs), 1.1 * (scale * rho_bound + np.linalg.norm(offset)))
    rows = np.arange(len(dirs))
    g = None
    for _ in range(60):
        x = offset[None, :] + s[:, None] * dirs
        g = norm.dual_grad(x, start=g)
        slope = np.einsum("ij,ij->i", g, dirs)
        hit = slope > 0.0
        if not np.all(hit):
            rows, s, dirs, x, g, slope = (a[hit] for a in
                                          (rows, s, dirs, x, g, slope))
        ds = (np.einsum("ij,ij->i", x, g) - scale) / slope
        s = s - ds
        if np.max(np.abs(ds), initial=0.0) < 1e-13 * scale:
            break
    else:
        raise RuntimeError("radial re-graph of the Wulff shape did not converge")
    out[rows] = s
    return out


def wulff_profile_about(norm, grid, scale, wulff_center, graph_center):
    """Radial profile of scale*W + wulff_center as a graph about graph_center.

    Solves dual_value(graph_center + s*theta - wulff_center) = scale for
    s > 0 along every node direction (see `_exit_distance`).  Requires
    graph_center to lie inside the shape, at F0 below 0.999*scale, and
    raises ValueError otherwise.
    """
    wulff_center = np.asarray(wulff_center, dtype=float)
    graph_center = np.asarray(graph_center, dtype=float)
    offset = graph_center - wulff_center
    off_val = norm.dual_value(offset) if np.linalg.norm(offset) > 0.0 else 0.0
    if off_val >= 0.999 * scale:
        raise ValueError("graph center lies outside (or too close to) the shape")
    return _exit_distance(norm, grid.nodes, offset, scale)


# --------------------------------------------------------------------------
# Asymmetry index
# --------------------------------------------------------------------------


@dataclass
class AsymmetryResult:
    alpha: float
    center: np.ndarray
    scale: float
    converged: bool
    method: str = "radial"


def _barycenter(surface):
    n = surface.grid.dim
    r = surface.r
    vol = volume(surface)
    moments = surface.grid.nodes * (r ** (n + 2))[:, None] / (n + 2)
    first = np.array([surface.grid.integrate(moments[:, j])
                      for j in range(n + 1)])
    return surface.center + first / vol


def _symmetric_difference(surface, norm, scale, center):
    """|Omega symdiff L| for L = center + scale*W, by exact ray integration.

    The convex body L meets the ray C + s*theta from the surface's star
    center C in one interval [s_in, s_out].  With R = r^(n+1),
    S = max(s_out, 0)^(n+1) and A = max(s_in, 0)^(n+1) the ray contributes
    (|R - S| + A - 2 max(A - min(R, S), 0)) / (n+1), which is exact in the
    radial variable and continuous in the center.  While C lies inside L
    (F0(C - center) < 0.999*scale) s_in < 0 and s_out is the re-graphed
    profile; otherwise s_in = -s_out(-theta) is solved as well.
    """
    n = surface.grid.dim
    a = 0.0
    try:
        s_out = wulff_profile_about(norm, surface.grid, scale, center,
                                    surface.center)
    except ValueError:   # the star center is not well inside the body
        offset = surface.center - center
        theta = surface.grid.nodes
        s_out = _exit_distance(norm, theta, offset, scale)
        s_in = -_exit_distance(norm, -theta, offset, scale)
        # where one solve misses the line (s_out = -inf or s_in = +inf) the
        # chord is empty: A = S, and the ray contributes R
        a = np.maximum(np.minimum(s_in, s_out), 0.0) ** (n + 1)
    big_r = surface.r ** (n + 1)
    big_s = np.maximum(s_out, 0.0) ** (n + 1)
    ray = (np.abs(big_r - big_s) + a
           - 2.0 * np.maximum(a - np.minimum(big_r, big_s), 0.0)) / (n + 1)
    return surface.grid.integrate(ray)


def _interp_radial(surface, dirs):
    """Evaluate the radial field in arbitrary directions.

    dim=1 uses the trigonometric interpolant Re sum_k c_k z^k in
    z = exp(i*angle), evaluated by Horner's rule; dim=2 uses bivariate
    spline interpolation in the latitude-longitude chart.
    """
    grid = surface.grid
    if grid.dim == 1:
        coeff = np.fft.rfft(surface.r) / grid.n_nodes
        coeff[1:] *= 2.0
        if grid.n_nodes % 2 == 0:
            coeff[-1] *= 0.5   # the Nyquist mode is not doubled
        z = np.exp(1j * np.arctan2(dirs[:, 1], dirs[:, 0]))
        acc = np.full(len(z), coeff[-1])
        for c in coeff[-2::-1]:
            acc *= z
            acc += c
        return acc.real
    from scipy.interpolate import RectBivariateSpline
    r2 = surface.r.reshape(grid.nlat, grid.nlon)
    lon_pad = np.concatenate([grid.lon - 2 * np.pi, grid.lon,
                              grid.lon + 2 * np.pi])
    r_pad = np.concatenate([r2, r2, r2], axis=1)
    spl = RectBivariateSpline(grid.colat, lon_pad, r_pad, kx=3, ky=3)
    colat = np.arccos(np.clip(dirs[:, 2], -1.0, 1.0))
    lon = np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), 2 * np.pi)
    return spl(colat, lon, grid=False)


def asymmetry_index(surface, norm, wulff=None, xatol=1e-8, max_iter=400):
    """Volume-normalized minimal symmetric difference to a volume-matched
    translated rescaled Wulff shape.  The translation is found by Nelder-Mead
    started at the barycenter; every evaluation is the deterministic ray
    integral of `_symmetric_difference`, so `method` is always "radial"."""
    w = _wulff(norm, surface.grid, wulff)
    vol = volume(surface)
    n = surface.grid.dim
    scale = (vol / w.volume) ** (1.0 / (n + 1.0))

    def objective(p):
        return _symmetric_difference(surface, norm, scale, p) / vol

    start = _barycenter(surface)
    res = minimize(objective, start, method="Nelder-Mead",
                   options={"xatol": xatol, "fatol": 1e-12,
                            "maxiter": max_iter})
    return AsymmetryResult(alpha=float(res.fun),
                           center=np.asarray(res.x, dtype=float),
                           scale=float(scale), converged=bool(res.success))


# --------------------------------------------------------------------------
# Hausdorff distance to a fitted rescaled Wulff shape
# --------------------------------------------------------------------------


@dataclass
class HausdorffResult:
    a: float              # fitted scale (area-weighted mean of r/rho)
    a_volume: float       # alternative scale matching enclosed volumes
    sup_norm: float       # max |r - a*rho| over the grid
    hausdorff: float      # two-sided Hausdorff distance to a*W (+ center)
    bound: float          # sup_norm * (1 + max|grad rho| / min rho)
    bound_ok: bool


def _cloud_min_dists(pts_a, pts_b):
    """For each row of pts_a, the distance to and index of the nearest pts_b.

    The neighbour comes from a KD-tree; the distance is recomputed from the
    matched pair so it does not depend on the tree's arithmetic.
    """
    _, idx = cKDTree(pts_b).query(pts_a)
    dist = np.linalg.norm(pts_a - pts_b[idx], axis=1)
    return dist, idx


def _directed_hausdorff(pts_a, curve_fn, params, dist, idx):
    """Directed Hausdorff distance from a point cloud to a parametrized
    curve: parabolic refinement of each nearest-sample distance (dim=1)."""
    h = params[1] - params[0]
    t0 = params[idx]
    d0 = dist ** 2
    dm = np.sum((pts_a - curve_fn(t0 - h)) ** 2, axis=1)
    dp = np.sum((pts_a - curve_fn(t0 + h)) ** 2, axis=1)
    denom = dm - 2.0 * d0 + dp
    shift = np.where(np.abs(denom) > 1e-300,
                     0.5 * (dm - dp) / np.where(denom == 0, 1.0, denom), 0.0)
    shift = np.clip(shift, -1.0, 1.0)
    refined = np.sum((pts_a - curve_fn(t0 + shift * h)) ** 2, axis=1)
    return float(np.sqrt(np.max(np.minimum(d0, refined))))


def hausdorff_to_wulff(surface, norm, wulff=None, oversample=4):
    """Fit a rescaled Wulff shape about the surface's star center and measure
    the sup-norm radial gap and the two-sided Hausdorff distance to it."""
    grid = surface.grid
    w = _wulff(norm, grid, wulff)
    ratio = surface.r / w.rho
    a = grid.mean(ratio)
    a_vol = (volume(surface) / w.volume) ** (1.0 / (grid.dim + 1.0))
    sup_norm = float(np.max(np.abs(surface.r - a * w.rho)))

    if grid.dim == 1:
        m = oversample * grid.n_nodes
        t_fine = 2.0 * np.pi * np.arange(m) / m

        def on_circle(t):
            dirs = np.column_stack([np.cos(t), np.sin(t)])
            return surface.center[None, :] + _interp_radial(surface, dirs)[:, None] * dirs

        def on_wulff(t):
            dirs = np.column_stack([np.cos(t), np.sin(t)])
            return surface.center[None, :] + (a / norm.dual_value(dirs))[:, None] * dirs

        pts_sigma = on_circle(t_fine)
        pts_wulff = on_wulff(t_fine)
        d1, i1 = _cloud_min_dists(pts_sigma, pts_wulff)
        d2, i2 = _cloud_min_dists(pts_wulff, pts_sigma)
        haus = max(_directed_hausdorff(pts_sigma, on_wulff, t_fine, d1, i1),
                   _directed_hausdorff(pts_wulff, on_circle, t_fine, d2, i2))
    else:
        pts_sigma = surface.points
        pts_wulff = surface.center[None, :] + (a * w.rho)[:, None] * grid.nodes
        d1, _ = _cloud_min_dists(pts_sigma, pts_wulff)
        d2, _ = _cloud_min_dists(pts_wulff, pts_sigma)
        haus = float(max(np.max(d1), np.max(d2)))

    grad_rho = grid.gradient(w.rho)
    bound = sup_norm * (1.0 + float(np.max(np.linalg.norm(grad_rho, axis=1)))
                        / float(np.min(w.rho)))
    return HausdorffResult(a=float(a), a_volume=float(a_vol),
                           sup_norm=sup_norm, hausdorff=haus, bound=bound,
                           bound_ok=bool(haus <= bound + 1e-9))


# --------------------------------------------------------------------------
# Cauchy-Schwarz gap integral
# --------------------------------------------------------------------------


@dataclass
class GapResult:
    gap: float                # integral of (F0(x-P) F(nu) - (x-P).nu) d(mu)
    gap_normalized: float     # same with the integrand divided by F0(x-P)
    divergence_form: float    # perimeter - n * integral of 1/F0 over Omega
    identity_residual: float  # |gap_normalized - divergence_form|
    gradient_surrogate: float  # integral of |grad (r/rho)|^2 over the sphere
    ratio: float              # gap / gradient_surrogate (0 when both vanish)


def _regraph_radial(surface, point):
    """Radial field of the surface re-graphed about an interior point.

    Solves |point + s*theta - C| = r(direction) along every node direction
    by vectorized bisection on the interpolated radial field.  The surface
    must be star-shaped about the point (`gap_integral` checks it), so each
    ray crosses it once and the root is unique.
    """
    grid = surface.grid
    offset = np.asarray(point, dtype=float) - surface.center
    if np.linalg.norm(offset) == 0.0:
        return surface.r
    lo = np.zeros(grid.n_nodes)
    hi = np.full(grid.n_nodes, np.max(surface.r) + np.linalg.norm(offset) + 1e-9)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        y = offset[None, :] + mid[:, None] * grid.nodes
        dist = np.linalg.norm(y, axis=1)
        pos = dist > _interp_radial(surface, y / dist[:, None])   # beyond r
        hi = np.where(pos, mid, hi)
        lo = np.where(pos, lo, mid)
    return 0.5 * (lo + hi)


def gap_integral(surface, norm, center=None, cache=None, wulff=None):
    """Integrated pointwise Cauchy-Schwarz gap of a surface, its
    divergence-form equivalent, and the gradient lower-bound surrogate.

    The divergence form per - n * (integral over Omega of 1/F0(x - P)) is
    exact along the rays from the weight center P: with r_P the surface
    re-graphed about P it is per - (integral of r_P^n * rho).  The surface
    must be star-shaped about P: ValueError unless the support function
    (x - P).nu is positive at every node."""
    if cache is None:
        cache = geometry(surface, norm)
    grid = surface.grid
    n = grid.dim
    c = np.zeros(n + 1) if center is None else np.asarray(center, dtype=float)
    rel = cache.points - c[None, :]
    flux = np.einsum("ij,ij->i", rel, cache.normal)
    if np.min(flux) <= 0.0:
        raise ValueError("surface is not star-shaped about the weight center")
    dual = norm.dual_value(rel)
    gap = float(np.sum((dual * cache.f_normal - flux) * cache.area_w))
    gap_norm = float(np.sum((cache.f_normal - flux / dual) * cache.area_w))
    per = float(np.sum(cache.aniso_area_w))
    w = _wulff(norm, grid, wulff)
    divergence = per - grid.integrate(_regraph_radial(surface, c) ** n * w.rho)
    ratio_field = surface.r / w.rho
    grad_ratio = grid.gradient(ratio_field)
    surrogate = grid.integrate(np.einsum("ij,ij->i", grad_ratio, grad_ratio))
    ratio = gap / surrogate if surrogate > 1e-15 else 0.0
    return GapResult(gap=gap, gap_normalized=gap_norm,
                     divergence_form=divergence,
                     identity_residual=abs(gap_norm - divergence),
                     gradient_surrogate=surrogate, ratio=ratio)


# --------------------------------------------------------------------------
# Quantitative Wulff inequality and moduli
# --------------------------------------------------------------------------


@dataclass
class QuantWulffResult:
    alpha_sq: float
    deficit: float
    ratio: float
    ratio_defined: bool


def quantitative_wulff(surface, norm, wulff=None, asymmetry=None):
    """Squared asymmetry index against the isoperimetric deficit
    perimeter/(wulff_perimeter * (vol/wulff_vol)^(n/(n+1))) - 1."""
    grid = surface.grid
    n = grid.dim
    w = _wulff(norm, grid, wulff)
    per = aniso_perimeter(surface, norm)
    vol = volume(surface)
    deficit = per / (w.perimeter * (vol / w.volume) ** (n / (n + 1.0))) - 1.0
    if asymmetry is None:
        asymmetry = asymmetry_index(surface, norm, w)
    alpha_sq = asymmetry.alpha ** 2
    defined = deficit > 1e-14
    ratio = alpha_sq / deficit if defined else 0.0
    return QuantWulffResult(alpha_sq=float(alpha_sq), deficit=float(deficit),
                            ratio=float(ratio), ratio_defined=bool(defined))


def moduli(s, n):
    """Stability moduli (f1, f2) = (s^(1/4) + sqrt(s), s^(1/(2(n+2))) + sqrt(s)).

    Both are strictly increasing with f(0) = 0; s must be nonnegative.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("moduli are defined for nonnegative arguments")
    f1 = s ** 0.25 + np.sqrt(s)
    f2 = s ** (1.0 / (2.0 * (n + 2.0))) + np.sqrt(s)
    if f1.ndim == 0:
        return float(f1), float(f2)
    return f1, f2


# --------------------------------------------------------------------------
# Aggregated report and sweeps
# --------------------------------------------------------------------------


@dataclass
class DeficitReport:
    """All deficit and stability quantities for one surface/norm pair."""

    eps1: float
    eps_p: dict
    alpha: float
    alpha_center: list
    a: float
    a_volume: float
    hausdorff: float
    sup_norm: float
    gap: float
    gap_divergence_residual: float
    qw_alpha_sq: float
    qw_deficit: float
    f1_eps1: float
    f2_eps1: float
    asymmetry_method: str
    asymmetry_converged: bool

    def to_dict(self):
        d = asdict(self)
        d["eps_p"] = {str(k): v for k, v in self.eps_p.items()}
        return d


def full_deficit_report(surface, norm, center=None, p_exponents=(2.0,),
                        wulff=None):
    """Evaluate every deficit/stability quantity on one surface."""
    grid = surface.grid
    n = grid.dim
    c = np.zeros(n + 1) if center is None else np.asarray(center, dtype=float)
    w = _wulff(norm, grid, wulff)
    cache = geometry(surface, norm)
    gap = gap_integral(surface, norm, c, cache, w)   # checks the center first
    eps1 = deficit_thm11(surface, norm, c, cache, w)
    eps_p = {float(p): deficit_pmomentum(surface, norm, c, p, cache, w)
             for p in p_exponents}
    asym = asymmetry_index(surface, norm, w)
    haus = hausdorff_to_wulff(surface, norm, w)
    qw = quantitative_wulff(surface, norm, w, asym)
    f1, f2 = moduli(max(eps1, 0.0), n)
    return DeficitReport(
        eps1=float(eps1), eps_p=eps_p,
        alpha=asym.alpha, alpha_center=asym.center.tolist(),
        a=haus.a, a_volume=haus.a_volume,
        hausdorff=haus.hausdorff, sup_norm=haus.sup_norm,
        gap=gap.gap, gap_divergence_residual=gap.identity_residual,
        qw_alpha_sq=qw.alpha_sq, qw_deficit=qw.deficit,
        f1_eps1=float(f1), f2_eps1=float(f2),
        asymmetry_method=asym.method, asymmetry_converged=asym.converged)


SWEEP_COLUMNS = ("delta", "eps1", "eps_p", "alpha", "hausdorff",
                 "f1_eps1", "f2_eps1", "ratio_alpha_f1", "ratio_dist_f2",
                 "qw_alpha_sq", "qw_deficit", "zero_over_zero")


def stability_sweep(family, norm, grid, p=2.0, center=None):
    """Deficits, distances and modulus ratios along a shrinking family.

    `family` is {"deltas": [...], "r0": float, "harmonics": [...]}; for each
    delta the surface r = r0 * (1 + delta * sum of harmonics) is evaluated
    by `full_deficit_report`, so every surface must be star-shaped about
    `center` (ValueError otherwise).  Ratios with a vanishing denominator
    are reported as 0 and flagged.
    """
    r0 = float(family.get("r0", 1.0))
    base = family.get("harmonics", [{"k": 1, "delta": 1.0}])
    w = make_wulff(norm, grid)
    rows = []
    for delta in family["deltas"]:
        harmonics = [dict(h, delta=delta * float(h.get("delta", 1.0)))
                     for h in base]
        surface = fourier_surface(grid, r0, harmonics)
        rep = full_deficit_report(surface, norm, center, (p,), w)
        zero = rep.eps1 <= 1e-14  # deficit at roundoff: ratios are 0/0
        rows.append({
            "delta": float(delta),
            "eps1": rep.eps1,
            "eps_p": float(rep.eps_p[float(p)]),
            "alpha": rep.alpha,
            "hausdorff": rep.hausdorff,
            "f1_eps1": rep.f1_eps1,
            "f2_eps1": rep.f2_eps1,
            "ratio_alpha_f1": rep.alpha / rep.f1_eps1 if not zero else 0.0,
            "ratio_dist_f2": rep.hausdorff / rep.f2_eps1 if not zero else 0.0,
            "qw_alpha_sq": rep.qw_alpha_sq,
            "qw_deficit": rep.qw_deficit,
            "zero_over_zero": bool(zero),
        })
    return rows


def write_sweep_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([str(row[c]) if isinstance(row[c], bool)
                             else repr(float(row[c])) for c in SWEEP_COLUMNS])


def select_t_epsilon(trace, center=None):
    """Pick the recorded time in (0, sqrt(eps1)) minimizing the normalized
    gap integral of the modified trajectory; returns (t, index, gap).

    eps1 is the initial deficit read off the trace.  Falls back to the
    earliest positive record when the deficit window contains none.  Every
    candidate record must be star-shaped about `center` (the trace's weight
    center by default), or `gap_integral` raises ValueError.
    """
    w_rho = trace.wulff_rho
    n = trace.n
    vol_w = trace.grid.integrate(w_rho ** (n + 1)) / (n + 1)
    eps = max(trace.q[0] - wulff_q_value(vol_w, n=n), 0.0)
    limit = np.sqrt(eps)
    candidates = [i for i, t in enumerate(trace.times) if 0.0 < t <= limit]
    if not candidates:
        candidates = [i for i in range(len(trace.times)) if trace.times[i] > 0.0][:1]
    if not candidates:
        raise ValueError("trace has no positive-time records")
    center = trace.center if center is None else np.asarray(center, float)
    best = None
    for i in candidates:
        surf = trace.rescaled_surface(i)
        g = gap_integral(surf, trace.norm, center).gap_normalized
        if best is None or g < best[2]:
            best = (float(trace.times[i]), i, float(g))
    return best
