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
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.spatial import cKDTree

from .hypersurface import (
    aniso_perimeter,
    geometry,
    q_functional,
    volume,
    weighted_momentum,
    wulff_q_value,
    fourier_surface,
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


def wulff_profile_about(norm, grid, scale, wulff_center, graph_center):
    """Radial profile of scale*W + wulff_center as a graph about graph_center.

    Solves dual_value(graph_center + s*theta - wulff_center) = scale for
    s > 0 along every node direction by a monotone Newton iteration started
    beyond the root, at max F(node) * scale + |offset| with slack (the Wulff
    radius 1/F0(theta) never exceeds F(theta)).  Each step makes one dual
    solve: F0 is 1-homogeneous, so F0(x) = x.DF0(x), and DF0 is warm-started
    from the previous step's gradient.  Requires graph_center to lie inside
    the shape.
    """
    wulff_center = np.asarray(wulff_center, dtype=float)
    graph_center = np.asarray(graph_center, dtype=float)
    offset = graph_center - wulff_center
    off_val = norm.dual_value(offset) if np.linalg.norm(offset) > 0.0 else 0.0
    if off_val >= 0.999 * scale:
        raise ValueError("graph center lies outside (or too close to) the shape")
    rho_bound = float(np.max(norm.value(grid.nodes)))
    s = np.full(grid.n_nodes, 1.1 * (scale * rho_bound + np.linalg.norm(offset)))
    theta = grid.nodes
    g = None
    for _ in range(60):
        x = offset[None, :] + s[:, None] * theta
        g = norm.dual_grad(x, start=g)
        val = np.einsum("ij,ij->i", x, g) - scale
        slope = np.einsum("ij,ij->i", g, theta)
        ds = val / slope
        s = s - ds
        if np.max(np.abs(ds)) < 1e-13 * scale:
            break
    else:
        raise RuntimeError("radial re-graph of the Wulff shape did not converge")
    return s


# --------------------------------------------------------------------------
# Asymmetry index
# --------------------------------------------------------------------------


@dataclass
class AsymmetryResult:
    alpha: float
    center: np.ndarray
    scale: float
    converged: bool
    method: str

    def to_dict(self):
        return {"alpha": self.alpha, "center": self.center.tolist(),
                "scale": self.scale, "converged": self.converged,
                "method": self.method}


def _barycenter(surface):
    n = surface.grid.dim
    r = surface.r
    vol = volume(surface)
    moments = surface.grid.nodes * (r ** (n + 2))[:, None] / (n + 2)
    first = np.array([surface.grid.integrate(moments[:, j])
                      for j in range(n + 1)])
    return surface.center + first / vol


def _symmetric_difference(surface, norm, scale, center):
    """|Omega symdiff L_scale(center)| via radial integration about the
    surface's own star center; falls back to Monte Carlo sampling when that
    center is not interior to the translated shape."""
    n = surface.grid.dim
    try:
        s = wulff_profile_about(norm, surface.grid, scale, center,
                                surface.center)
    except (ValueError, RuntimeError):
        return _symmetric_difference_mc(surface, norm, scale, center), "monte-carlo"
    diff = np.abs(surface.r ** (n + 1) - s ** (n + 1)) / (n + 1)
    return surface.grid.integrate(diff), "radial"


def _symmetric_difference_mc(surface, norm, scale, center, n_samples=200_000,
                             seed=20240801):
    """Fixed-seed Monte Carlo estimate of the symmetric difference volume."""
    rng = np.random.default_rng(seed)
    d = surface.grid.dim + 1
    pts = surface.points
    rho = norm.wulff_radius(surface.grid.nodes)
    lo = np.minimum(pts.min(axis=0), center + scale * -np.max(rho))
    hi = np.maximum(pts.max(axis=0), center + scale * np.max(rho))
    samples = rng.uniform(lo, hi, size=(n_samples, d))
    box = float(np.prod(hi - lo))
    # membership in Omega: compare |y - C| with the interpolated radial field
    rel = samples - surface.center[None, :]
    dist = np.linalg.norm(rel, axis=1)
    dirs = rel / np.maximum(dist, 1e-300)[:, None]
    r_at = _interp_radial(surface, dirs)
    in_omega = dist <= r_at
    in_wulff = norm.dual_value(samples - center[None, :]) <= scale
    frac = np.mean(in_omega != in_wulff)
    return box * float(frac)


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
    translated rescaled Wulff shape; the translation is found by Nelder-Mead
    started at the barycenter."""
    w = _wulff(norm, surface.grid, wulff)
    vol = volume(surface)
    n = surface.grid.dim
    scale = (vol / w.volume) ** (1.0 / (n + 1.0))
    methods = set()

    def objective(p):
        value, method = _symmetric_difference(surface, norm, scale, p)
        methods.add(method)
        return value / vol

    start = _barycenter(surface)
    res = minimize(objective, start, method="Nelder-Mead",
                   options={"xatol": xatol, "fatol": 1e-12,
                            "maxiter": max_iter})
    alpha = float(res.fun)
    method = "monte-carlo" if "monte-carlo" in methods else "radial"
    return AsymmetryResult(alpha=alpha, center=np.asarray(res.x, dtype=float),
                           scale=float(scale), converged=bool(res.success),
                           method=method)


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

    def to_dict(self):
        return {"a": self.a, "a_volume": self.a_volume,
                "sup_norm": self.sup_norm, "hausdorff": self.hausdorff,
                "bound": self.bound, "bound_ok": self.bound_ok}


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

    def to_dict(self):
        return {"gap": self.gap, "gap_normalized": self.gap_normalized,
                "divergence_form": self.divergence_form,
                "identity_residual": self.identity_residual,
                "gradient_surrogate": self.gradient_surrogate,
                "ratio": self.ratio}


def _regraph_radial(surface, point):
    """Radial field of the surface re-graphed about an interior point.

    Solves |point + s*theta - C| = r(direction) along every node direction
    by vectorized bisection on the interpolated radial field.  Returns None
    when the surface is not star-shaped about the point (detected by a
    volume mismatch between the two graphs).
    """
    grid = surface.grid
    point = np.asarray(point, dtype=float)
    offset = point - surface.center
    if np.linalg.norm(offset) == 0.0:
        return surface.r
    if np.linalg.norm(offset) >= 0.999 * np.min(surface.r):
        return None

    def residual(s):
        y = offset[None, :] + s[:, None] * grid.nodes
        dist = np.linalg.norm(y, axis=1)
        dirs = y / dist[:, None]
        return dist - _interp_radial(surface, dirs)

    lo = np.zeros(grid.n_nodes)
    hi = np.full(grid.n_nodes, np.max(surface.r) + np.linalg.norm(offset) + 1e-9)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        pos = residual(mid) > 0.0
        hi = np.where(pos, mid, hi)
        lo = np.where(pos, lo, mid)
    s = 0.5 * (lo + hi)
    n = grid.dim
    vol_about_point = grid.integrate(s ** (n + 1)) / (n + 1)
    vol = grid.integrate(surface.r ** (n + 1)) / (n + 1)
    if abs(vol_about_point - vol) > 1e-7 * vol:
        return None
    return s


def _bulk_inverse_dual(surface, norm, center, rho, n_quad=32):
    """Volume integral of 1/dual_value(x - center) over the enclosed domain.

    `rho` is the Wulff radius 1/dual_value at the grid nodes.

    Preferred path: re-graph the domain about the weight center, where the
    radial integral is exact and the angular integrand smooth.  When the
    center is not a star center of the domain, falls back to per-direction
    Gauss-Legendre panels about the surface's own center (the integrand then
    peaks near the ray closest to the weight center, limiting accuracy).
    """
    grid = surface.grid
    n = grid.dim
    r_about = _regraph_radial(surface, center)
    if r_about is not None:
        return grid.integrate(r_about ** n * rho) / n

    gl_x, gl_w = np.polynomial.legendre.leggauss(n_quad)
    offset = surface.center - np.asarray(center, dtype=float)
    proj = -grid.nodes @ offset  # parameter of the closest ray point to P
    d_ray = np.sqrt(np.maximum(
        np.einsum("j,j->", offset, offset) - proj ** 2, 0.0))
    width = np.clip(4.0 * d_ray, 1e-6, None)
    r = surface.r
    breaks = [np.zeros_like(r),
              np.clip(proj - width, 0.0, r),
              np.clip(proj, 0.0, r),
              np.clip(proj + width, 0.0, r),
              r]
    total = np.zeros(grid.n_nodes)
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        half = 0.5 * (hi - lo)
        good = half > 1e-14
        if not np.any(good):
            continue
        mid = 0.5 * (lo + hi)[good]
        s = mid[:, None] + half[good, None] * gl_x[None, :]    # (m, q)
        x = offset[None, None, :] + s[..., None] * grid.nodes[good, None, :]
        vals = s ** n / norm.dual_value(x)
        total[good] += half[good] * (vals @ gl_w)
    return float(np.sum(total * grid.weights))


def gap_integral(surface, norm, center=None, cache=None, wulff=None):
    """Integrated pointwise Cauchy-Schwarz gap of a surface, its
    divergence-form equivalent, and the gradient lower-bound surrogate."""
    if cache is None:
        cache = geometry(surface, norm)
    grid = surface.grid
    n = grid.dim
    c = np.zeros(n + 1) if center is None else np.asarray(center, dtype=float)
    rel = cache.points - c[None, :]
    dual = norm.dual_value(rel)
    flux = np.einsum("ij,ij->i", rel, cache.normal)
    gap = float(np.sum((dual * cache.f_normal - flux) * cache.area_w))
    gap_norm = float(np.sum((cache.f_normal - flux / dual) * cache.area_w))
    per = float(np.sum(cache.aniso_area_w))
    w = _wulff(norm, grid, wulff)
    divergence = per - n * _bulk_inverse_dual(surface, norm, c, w.rho)
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

    def to_dict(self):
        return {"alpha_sq": self.alpha_sq, "deficit": self.deficit,
                "ratio": self.ratio, "ratio_defined": self.ratio_defined}


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
        return {
            "eps1": self.eps1,
            "eps_p": {str(k): v for k, v in self.eps_p.items()},
            "alpha": self.alpha,
            "alpha_center": self.alpha_center,
            "a": self.a,
            "a_volume": self.a_volume,
            "hausdorff": self.hausdorff,
            "sup_norm": self.sup_norm,
            "gap": self.gap,
            "gap_divergence_residual": self.gap_divergence_residual,
            "qw_alpha_sq": self.qw_alpha_sq,
            "qw_deficit": self.qw_deficit,
            "f1_eps1": self.f1_eps1,
            "f2_eps1": self.f2_eps1,
            "asymmetry_method": self.asymmetry_method,
            "asymmetry_converged": self.asymmetry_converged,
        }


def full_deficit_report(surface, norm, center=None, p_exponents=(2.0,),
                        wulff=None):
    """Evaluate every deficit/stability quantity on one surface."""
    grid = surface.grid
    n = grid.dim
    c = np.zeros(n + 1) if center is None else np.asarray(center, dtype=float)
    w = _wulff(norm, grid, wulff)
    cache = geometry(surface, norm)
    eps1 = deficit_thm11(surface, norm, c, cache, w)
    eps_p = {float(p): deficit_pmomentum(surface, norm, c, p, cache, w)
             for p in p_exponents}
    asym = asymmetry_index(surface, norm, w)
    haus = hausdorff_to_wulff(surface, norm, w)
    gap = gap_integral(surface, norm, c, cache, w)
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
    delta the surface r = r0 * (1 + delta * sum of harmonics) is evaluated.
    Ratios with a vanishing denominator are reported as 0 and flagged.
    """
    deltas = list(family["deltas"])
    r0 = float(family.get("r0", 1.0))
    base = family.get("harmonics", [{"k": 1, "delta": 1.0}])
    w = make_wulff(norm, grid)
    rows = []
    for delta in deltas:
        harmonics = [dict(h, delta=delta * float(h.get("delta", 1.0)))
                     for h in base]
        surface = fourier_surface(grid, r0, harmonics)
        cache = geometry(surface, norm)
        eps1 = deficit_thm11(surface, norm, center, cache, w)
        eps_p = deficit_pmomentum(surface, norm, center, p, cache, w)
        asym = asymmetry_index(surface, norm, w)
        haus = hausdorff_to_wulff(surface, norm, w)
        qw = quantitative_wulff(surface, norm, w, asym)
        f1, f2 = moduli(max(eps1, 0.0), grid.dim)
        zero = eps1 <= 1e-14  # deficit at roundoff: ratios are 0/0
        rows.append({
            "delta": float(delta),
            "eps1": float(eps1),
            "eps_p": float(eps_p),
            "alpha": asym.alpha,
            "hausdorff": haus.hausdorff,
            "f1_eps1": float(f1),
            "f2_eps1": float(f2),
            "ratio_alpha_f1": asym.alpha / f1 if not zero else 0.0,
            "ratio_dist_f2": haus.hausdorff / f2 if not zero else 0.0,
            "qw_alpha_sq": qw.alpha_sq,
            "qw_deficit": qw.deficit,
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
    earliest positive record when the deficit window contains none.
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
