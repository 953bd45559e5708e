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
from .sphere_grid import legendre_degrees, make_grid


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


def wulff_profile_about(norm, grid, scale, wulff_center, graph_center, *,
                        warm=None):
    """Radial profile of scale*W + wulff_center as a graph about graph_center.

    Solves dual_value(graph_center + s*theta - wulff_center) = scale for
    the largest root s along every node direction (`norm.exit_distance`:
    closed form for the quadric norms, Newton otherwise).  Raises ValueError
    unless every root is positive, that is unless graph_center lies inside
    the shape.  The test is exact: a center on or outside the convex shape
    has a separating plane, and every ray pointing into the closed half-space
    away from the shape has its largest root <= 0 or none; every closed
    hemisphere of node directions holds a node (on the circle for N >= 2 and
    on the antipodally symmetric sphere grid), so some node shows it.

    `warm` is an optional dict that carries the ray solution from one call
    to the next on the same norm, grid and scale: its "rays" entry, when
    present, seeds the solve, and is replaced by this call's solution
    (s, DF0), also when the call raises.
    """
    wulff_center = np.asarray(wulff_center, dtype=float)
    graph_center = np.asarray(graph_center, dtype=float)
    rays = norm.exit_distance(grid.nodes, graph_center - wulff_center, scale,
                              None if warm is None else warm.get("rays"))
    if warm is not None:
        warm["rays"] = rays
    if not np.min(rays[0]) > 0.0:
        raise ValueError("graph center lies on or outside the shape")
    return rays[0]


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


def _symmetric_difference(surface, norm, scale, center, *, warm=None):
    """|Omega symdiff L| for L = center + scale*W, by exact ray integration.

    The convex body L meets the ray C + s*theta from the surface's star
    center C in one interval [s_in, s_out].  With R = r^(n+1),
    S = max(s_out, 0)^(n+1) and A = max(s_in, 0)^(n+1) the ray contributes
    (|R - S| + A - 2 max(A - min(R, S), 0)) / (n+1), which is exact in the
    radial variable and continuous in the center.  s_out is the re-graphed
    profile, solved warm from `warm` (see `wulff_profile_about`).  While C
    lies inside L every s_out is positive and s_in < 0, so A = 0; otherwise
    (`wulff_profile_about` raises) s_in = -s_out(-theta) is solved as well,
    from the far point.  The two formulas agree where C meets the boundary.
    """
    n = surface.grid.dim
    warm = {} if warm is None else warm
    a = 0.0
    try:
        s_out = wulff_profile_about(norm, surface.grid, scale, center,
                                    surface.center, warm=warm)
    except ValueError:   # the star center is on or outside the body
        s_out = warm["rays"][0]
        s_in = -norm.exit_distance(-surface.grid.nodes, surface.center - center,
                                   scale)[0]
        # where one solve misses the line (s_out = -inf or s_in = +inf) the
        # chord is empty: A = S, and the ray contributes R
        a = np.maximum(np.minimum(s_in, s_out), 0.0) ** (n + 1)
    big_r = surface.r ** (n + 1)
    big_s = np.maximum(s_out, 0.0) ** (n + 1)
    ray = (np.abs(big_r - big_s) + a
           - 2.0 * np.maximum(a - np.minimum(big_r, big_s), 0.0)) / (n + 1)
    return surface.grid.integrate(ray)


def _radial_coefficients(surface):
    """The grid's expansion of the radial field, as `_interp_radial` sums
    it: trigonometric coefficients c_k on the circle, harmonic coefficients
    A[m, l] (doubled for m > 0, in units of one node field) on the sphere."""
    grid = surface.grid
    if grid.dim == 1:
        coeff = np.fft.rfft(surface.r) / grid.n_nodes
        coeff[1:] *= 2.0
        if grid.n_nodes % 2 == 0:
            coeff[-1] *= 0.5   # the Nyquist mode is not doubled
        return coeff
    harmonic = grid.harmonic_coefficients(surface.r) / grid.nlon
    harmonic[1:] *= 2.0
    return harmonic


def _interp_radial(surface, dirs, coeff=None):
    """Evaluate the radial field in arbitrary directions.

    Both dimensions sum the grid's own expansion of the field, so a
    band-limited field is reproduced exactly: on the circle the
    trigonometric interpolant Re sum_k c_k z^k in z = exp(i*angle), on the
    sphere Re sum_m c_m z^m in z = exp(i*longitude), with c_m the sum over
    degrees l <= nlat - 1 of the harmonic coefficients times
    P_l^m(cos colatitude).  The powers of z are summed by Horner's rule, and
    the c_m accumulate degree by degree, so no Legendre table over all
    degrees and directions is held.  `coeff` is the field's
    `_radial_coefficients`, computed here when not given.
    """
    grid = surface.grid
    if coeff is None:
        coeff = _radial_coefficients(surface)
    if grid.dim == 2:
        mu = dirs[:, 2] / np.linalg.norm(dirs, axis=1)
        harmonic, coeff = coeff, np.zeros((grid.nlat, len(dirs)), dtype=complex)
        for l, p in enumerate(legendre_degrees(mu, grid.nlat - 1)):
            coeff[:l + 1] += harmonic[:l + 1, l, None] * p
    z = np.exp(1j * np.arctan2(dirs[:, 1], dirs[:, 0]))
    acc = np.full(len(z), coeff[-1])
    for c in coeff[-2::-1]:
        acc *= z
        acc += c
    return acc.real


_ASYMMETRY_XATOL, _ASYMMETRY_MAX_ITER = 1e-8, 400   # Nelder-Mead stop rule


def asymmetry_index(surface, norm, wulff=None):
    """Volume-normalized minimal symmetric difference to a volume-matched
    translated rescaled Wulff shape.  The translation is found by Nelder-Mead
    started at the barycenter; every evaluation is the deterministic ray
    integral of `_symmetric_difference`, so `method` is always "radial".
    Each evaluation's ray solve starts from the previous one's roots, which
    moves the value by roundoff only and keeps repeated calls bit-identical.
    """
    w = _wulff(norm, surface.grid, wulff)
    vol = volume(surface)
    n = surface.grid.dim
    scale = (vol / w.volume) ** (1.0 / (n + 1.0))

    warm = {}   # the last evaluation's ray solution

    def objective(p):
        return _symmetric_difference(surface, norm, scale, p, warm=warm) / vol

    from scipy.optimize import minimize
    start = _barycenter(surface)
    res = minimize(objective, start, method="Nelder-Mead",
                   options={"xatol": _ASYMMETRY_XATOL, "fatol": 1e-12,
                            "maxiter": _ASYMMETRY_MAX_ITER})
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
    sup_norm: float       # max |r - a*rho| over the oversampled directions
    hausdorff: float      # two-sided Hausdorff distance to a*W (+ center)


def _cloud_min_dists(pts_a, pts_b):
    """For each row of pts_a, the distance to and index of the nearest pts_b.

    The neighbour comes from a KD-tree; the distance is recomputed from the
    matched pair so it does not depend on the tree's arithmetic.
    """
    from scipy.spatial import cKDTree
    _, idx = cKDTree(pts_b).query(pts_a)
    dist = np.linalg.norm(pts_a - pts_b[idx], axis=1)
    return dist, idx


def _directed_hausdorff(pts_a, pts_b, normal_b):
    """Directed Hausdorff distance from one sampled surface to another: the
    largest distance from a sample of the first to the tangent plane of the
    second at its nearest sample."""
    _, idx = _cloud_min_dists(pts_a, pts_b)
    gap = np.einsum("ij,ij->i", pts_a - pts_b[idx], normal_b[idx])
    return float(np.max(np.abs(gap)))


_HAUSDORFF_OVERSAMPLE = 2   # fine-grid resolution per grid resolution


def hausdorff_to_wulff(surface, norm, wulff=None):
    """Fit a rescaled Wulff shape about the surface's star center and measure
    the sup-norm radial gap and the two-sided Hausdorff distance to it.

    Both surfaces are sampled along the directions of a grid of twice the
    resolution: the surface through its interpolated radial field, the Wulff
    shape exactly.  A radial graph R has the outward normal along
    R*theta - grad R.  Each directed distance is the largest distance from a
    sample to the tangent plane at its nearest sample on the other surface,
    which errs by O(curvature * spacing^2) however small the distance is.
    The radial gap is read on the same samples, so hausdorff <= sup_norm.
    """
    grid = surface.grid
    w = _wulff(norm, grid, wulff)
    a = grid.mean(surface.r / w.rho)
    a_vol = (volume(surface) / w.volume) ** (1.0 / (grid.dim + 1.0))
    fine = make_grid(grid.dim, _HAUSDORFF_OVERSAMPLE * grid.resolution)
    radii = (_interp_radial(surface, fine.nodes),
             a * norm.wulff_radius(fine.nodes))
    clouds = []
    for r in radii:
        normal = r[:, None] * fine.nodes - fine.gradient(r)
        normal /= np.linalg.norm(normal, axis=1)[:, None]
        clouds.append((surface.center + r[:, None] * fine.nodes, normal))
    (pts_sigma, nu_sigma), (pts_wulff, nu_wulff) = clouds
    haus = max(_directed_hausdorff(pts_sigma, pts_wulff, nu_wulff),
               _directed_hausdorff(pts_wulff, pts_sigma, nu_sigma))
    return HausdorffResult(a=float(a), a_volume=float(a_vol),
                           sup_norm=float(np.max(np.abs(radii[0] - radii[1]))),
                           hausdorff=haus)


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


_REGRAPH_MAX_ITER = 40   # Illinois steps after the two bracket evaluations;
                         # 6 to 13 on smooth star surfaces


def _regraph_radial(surface, point):
    """Radial field of the surface re-graphed about an interior point.

    Solves f(s) = |o + s*theta| - r((o + s*theta)/|o + s*theta|) = 0, with
    o = point - C, along every node direction on the interpolated radial
    field (its expansion computed once).  The surface must be star-shaped
    about the point (`gap_integral` checks it), so each ray crosses it once
    and the root is unique: f(0) < 0 < f(max r + |o|).  Each ray keeps that
    bracket and takes Illinois (modified regula falsi) steps inside it,
    which converge superlinearly; a ray stops once its estimate moves by at
    most 1e-15 of the first bracket's length, and only the rays still
    moving are evaluated.
    """
    grid = surface.grid
    offset = np.asarray(point, dtype=float) - surface.center
    if np.linalg.norm(offset) == 0.0:
        return surface.r
    coeff = _radial_coefficients(surface)

    def excess(s, dirs):
        y = offset[None, :] + s[:, None] * dirs
        dist = np.linalg.norm(y, axis=1)
        return dist - _interp_radial(surface, y / dist[:, None], coeff)

    dirs = grid.nodes
    reach = np.max(surface.r) + np.linalg.norm(offset) + 1e-9
    lo, hi = np.zeros(grid.n_nodes), np.full(grid.n_nodes, reach)
    f_lo, f_hi = excess(lo, dirs), excess(hi, dirs)
    root = np.empty(grid.n_nodes)
    rows = np.arange(grid.n_nodes)
    last = np.zeros(grid.n_nodes)   # +1: hi moved last, -1: lo moved last
    prev = np.full(grid.n_nodes, np.inf)
    for _ in range(_REGRAPH_MAX_ITER):
        s = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        f = excess(s, dirs)
        up = f > 0.0   # s lies beyond the root: it replaces hi
        # Illinois: an end kept twice in a row has its value halved
        f_lo = np.where(up & (last > 0), 0.5 * f_lo, f_lo)
        f_hi = np.where(~up & (last < 0), 0.5 * f_hi, f_hi)
        hi, f_hi = np.where(up, s, hi), np.where(up, f, f_hi)
        lo, f_lo = np.where(up, lo, s), np.where(up, f_lo, f)
        last = np.where(up, 1.0, -1.0)
        done = (np.abs(s - prev) <= 1e-15 * reach) | (f == 0.0)
        root[rows[done]] = s[done]
        keep = ~done
        if not np.any(keep):
            return root
        rows, dirs, lo, hi, f_lo, f_hi, last, prev = (
            a[keep] for a in (rows, dirs, lo, hi, f_lo, f_hi, last, s))
    raise RuntimeError("re-graph of the surface about the weight center "
                       "did not converge")


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
    rel = surface.points - c[None, :]
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
    eps_p: dict                  # keyed by str(float(p)), as JSON keys it
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
    eps_p = {str(float(p)): deficit_pmomentum(surface, norm, c, p, cache, w)
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
            "eps_p": float(rep.eps_p[str(float(p))]),
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
