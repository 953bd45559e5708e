"""Deficits, asymmetry, Hausdorff distance and stability moduli.

Everything here measures how far a star-shaped surface is from being a
rescaled (and translated) Wulff shape: the deficits of the sharp weighted
isoperimetric inequalities, the volume-normalized asymmetry index, the
Hausdorff distance to a fitted rescaled Wulff shape, the pointwise
Cauchy-Schwarz gap integral, and the moduli that convert deficits into
distance bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypersurface import (
    aniso_perimeter,
    geometry,
    q_functional,
    volume,
    weighted_momentum,
    wulff_q_value,
)
from .minkowski import make_wulff
from .sphere_grid import make_grid


def _wulff(norm, grid, wulff=None):
    if wulff is not None:
        if wulff.grid is not grid:
            raise ValueError("wulff shape was sampled on a different grid")
        return wulff
    return make_wulff(norm, grid)


# --------------------------------------------------------------------------
# Inequality deficits
# --------------------------------------------------------------------------


def deficit_thm11(surface, norm, center=None, cache=None, wulff=None,
                  dual=None):
    """Deficit of the sharp weighted inequality: Q(surface) minus the value
    attained by rescaled Wulff shapes.  Nonnegative for star-shaped,
    F-mean-convex surfaces; zero exactly on rescaled translates of the
    Wulff shape centered at `center`.  `dual` is dual_value(x - center) at
    the surface points when the caller has already solved it, here and in
    the other deficits."""
    w = _wulff(norm, surface.grid, wulff)
    q = q_functional(surface, norm, center, cache, dual)
    return q - wulff_q_value(w.volume, n=surface.grid.dim)


def deficit_pmomentum(surface, norm, center=None, p=2.0, cache=None, wulff=None,
                      dual=None):
    """Deficit of the p-momentum inequality, normalized by the surface's
    anisotropic perimeter and volume."""
    if p < 1.0:
        raise ValueError(f"momentum exponent must be >= 1, got {p}")
    if cache is None:
        cache = geometry(surface, norm)
    n = surface.grid.dim
    c = np.zeros(n + 1) if center is None else np.asarray(center, dtype=float)
    w = _wulff(norm, surface.grid, wulff)
    mom_p = weighted_momentum(surface, norm, c, p, cache, dual)
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
    dual = norm.dual_value(surface.points - c[None, :])
    mom1 = weighted_momentum(surface, norm, c, 1.0, cache, dual)
    deficit_p = deficit_pmomentum(surface, norm, c, p, cache, w, dual)
    holder_lower = (mom1 / per) ** p / vol ** (p / (n + 1.0)) \
        - w.volume ** (-p / (n + 1.0))
    eps1 = deficit_thm11(surface, norm, c, cache, w, dual)
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
    closed form for the quadric norms; for the perturbed norm the Newton
    kernel on the Wulff boundary that also solves its dual, with a miss
    test on F alone and one scan-seeded second pass).  Raises ValueError
    unless every root is positive, that is unless graph_center lies inside
    the shape.  The test is exact: a center on or outside the convex shape
    has a separating plane, and every ray pointing into the closed half-space
    away from the shape has its largest root <= 0 or none; every closed
    hemisphere of node directions holds a node (on the circle for N >= 2 and
    on the antipodally symmetric sphere grid), so some node shows it.

    `warm` is an optional dict that carries the ray solution from one call
    to the next on the same norm, grid and scale: its "rays" entry, when
    present and the norm's `exit_reads_start`, seeds the solve, and is
    replaced by this call's solution (s, DF0), also when the call raises.
    """
    wulff_center = np.asarray(wulff_center, dtype=float)
    graph_center = np.asarray(graph_center, dtype=float)
    start = (warm.get("rays") if warm is not None and norm.exit_reads_start
             else None)
    rays = norm.exit_distance(grid.nodes, graph_center - wulff_center, scale,
                              start)
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
    """The asymmetry index `alpha`, reached at the Wulff shape
    center + scale*W.  `converged` is True only when the search certified
    center as a first-order minimum of the nodal objective (see
    `asymmetry_index`); it is False when the certificate failed or the
    Nelder-Mead fallback ran.  `method` is always "radial"."""

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


# The search runs from the barycenter and from its offsets by
# +-_START_OFFSET * scale along each axis and keeps the lowest value: the
# nodal objective has ripple minima about 5e-3 apart in the center.
_START_OFFSET = 0.02
_GN_MAX_ITER = 50        # Gauss-Newton steps per start; 4 to 10 in practice
_GN_MIN_STEP = 1e-3      # shortest fraction of a step tried by backtracking
_GN_DECREASE = 0.25      # accepted share of the model's predicted decrease
_ZERO_TOL = 1e-12        # residuals below this, times max R, count as zero
_MAX_PIVOTS = 500        # vertex pivots per linearized problem; 0 to 10 seen
_FALLBACK_XATOL, _FALLBACK_MAX_ITER = 1e-8, 400   # Nelder-Mead, times scale


def _first_vertex(b, jac):
    """n+1 rows for a first vertex of sum_j w_j |b_j - jac_j . d|: the rows
    of least |b_j| / |jac_j| whose normalized gradients keep a distance of
    at least 0.5 from the span of those already taken."""
    unit = jac / np.linalg.norm(jac, axis=1, keepdims=True)
    order = np.argsort(np.abs(b) / np.linalg.norm(jac, axis=1), kind="stable")
    z = []
    rest = unit[order]
    for _ in range(jac.shape[1]):
        j = int(np.argmax(np.linalg.norm(rest, axis=1) > 0.5))
        q = rest[j] / np.linalg.norm(rest[j])
        z.append(int(order[j]))
        rest = rest - np.outer(rest @ q, q)
    return np.array(z)


def _l1_vertex(b, jac, w, z, tol):
    """Exact minimizer d of sum_j w_j |b_j - jac_j . d| by vertex descent.

    A vertex is d with the residuals e = b - jac d zero on n+1 rows z of
    invertible jac_z.  Every other row carries a sign sigma_j, sign(e_j)
    where |e_j| > tol; a row at zero keeps the sign it was given.  The dual
    y_j = w_j sigma_j off z, with y_z solving jac^T y = 0, certifies the
    vertex optimal when |y_k| <= w_k on z.  Otherwise the row k of z with
    the largest |y_k|/w_k leaves it along the edge jac_z d' = -sign(y_k) e_k,
    on which the misfit falls at rate |y_k| - w_k.  The step goes to the
    weighted median of the breakpoints of the rows it moves toward zero:
    each adds 2 w_j |jac_j . d'| to the slope, and the row where the slope
    turns nonnegative enters z.  A step that moves no residual by more than
    tol (a degenerate vertex) makes the next choice by Bland's rule, the
    least row index both for the row that leaves and among tied breakpoints,
    so the descent cannot cycle.  z starts from the given rows when jac_z is
    well conditioned, else from `_first_vertex`.

    Returns (d, z, sigma, optimal); optimal is False only if _MAX_PIVOTS
    pivots did not reach a certified vertex.
    """
    if z is None or abs(np.linalg.det(jac[z])) <= 1e-8 * np.prod(
            np.linalg.norm(jac[z], axis=1)):
        z = _first_vertex(b, jac)
    z = z.copy()
    sigma = np.where(b < 0.0, -1.0, 1.0)
    bland = False
    for _ in range(_MAX_PIVOTS):
        inv = np.linalg.inv(jac[z])
        d = inv @ b[z]
        e = b - jac @ d
        e[z] = 0.0
        sigma = np.where(np.abs(e) > tol, np.sign(e), sigma)
        y = w * sigma
        y[z] = 0.0
        yz = -(jac.T @ y) @ inv
        excess = np.abs(yz) - w[z]
        out = excess > 1e-12 * w[z]
        if not np.any(out):
            return d, z, sigma, True
        if bland:
            pos = int(np.flatnonzero(out)[np.argmin(z[out])])
        else:
            pos = int(np.argmax(excess / w[z]))
        k = z[pos]
        edge = -np.sign(yz[pos]) * inv[:, pos]
        move = jac @ edge
        move[z] = 0.0   # no breakpoint on z: k leaves zero, the rest stay
        cross = np.flatnonzero(sigma * move > 0.0)
        t = np.maximum(e[cross] / move[cross], 0.0)
        order = np.argsort(t, kind="stable")   # ties keep the least row first
        cross = cross[order]
        slope = -excess[pos] + np.cumsum(2.0 * w[cross] * np.abs(move[cross]))
        if not (slope.size and slope[-1] >= 0.0):
            break   # the misfit is bounded below: only roundoff gets here
        at = int(np.argmax(slope >= 0.0))
        sigma[cross[:at]] *= -1.0
        sigma[k] = np.sign(yz[pos])
        z[pos] = cross[at]
        bland = abs(e[cross[at]]) <= tol
    return d, z, sigma, False


def _certified(b, jac, w, z, sigma, tol):
    """True if the center is a first-order minimum of the nodal misfit
    sum_j w_j |b_j| over Gauss-Newton steps: the dual y of the vertex
    (y_j = w_j sigma_j off z, jac^T y = 0) has |y_j| <= w_j, its rows z have
    |b_j| <= tol, and y_j = w_j sign(b_j) on every other row with |b_j| > tol.
    Then 0 is a subgradient of the linearized misfit
    sum_j w_j |b_j - jac_j . d| at d = 0: it falls along no direction, and
    along no edge of the vertex in particular."""
    y = w * sigma
    y[z] = 0.0
    y[z] = -(jac.T @ y) @ np.linalg.inv(jac[z])
    big = np.abs(b) > tol
    big[z] = False
    return bool(np.all(np.abs(y) <= w * (1.0 + 1e-9))
                and np.all(np.abs(b[z]) <= tol)
                and np.all(sigma[big] == np.sign(b[big]))
                and np.all(np.abs(jac.T @ y) <= 1e-9 * (np.abs(jac).T @ w)))


class _LeftBody(Exception):
    """An iterate of the asymmetry search left the star center on or
    outside the translated body."""


def asymmetry_index(surface, norm, wulff=None):
    """Volume-normalized minimal symmetric difference to a volume-matched
    translated rescaled Wulff shape, found by Gauss-Newton on the L1 misfit.

    While the star center C lies inside the translated body p + scale*W,
    the objective is the weighted nodal sum
    alpha(p) = sum_j w_j |R_j - S_j(p)| / ((n+1)|Omega|), R = r^(n+1),
    S = s_out^(n+1) (`_symmetric_difference`).  Each evaluation is one
    `wulff_profile_about` call, whose DF0 at the exits gives the Jacobian
    dS_j/dp = (n+1) s_j^n DF0_j / (DF0_j . theta_j) with no further solve.
    A step minimizes the linearized misfit sum_j w_j |b_j - J_j d|,
    b = R - S, exactly at a vertex (`_l1_vertex`, warm-started from the
    last step's vertex); it is backtracked until the true value falls by at
    least _GN_DECREASE of the predicted decrease.  A run stops when
    `_certified` holds: the center is then a first-order minimum of the
    nodal objective.  Runs start at the barycenter and at its offsets by
    +-_START_OFFSET*scale along each axis; a run whose step leads onto the
    vertex of an earlier run's certified end stops there, and the lowest
    value wins.  `converged` is True exactly when that value carries the
    certificate.

    Under a norm whose `exit_distance` reads a start (`exit_reads_start`),
    each evaluation's ray solve starts from the last one's roots and DF0,
    moved to their first-order exits from the new center: the roots by
    DF0.dp / (DF0.theta), DF0 by a per-ray secant model of D^2F0.  A start
    changes the value by roundoff only, and repeated calls are
    bit-identical.

    Nelder-Mead on the exact `_symmetric_difference` takes over, from the
    lowest center evaluated and with a simplex of edge _START_OFFSET*scale,
    when an iterate leaves C on or outside the body, where the sum above no
    longer holds, and when the lowest value is not certified: a run that
    alternates between two vertices has its minimum between them, where
    the nodal objective is smooth along a face rather than kinked.
    `converged` is then False.  `method` is always "radial".
    """
    grid = surface.grid
    w = _wulff(norm, grid, wulff)
    vol = volume(surface)
    n = grid.dim
    scale = (vol / w.volume) ** (1.0 / (n + 1.0))
    big_r = surface.r ** (n + 1)
    tol = _ZERO_TOL * float(np.max(big_r))
    warm = {}   # the last evaluation's ray solution
    last = []   # (value, center) of every evaluation; warm holds the last's
    # the exit point's last move dx and DF0's change dg on every ray: the
    # warm DF0 moves by a model of D^2F0 that is the unit ball's curvature
    # 1/scale except along dx, where it reproduces dg
    secant = [np.zeros((grid.n_nodes, n + 1)), np.zeros((grid.n_nodes, n + 1))]

    def misfit(res):
        return grid.integrate(np.abs(res) / (n + 1)) / vol

    def evaluate(p):
        predict = bool(last) and norm.exit_reads_start
        if predict:   # move the last rays to their first-order exits from p
            s0, g0 = warm["rays"]
            dp = p - last[-1][1]
            ds = (g0 @ dp) / np.einsum("ij,ij->i", g0, grid.nodes)
            step = ds[:, None] * grid.nodes - dp
            dx, dg = secant
            length = np.maximum(np.einsum("ij,ij->i", dx, dx), 1e-300)
            along = np.einsum("ij,ij->i", dx, step) / length
            warm["rays"] = (s0 + ds, g0 + step / scale
                            + (dg - dx / scale) * along[:, None])
        try:
            s = wulff_profile_about(norm, grid, scale, p, surface.center,
                                    warm=warm)
        except ValueError:
            raise _LeftBody from None
        g = warm["rays"][1]
        if predict:
            secant[:] = [(s - s0)[:, None] * grid.nodes - dp, g - g0]
        b = big_r - s ** (n + 1)
        slope = np.einsum("ij,ij->i", g, grid.nodes)
        jac = ((n + 1) * s ** n / slope)[:, None] * g
        last.append((misfit(b), p))
        return last[-1][0], b, jac

    ends = {}   # vertex rows of each certified end -> its center

    def gauss_newton(p, z):
        f, b, jac = evaluate(p)
        seen = []   # the vertex rows of each step, without repeats
        for _ in range(_GN_MAX_ITER):
            d, z, sigma, optimal = _l1_vertex(b, jac, grid.weights, z, tol)
            rows = frozenset(z.tolist())
            if optimal and _certified(b, jac, grid.weights, z, sigma, tol):
                ends[rows] = p
                return f, p, True, z
            end = ends.get(rows)
            if end is not None and (np.max(np.abs(p + d - end))
                                    <= np.max(np.abs(d))):
                return np.inf, p, False, z   # bound for a certified end
            pred = f - misfit(b - jac @ d)
            if not seen or rows != seen[-1]:
                seen.append(rows)
            if not (optimal and pred > 0.0) or (
                    len(seen) > 3 and seen[-4:-2] == seen[-2:]):
                break   # stalled, or alternating between two vertices
            t = 1.0
            while t >= _GN_MIN_STEP:
                q = p + t * d
                fq, bq, jq = evaluate(q)
                if fq <= f - _GN_DECREASE * t * pred:
                    break
                t *= 0.5
            else:
                break   # the true value does not fall along the step
            p, f, b, jac = q, fq, bq, jq
        return f, p, False, z

    start = _barycenter(surface)
    offsets = _START_OFFSET * scale * np.eye(n + 1)
    best, z = (np.inf, start, False), None
    try:
        for p in [start] + [start + sign * e for e in offsets
                            for sign in (1.0, -1.0)]:
            f, p, ok, z = gauss_newton(p, z)
            if f < best[0]:
                best = (f, p, ok)
    except _LeftBody:
        best = (np.inf, start, False)
    if not best[2]:
        from scipy.optimize import minimize
        p = min(last, key=lambda v: v[0])[1] if last else start
        res = minimize(
            lambda q: _symmetric_difference(surface, norm, scale, q,
                                            warm=warm) / vol,
            p, method="Nelder-Mead",
            options={"initial_simplex": np.vstack([p, p + offsets]),
                     "xatol": _FALLBACK_XATOL * scale, "fatol": 1e-12,
                     "maxiter": _FALLBACK_MAX_ITER})
        best = (res.fun, res.x, False)
    return AsymmetryResult(alpha=float(best[0]),
                           center=np.asarray(best[1], dtype=float),
                           scale=float(scale), converged=bool(best[2]))


# --------------------------------------------------------------------------
# Hausdorff distance to a fitted rescaled Wulff shape
# --------------------------------------------------------------------------


@dataclass
class HausdorffResult:
    a: float              # fitted scale (area-weighted mean of r/rho)
    a_volume: float       # alternative scale matching enclosed volumes
    sup_norm: float       # max |r - a*rho| over the oversampled directions
    hausdorff: float      # two-sided Hausdorff distance to a*W (+ center)


_HAUSDORFF_PASS_PAIRS = 1 << 16   # (row, sample) distances per search pass
_HAUSDORFF_BOUND_SLACK = 1e-12   # covers the rounding of the unit normals


def _directed_hausdorff(pts_a, pts_b, normal_b):
    """Directed Hausdorff distance from one sampled surface to another: the
    largest distance from a sample of the first to the tangent plane of the
    second at its nearest sample.

    The clouds are sampled along the same directions, row for row, so
    |a_i - b_i| bounds row i's nearest-sample distance and with it its gap
    to the tangent plane (the normals are unit).  Rows are searched
    exhaustively in descending order of that bound (squared differences
    summed per coordinate, the lowest index on ties), in passes that double
    from one row up to _HAUSDORFF_PASS_PAIRS distances, until no row left
    can raise the largest gap found (Taha and Hanbury, IEEE TPAMI 37(11),
    2015).  The result is the exhaustive search's, bit for bit.
    """
    dim = pts_a.shape[1]
    bound = np.linalg.norm(pts_a - pts_b, axis=1)
    order = np.argsort(-bound, kind="stable")
    cap = max(1, _HAUSDORFF_PASS_PAIRS // len(pts_b))
    best, start, rows = 0.0, 0, 1
    while start < len(order):
        sel = order[start:start + rows]
        start, rows = start + rows, min(2 * rows, cap)
        sel = sel[bound[sel] * (1.0 + _HAUSDORFF_BOUND_SLACK) > best]
        if not len(sel):
            break
        d2 = np.zeros((len(sel), len(pts_b)))
        for k in range(dim):
            diff = pts_a[sel, k, None] - pts_b[:, k]
            diff *= diff
            d2 += diff
        idx = np.argmin(d2, axis=1)
        gap = np.einsum("ij,ij->i", pts_a[sel] - pts_b[idx], normal_b[idx])
        best = max(best, float(np.max(np.abs(gap))))
    return best


_HAUSDORFF_OVERSAMPLE = 2   # fine-grid resolution per grid resolution


def hausdorff_to_wulff(surface, norm, wulff=None):
    """Fit a rescaled Wulff shape about the surface's star center and measure
    the sup-norm radial gap and the two-sided Hausdorff distance to it.

    Both surfaces are sampled along the directions of a grid of twice the
    resolution: the surface through its radial field's expansion, exact
    there (`SphereGrid.resample`), the Wulff shape exactly.  A radial graph
    R has the outward normal along R*theta - grad R.  Each directed distance
    is the largest distance from a sample to the tangent plane at its
    nearest sample on the other surface, which errs by
    O(curvature * spacing^2) however small the distance is.  The two clouds
    share their directions row for row, so a sample's partner along its own
    direction bounds its distance: the radial gap, read on the same
    samples, gives hausdorff <= sup_norm, and the nearest-sample search
    (`_directed_hausdorff`) skips every row whose bound cannot raise the
    maximum, exactly and with no KD-tree.
    """
    grid = surface.grid
    w = _wulff(norm, grid, wulff)
    a = grid.mean(surface.r / w.rho)
    a_vol = (volume(surface) / w.volume) ** (1.0 / (grid.dim + 1.0))
    fine = make_grid(grid.dim, _HAUSDORFF_OVERSAMPLE * grid.resolution)
    radii = (grid.resample(surface.r, fine),
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
    o = point - C, along every node direction, with r read between the
    nodes by `SphereGrid.interpolate`.  The surface must be star-shaped
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

    def excess(s, dirs):
        y = offset[None, :] + s[:, None] * dirs
        dist = np.linalg.norm(y, axis=1)
        return dist - grid.interpolate(surface.r, y / dist[:, None])

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


def gap_integral(surface, norm, center=None, cache=None, wulff=None,
                 dual=None):
    """Integrated pointwise Cauchy-Schwarz gap of a surface, its
    divergence-form equivalent, and the gradient lower-bound surrogate.

    The divergence form per - n * (integral over Omega of 1/F0(x - P)) is
    exact along the rays from the weight center P: with r_P the surface
    re-graphed about P it is per - (integral of r_P^n * rho).  The surface
    must be star-shaped about P: ValueError unless the support function
    (x - P).nu is positive at every node.  `dual` is F0(x - P) at the
    surface points when the caller has already solved it."""
    if cache is None:
        cache = geometry(surface, norm)
    grid = surface.grid
    n = grid.dim
    c = np.zeros(n + 1) if center is None else np.asarray(center, dtype=float)
    rel = surface.points - c[None, :]
    flux = np.einsum("ij,ij->i", rel, cache.normal)
    if np.min(flux) <= 0.0:
        raise ValueError("surface is not star-shaped about the weight center")
    if dual is None:
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
    # one dual solve at the surface points serves every deficit
    dual = norm.dual_value(surface.points - c[None, :])
    gap = gap_integral(surface, norm, c, cache, w, dual)   # checks the center
    eps1 = deficit_thm11(surface, norm, c, cache, w, dual)
    eps_p = {str(float(p)): deficit_pmomentum(surface, norm, c, p, cache, w,
                                              dual)
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


def stability_sweep(family, norm, p=2.0, center=None):
    """Deficits, distances and modulus ratios along a shrinking family.

    `family` holds (delta, surface) pairs on one grid, as `family_surfaces`
    builds them; each surface is evaluated by `full_deficit_report` against
    the Wulff shape on that grid, so every surface must be star-shaped about
    `center` (ValueError otherwise).  Ratios with a vanishing denominator
    are reported as 0 and flagged.
    """
    w = make_wulff(norm, family[0][1].grid)
    rows = []
    for delta, surface in family:
        rep = full_deficit_report(surface, norm, center, (p,), w)
        zero = rep.eps1 <= 1e-14  # deficit at roundoff: ratios are 0/0
        rows.append({
            "delta": delta,
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
