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
    center as a minimum (see `asymmetry_index`): |grad alpha| within
    _GRAD_TOL / scale with no negative curvature, or alpha at its lower
    bound |integral of R - S| / ((n+1)|Omega|), to roundoff.  `method` is
    always "radial"."""

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


_ROOT_TOL = 1e-12        # radians: a Newton step this short ends a root solve
_ROOT_MAX_ITER = 100     # bracketed Newton steps per root; 2 to 6 in practice
_SAMPLES_PER_DEGREE = 8  # sign samples of a line polynomial per degree


def _trig(c, x, order=0):
    """The order-th and next derivatives of Re sum_j c_j exp(i j x), one row
    of c per entry of x."""
    j = 1j * np.arange(c.shape[-1])
    terms = c * np.exp(x[:, None] * j) * j ** order
    return terms.sum(axis=1).real, (terms @ j).real


def _bracketed_root(c, a, b, fa, fb, order=0):
    """A root in [a, b] of the order-th derivative T of each row's
    polynomial (`_trig`), of values fa and fb of opposite signs at the ends:
    Newton from the secant point, bisecting where a step would leave the
    bracket, until the step or the bracket is _ROOT_TOL or |T| is at its
    roundoff level."""
    up = fb >= 0.0
    x = np.clip(a - fa * (b - a) / (fb - fa), a, b)   # fb != fa
    noise = 8.0 * np.finfo(float).eps * (
        np.abs(c) @ np.arange(c.shape[-1], dtype=float) ** order)
    root = np.empty_like(a)
    rows = np.arange(len(a))
    for _ in range(_ROOT_MAX_ITER):
        f, df = _trig(c, x, order)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f / df
        right = (f >= 0.0) == up
        a, b = np.where(right, a, x), np.where(right, x, b)
        newton = x - step
        inside = (newton >= a - _ROOT_TOL) & (newton <= b + _ROOT_TOL)
        newton = np.clip(newton, a, b)
        level = np.abs(f) <= noise
        done = level | (np.abs(step) <= _ROOT_TOL) | (b - a <= _ROOT_TOL)
        root[rows[done]] = np.where(level, x, newton)[done]
        keep = ~done
        if not np.any(keep):
            return root
        x = np.where(inside, newton, 0.5 * (a + b))
        rows, c, a, b, x, up, noise = (
            v[keep] for v in (rows, c, a, b, x, up, noise))
    raise RuntimeError("a line root did not converge")


def _line_roots(c):
    """Every sign change of each line's polynomial T (rows of c), sorted by
    line and angle: (line, psi, up), up where T turns nonnegative.

    T and T' are sampled at _SAMPLES_PER_DEGREE points per degree.  An
    interval whose ends differ in sign holds a root; one whose ends agree
    while |T| falls at its start and rises at its end holds an extremum,
    found by Newton on T', and two roots where T changes sign there.  So
    two crossings within one sample spacing are found.
    """
    size = c.shape[-1]
    samples = _SAMPLES_PER_DEGREE * (size - 1)
    half = c * (samples / 2.0)
    half[:, 0] *= 2.0
    t, dt = np.fft.irfft([half, half * (1j * np.arange(size))], n=samples)
    h = 2.0 * np.pi / samples
    psi = h * np.arange(samples)
    t_next, dt_next = np.roll(t, -1, axis=1), np.roll(dt, -1, axis=1)
    change = (t >= 0.0) != (t_next >= 0.0)
    line, i = np.nonzero(change)
    lo, hi, f_lo, f_hi = psi[i], psi[i] + h, t[line, i], t_next[line, i]
    dip, k = np.nonzero(~change & (t * dt < 0.0) & (t_next * dt_next > 0.0))
    e = _bracketed_root(c[dip], psi[k], psi[k] + h, dt[dip, k],
                        dt_next[dip, k], order=1)
    t_e = _trig(c[dip], e)[0]
    cross = (t_e >= 0.0) != (t[dip, k] >= 0.0)
    dip, k, e, t_e = (v[cross] for v in (dip, k, e, t_e))
    line = np.concatenate([line, dip, dip])
    lo = np.concatenate([lo, psi[k], e])
    hi = np.concatenate([hi, e, psi[k] + h])
    f_lo = np.concatenate([f_lo, t[dip, k], t_e])
    f_hi = np.concatenate([f_hi, t_e, t_next[dip, k]])
    roots = _bracketed_root(c[line], lo, hi, f_lo, f_hi)
    order = np.lexsort((roots, line))
    return line[order], roots[order], (f_hi >= 0.0)[order]


def _signed_line_integrals(w, c, hessian=False):
    """sum_k w_k (integral over a period of sign(T_0k) T_fk) for line
    polynomials c of shape (fields, K, D+1) (`SphereGrid.great_circles`),
    and, if `hessian`, the root Hessian sum_k w_k sum_r 2 T_fk T_gk / |T_0k'|
    over the roots of T_0k, f, g >= 1 (else None).

    With A_f the antiderivative of T_f and s_r = +1 where T_0 turns
    nonnegative, the integral is s_last 2 pi c_f0 - 2 sum_r s_r A_f(psi_r),
    s_last the sign after a line's last root.  For T_0 that is the integral
    of |T_0|; for T_f = dT_0/dp_f its derivative, which has no term from the
    moving roots since |T_0| vanishes there; the root Hessian is what they
    add to the second derivative.
    """
    line, psi, up = _line_roots(c[0])
    sign = np.where(up, 1.0, -1.0)
    last = np.where(_trig(c[0], np.zeros(len(w)))[0] >= 0.0, 1.0, -1.0)
    ends = np.flatnonzero(np.diff(line, append=-1))
    last[line[ends]] = sign[ends]
    j = np.arange(1, c.shape[-1])
    anti = (np.einsum("frj,rj->fr", c[:, line, 1:],
                      np.exp(1j * psi[:, None] * j) / (1j * j)).real
            + c[:, line, 0].real * psi)
    integrals = (2.0 * np.pi * (c[:, :, 0].real @ (w * last))
                 - 2.0 * anti @ (w[line] * sign))
    if not hessian:
        return integrals, None
    at_root = np.array([_trig(cf[line], psi)[0] for cf in c[1:]])
    slope = np.abs(_trig(c[0][line], psi)[1])
    return integrals, 2.0 * (at_root * (w[line] / slope)) @ at_root.T


def _symmetric_difference(surface, norm, scale, center, *, warm=None,
                          hessian=False):
    """|Omega symdiff L| for L = center + scale*W, its gradient in the
    center, if `hessian` the root Hessian of `_signed_line_integrals` (else
    None), and the integral of R - S, all divided by n + 1.

    While the star center C lies inside L (`wulff_profile_about`, solved
    warm from `warm`, raises ValueError otherwise), L meets the ray from C
    in [s_in, s_out] with s_in < 0, so the ray contributes |R - S|,
    R = r^(n+1), S = s_out^(n+1).  DF0 at the exits gives the Jacobian
    dS/dp = (n+1) s^n DF0 / (DF0 . theta) with no further solve.  The grid's
    own expansion of R - S is integrated exactly along the lines of
    `SphereGrid.great_circles`, so the value is C^1 in the center.
    """
    grid = surface.grid
    n = grid.dim
    warm = {} if warm is None else warm
    s = wulff_profile_about(norm, grid, scale, center, surface.center,
                            warm=warm)
    g = warm["rays"][1]
    slope = np.einsum("ij,ij->i", g, grid.nodes)
    jac = ((n + 1) * s ** n / slope)[:, None] * g
    fields = np.vstack([surface.r ** (n + 1) - s ** (n + 1), -jac.T]) / (n + 1)
    integrals, hess = _signed_line_integrals(*grid.great_circles(fields),
                                             hessian)
    return integrals[0], integrals[1:], hess, grid.integrate(fields[0])


_GRAD_TOL = 1e-10        # |grad alpha| * scale that certifies a minimum
_ONE_SIGN_TOL = 1e-13    # alpha above its lower bound that certifies it
_ARMIJO = 1e-4           # accepted share of the predicted decrease
_CURVATURE_STEP = 1e-7   # difference step of the Hessian check, times scale
_CURVATURE_TOL = 1e-6    # negative curvature below this share is roundoff,
                         # as is a step direction below this share
_ESCAPE_STEP = 1e-2      # first step from a saddle, times scale


def asymmetry_index(surface, norm, wulff=None):
    """Volume-normalized minimal symmetric difference to a volume-matched
    translated rescaled Wulff shape, by BFGS on a C^1 objective.

    alpha(p) = integral of |F| / ((n+1)|Omega|), F the grid's own expansion
    of the nodal R - S(p), integrated exactly with its exact gradient by
    `_symmetric_difference`: one `wulff_profile_about` call per evaluation.
    The search starts at the barycenter, its inverse Hessian at the root
    Hessian there.  A step is halved until alpha falls by _ARMIJO of the
    predicted decrease or, below roundoff, stays within _ONE_SIGN_TOL while
    |grad alpha| falls; a trial center that leaves the star center on or
    outside the body is a rejected step.  `converged` is True on either
    certificate: |grad alpha| <= _GRAD_TOL / scale where a forward
    difference Hessian of the gradient, along the directions no accepted
    step explored, has no negative curvature beyond _CURVATURE_TOL of its
    largest (a saddle, as where symmetry makes the barycenter stationary
    and keeps the steps on its axis, is left along that curvature,
    _ESCAPE_STEP * scale first);
    or alpha within _ONE_SIGN_TOL of its lower bound
    |integral of F| / ((n+1)|Omega|), which no translation moves (it is the
    volume difference): so F keeps one sign, as at equality, where alpha
    is a cone rather than a smooth minimum.  It is False only when the
    step falls below roundoff in the center.

    Under a norm whose `exit_reads_start`, each ray solve starts from the
    last successful evaluation's roots and DF0 (at the first, the scaled
    Wulff shape's about its own center), moved to their predicted exits from
    the new center: the roots by DF0.dp / (DF0.theta) and the second-order
    term of a per-ray secant model of D^2F0, DF0 by that model.  A start
    changes the value by roundoff only, and repeated calls are
    bit-identical.  `method` is always "radial".
    """
    grid = surface.grid
    w = _wulff(norm, grid, wulff)
    vol = volume(surface)
    n = grid.dim
    scale = (vol / w.volume) ** (1.0 / (n + 1.0))
    # the last successful evaluation's center and rays, first those of the
    # scaled Wulff shape about its own center, where DF0 = (theta - grad rho
    # / rho) / rho follows from rho; read only by a norm that reads a start
    state = {"center": surface.center, "rays": (
        scale * w.rho,
        (grid.nodes * w.rho[:, None] - grid.gradient(w.rho))
        / (w.rho ** 2)[:, None])} if norm.exit_reads_start else {}
    # the exit point's last move dx and DF0's change dg on every ray: the
    # warm DF0 moves by a model of D^2F0 that is the unit ball's curvature
    # 1/scale except along dx, where it reproduces dg
    secant = [np.zeros((grid.n_nodes, n + 1)), np.zeros((grid.n_nodes, n + 1))]

    def evaluate(p, hessian=False):
        trial = {}
        predict = norm.exit_reads_start
        if predict:   # move the last rays to their predicted exits from p
            s0, g0 = state["rays"]
            dp = p - state["center"]
            slope = np.einsum("ij,ij->i", g0, grid.nodes)
            ds = (g0 @ dp) / slope
            step = ds[:, None] * grid.nodes - dp
            dx, dg = secant
            length = np.maximum(np.einsum("ij,ij->i", dx, dx), 1e-300)
            along = np.einsum("ij,ij->i", dx, step) / length
            turn = step / scale + (dg - dx / scale) * along[:, None]
            trial["rays"] = (
                s0 + ds - 0.5 * np.einsum("ij,ij->i", step, turn) / slope,
                g0 + turn)
        value, grad, hess, signed = _symmetric_difference(
            surface, norm, scale, p, warm=trial, hessian=hessian)
        if predict:
            s, g = trial["rays"]
            secant[:] = [(s - s0)[:, None] * grid.nodes - dp, g - g0]
        state.update(center=p, rays=trial["rays"])
        return value / vol, grad / vol, hess, abs(signed) / vol

    roundoff = 4.0 * np.finfo(float).eps
    p = _barycenter(surface)
    f, g, hess, lower = evaluate(p, hessian=True)
    inverse = vol * np.linalg.pinv(hess)
    steps = []
    while f - lower > _ONE_SIGN_TOL:
        d = -inverse @ g
        slope = g @ d
        if np.linalg.norm(g) * scale <= _GRAD_TOL:
            # the curvature along the directions no accepted step explored
            _, sv, vt = np.linalg.svd(np.vstack(steps + [0.0 * p] * (n + 1)))
            free = vt[sv <= _CURVATURE_TOL * sv[0]] if steps else np.eye(n + 1)
            if not len(free):
                break
            h = _CURVATURE_STEP * scale
            hess = np.array([(evaluate(p + h * u)[1] - g) / h for u in free])
            values, vectors = np.linalg.eigh(0.5 * (hess @ free.T
                                                    + free @ hess.T))
            if values[0] >= -_CURVATURE_TOL * np.max(np.abs(values)):
                break
            d = free.T @ vectors[:, 0]
            d *= -np.copysign(_ESCAPE_STEP * scale, g @ d)
            slope = 0.5 * values[0] * (d @ d)
        t = 1.0
        while True:
            if t * np.linalg.norm(d) <= roundoff * (np.linalg.norm(p) + scale):
                return AsymmetryResult(alpha=float(f), center=np.asarray(p),
                                       scale=float(scale), converged=False)
            q = p + t * d
            try:
                fq, gq, _, lower_q = evaluate(q)
            except ValueError:   # the star center left the body
                fq = np.inf
            if fq <= f + _ARMIJO * t * slope or (
                    fq <= f + _ONE_SIGN_TOL
                    and np.linalg.norm(gq) < np.linalg.norm(g)):
                break
            t *= 0.5
        s, y = q - p, gq - g
        if s @ y > 0.0:
            v = np.eye(n + 1) - np.outer(s, y) / (s @ y)
            inverse = v @ inverse @ v.T + np.outer(s, s) / (s @ y)
        steps.append(s)
        p, f, g, lower = q, fq, gq, lower_q
    return AsymmetryResult(alpha=float(f), center=np.asarray(p, dtype=float),
                           scale=float(scale), converged=True)


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
