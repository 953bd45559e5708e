"""Independent oracles for the norm kernels.

The library solves ray exits from Wulff shapes with closed forms or with one
Newton kernel on the Wulff boundary, and reads D^2F only on tangent planes.
The solvers and formulas here take other routes to the same answers, so that
tests can compare against them:

- `nested_exit`: a monotone Newton iteration on the ray parameter with one
  cold dual solve, a ray exit from the origin, per step;
- `full_hess`: the full d x d Hessian D^2F in closed form, for the
  ellipsoid and perturbed families, and `harmonic_hess`, the d x d Hessian
  of a harmonic polynomial;
- `metric_geometry`: H_F and the top tangential eigenvalue of D^2F through
  the chart tangents, the Sherman-Morrison inverse metric and the second
  fundamental form;
- `asymmetry_reference`: the symmetric difference to a translated Wulff
  shape by brute quadrature on a fine grid, with exact ray exits;
- `legendre_derivative_loop`: the colatitude derivatives of a Legendre
  table filled one order at a time, the same arithmetic as
  `legendre_table`'s in-place fill.
- `directed_hausdorff_exhaustive`: the directed Hausdorff distance with
  every row's nearest sample searched, no pruning, in the same arithmetic
  as `_directed_hausdorff`.
"""

from itertools import combinations

import numpy as np

from wulff_lab import EllipsoidNorm, make_grid, make_wulff, volume
from wulff_lab.minkowski import SectoralHarmonic


def nested_exit(norm, dirs, offset, scale, dual_grad=None):
    """Largest root s of F0(offset + s*dir) = scale along each row of dirs,
    with DF0 at each row's last Newton point: returns (s, g), s = -inf and
    g = NaN where the line misses scale*W.

    `dual_grad` evaluates DF0 at rows of points and defaults to
    `norm.dual_grad`.  `MinkowskiNorm.dual_grad` reads `exit_distance`, so
    a caller that replaces `norm.exit_distance` by this reference passes
    the norm's own exit from the origin, taken before the replacement.

    F0 is convex along every line, so a Newton iteration started beyond the
    root, at max F(dir) * scale + |offset| with slack (the Wulff radius
    1/F0(dir) never exceeds F(dir)), decreases monotonically onto it.  Each
    step makes one dual solve: F0 is 1-homogeneous, so F0(x) = x.DF0(x).  A
    row whose slope turns nonpositive has passed the minimum of F0 on its
    line without a root: the line misses the body.

    After the first step every Newton step is positive in exact arithmetic,
    so a row whose step is not has reached its root to roundoff; it keeps
    stepping with the others but no longer holds the iteration open.  This
    ends the solve on ill-conditioned roots, such as rays nearly tangent to
    the body from an offset close to its boundary, whose roundoff exceeds
    the 1e-13 step test.
    """
    if dual_grad is None:
        dual_grad = norm.dual_grad
    far = 1.1 * (scale * float(np.max(norm.value(dirs)))
                 + np.linalg.norm(offset))
    s_out = np.full(len(dirs), -np.inf)
    g_out = np.full(dirs.shape, np.nan)
    s = np.full(len(dirs), far)
    rows = np.arange(len(dirs))
    moving = np.ones(len(dirs), dtype=bool)   # no step <= 0 after the first
    for it in range(60):
        x = offset[None, :] + s[:, None] * dirs
        g = dual_grad(x)
        slope = np.einsum("ij,ij->i", g, dirs)
        hit = slope > 0.0
        if not np.all(hit):
            rows, s, dirs, x, g, slope, moving = (
                a[hit] for a in (rows, s, dirs, x, g, slope, moving))
        ds = (np.einsum("ij,ij->i", x, g) - scale) / slope
        s = s - ds
        if it > 0:
            moving &= ds > 0.0
        if np.max(np.abs(ds[moving]), initial=0.0) < 1e-13 * scale:
            break
    else:
        raise RuntimeError("nested ray Newton did not converge")
    s_out[rows] = s
    g_out[rows] = g
    return s_out, g_out


def harmonic_hess(harmonic, x):
    """D^2p at the rows x, shape (m, d, d), for a sectoral or the product
    harmonic."""
    x = np.asarray(x, dtype=float)
    h = np.zeros(x.shape + (x.shape[-1],))
    if isinstance(harmonic, SectoralHarmonic):
        k = harmonic.degree
        z = x[..., 0] + 1j * x[..., 1]
        d2 = k * (k - 1) * z ** (k - 2)
        h[..., 0, 0] = d2.real
        h[..., 0, 1] = -d2.imag
        h[..., 1, 0] = -d2.imag
        h[..., 1, 1] = -d2.real
        return h
    h[..., 0, 1] = h[..., 1, 0] = x[..., 2]
    h[..., 0, 2] = h[..., 2, 0] = x[..., 1]
    h[..., 1, 2] = h[..., 2, 1] = x[..., 0]
    return harmonic._scale * h


def metric_geometry(surface, norm):
    """(H_F, top tangential eigenvalue of D^2F) of a surface, by the metric
    route: chart tangents t_i = v_i theta + r e_i, C_ij = t_i . D^2F t_j,
    g^-1 by Sherman-Morrison, b = (r^2 I + 2 v v^T - r h) / sqrt(r^2 + |v|^2),
    H_F = tr(g^-1 C g^-1 b) and the top eigenvalue of g^-1 C."""
    grid = surface.grid
    r = surface.r
    v, h = grid.frame_derivatives(r)
    r2 = r * r
    w2 = r2 + np.einsum("in,in->n", v, v)
    sq = np.sqrt(w2)
    grad_r = np.einsum("in,ind->nd", v, grid.frame)
    normal = (r[:, None] * grid.nodes - grad_r) / sq[:, None]
    eye = np.eye(grid.dim)[:, :, None]
    vv = v[:, None] * v[None, :]
    g_inv = (eye - vv / w2) / r2
    b = (r2 * eye + 2.0 * vv - r * h) / sq
    t = v[:, None] * grid.nodes.T + r * grid.frame.transpose(0, 2, 1)
    _, c = norm.tangent_form(normal, t.transpose(0, 2, 1))
    m = np.einsum("ijn,jkn->ikn", g_inv, c)
    hf = np.einsum("ijn,jkn,kin->n", m, g_inv, b)
    disc = sum(((m[i, i] - m[j, j]) / 2.0) ** 2 + m[i, j] * m[j, i]
               for i, j in combinations(range(grid.dim), 2))
    return hf, np.trace(m) / grid.dim + np.sqrt(np.maximum(disc, 0.0))


def full_hess(norm, x):
    """D^2F at the nonzero rows x, shape (m, d, d), for an ellipsoid or a
    perturbed norm."""
    x = np.asarray(x, dtype=float)
    if isinstance(norm, EllipsoidNorm):
        # (A - DF DF^T) / F
        g = norm.grad(x)
        h = norm.matrix[None] - g[:, :, None] * g[:, None, :]
        return h / norm.value(x)[:, None, None]
    # perturbed: F = |x| + eps p(x)/|x|^(k-1), p the harmonic polynomial
    eye = np.eye(norm.ambient_dim)[None]
    n = np.linalg.norm(x, axis=-1)
    u = x / n[:, None]
    k = norm.harmonic.degree
    p = norm.harmonic.value(x)
    dp = norm.harmonic.grad(x)
    d2p = harmonic_hess(norm.harmonic, x)
    h = (eye - u[:, :, None] * u[:, None, :]) / n[:, None, None]
    nk1 = n ** (k + 1)
    cross = dp[:, :, None] * x[:, None, :] + x[:, :, None] * dp[:, None, :]
    return h + norm.eps * (
        d2p / n[:, None, None] ** (k - 1)
        + (1 - k) * cross / nk1[:, None, None]
        + (1 - k) * p[:, None, None] * eye / nk1[:, None, None]
        - (1 - k) * (k + 1) * p[:, None, None]
        * x[:, :, None] * x[:, None, :] / n[:, None, None] ** (k + 3))


def asymmetry_reference(surface, norm, center, fine_resolution):
    """The volume-normalized symmetric difference between the surface and
    the volume-matched Wulff shape translated to `center`, by brute
    quadrature on a fine grid of the same dimension.

    The surface's radius is read between the nodes by its own expansion
    (`SphereGrid.interpolate`), the translated body's exit distances are
    solved exactly along every fine direction (`exit_distance`), and
    |r^(n+1) - s_out^(n+1)| / (n+1) is summed by the fine grid's nodal
    rule, kinks and all: no sign change is located, so the error falls
    only algebraically with the fine resolution.
    """
    grid = surface.grid
    n = grid.dim
    vol = volume(surface)
    scale = (vol / make_wulff(norm, grid).volume) ** (1.0 / (n + 1.0))
    fine = make_grid(n, fine_resolution)
    r = grid.interpolate(surface.r, fine.nodes)
    s = norm.exit_distance(fine.nodes, surface.center - np.asarray(center),
                           scale)[0]
    assert np.all(s > 0.0)
    return fine.integrate(np.abs(r ** (n + 1) - s ** (n + 1))) / ((n + 1) * vol)


def legendre_derivative_loop(p):
    """dP of a table P indexed [m, l, j], one order m at a time:
    dP_l^m = (sqrt((l+m)(l-m+1)) P_l^(m-1) - sqrt((l+m+1)(l-m)) P_l^(m+1)) / 2
    with P_l^(-1) = -P_l^1, each product rounded before the difference."""
    lmax = p.shape[0] - 1
    l = np.arange(lmax + 1)[:, None]
    dp = np.empty_like(p)
    for m in range(lmax + 1):
        dp[m] = np.sqrt(np.maximum((l + m) * (l - m + 1), 0)) * (
            p[m - 1] if m else -p[1])
        if m < lmax:
            dp[m] -= np.sqrt(np.maximum((l + m + 1) * (l - m), 0)) * p[m + 1]
        dp[m] *= 0.5
    return dp


def directed_hausdorff_exhaustive(pts_a, pts_b, normal_b):
    """Largest |(a_i - b_j) . normal_b[j]| over the rows a_i of pts_a, b_j
    the nearest row of pts_b (squared differences summed per coordinate,
    the lowest index on ties), every row searched against every row."""
    d2 = sum((pts_a[:, None, k] - pts_b[None, :, k]) ** 2
             for k in range(pts_a.shape[1]))
    idx = np.argmin(d2, axis=1)
    gap = np.einsum("ij,ij->i", pts_a - pts_b[idx], normal_b[idx])
    return float(np.max(np.abs(gap)))
