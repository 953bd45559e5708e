"""Minkowski norms, their duals, and Wulff shapes.

Three norm families are provided.  The ellipsoidal norms sqrt(x^T A x) have
closed-form duals and ray exits from their Wulff shapes, and serve as
oracles; the euclidean norm is the identity ellipsoid, A = I, and shares
their code.  The "perturbed" family has support function
h = 1 + eps*Y on the unit sphere, with Y the restriction of a low-degree
harmonic polynomial, and exercises the numerical dual path (and the Newton
ray exits built on it): per-row Newton refinement on the sphere, seeded
from an optional caller-supplied start (or x/|x|), certified global by the
sign of x.y, and re-seeded from a grid scan only for rows that fail.

All evaluation methods are vectorized: `x` may be a single vector of shape
(d,) or a batch of shape (..., d).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sphere_grid import SphereGrid, make_grid

_NEWTON_TOL = 1e-13        # chart gradient, relative to |x|
_NEWTON_STEP_TOL = 1e-8    # the step before a passing gradient test
_NEWTON_MAXIT = 40         # scan-seeded fallback
_WARM_MAXIT = 8            # first pass, from the start or x/|x|
_SCAN_RESOLUTION = {2: 512, 3: 24}   # scan grid per ambient dimension


def _as_batch(x, d):
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != d:
        raise ValueError(f"expected vectors with {d} components, got shape {x.shape}")
    single = x.ndim == 1
    return (x[None, :] if single else x.reshape(-1, d)), single, x.shape[:-1]


def _restore(values, single, lead_shape):
    if single:
        return values[0]
    return values.reshape(lead_shape + values.shape[1:])


def _tangent_frame(y):
    """Orthonormal tangent vectors at unit rows y: a list of d-1 (m, d) arrays.

    In 3-D this is the branchless frame of Duff et al., "Building an
    Orthonormal Basis, Revisited", JCGT 6(1), 2017.
    """
    if y.shape[1] == 2:
        return [np.column_stack([-y[:, 1], y[:, 0]])]
    y0, y1, y2 = y.T
    sign = np.copysign(1.0, y2)
    a = -1.0 / (sign + y2)
    b = y0 * y1 * a
    return [np.column_stack([1.0 + sign * y0 * y0 * a, sign * b, -sign * y0]),
            np.column_stack([b, sign + y1 * y1 * a, -y1])]


def _check_nonzero(x):
    if np.any(np.linalg.norm(x, axis=-1) == 0.0):
        raise ValueError("norm derivative requested at x = 0")


# --------------------------------------------------------------------------
# Harmonic polynomial perturbations
# --------------------------------------------------------------------------


class SectoralHarmonic:
    """Re((x1 + i*x2)^k): a degree-k harmonic polynomial, sup 1 on the sphere.

    Restricted to the unit circle this is cos(k*t); it is harmonic in any
    ambient dimension since the remaining coordinates do not appear.
    """

    def __init__(self, degree):
        if degree < 2:
            raise ValueError("harmonic degree must be >= 2")
        self.degree = int(degree)

    def value(self, x):
        z = x[..., 0] + 1j * x[..., 1]
        return (z ** self.degree).real

    def grad(self, x):
        k = self.degree
        z = x[..., 0] + 1j * x[..., 1]
        dz = k * z ** (k - 1)
        g = np.zeros_like(x)
        g[..., 0] = dz.real
        g[..., 1] = -dz.imag
        return g

    def hess(self, x):
        k = self.degree
        z = x[..., 0] + 1j * x[..., 1]
        d2 = k * (k - 1) * z ** (k - 2)
        h = np.zeros(x.shape + (x.shape[-1],))
        h[..., 0, 0] = d2.real
        h[..., 0, 1] = -d2.imag
        h[..., 1, 0] = -d2.imag
        h[..., 1, 1] = -d2.real
        return h


class ProductHarmonic:
    """3*sqrt(3)*x1*x2*x3: a degree-3 harmonic polynomial, sup 1 on S^2."""

    degree = 3
    _scale = 3.0 * np.sqrt(3.0)

    def value(self, x):
        return self._scale * x[..., 0] * x[..., 1] * x[..., 2]

    def grad(self, x):
        g = np.empty_like(x)
        g[..., 0] = x[..., 1] * x[..., 2]
        g[..., 1] = x[..., 0] * x[..., 2]
        g[..., 2] = x[..., 0] * x[..., 1]
        return self._scale * g

    def hess(self, x):
        h = np.zeros(x.shape + (3,))
        h[..., 0, 1] = h[..., 1, 0] = x[..., 2]
        h[..., 0, 2] = h[..., 2, 0] = x[..., 1]
        h[..., 1, 2] = h[..., 2, 1] = x[..., 0]
        return self._scale * h


def _quadric_grad(x, form):
    """B x / F and F = sqrt(x^T B x) at the nonzero rows x, B = form."""
    bx = x @ form
    f = np.sqrt(np.einsum("ij,ij->i", x, bx))
    return bx / f[:, None], f


def _quadric_exit(dirs, offset, scale, form):
    """Largest root s of (o + s*t)^T B (o + s*t) = scale^2 along each row t
    of dirs, B = form, with DF0 = B x / scale at x = o + s*t: returns (s, g),
    s = -inf and g = NaN where the line misses the ellipsoid (discriminant
    <= 0).

    The larger root (-b + sqrt(disc))/a is taken in the form c/(-b - sqrt(disc))
    when b > 0, so neither form subtracts nearly equal numbers.
    """
    bt = dirs @ form
    bo = form @ offset
    a = np.einsum("ij,ij->i", dirs, bt)
    b = bt @ offset
    c = offset @ bo - scale * scale
    disc = b * b - a * c
    hit = disc > 0.0
    root = np.sqrt(np.where(hit, disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(b > 0.0, c / (-b - root), (root - b) / a)
    s = np.where(hit, s, 0.0)
    g = (bo[None, :] + s[:, None] * bt) / scale
    s[~hit], g[~hit] = -np.inf, np.nan
    return s, g


# --------------------------------------------------------------------------
# Norm families
# --------------------------------------------------------------------------


class MinkowskiNorm:
    """Base class: a convex 1-homogeneous norm, smooth away from the origin.

    Subclasses implement `value`, `grad`, `hess`, `dual_value`, `dual_grad`.
    Instances are immutable value objects; all methods are pure.

    `dual_grad(x, start)` accepts an optional guess of the answer with the
    shape of `x` (typically the previous result along a path of nearby
    points).  Closed-form families ignore it; numerical ones may use it to
    seed their solver, never changing what is computed beyond roundoff.
    `exit_distance(dirs, offset, scale, start)` takes the same kind of
    optional start: the base class solves its rays by Newton, and the
    quadric families override it with a closed form that ignores the start.
    """

    family = "abstract"
    ambient_dim = None

    def value(self, x):
        raise NotImplementedError

    def grad(self, x):
        raise NotImplementedError

    def hess(self, x):
        raise NotImplementedError

    def dual_value(self, x):
        raise NotImplementedError

    def dual_grad(self, x, start=None):
        raise NotImplementedError

    def wulff_radius(self, directions):
        """Radial profile rho of the unit dual ball: rho = 1/dual_value."""
        return 1.0 / self.dual_value(directions)

    def exit_distance(self, dirs, offset, scale, start=None):
        """Largest root s of F0(offset + s*dir) = scale along each row of
        dirs, with DF0 at each row's last Newton point: returns (s, g).

        This is the numerical path, for norms without a closed form; the
        quadric families override it with the root of a quadratic.  F0 is
        convex along every line, so a Newton iteration started beyond the
        root, at max F(dir) * scale + |offset| with slack (the Wulff radius
        1/F0(dir) never exceeds F(dir)), decreases monotonically onto it.
        Each step makes one dual solve: F0 is 1-homogeneous, so
        F0(x) = x.DF0(x), and DF0 is warm-started from the previous step's
        gradient.  A row whose slope turns nonpositive has passed the
        minimum of F0 on its line without a root: the line misses the body
        and the row returns s = -inf (g = NaN).

        `start = (s0, g0)` is an earlier result along the same dirs,
        typically for a nearby offset.  Rows with finite s0 start Newton at
        s0, their first dual solve seeded by g0.  By convexity, Newton from
        any point of positive slope lands at or beyond the largest root
        after one step and from there decreases monotonically onto it, as
        from the far point; where the line has no root it descends until
        its slope turns, as from the far point.  A row whose slope at s0 is
        not positive may lie before the minimum of F0 on its line, so it
        restarts from the far point.  The start therefore changes the result
        by roundoff only.

        After the first step every Newton step is positive in exact
        arithmetic, so a row whose step is not has reached its root to
        roundoff; it keeps stepping with the others but no longer holds the
        iteration open.  This ends the solve on ill-conditioned roots, such
        as rays nearly tangent to the body from an offset close to its
        boundary, whose roundoff exceeds the 1e-13 step test.
        """
        far = 1.1 * (scale * float(np.max(self.value(dirs)))
                     + np.linalg.norm(offset))
        s_out = np.full(len(dirs), -np.inf)
        g_out = np.full(dirs.shape, np.nan)
        s = np.full(len(dirs), far)
        g = warm = None
        if start is not None:
            warm = np.isfinite(start[0])
            s[warm] = start[0][warm]
            g = np.where(warm[:, None], start[1], offset[None, :] + far * dirs)
        rows = np.arange(len(dirs))
        moving = np.ones(len(dirs), dtype=bool)   # no step <= 0 after the first
        for it in range(60):
            x = offset[None, :] + s[:, None] * dirs
            g = self.dual_grad(x, start=g)
            slope = np.einsum("ij,ij->i", g, dirs)
            if warm is not None:   # first step: restart warm rows of bad slope
                back = warm & ~(slope > 0.0)
                warm = None
                if np.any(back):
                    s[back] = far
                    x[back] = offset[None, :] + far * dirs[back]
                    g[back] = self.dual_grad(x[back])
                    slope[back] = np.einsum("ij,ij->i", g[back], dirs[back])
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
            raise RuntimeError("radial re-graph of the Wulff shape did not converge")
        s_out[rows] = s
        g_out[rows] = g
        return s_out, g_out

    def spec(self):
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} d={self.ambient_dim}>"


class EllipsoidNorm(MinkowskiNorm):
    """F(x) = sqrt(x^T A x) for a symmetric positive-definite matrix A.

    The unit dual ball is the ellipsoid {x : x^T A^-1 x <= 1}, with semi-axes
    the square roots of the eigenvalues of A, and F0(x) = sqrt(x^T A^-1 x):
    the primal and the dual share one value kernel and one gradient kernel,
    applied to A and to its inverse.
    """

    family = "ellipsoid"

    def __init__(self, matrix):
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] not in (2, 3):
            raise ValueError("matrix must be square of size 2 or 3")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix must be finite")
        if not np.allclose(a, a.T, atol=1e-12):
            raise ValueError("matrix must be symmetric")
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError as exc:
            raise ValueError("matrix must be positive definite") from exc
        self.matrix = a.copy()
        self.matrix.setflags(write=False)
        self.inverse = np.linalg.inv(a)
        self.inverse.setflags(write=False)
        self.ambient_dim = a.shape[0]
        self.positivity = float(np.sqrt(np.linalg.eigvalsh(a)[0]))

    def _value(self, x, form):
        """sqrt(x^T B x) per row, B = form."""
        x, single, lead = _as_batch(x, self.ambient_dim)
        return _restore(np.sqrt(np.einsum("ij,ij->i", x, x @ form)),
                        single, lead)

    def _grad(self, x, form):
        """B x / sqrt(x^T B x) per row, B = form."""
        x, single, lead = _as_batch(x, self.ambient_dim)
        _check_nonzero(x)
        return _restore(_quadric_grad(x, form)[0], single, lead)

    def value(self, x):
        return self._value(x, self.matrix)

    def grad(self, x):
        return self._grad(x, self.matrix)

    def hess(self, x):
        """(A - DF DF^T) / F."""
        x, single, lead = _as_batch(x, self.ambient_dim)
        _check_nonzero(x)
        g, f = _quadric_grad(x, self.matrix)
        h = self.matrix[None] - g[:, :, None] * g[:, None, :]
        return _restore(h / f[:, None, None], single, lead)

    def dual_value(self, x):
        return self._value(x, self.inverse)

    def dual_grad(self, x, start=None):
        return self._grad(x, self.inverse)

    def exit_distance(self, dirs, offset, scale, start=None):
        return _quadric_exit(dirs, offset, scale, self.inverse)

    def spec(self):
        return {"family": "ellipsoid", "matrix": self.matrix.tolist()}


class EuclideanNorm(EllipsoidNorm):
    """F(x) = |x|: the ellipsoid norm of the identity matrix, self-dual, with
    the unit ball as its Wulff shape."""

    family = "euclidean"

    def __init__(self, ambient_dim):
        if ambient_dim not in (2, 3):
            raise ValueError("ambient dimension must be 2 or 3")
        super().__init__(np.eye(int(ambient_dim)))

    def spec(self):
        return {"family": "euclidean", "dim": self.ambient_dim - 1}


class PerturbedNorm(MinkowskiNorm):
    """Support-function perturbation of the euclidean norm.

    F(x) = |x| * (1 + eps * Y(x/|x|)) with Y a harmonic polynomial of degree
    k normalized to sup 1 on the sphere, i.e. F = |x| + eps * p(x)/|x|^(k-1).
    Construction fails if the perturbation breaks strict convexity of F^2/2.

    The dual norm has no closed form; it is evaluated by maximizing
    x.y / F(y) over unit y with Newton refinement in a tangent chart.  Each
    row starts from the normalized `start` row when `dual_grad` is given
    one, else from x/|x|.  x.y/F(y) has exactly two critical points on the
    sphere, and only the maximizer has x.y > 0, so a converged row with
    x.y > 0 is the global maximum.  Rows that fail this certificate are
    solved again from a coarse grid scan's best direction: a warm start can
    speed the solve but never change its answer beyond roundoff.
    """

    family = "perturbed"

    def __init__(self, ambient_dim, eps, harmonic=None):
        if ambient_dim not in (2, 3):
            raise ValueError("ambient dimension must be 2 or 3")
        self.ambient_dim = int(ambient_dim)
        self.eps = float(eps)
        if harmonic is None:
            harmonic = SectoralHarmonic(3) if ambient_dim == 2 else ProductHarmonic()
        self.harmonic = harmonic
        scan = make_grid(ambient_dim - 1, _SCAN_RESOLUTION[ambient_dim])
        self._scan_dirs = scan.nodes
        self._scan_f = self._value_batch(scan.nodes)
        self._validate(scan)

    def _validate(self, scan):
        dirs = self._scan_dirs
        f = self._scan_f
        self.positivity = float(np.min(f))
        if self.positivity <= 0.0:
            raise ValueError("perturbation destroys positivity; reduce eps")
        # D^2(F^2/2) = F D^2F + DF (x) DF must stay positive definite.
        g = self._grad_batch(dirs)
        h = self._hess_batch(dirs)
        m = f[:, None, None] * h + g[:, :, None] * g[:, None, :]
        eigs = np.linalg.eigvalsh(m)
        self.convexity_margin = float(np.min(eigs))
        if self.convexity_margin <= 1e-10:
            raise ValueError(
                "not a Minkowski norm: D^2(F^2/2) loses positive definiteness "
                f"(min eigenvalue {self.convexity_margin:.3e}); reduce eps")

    # internal batched kernels (x: (m, d) with nonzero rows)

    def _value_batch(self, x):
        n = np.linalg.norm(x, axis=-1)
        k = self.harmonic.degree
        return n + self.eps * self.harmonic.value(x) / n ** (k - 1)

    def _grad_batch(self, x):
        n = np.linalg.norm(x, axis=-1)
        k = self.harmonic.degree
        p = self.harmonic.value(x)
        dp = self.harmonic.grad(x)
        g = x / n[:, None]
        g += self.eps * (dp / n[:, None] ** (k - 1)
                         + (1 - k) * p[:, None] * x / n[:, None] ** (k + 1))
        return g

    def _hess_batch(self, x):
        d = self.ambient_dim
        n = np.linalg.norm(x, axis=-1)
        u = x / n[:, None]
        k = self.harmonic.degree
        p = self.harmonic.value(x)
        dp = self.harmonic.grad(x)
        d2p = self.harmonic.hess(x)
        eye = np.eye(d)[None]
        h = (eye - u[:, :, None] * u[:, None, :]) / n[:, None, None]
        nk1 = n ** (k + 1)
        cross = dp[:, :, None] * x[:, None, :] + x[:, :, None] * dp[:, None, :]
        h = h + self.eps * (
            d2p / n[:, None, None] ** (k - 1)
            + (1 - k) * cross / nk1[:, None, None]
            + (1 - k) * p[:, None, None] * eye / nk1[:, None, None]
            - (1 - k) * (k + 1) * p[:, None, None]
            * x[:, :, None] * x[:, None, :] / n[:, None, None] ** (k + 3)
        )
        return h

    def _tangent_hess(self, y, fy, frame):
        """B^T D^2F(y) B, shape (m, d-1, d-1), at unit rows y with F(y) = fy
        and tangent frame B.  The terms of `_hess_batch` that carry y vanish
        on tangent vectors; at |y| = 1 the rest is (k - (k-1) F(y)) I +
        eps D^2p."""
        k = self.harmonic.degree
        b = np.stack(frame, axis=-1)
        block = self.eps * np.matmul(np.swapaxes(b, 1, 2),
                                     np.matmul(self.harmonic.hess(y), b))
        diag = np.arange(len(frame))
        block[:, diag, diag] += (k - (k - 1) * fy)[:, None]
        return block

    def value(self, x):
        x, single, lead = _as_batch(x, self.ambient_dim)
        return _restore(self._value_batch(x), single, lead)

    def grad(self, x):
        x, single, lead = _as_batch(x, self.ambient_dim)
        _check_nonzero(x)
        return _restore(self._grad_batch(x), single, lead)

    def hess(self, x):
        x, single, lead = _as_batch(x, self.ambient_dim)
        _check_nonzero(x)
        return _restore(self._hess_batch(x), single, lead)

    # dual evaluation

    def _newton(self, x, y, maxit):
        """Per-row Newton iteration for critical points of x.y / F(y) on the
        unit sphere, in the tangent chart y -> (y + B c) / |y + B c|.

        Returns the iterates and a mask of the converged rows.  A row stops
        once its chart gradient is below _NEWTON_TOL * |x| after a step
        shorter than _NEWTON_STEP_TOL; converged rows drop out of the
        iteration.  phi is 0-homogeneous, so y.grad(phi) = 0 and the
        projected Hessian B^T D^2phi B is the Riemannian one.
        """
        y = y.copy()
        done = np.zeros(len(x), dtype=bool)
        idx = np.arange(len(x))
        xa, ya = x, y
        xna = np.linalg.norm(x, axis=1)
        step = np.full(len(x), np.inf)
        for _ in range(maxit):
            fy = self._value_batch(ya)
            gy = self._grad_batch(ya)
            num = np.einsum("ij,ij->i", xa, ya)
            frame = _tangent_frame(ya)
            xb = [np.einsum("ij,ij->i", xa, b) for b in frame]
            gb = [np.einsum("ij,ij->i", gy, b) for b in frame]
            gt = [(xbk - num * gbk / fy) / fy for xbk, gbk in zip(xb, gb)]
            gnorm = np.sqrt(sum(g * g for g in gt))
            conv = (gnorm < _NEWTON_TOL * xna) & (step < _NEWTON_STEP_TOL)
            if np.any(conv):
                y[idx[conv]] = ya[conv]
                done[idx[conv]] = True
                keep = ~conv
                idx, xa, ya, xna = idx[keep], xa[keep], ya[keep], xna[keep]
                if idx.size == 0:
                    break
                fy, num = fy[keep], num[keep]
                frame = [b[keep] for b in frame]
                xb, gb, gt = ([v[keep] for v in vs] for vs in (xb, gb, gt))
            bhb = self._tangent_hess(ya, fy, frame)
            f2, f3 = fy * fy, 2.0 * num / (fy * fy * fy)

            def h(k, m):   # entry (k, m) of B^T D^2phi B
                return ((-(xb[k] * gb[m] + gb[k] * xb[m]) - num * bhb[:, k, m])
                        / f2 + f3 * gb[k] * gb[m])

            with np.errstate(divide="ignore", invalid="ignore"):
                if len(frame) == 1:
                    c = [-gt[0] / h(0, 0)]
                else:
                    h00, h01, h11 = h(0, 0), h(0, 1), h(1, 1)
                    det = h00 * h11 - h01 * h01
                    c = [(h01 * gt[1] - h11 * gt[0]) / det,
                         (h01 * gt[0] - h00 * gt[1]) / det]
            step = np.sqrt(sum(ck * ck for ck in c))
            if not np.all(np.isfinite(step)):
                raise RuntimeError("dual Newton hit a singular Hessian; "
                                   "the norm may be too close to degenerate")
            cap = np.where(step > 0.5, 0.5 / np.maximum(step, 1e-300), 1.0)
            ya = ya + sum((cap * ck)[:, None] * b for ck, b in zip(c, frame))
            ya /= np.linalg.norm(ya, axis=1, keepdims=True)
        y[idx] = ya
        return y, done

    def _dual_maximizer(self, x, start=None):
        """Unit maximizers of y -> x.y / F(y), one per row of x.

        Newton starts from the normalized `start` row (shape of x, nonzero
        rows), or from x/|x| without one.  On the unit sphere phi = x.y/F(y)
        has exactly two critical points when D^2(F^2/2) is positive definite
        (the constructor checks it): grad phi = 0 means x = phi(y) DF(y),
        and DF maps the sphere one-to-one onto {F0 = 1}.  The maximizer has
        phi = F0(x) > 0 and the minimizer phi = -F0(-x) < 0, so a row that
        converges with x.y > 0 is certified global.  Rows that fail the
        certificate are re-seeded from the best grid-scan direction.
        """
        y0 = x if start is None else start
        y, ok = self._newton(x, y0 / np.linalg.norm(y0, axis=1, keepdims=True),
                             _WARM_MAXIT)
        redo = ~ok | (np.einsum("ij,ij->i", x, y) <= 0.0)
        if np.any(redo):
            xr = x[redo]
            scores = xr @ self._scan_dirs.T
            scores /= self._scan_f   # in place: no second (rows, scan) array
            yr, ok = self._newton(xr, self._scan_dirs[np.argmax(scores, axis=1)],
                                  _NEWTON_MAXIT)
            if not np.all(ok & (np.einsum("ij,ij->i", xr, yr) > 0.0)):
                raise RuntimeError(
                    "dual Newton refinement did not converge; the perturbation "
                    "may leave too small a smoothness margin (reduce eps)")
            y[redo] = yr
        return y

    def dual_value(self, x):
        x, single, lead = _as_batch(x, self.ambient_dim)
        _check_nonzero(x)
        y = self._dual_maximizer(x)
        vals = np.einsum("ij,ij->i", x, y) / self._value_batch(y)
        return _restore(vals, single, lead)

    def dual_grad(self, x, start=None):
        x, single, lead = _as_batch(x, self.ambient_dim)
        _check_nonzero(x)
        if start is not None:
            start = np.reshape(np.asarray(start, dtype=float), x.shape)
            if not np.all(np.isfinite(start)):
                raise ValueError("dual_grad start rows must be finite")
            _check_nonzero(start)
        y = self._dual_maximizer(x, start)
        g = y / self._value_batch(y)[:, None]
        return _restore(g, single, lead)

    def spec(self):
        kind = ("sectoral" if isinstance(self.harmonic, SectoralHarmonic)
                else "product")
        return {"family": "perturbed", "dim": self.ambient_dim - 1,
                "epsilon": self.eps, "harmonic": {"kind": kind,
                                                  "degree": self.harmonic.degree}}


def norm_from_spec(spec):
    """Build a norm from a JSON-style description {family, parameters}."""
    family = spec.get("family")
    if family == "euclidean":
        return EuclideanNorm(int(spec.get("dim", 1)) + 1)
    if family == "ellipsoid":
        if "matrix" not in spec:
            raise ValueError("norm.matrix is required for the ellipsoid family")
        return EllipsoidNorm(np.asarray(spec["matrix"], dtype=float))
    if family == "perturbed":
        d = int(spec.get("dim", 1)) + 1
        h = spec.get("harmonic", {})
        kind = h.get("kind", "sectoral" if d == 2 else "product")
        if kind == "sectoral":
            harmonic = SectoralHarmonic(int(h.get("degree", 3)))
        elif kind == "product":
            # spec() writes the degree, which is 3 by definition
            if h.get("degree", 3) != 3:
                raise ValueError("norm.harmonic.degree of a product harmonic "
                                 f"must be 3, got {h['degree']!r}")
            if d != 3:
                raise ValueError("a product harmonic needs norm.dim 2")
            harmonic = ProductHarmonic()
        else:
            raise ValueError(f"unknown harmonic kind: {kind}")
        return PerturbedNorm(d, float(spec.get("epsilon", 0.1)), harmonic)
    raise ValueError(f"unknown norm family: {family}")


# --------------------------------------------------------------------------
# Duality diagnostics
# --------------------------------------------------------------------------


@dataclass
class DualityReport:
    """Max residuals of the norm/dual-norm identities over random samples."""

    primal_of_dual_grad: float   # |F(DF0(y)) - 1|
    dual_of_primal_grad: float   # |F0(DF(x)) - 1|
    grad_roundtrip: float        # |DF(DF0(y)) * F0(y) - y| / |y|
    cauchy_schwarz_gap: float    # max(0, x.y - F(x) F0(y)) / (F(x) F0(y))
    equality_case: float         # |x.y - F(x) F0(y)| at x = c DF(y)
    samples: int
    max_residual: float = field(init=False)

    def __post_init__(self):
        self.max_residual = max(
            self.primal_of_dual_grad, self.dual_of_primal_grad,
            self.grad_roundtrip, self.cauchy_schwarz_gap, self.equality_case)


def verify_duality(norm, n_samples=1000, rng=None):
    """Check the primal/dual identities and the generalized Cauchy-Schwarz
    inequality on random sample vectors; returns a DualityReport."""
    if rng is None:
        rng = np.random.default_rng(0)
    d = norm.ambient_dim
    x = rng.standard_normal((n_samples, d))
    y = rng.standard_normal((n_samples, d))
    # keep samples comfortably away from the origin
    x += np.sign(x) * 0.1
    y += np.sign(y) * 0.1

    fx = norm.value(x)
    f0y = norm.dual_value(y)
    gx = norm.grad(x)
    g0y = norm.dual_grad(y)

    r1 = float(np.max(np.abs(norm.value(g0y) - 1.0)))
    r2 = float(np.max(np.abs(norm.dual_value(gx) - 1.0)))
    roundtrip = norm.grad(g0y) * f0y[:, None] - y
    r3 = float(np.max(np.linalg.norm(roundtrip, axis=1)
                      / np.linalg.norm(y, axis=1)))
    gap = (np.einsum("ij,ij->i", x, y) - fx * f0y) / (fx * f0y)
    r4 = float(max(0.0, np.max(gap)))
    # equality is attained along the gradient rays, in both pairings:
    # x = c*DF0(y) saturates x.y <= F(x)F0(y), x = c*DF(y) the swapped form
    c = rng.uniform(0.5, 2.0, size=n_samples)
    xeq = c[:, None] * g0y
    gap_eq = (np.einsum("ij,ij->i", xeq, y)
              - norm.value(xeq) * f0y) / (norm.value(xeq) * f0y)
    xeq2 = c[:, None] * norm.grad(y)
    f0xeq2 = norm.dual_value(xeq2)
    gap_eq2 = (np.einsum("ij,ij->i", xeq2, y)
               - f0xeq2 * norm.value(y)) / (f0xeq2 * norm.value(y))
    r5 = float(max(np.max(np.abs(gap_eq)), np.max(np.abs(gap_eq2))))
    return DualityReport(r1, r2, r3, r4, r5, n_samples)


# --------------------------------------------------------------------------
# Wulff shapes
# --------------------------------------------------------------------------


@dataclass
class WulffShape:
    """The unit dual ball of a norm, sampled as a radial graph on a grid.

    `rho` satisfies dual_value(node) * rho = 1 at every node.  `volume` is
    the enclosed volume and `perimeter` the anisotropic perimeter; for the
    exact shape the perimeter equals (n+1) * volume with n the surface
    dimension, and `identity_residual` records the relative quadrature
    residual of that identity.
    """

    norm: MinkowskiNorm
    grid: SphereGrid
    rho: np.ndarray = field(repr=False)
    volume: float
    perimeter: float
    identity_residual: float


def make_wulff(norm, grid):
    """Sample the Wulff shape of `norm` on `grid` and check its area identity."""
    if norm.ambient_dim != grid.dim + 1:
        raise ValueError("norm and grid dimensions do not match")
    rho = norm.wulff_radius(grid.nodes)
    n = grid.dim
    vol = grid.integrate(rho ** (n + 1)) / (n + 1)
    from .hypersurface import StarSurface, aniso_perimeter
    per = aniso_perimeter(StarSurface(grid, rho), norm)
    residual = abs(per - (n + 1) * vol) / per
    return WulffShape(norm, grid, rho, vol, per, residual)
