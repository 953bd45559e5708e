"""Minkowski norms, their duals, and Wulff shapes.

The dual norm F0 is the ray exit from the origin, written once in
`MinkowskiNorm`.  Three norm families are provided.  The ellipsoidal norms
sqrt(x^T A x) have closed-form ray exits from their Wulff shapes and
closed-form duals, and serve as oracles; the euclidean norm is the identity
ellipsoid, A = I, and shares their code.  The "perturbed" family has support
function h = 1 + eps*Y on the unit sphere, with Y the restriction of a
low-degree harmonic polynomial, and exercises the numerical path: its ray
exits, the dual among them, are solved by one Newton kernel on the Wulff
boundary, with one scan-seeded second pass (see `PerturbedNorm`).

All evaluation methods are vectorized: `x` may be a single vector of shape
(d,) or a batch of shape (..., d).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sphere_grid import SphereGrid, make_grid

_NEWTON_STEP_TOL = 1e-8    # the chart step before a passing root test
_FIRST_MAXIT = 10          # first pass, before the second
_SCAN_MAXIT = 40           # the scan-seeded second pass
_SCAN_RESOLUTION = {2: 512, 3: 24}   # scan grid per ambient dimension
_MISS_SCAN = 64            # angles of the miss test's circle scan in 3-D


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
    """Orthonormal tangent vectors at unit rows y, shape (d-1, m, d) and
    stored node-contiguous (the transpose(0, 2, 1) is contiguous), as
    `tangent_form` takes them; y may be a view in either layout.

    In 3-D this is the branchless frame of Duff et al., "Building an
    Orthonormal Basis, Revisited", JCGT 6(1), 2017.
    """
    if y.shape[1] == 2:
        return np.array([[-y[:, 1], y[:, 0]]]).transpose(0, 2, 1)
    y0, y1, y2 = y.T
    sign = np.copysign(1.0, y2)
    a = -1.0 / (sign + y2)
    b = y0 * y1 * a
    return np.array([[1.0 + sign * y0 * y0 * a, sign * b, -sign * y0],
                     [b, sign + y1 * y1 * a, -y1]]).transpose(0, 2, 1)


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

    def hess_apply(self, x, t):
        """D^2p(x) t for rows x (m, d) and vectors t (k, m, d): with
        d2 = k(k-1) z^(k-2), the Hessian is [[Re d2, -Im d2], [-Im d2,
        -Re d2]] in the first two coordinates and zero elsewhere."""
        k = self.degree
        z = x[..., 0] + 1j * x[..., 1]
        d2 = k * (k - 1) * z ** (k - 2)
        re, im = d2.real, d2.imag
        out = np.zeros_like(t)
        out[..., 0] = re * t[..., 0] - im * t[..., 1]
        out[..., 1] = -im * t[..., 0] - re * t[..., 1]
        return out


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

    def hess_apply(self, x, t):
        """D^2p(x) t for rows x (m, 3) and vectors t (k, m, 3): D^2p holds
        3 sqrt(3) x_k at (i, j) for {i, j, k} = {0, 1, 2}, zero diagonal."""
        sx = self._scale * x
        out = np.empty_like(t)
        out[..., 0] = sx[..., 2] * t[..., 1] + sx[..., 1] * t[..., 2]
        out[..., 1] = sx[..., 2] * t[..., 0] + sx[..., 0] * t[..., 2]
        out[..., 2] = sx[..., 1] * t[..., 0] + sx[..., 0] * t[..., 1]
        return out


def _quadric_grad(x, form):
    """B x / F and F = sqrt(x^T B x) at the nonzero rows x, B = form; the
    gradient rows are stored node-contiguous, whatever the layout of x."""
    bx = form.T @ x.T   # [coordinate, row]
    f = np.sqrt(np.einsum("dm,dm->m", x.T, bx))
    bx /= f
    return bx.T, f


def _quadric_exit(dirs, offset, scale, form):
    """Largest root s of (o + s*t)^T B (o + s*t) = scale^2 along each row t
    of dirs, B = form, with DF0 = B x / scale at x = o + s*t: returns (s, g),
    s = -inf and g = NaN where the line misses the ellipsoid (discriminant
    <= 0).

    The larger root (-b + sqrt(disc))/a is taken in the form c/(-b - sqrt(disc))
    when b > 0, so neither form subtracts nearly equal numbers.  g is
    stored node-contiguous.
    """
    bt = form.T @ dirs.T   # [coordinate, row]
    bo = form @ offset
    a = np.einsum("dm,dm->m", dirs.T, bt)
    b = offset @ bt
    c = offset @ bo - scale * scale
    disc = b * b - a * c
    hit = disc > 0.0
    root = np.sqrt(np.where(hit, disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(b > 0.0, c / (-b - root), (root - b) / a)
    s = np.where(hit, s, 0.0)
    g = (bo[:, None] + s * bt) / scale
    s[~hit], g[:, ~hit] = -np.inf, np.nan
    return s, g.T


# --------------------------------------------------------------------------
# Norm families
# --------------------------------------------------------------------------


class MinkowskiNorm:
    """Base class: a convex 1-homogeneous norm, smooth away from the origin.

    Subclasses implement `value`, `grad`, `tangent_form` and
    `exit_distance`, and may override `dual_value` and `dual_grad` with a
    closed form.  Instances are immutable value objects; all methods are
    pure.

    The dual is the ray exit from the origin: the ray through x leaves the
    Wulff shape W = {F0 <= 1} at s = 1/F0(x/|x|), where DF0 equals DF0(x)
    (it is 0-homogeneous).  So DF0(x) is the g of `exit_distance`(x/|x|, 0,
    1), F0(x) = x . DF0(x) by Euler's identity, and `wulff_radius` = 1/F0.

    `tangent_form(nu, t)` is D^2F where the flow and the Newton solves read
    it: on the tangent plane of a unit normal.  It takes unit rows nu of
    shape (m, d) and tangent vectors t of shape (k, m, d), t_i . nu = 0, and
    returns F(nu) and C_ij = t_i . D^2F(nu) t_j, shape (k, k, m), in closed
    form and without the d x d Hessian.  F is 1-homogeneous, so
    D^2F(nu) nu = 0 and C determines D^2F(nu) there.  nu and t may be views
    in any layout, and the per-node products keep theirs: given the
    node-contiguous views of `SphereGrid` and `geometry` (nu.T and
    t.transpose(0, 2, 1) contiguous), every product runs along node rows.

    `exit_distance(dirs, offset, scale, start)` is the largest root s of
    F0(offset + s*dir) = scale along each row of dirs, with DF0 there:
    (s, g), s = -inf and g = NaN where the line misses scale*W.  `start =
    (s0, g0)` is an optional earlier result along the same dirs, typically
    for a nearby offset.  `exit_reads_start` says whether the family reads
    it: the quadric families solve a quadratic and ignore it, the perturbed
    family seeds its Newton kernel with it, which changes the result by
    roundoff only.
    """

    family = "abstract"
    ambient_dim = None
    exit_reads_start = False

    def value(self, x):
        raise NotImplementedError

    def grad(self, x):
        raise NotImplementedError

    def tangent_form(self, nu, t):
        raise NotImplementedError

    def _dual_grad_batch(self, x):
        """DF0 at the nonzero rows x, read off the ray exit from the origin."""
        _check_nonzero(x)
        theta = x / np.linalg.norm(x, axis=1, keepdims=True)
        return self.exit_distance(theta, np.zeros(self.ambient_dim), 1.0)[1]

    def dual_value(self, x):
        x, single, lead = _as_batch(x, self.ambient_dim)
        vals = np.einsum("ij,ij->i", x, self._dual_grad_batch(x))
        return _restore(vals, single, lead)

    def dual_grad(self, x):
        x, single, lead = _as_batch(x, self.ambient_dim)
        return _restore(self._dual_grad_batch(x), single, lead)

    def wulff_radius(self, directions):
        """Radial profile rho of the unit dual ball: rho = 1/dual_value."""
        return 1.0 / self.dual_value(directions)

    def exit_distance(self, dirs, offset, scale, start=None):
        raise NotImplementedError

    def spec(self):
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} d={self.ambient_dim}>"


class EllipsoidNorm(MinkowskiNorm):
    """F(x) = sqrt(x^T A x) for a symmetric positive-definite matrix A.

    The unit dual ball is the ellipsoid {x : x^T A^-1 x <= 1}, with semi-axes
    the square roots of the eigenvalues of A, and F0(x) = sqrt(x^T A^-1 x):
    the primal and the dual share one value kernel and one gradient kernel,
    applied to A and to its inverse.  The closed-form dual overrides the
    base class's ray exit from the origin, which agrees with it to roundoff
    but costs 5-10 times as much per call.  F reads only the symmetric part
    of A and DF = A x/F all of A, so A is stored as (A + A^T)/2, and an
    input whose asymmetry exceeds 1e-12 of its largest entry is rejected.
    """

    family = "ellipsoid"

    def __init__(self, matrix):
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] not in (2, 3):
            raise ValueError("matrix must be square of size 2 or 3")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix must be finite")
        if np.max(np.abs(a - a.T)) > 1e-12 * np.max(np.abs(a)):
            raise ValueError("matrix must be symmetric")
        a = (a + a.T) / 2.0   # also a copy of the caller's matrix
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError as exc:
            raise ValueError("matrix must be positive definite") from exc
        self.matrix = a
        self.matrix.setflags(write=False)
        self.inverse = np.linalg.inv(a)
        self.inverse.setflags(write=False)
        self.ambient_dim = a.shape[0]
        self.positivity = float(np.sqrt(np.linalg.eigvalsh(a)[0]))

    def _value(self, x, form):
        """sqrt(x^T B x) per row, B = form."""
        x, single, lead = _as_batch(x, self.ambient_dim)
        return _restore(np.sqrt(np.einsum("dm,dm->m", x.T, form.T @ x.T)),
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

    def tangent_form(self, nu, t):
        """(T^T A T - (T^T DF)(DF^T T)) / F: D^2F = (A - DF DF^T) / F
        between tangents."""
        g, f = _quadric_grad(nu, self.matrix)
        t = t.transpose(0, 2, 1)   # [i, coordinate, node]
        tg = np.einsum("idm,md->im", t, g)
        c = np.einsum("idm,jdm->ijm", t, self.matrix.T @ t)
        c -= tg[:, None] * tg[None]
        c /= f
        return f, c

    def dual_value(self, x):
        return self._value(x, self.inverse)

    def dual_grad(self, x):
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

    The dual norm has no closed form.  Its unit ball W has the boundary
    {DF(nu) : |nu| = 1}, so DF0(x) = nu/F(nu) at the nu where the ray from
    the origin through x leaves W: the base class reads the dual off that
    exit.  One Newton kernel, `_boundary_newton`, solves it and every other
    ray exit from scale*W.  Rows it cannot certify take one second pass,
    `_scan_pass`, seeded from a grid scan; a ray's line is first tested
    against the support function of scale*W (`_meets`), and a line that
    misses it gets no second pass.  A ray from the origin always meets W.
    """

    family = "perturbed"
    exit_reads_start = True

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
        self._validate()

    def _validate(self):
        dirs = self._scan_dirs
        f = self._scan_f
        self.positivity = float(np.min(f))
        if self.positivity <= 0.0:
            raise ValueError("perturbation destroys positivity; reduce eps")
        # D^2(F^2/2) = F D^2F + DF (x) DF must stay positive definite.  In
        # the orthonormal frame (nu, B) it is diag(0, F C) + h h^T with
        # C = tangent_form(nu, B) and h = (F, B^T DF): D^2F nu = 0 and
        # nu . DF = F.
        frame = _tangent_frame(dirs)
        _, c = self.tangent_form(dirs, frame)
        h = np.concatenate([f[:, None], np.einsum(
            "imd,md->mi", frame, self._grad_batch(dirs))], axis=1)
        m = h[:, :, None] * h[:, None, :]
        m[:, 1:, 1:] += f[:, None, None] * np.moveaxis(c, -1, 0)
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

    def value(self, x):
        x, single, lead = _as_batch(x, self.ambient_dim)
        return _restore(self._value_batch(x), single, lead)

    def grad(self, x):
        x, single, lead = _as_batch(x, self.ambient_dim)
        _check_nonzero(x)
        return _restore(self._grad_batch(x), single, lead)

    def tangent_form(self, nu, t):
        """(k - (k-1) F(nu)) g + eps T^T D^2p(nu) T with g_ij = t_i . t_j.

        D^2F of F = |x| + eps p(x)/|x|^(k-1) is (I - u u^T)/|x| + eps
        (D^2p/|x|^(k-1) + (1-k)(Dp x^T + x Dp^T + p I)/|x|^(k+1)
        - (1-k)(k+1) p x x^T/|x|^(k+3)), u = x/|x|.  The terms that carry
        nu vanish on tangent vectors, and at |nu| = 1 the rest is
        (1 + (1-k) eps p) g + eps T^T D^2p T, with eps p = F(nu) - 1.
        D^2p(nu) T is the harmonic's closed-form `hess_apply`, so no d x d
        Hessian is built."""
        k = self.harmonic.degree
        f = self._value_batch(nu)
        ht = self.harmonic.hess_apply(nu, t)
        c = np.einsum("imd,jmd->ijm", t, t)
        c *= k - (k - 1) * f
        c += self.eps * np.einsum("imd,jmd->ijm", t, ht)
        return f, c

    # the boundary solve: dual evaluation and ray exits

    def _boundary_newton(self, dirs, offset, scale, s, nu, maxit):
        """Joint Newton iteration for the exit of each ray offset + s*dir
        from scale*W: solves R = scale*DF(nu) - offset - s*dir = 0 for s and
        the unit normal nu there, one row of dirs at a time.

        The boundary of scale*W is the Cahn-Hoffman image {scale*DF(nu) :
        |nu| = 1}.  nu moves in the tangent chart nu -> (nu + B c)/|nu + B c|
        of the orthonormal frame B = `_tangent_frame`(nu).  F is
        1-homogeneous, so D^2F(nu) nu = 0 and D^2F(nu) B = B T with
        T = `tangent_form`(nu, B); the step is then closed form:
        ds = nu.R / nu.dir along the normal and c = T^-1 B^T(dir*ds - R)/scale
        in the chart, capped at length 0.5.  Each row starts from (s, nu/|nu|);
        rows with non-finite s are skipped.  A row stops once |ds| <=
        1e-13*scale after a chart step shorter than _NEWTON_STEP_TOL, and
        drops out when its step turns non-finite (nu.dir = 0 or det T = 0).

        A line meets the strictly convex boundary at most twice and only the
        exit has nu.dir > 0, so a converged row with nu.dir > 0 is the
        largest root.  Returns (s, nu, ok), ok the mask of those rows.  The
        iterates are held node-contiguous, nu as a (d, m) array, and the
        returned nu is a view of that storage.
        """
        s, nu = s.copy(), nu.T.copy()   # nu as [coordinate, row]
        ok = np.zeros(len(dirs), dtype=bool)
        idx = np.flatnonzero(np.isfinite(s))
        sa, th = s[idx], np.take(dirs.T, idx, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            na = np.take(nu, idx, axis=1)
            na /= np.linalg.norm(na, axis=0)
            for _ in range(maxit):
                frame = _tangent_frame(na.T)
                r = scale * self._grad_batch(na.T).T - offset[:, None] - sa * th
                ds = np.einsum("dm,dm->m", na, r) / np.einsum("dm,dm->m", na, th)
                v = th * ds - r
                bv = [np.einsum("dm,md->m", v, b) / scale for b in frame]
                _, t = self.tangent_form(na.T, frame)
                if len(frame) == 1:
                    c = [bv[0] / t[0, 0]]
                else:
                    det = t[0, 0] * t[1, 1] - t[0, 1] * t[0, 1]
                    c = [(t[1, 1] * bv[0] - t[0, 1] * bv[1]) / det,
                         (t[0, 0] * bv[1] - t[0, 1] * bv[0]) / det]
                step = np.sqrt(sum(ck * ck for ck in c))
                cap = np.where(step > 0.5, 0.5 / np.maximum(step, 1e-300), 1.0)
                sa = sa + ds
                na = na + sum((cap * ck) * b.T for ck, b in zip(c, frame))
                na /= np.linalg.norm(na, axis=0)
                conv = (np.abs(ds) <= 1e-13 * scale) & (step < _NEWTON_STEP_TOL)
                s[idx[conv]], nu[:, idx[conv]], ok[idx[conv]] = (
                    sa[conv], na[:, conv], True)
                keep = ~conv & np.isfinite(step) & np.isfinite(ds)
                idx, sa = idx[keep], sa[keep]
                th, na = np.compress(keep, th, axis=1), np.compress(keep, na, axis=1)
                if idx.size == 0:
                    break
        ok[ok] = np.einsum("dm,dm->m", np.compress(ok, nu, axis=1),
                           np.compress(ok, dirs.T, axis=1)) > 0.0
        return s, nu.T, ok

    def _scan_pass(self, dirs, offset, scale):
        """`_boundary_newton` for _SCAN_MAXIT steps from a grid scan's seed,
        on rays whose line meets scale*W: returns (s, nu) at their exits.

        Each scan normal nu_j bounds scale*W by the half-space
        nu_j . x <= scale*F(nu_j), so where nu_j . dir > 0 the exit lies at
        or before s_j = (scale*F(nu_j) - offset . nu_j) / (nu_j . dir).  A row
        starts from the nu_j of least s_j, at s_j (at offset 0 and scale 1
        that nu_j maximizes dir . nu_j / F(nu_j)).  Raises RuntimeError if a
        row still fails the exit certificate.
        """
        bound = dirs @ self._scan_dirs.T   # nu_j . dir, then s_j in place
        ahead = bound > 0.0
        np.divide(scale * self._scan_f - self._scan_dirs @ offset, bound,
                  out=bound, where=ahead)
        bound[~ahead] = np.inf
        j = np.argmin(bound, axis=1)
        s, nu, ok = self._boundary_newton(
            dirs, offset, scale, bound[np.arange(len(dirs)), j],
            self._scan_dirs[j], _SCAN_MAXIT)
        if not np.all(ok):
            raise RuntimeError(
                "boundary Newton refinement did not converge; the perturbation "
                "may leave too small a smoothness margin (reduce eps)")
        return s, nu

    def _meets(self, dirs, offset, scale):
        """Mask of the rows whose line offset + s*dir meets scale*W.

        scale*F is the support function of scale*W, so the line meets it iff
        g(u) = scale*F(u) - u . offset > 0 for every unit u orthogonal to dir
        (touching counts as a miss).  In the plane u = +-b, b the tangent of
        dir.  In space u = cos(phi) b1 + sin(phi) b2 over the tangent frame:
        the least g of a _MISS_SCAN-angle scan and of Newton steps in phi
        from its minimum decides, with g'' = scale*C - g, C =
        tangent_form(u, u')."""
        frame = _tangent_frame(dirs)
        if len(frame) == 1:
            u = np.concatenate([frame[0], -frame[0]])
            g = scale * self._value_batch(u) - u @ offset
            return np.all(g.reshape(2, -1) > 0.0, axis=0)
        phi = np.arange(_MISS_SCAN) * (2.0 * np.pi / _MISS_SCAN)
        u = (np.cos(phi)[:, None, None] * frame[0]
             + np.sin(phi)[:, None, None] * frame[1]).reshape(-1, 3)
        g = (scale * self._value_batch(u) - u @ offset).reshape(_MISS_SCAN, -1)
        low, phi = np.min(g, axis=0), phi[np.argmin(g, axis=0)]
        for _ in range(_FIRST_MAXIT):
            c, s = np.cos(phi)[:, None], np.sin(phi)[:, None]
            u, du = c * frame[0] + s * frame[1], c * frame[1] - s * frame[0]
            f, c = self.tangent_form(u, du[None])
            g = scale * f - u @ offset
            low = np.minimum(low, g)
            slope = (scale * np.einsum("ij,ij->i", self._grad_batch(u), du)
                     - du @ offset)
            curv = scale * c[0, 0] - g
            phi = phi - slope / np.where(curv > 0.0, curv, np.inf)
        return low > 0.0

    def exit_distance(self, dirs, offset, scale, start=None):
        """Largest root s of F0(offset + s*dir) = scale along each row of
        dirs, with DF0 there: returns (s, g), s = -inf and g = NaN where the
        line misses the body.

        Each row is solved by `_boundary_newton`; at its root DF0 = nu/F(nu).
        A row starts from `start = (s0, g0)` where both are finite, at
        (s0, g0/|g0|), since DF0 is parallel to the normal; otherwise from
        its exit from the euclidean ball of radius scale.  Rows that fail
        the exit certificate (converged at the entry, singular, still moving
        after _FIRST_MAXIT steps, or missing the ball) take the miss test
        `_meets`, and those that meet the body `_scan_pass`: the start and
        the path change the result by roundoff only.
        """
        s = np.full(len(dirs), -np.inf)
        g = np.full(dirs.shape[::-1], np.nan).T   # node-contiguous
        warm = np.zeros(len(dirs), dtype=bool)
        if start is not None:
            warm = np.isfinite(start[0]) & np.all(np.isfinite(start[1]), axis=1)
            s[warm], g[warm] = start[0][warm], start[1][warm]
        if not np.all(warm):
            s[~warm], g[~warm] = _quadric_exit(dirs[~warm], offset, scale,
                                               np.eye(self.ambient_dim))
        s, g, ok = self._boundary_newton(dirs, offset, scale, s, g, _FIRST_MAXIT)
        if not np.all(ok):
            rows = np.flatnonzero(~ok)
            s[rows], g[rows] = -np.inf, np.nan
            rows = rows[self._meets(dirs[rows], offset, scale)]
            s[rows], g[rows] = self._scan_pass(dirs[rows], offset, scale)
            ok[rows] = True
        nu = np.compress(ok, g.T, axis=1)   # g = nu on these rows
        g.T[:, ok] = nu / self._value_batch(nu.T)
        return s, g

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
