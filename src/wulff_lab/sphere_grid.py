"""Quadrature grids and tangential derivatives on the unit circle and 2-sphere.

The circle (dim=1) is a uniform periodic angle grid with spectral (FFT)
differentiation.  The 2-sphere (dim=2) is a latitude-longitude product grid,
Gauss-Legendre in latitude and uniform periodic in longitude, so no node sits
on a pole.  Fields on it are handled through their spherical-harmonic
expansion up to degree L = nlat - 1, which the grid's quadrature transforms
exactly: an FFT in longitude, then orthonormal associated Legendre functions
in latitude (see `legendre_table`).

The grid is the only module that knows its expansion.  Other modules read a
field through `frame_derivatives`, `interpolate` (the expansion summed in
any direction), `resample` (the same at the nodes of a finer grid, by one
zero-padded transform), `great_circles` (the same along great circles, as
trigonometric polynomials) and `shifted_laplace_solve`, (I - a*Delta) x = f
with `a` a scalar or one value per node, never solved below a node's own.
"""

from __future__ import annotations

import numpy as np

# Most nodes of the circle's dense per-node shifted Laplace solve, so its LU
# costs O(_DENSE_NODES^3) whatever the grid size: about 0.05 ms at 64 nodes,
# against 1-2 ms for a dense LU of 256 nodes and 6-7 ms of 512.
_DENSE_NODES = 64


def legendre_degrees(mu, lmax):
    """Orthonormal associated Legendre functions at mu = cos(colatitude),
    one degree at a time.

    Yields, for l = 0..lmax, the (l+1, len(mu)) array of P_l^m(mu) for
    m = 0..l, normalized so that the integral of P_l^m P_k^m over [-1, 1] is
    1 if l == k, and without the Condon-Shortley phase.  The standard
    three-term recurrence in l runs for all orders at once; only two degrees
    are held at a time.
    """
    mu = np.asarray(mu, dtype=float)
    sin = np.sqrt(1.0 - mu ** 2)
    prev = np.empty((0, mu.size))
    row = np.full((1, mu.size), np.sqrt(0.5))
    yield row
    for l in range(1, lmax + 1):
        m = np.arange(l)[:, None]
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
        cur = np.empty((l + 1, mu.size))
        cur[:l] = a * mu * row
        cur[:l - 1] -= (a * b)[:l - 1] * prev
        cur[l] = np.sqrt((2.0 * l + 1.0) / (2.0 * l)) * sin * row[l - 1]
        prev, row = row, cur
        yield cur


def legendre_table(mu, lmax):
    """The functions of `legendre_degrees` and their colatitude derivatives.

    Returns (P, dP), each of shape (lmax+1, lmax+1, len(mu)) and indexed
    [m, l, j], zero where l < m; lmax >= 1.  dP comes from the functions of
    orders m -/+ 1 of the same degree,
        dP_l^m = (sqrt((l+m)(l-m+1)) P_l^(m-1) - sqrt((l+m+1)(l-m)) P_l^(m+1)) / 2,
    with P_l^(-1) = -P_l^1, so it needs no division by sin(colatitude).  It
    is filled in place for all orders at once.  Each product is rounded
    before the difference, and the second product is zero where l <= m, so
    it is held for two slabs in turn, the orders below k at every degree
    and the rest at degrees above k: the product held is at most about 0.4
    of a table, besides the two tables.
    """
    p = np.zeros((lmax + 1, lmax + 1, np.size(mu)))
    for l, row in enumerate(legendre_degrees(mu, lmax)):
        p[:l + 1, l] = row
    l = np.arange(lmax + 1)
    m = l[:, None]
    a = np.sqrt(np.maximum((l + m) * (l - m + 1), 0))[:, :, None]
    b = np.sqrt(np.maximum((l + m + 1) * (l - m), 0))[:, :, None]
    dp = np.empty_like(p)
    np.multiply(a[1:], p[:-1], out=dp[1:])
    np.multiply(a[0], -p[1], out=dp[0])
    k = 3 * (lmax + 1) // 8
    dp[:k] -= b[:k] * p[1:k + 1]
    dp[k:lmax, k + 1:] -= b[k:lmax, k + 1:] * p[k + 1:, k + 1:]
    dp *= 0.5
    return p, dp


def line_coefficients(mu):
    """The real matrix that takes a field F along a great circle through the
    poles, given at the colatitudes theta = arccos(mu) (increasing) on one
    half and at 2 pi - theta on the other, to the real and imaginary parts
    (alternate rows) of the coefficients c_0..c_n, n = len(mu), of
    T = F sin psi = Re sum_j c_j exp(i j psi): F is the
    least-squares fit sum_j a_j exp(i j psi), |j| <= n - 1, which the
    expansion of an n-ring grid along the circle is, and sin psi takes
    (a_(j-1) - a_(j+1)) / 2i to degree j."""
    n = len(mu)
    theta = np.arccos(mu)
    angle = np.outer(np.r_[theta, 2.0 * np.pi - theta[::-1]], np.arange(1, n))
    # a real fit, a_0 + sum_j (cos_j, sin_j) rows, then a_(+-j) = (cos_j -+
    # i sin_j) / 2 (a complex pseudo-inverse would load LAPACK's complex SVD)
    fit = np.linalg.pinv(np.column_stack([np.ones(len(angle)), np.cos(angle),
                                          np.sin(angle)]))
    half = 0.5 * (fit[1:n] - 1j * fit[n:])
    zero = np.zeros((1, 2 * n))
    a = np.vstack([zero, half[::-1].conj(), fit[:1], half, zero, zero])
    # a_j in row j + n, j = -n..n + 1
    c = (a[n - 1:2 * n] - a[n + 1:]) / 1j
    c[0] *= 0.5   # degree 0 is not doubled
    return np.stack([c.real, c.imag], axis=1).reshape(2 * n + 2, 2 * n)


def gauss_nodes(n):
    """The n Gauss-Legendre nodes in increasing order.

    They start as the eigenvalues of the Jacobi matrix of the Legendre
    polynomials, whose off-diagonal is k / sqrt(4k^2 - 1), k = 1..n-1
    (Golub and Welsch, Math. Comp. 23, 1969).  Those carry errors of up to
    about 100 ulps at n = 64, which the top-degree Laplacian reads; one
    Newton step on P_n, with P_n and P_(n-1) from the three-term
    recurrence, brings them to about an ulp.  The result is symmetrized
    about 0, as the exact nodes are.
    """
    k = np.arange(1.0, n)
    x = np.linalg.eigvalsh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    prev, p = np.ones(n), x
    for j in range(2, n + 1):
        prev, p = p, ((2 * j - 1) * x * p - (j - 1) * prev) / j
    # P_n' = n (x P_n - P_(n-1)) / (x^2 - 1)
    x = x - p * (x * x - 1.0) / (n * (x * p - prev))
    return (x - x[::-1]) / 2.0


class SphereGrid:
    """Nodes, quadrature weights and tangential derivatives on S^1 or S^2.

    Immutable after construction; all operations are pure.  Reductions are
    performed in a fixed node order so repeated runs are bit-identical.  The
    grid holds what its transforms read, built with it: on the circle the
    derivative symbols and the operators of the per-node solve, on the
    sphere the Legendre table P and its colatitude derivative dP (views of
    `legendre_table`'s arrays), the Gauss weights and the per-ring chart
    factors of `frame_derivatives`.

    Per-node vectors are stored node-contiguous, one row of nodes per
    coordinate, and exposed as (n_nodes, dim+1) views of that storage, so
    per-node products and contractions with them run along node rows.

    Attributes
    ----------
    dim : 1 or 2 (dimension of the sphere, ambient space has dim+1 coords)
    nodes : (n_nodes, dim+1) unit vectors; nodes.T is contiguous
    weights : (n_nodes,) positive quadrature weights summing to |S^dim|
    frame : (dim, n_nodes, dim+1) orthonormal tangent frame, the angle
        direction on the circle and the colatitude and longitude directions
        on the sphere; frame.transpose(0, 2, 1) is contiguous
    """

    def __init__(self, dim, resolution):
        if dim not in (1, 2):
            raise ValueError(f"unsupported dimension: {dim} (must be 1 or 2)")
        if int(resolution) < 8:
            raise ValueError(f"resolution too small: {resolution} (minimum 8)")
        self.dim = int(dim)
        self.resolution = int(resolution)
        if self.dim == 1:
            self._build_circle(self.resolution)
        else:
            self._build_sphere(self.resolution)
        self.n_nodes = self.nodes.shape[0]
        for arr in (self.nodes, self.weights, self.frame):
            arr.setflags(write=False)

    # ------------------------------------------------------------------ S^1

    def _build_circle(self, n):
        a = self.angles = 2.0 * np.pi * np.arange(n) / n
        self.nodes = np.array([np.cos(a), np.sin(a)]).T
        self.weights = np.full(n, 2.0 * np.pi / n)
        self.frame = np.array([[-np.sin(a), np.cos(a)]]).transpose(0, 2, 1)
        k = np.fft.rfftfreq(n, d=1.0 / n)  # integer wavenumbers 0..n/2
        ik = 1j * k
        if n % 2 == 0:
            ik[-1] = 0.0  # odd derivative of the Nyquist mode is ambiguous
        self._mk2 = -(k ** 2)
        # symbols of the first and second derivative, one row each
        self._d12 = np.array([ik, self._mk2])
        # operators of the per-node solve on m = min(N, _DENSE_NODES) nodes:
        # the dense spectral second-derivative matrix there, circulant with
        # column j the symbol -k^2 transformed back to the m nodes and rolled
        # to node j, and for each grid node the index of the nearest m node
        m = min(n, _DENSE_NODES)
        col = np.fft.irfft(-np.fft.rfftfreq(m, d=1.0 / m) ** 2, n=m)
        idx = np.arange(m)
        self._dense = (col[(idx[:, None] - idx[None, :]) % m],
                       np.rint(np.arange(n) * (m / n)).astype(np.intp) % m)
        for arr in self._dense:
            arr.setflags(write=False)
        # Largest magnitude of the discrete second-derivative symbol.
        self.curvature_symbol_bound = (n / 2.0) ** 2

    # ------------------------------------------------------------------ S^2

    def _build_sphere(self, nlat):
        nlon = 2 * nlat
        # colatitude increasing from north to south
        mu = gauss_nodes(nlat)[::-1]
        self._line_coefficients = line_coefficients(mu)
        # Spherical harmonics up to degree L = nlat - 1: the nlat-point Gauss
        # rule integrates the product of two such Legendre functions exactly,
        # and 2 nlat longitudes resolve every order m <= L.  The longitude
        # Nyquist mode m = nlat is dropped.
        lmax = nlat - 1
        p, dp = legendre_table(mu, lmax)
        # Gauss weights as the Christoffel numbers 1 / sum_l P_l^0(mu)^2 of
        # the table's own orthonormal zonal functions: numpy's leggauss
        # weights carry relative errors up to 1e-12 at 48 nodes, which break
        # the transform's orthonormality at 1e-13
        glw = 1.0 / np.sum(p[0] ** 2, axis=0)
        self.nlat = nlat
        self.nlon = nlon
        lon = 2.0 * np.pi * np.arange(nlon) / nlon
        self.sin_colat = np.sqrt(1.0 - mu ** 2)
        self.cos_colat = mu

        st = self.sin_colat[:, None]
        ct = self.cos_colat[:, None]
        cp = np.cos(lon)[None, :]
        sp = np.sin(lon)[None, :]
        zero = np.zeros((nlat, nlon))
        # [vector, coordinate, node]: the nodes, then the orthonormal chart
        # frame (colatitude and longitude directions)
        xyz = np.array([[st * cp, st * sp, ct + zero],
                        [ct * cp, ct * sp, -st + zero],
                        [-sp + zero, cp + zero, zero]]).reshape(3, 3, -1)
        self.nodes = xyz[0].T
        self.frame = xyz[1:].transpose(0, 2, 1)
        self.weights = np.repeat(glw * (2.0 * np.pi / nlon), nlon)

        self._glw = glw
        self._leg = p.transpose(0, 2, 1)        # [m, j, l], synthesis
        self._leg_dcolat = dp.transpose(0, 2, 1)
        l = np.arange(lmax + 1)
        self._lap_symbol = -(l * (l + 1.0))
        self._im = 1j * l                        # i m for orders 0..L
        # per-ring chart factors of frame_derivatives, one row per
        # latitude: cos/sin, sin^2, 1/sin, cot = cos (1/sin), (1/sin)^2
        inv_sin = 1.0 / st
        self._ring = (ct / st, st ** 2, inv_sin, ct * inv_sin, inv_sin ** 2)
        for arr in self._ring:
            arr.setflags(write=False)
        self.curvature_symbol_bound = float(lmax * (lmax + 1))

    # ------------------------------------------------------------- reductions

    def _check_field(self, field, name="field"):
        field = np.asarray(field, dtype=float)
        if field.shape != (self.n_nodes,):
            raise ValueError(
                f"{name} length {field.shape} does not match node count {self.n_nodes}")
        return field

    def integrate(self, field):
        """Quadrature of a scalar field sampled at the nodes."""
        field = self._check_field(field)
        return float(np.sum(self.weights * field))

    def mean(self, field):
        """Area-weighted mean of a scalar field (integral over |S^dim|)."""
        return self.integrate(field) / self.area

    @property
    def area(self):
        return 2.0 * np.pi if self.dim == 1 else 4.0 * np.pi

    # ------------------------------------------------------------ transforms

    def _analysis(self, field):
        """Coefficients [m, l, (re, im)] of a dim=2 field in the units of
        numpy's rfft along longitude: the longitude spectra times the Gauss
        weights, then one Legendre matmul per order m, all orders in one
        batched call."""
        fk = np.fft.rfft(self._check_field(field).reshape(self.nlat, self.nlon),
                         axis=1)
        fk = np.ascontiguousarray(fk[:, :self.nlat].T)   # [m, j]
        fk *= self._glw
        return np.swapaxes(self._leg, 1, 2) @ fk.view(np.float64).reshape(
            self.nlat, self.nlat, 2)

    def _synthesis(self, table, coeff):
        """Longitude spectra [..., m, j] of coefficients [m, l, 2k] through a
        [m, j, l] table, as k complex rows."""
        out = (table @ coeff).view(np.complex128)   # [m, j, k]
        return np.moveaxis(out, -1, 0)

    def _to_nodes(self, spectra):
        """Node fields of longitude spectra [..., m, j], m = 0..L."""
        rows = np.fft.irfft(np.swapaxes(spectra, -1, -2), n=self.nlon, axis=-1)
        return rows.reshape(rows.shape[:-2] + (-1,))

    def interpolate(self, field, dirs):
        """Values of a node field in the directions `dirs` (rows of any
        nonzero length), summed from the grid's own expansion, so a
        band-limited field is reproduced exactly: Re sum_m c_m z^m by
        Horner's rule, z = exp(i*angle) on the circle with c_m the rfft over
        N, doubled below the Nyquist mode; z = exp(i*longitude) on the
        sphere with c_m the harmonic coefficients (doubled for m > 0) times
        P_l^m(cos colatitude), accumulated degree by degree over
        l <= nlat - 1, so no table over all degrees and directions is held.
        """
        field = self._check_field(field)
        dirs = np.asarray(dirs, dtype=float)
        if self.dim == 1:
            coeff = self._circle_coefficients(field)
        else:
            harmonic = self._analysis(field).view(np.complex128)[..., 0] / self.nlon
            harmonic[1:] *= 2.0
            mu = dirs[:, 2] / np.linalg.norm(dirs, axis=1)
            coeff = np.zeros((self.nlat, len(dirs)), dtype=complex)
            for l, p in enumerate(legendre_degrees(mu, self.nlat - 1)):
                coeff[:l + 1] += harmonic[:l + 1, l, None] * p
        z = np.exp(1j * np.arctan2(dirs[:, 1], dirs[:, 0]))
        acc = np.full(len(z), coeff[-1])
        for c in coeff[-2::-1]:
            acc *= z
            acc += c
        return acc.real

    def resample(self, field, finer):
        """Values of a node field at the nodes of `finer`, a grid of the same
        dimension and no lower resolution: what `interpolate` returns there,
        by one transform of each grid, since the zero-padded expansion is
        exact on the finer grid.  On the circle the rfft is zero-padded to
        the finer length, the coarse Nyquist coefficient halved as
        `interpolate` leaves it undoubled; on the sphere the harmonic
        coefficients are synthesized with the finer grid's own Legendre
        functions for l, m <= nlat - 1.
        """
        field = self._check_field(field)
        if finer.dim != self.dim or finer.resolution < self.resolution:
            raise ValueError(
                f"cannot resample a dim-{self.dim} grid of resolution "
                f"{self.resolution} on a dim-{finer.dim} grid of resolution "
                f"{finer.resolution}")
        if self.dim == 1:
            coeff = np.fft.rfft(field) * (finer.n_nodes / self.n_nodes)
            if self.n_nodes % 2 == 0 and finer.n_nodes > self.n_nodes:
                coeff[-1] *= 0.5
            return np.fft.irfft(coeff, n=finer.n_nodes)
        coeff = self._analysis(field) * (finer.nlon / self.nlon)
        table = finer._leg[:self.nlat, :, :self.nlat]
        return finer._to_nodes(finer._synthesis(table, coeff)[0])

    def great_circles(self, fields):
        """Each row's expansion along a fixed family of K great circles:
        weights w (K,) and coefficients c (len(fields), K, D+1) of
        T_fk(psi) = Re sum_j c_fkj exp(i j psi), such that
        sum_k w_k (integral of g(F_k) |sin psi|) is the integral of g(F),
        exactly for g the identity.  On the circle K = 1, w = 1 and T is
        `interpolate`'s expansion.  On the sphere the lines pass through the
        poles at the grid longitudes phi_k < pi, (sin psi cos phi_k,
        sin psi sin phi_k, cos psi), w = pi / nlat, and T = F sin psi, of
        degree nlat, is fitted to the expansion at the line's nodes
        (`line_coefficients`).
        """
        if self.dim == 1:
            return np.ones(1), self._circle_coefficients(fields)[:, None]
        nlat = self.nlat
        coeff = np.concatenate([self._analysis(f) for f in fields], axis=-1)
        rings = self._to_nodes(self._synthesis(self._leg, coeff)).reshape(
            len(fields), nlat, self.nlon)                        # [f, j, lon]
        line = np.concatenate([rings[:, :, :nlat], rings[:, ::-1, nlat:]],
                              axis=1)                            # [f, 2 nlat, k]
        c = self._line_coefficients @ line       # [f, (re, im) per degree, k]
        c = c.reshape(len(fields), -1, 2, nlat)
        return np.full(nlat, np.pi / nlat), np.swapaxes(
            c[:, :, 0] + 1j * c[:, :, 1], 1, 2)

    def _circle_coefficients(self, field):
        """c_m of the circle's expansion Re sum_m c_m exp(i m angle)."""
        coeff = np.fft.rfft(field, axis=-1) / self.n_nodes
        coeff[..., 1:] *= 2.0
        if self.n_nodes % 2 == 0:
            coeff[..., -1] *= 0.5   # the Nyquist mode is not doubled
        return coeff

    # ------------------------------------------------------------ derivatives

    def frame_derivatives(self, field):
        """Gradient components v[i] and covariant Hessian h[i, j] of a scalar
        field in the orthonormal frame e_i = frame[i], each an (n_nodes,)
        field: the grid's one derivative method.

        On the circle v = f' and h = f'', by the spectral (FFT) symbols.  On
        the sphere they are exact derivatives of the field's projection on
        degrees l <= nlat - 1, built from the round chart's partials: f_t
        through the colatitude derivatives of the Legendre functions,
        longitude derivatives as i m, and f_tt from the diagonal Laplacian,
        f_tt = Delta f - cot f_t - f_pp / sin^2.  Then v = (f_t, f_p / sin) and
        h = [[f_tt, (f_tp - cot f_p) / sin], [., f_pp / sin^2 + cot f_t]],
        with the colatitude factors built once per latitude ring by the grid
        and broadcast over the ring's longitudes.
        """
        if self.dim == 1:
            d1, d2 = np.fft.irfft(np.fft.rfft(self._check_field(field))
                                  * self._d12, n=self.n_nodes)
            return d1[None], d2[None, None]
        coeff = self._analysis(field)
        lap = coeff * self._lap_symbol[None, :, None]
        f, f_lap = self._synthesis(self._leg, np.concatenate([coeff, lap], -1))
        (d_t,) = self._synthesis(self._leg_dcolat, coeff)
        im = self._im[:, None]
        f_t, f_p, f_pp, f_tp, f_lap = self._to_nodes(
            np.stack([d_t, im * f, im * im * f, im * d_t, f_lap])).reshape(
                5, self.nlat, self.nlon)
        ct_st, st2, inv_sin, cot, inv_sin2 = self._ring
        v = np.empty((2, self.nlat, self.nlon))
        h = np.empty((2, 2, self.nlat, self.nlon))
        v[0] = f_t
        np.multiply(f_p, inv_sin, out=v[1])
        # f_tt = f_lap - cot f_t - f_pp / sin^2
        np.subtract(f_lap, ct_st * f_t, out=h[0, 0])
        h[0, 0] -= f_pp / st2
        np.multiply(f_tp - cot * f_p, inv_sin, out=h[0, 1])
        h[1, 0] = h[0, 1]
        np.add(f_pp * inv_sin2, cot * f_t, out=h[1, 1])
        return v.reshape(2, -1), h.reshape(2, 2, -1)

    def gradient(self, field):
        """Tangential gradient of a scalar field, in ambient coordinates.

        The returned (n_nodes, dim+1) vectors are orthogonal to the nodes and
        stored node-contiguous, as the nodes are.
        """
        v, _ = self.frame_derivatives(field)
        return np.einsum("in,idn->dn", v, self.frame.transpose(0, 2, 1)).T

    def _circle_solve(self, field, a):
        n = self.n_nodes
        if np.ndim(a) == 0:
            return np.fft.irfft(np.fft.rfft(field) / (1.0 - a * self._mk2),
                                n=n)
        d2, nearest = self._dense
        m = d2.shape[0]
        if m == n:
            a_m = a
        else:   # each of the m nodes carries the largest coefficient near it
            a_m = np.zeros(m)
            np.maximum.at(a_m, nearest, a)
        system = d2 * -a_m[:, None]
        system.flat[::m + 1] += 1.0
        if m == n:
            return np.linalg.solve(system, field)
        # modes below the m-node Nyquist take the dense solve, the rest
        # divide by 1 + max(a) k^2
        band = m // 2
        fk = np.fft.rfft(field)
        xk = fk / (1.0 - np.max(a) * self._mk2)
        low = np.zeros(band + 1, dtype=complex)
        low[:band] = fk[:band]
        x_m = np.linalg.solve(system, np.fft.irfft(low, n=m) * (m / n))
        xk[:band] = np.fft.rfft(x_m)[:band] * (n / m)
        return np.fft.irfft(xk, n=n)

    def shifted_laplace_solve(self, field, a):
        """Solve (I - a * Delta) x = field for x, with a >= 0 a scalar or an
        (n_nodes,) array; the coefficient solved with is never below a
        node's own.

        A scalar `a` is solved exactly for this grid's discrete Laplacian: a
        Fourier divide on the circle, a divide of each spherical-harmonic
        coefficient by 1 + a l(l+1) on the sphere, whose result is
        band-limited to l <= nlat - 1 like every other field the sphere grid
        returns.  The sphere, one constant per solve, takes max(a).

        A circle of up to _DENSE_NODES nodes solves (I - diag(a) Delta)
        exactly, by dense LU.  On a finer circle the modes below
        _DENSE_NODES / 2 take that dense solve on _DENSE_NODES nodes, each
        carrying the largest coefficient of the grid nodes nearest it, and
        the modes above divide by 1 + max(a) k^2; a solve costs one
        fixed-size LU plus O(N log N).
        """
        field = self._check_field(field)
        if np.ndim(a) != 0:
            a = self._check_field(a, "coefficient")
            if self.dim == 2:
                a = np.max(a)
        if self.dim == 1:
            return self._circle_solve(field, a)
        coeff = self._analysis(field) / (1.0 - a * self._lap_symbol)[None, :, None]
        return self._to_nodes(self._synthesis(self._leg, coeff)[0])

    def spectral_filter(self, field):
        """Project a dim=2 field on spherical harmonics of degree
        l <= nlat - 1 (the triangular truncation).

        Identity on dim=1 grids.
        """
        if self.dim == 1:
            return self._check_field(field)
        return self._to_nodes(self._synthesis(self._leg, self._analysis(field))[0])


def make_grid(dim, resolution):
    """Build a SphereGrid.

    dim=1: `resolution` uniform angles on the circle.
    dim=2: `resolution` Gauss-Legendre latitudes by 2*resolution longitudes.
    """
    return SphereGrid(dim, resolution)
