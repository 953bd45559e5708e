"""Quadrature grids and tangential derivatives on the unit circle and 2-sphere.

The circle (dim=1) is a uniform periodic angle grid with spectral (FFT)
differentiation.  The 2-sphere (dim=2) is a latitude-longitude product grid,
Gauss-Legendre in latitude and uniform periodic in longitude, so no node sits
on a pole.  Fields on it are handled through their spherical-harmonic
expansion up to degree L = nlat - 1, which the grid's quadrature transforms
exactly: an FFT in longitude, then orthonormal associated Legendre functions
in latitude (see `legendre_table`).

Both grids also solve the shifted Laplace equation (I - a*Delta) x = f
exactly for their own discrete Laplacian and a constant `a`: a Fourier
divide on the circle, a divide by 1 + a l(l+1) on the sphere.  On the circle
`a` may also vary from node to node: the system (I - diag(a) Delta) is
solved by dense LU on at most _DENSE_NODES nodes, exactly on a circle that
small, and on a finer one for its lowest modes only, with max(a) taken above
them (see `SphereGrid.shifted_laplace_solve`).
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
    with P_l^(-1) = -P_l^1, so it needs no division by sin(colatitude).
    """
    p = np.zeros((lmax + 1, lmax + 1, np.size(mu)))
    for l, row in enumerate(legendre_degrees(mu, lmax)):
        p[:l + 1, l] = row
    m = np.arange(lmax + 1)[:, None, None]
    l = np.arange(lmax + 1)[None, :, None]
    below = np.empty_like(p)
    below[1:] = p[:-1]
    below[0] = -p[1]
    above = np.zeros_like(p)
    above[:-1] = p[1:]
    dp = 0.5 * (np.sqrt(np.maximum((l + m) * (l - m + 1), 0)) * below
                - np.sqrt(np.maximum((l + m + 1) * (l - m), 0)) * above)
    return p, dp


class SphereGrid:
    """Nodes, quadrature weights and tangential derivatives on S^1 or S^2.

    Immutable after construction; all operations are pure.  Reductions are
    performed in a fixed node order so repeated runs are bit-identical.  The
    dense second-derivative matrix of a per-node solve on the circle is built
    on the first call that needs it and kept on the grid; the sphere's
    Legendre table is built with the grid.

    Attributes
    ----------
    dim : 1 or 2 (dimension of the sphere, ambient space has dim+1 coords)
    nodes : (n_nodes, dim+1) unit vectors
    weights : (n_nodes,) positive quadrature weights summing to |S^dim|
    frame : (dim, n_nodes, dim+1) orthonormal tangent frame, the angle
        direction on the circle and the colatitude and longitude directions
        on the sphere; stored node-last (frame.transpose(0, 2, 1) is
        contiguous), so per-node contractions with it run along node rows
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
        self.nodes = np.column_stack([np.cos(a), np.sin(a)])
        self.weights = np.full(n, 2.0 * np.pi / n)
        self.frame = np.array([[-np.sin(a), np.cos(a)]]).transpose(0, 2, 1)
        k = np.fft.rfftfreq(n, d=1.0 / n)  # integer wavenumbers 0..n/2
        self._ik = 1j * k
        if n % 2 == 0:
            self._ik[-1] = 0.0  # odd derivative of the Nyquist mode is ambiguous
        self._mk2 = -(k ** 2)
        self._dense = None
        # Largest magnitude of the discrete second-derivative symbol.
        self.curvature_symbol_bound = (n / 2.0) ** 2

    # ------------------------------------------------------------------ S^2

    def _build_sphere(self, nlat):
        nlon = 2 * nlat
        # colatitude increasing from north to south
        mu = np.sort(np.polynomial.legendre.leggauss(nlat)[0])[::-1]
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
        self.nodes = np.ascontiguousarray(xyz[0].T)
        self.frame = xyz[1:].transpose(0, 2, 1)
        self.weights = np.repeat(glw * (2.0 * np.pi / nlon), nlon)

        self._leg = p.transpose(0, 2, 1)        # [m, j, l], synthesis
        self._leg_dcolat = dp.transpose(0, 2, 1)
        self._leg_analysis = p * glw             # [m, l, j]
        l = np.arange(lmax + 1)
        self._lap_symbol = -(l * (l + 1.0))
        self._im = 1j * l                        # i m for orders 0..L
        self.curvature_symbol_bound = float(lmax * (lmax + 1))

    # ------------------------------------------------------------- reductions

    def _check_field(self, field):
        field = np.asarray(field, dtype=float)
        if field.shape != (self.n_nodes,):
            raise ValueError(
                f"field length {field.shape} does not match node count {self.n_nodes}")
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
        numpy's rfft along longitude: one Gauss-weighted Legendre matmul per
        order m, all orders in one batched call."""
        fk = np.fft.rfft(self._check_field(field).reshape(self.nlat, self.nlon),
                         axis=1)
        fk = np.ascontiguousarray(fk[:, :self.nlat].T)
        return self._leg_analysis @ fk.view(np.float64).reshape(
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

    def harmonic_coefficients(self, field):
        """Spherical-harmonic coefficients A[m, l] of a dim=2 field, m, l =
        0..nlat-1, complex, in the units of numpy's rfft along longitude:
        the projection of the field on degrees l <= nlat - 1 is
        Re sum_m s_m sum_l A[m, l] P_l^m(cos colat) exp(i m lon) / nlon,
        with s_0 = 1, s_m = 2 otherwise, and P from `legendre_table`."""
        return self._analysis(field).view(np.complex128)[..., 0]

    # ------------------------------------------------------------ derivatives

    def angle_derivatives(self, field):
        """First and second derivative in the angle parameter (dim=1 only)."""
        if self.dim != 1:
            raise ValueError("angle_derivatives is defined for dim=1 grids")
        field = self._check_field(field)
        fk = np.fft.rfft(field)
        d1 = np.fft.irfft(fk * self._ik, n=self.n_nodes)
        d2 = np.fft.irfft(fk * self._mk2, n=self.n_nodes)
        return d1, d2

    def latlon_derivatives(self, field):
        """Chart partials (f_t, f_p, f_tt, f_tp, f_pp) in colatitude/longitude (dim=2).

        Exact derivatives of the field's projection on degrees l <= nlat - 1:
        f_t through the colatitude derivatives of the Legendre functions,
        longitude derivatives as i m, and f_tt from the diagonal Laplacian,
        f_tt = Delta f - cot f_t - f_pp / sin^2.
        """
        if self.dim != 2:
            raise ValueError("latlon_derivatives is defined for dim=2 grids")
        coeff = self._analysis(field)
        lap = coeff * self._lap_symbol[None, :, None]
        f, f_lap = self._synthesis(self._leg, np.concatenate([coeff, lap], -1))
        (d_t,) = self._synthesis(self._leg_dcolat, coeff)
        im = self._im[:, None]
        f_t, f_p, f_pp, f_tp, f_lap = self._to_nodes(
            np.stack([d_t, im * f, im * im * f, im * d_t, f_lap]))
        st = np.repeat(self.sin_colat, self.nlon)
        ct = np.repeat(self.cos_colat, self.nlon)
        f_tt = f_lap - (ct / st) * f_t - f_pp / st ** 2
        return f_t, f_p, f_tt, f_tp, f_pp

    def frame_derivatives(self, field):
        """Gradient components v[i] and covariant Hessian h[i, j] of a scalar
        field in the orthonormal frame e_i = frame[i], each an (n_nodes,)
        field.

        On the circle v = f' and h = f''.  On the sphere the round chart's
        partials give v = (f_t, f_p / sin) and
        h = [[f_tt, (f_tp - cot f_p) / sin], [., f_pp / sin^2 + cot f_t]].
        """
        if self.dim == 1:
            d1, d2 = self.angle_derivatives(field)
            return d1[None], d2[None, None]
        f_t, f_p, f_tt, f_tp, f_pp = self.latlon_derivatives(field)
        inv_sin = 1.0 / np.repeat(self.sin_colat, self.nlon)
        cot = np.repeat(self.cos_colat, self.nlon) * inv_sin
        h_tp = (f_tp - cot * f_p) * inv_sin
        h = np.array([[f_tt, h_tp], [h_tp, f_pp * inv_sin ** 2 + cot * f_t]])
        return np.array([f_t, f_p * inv_sin]), h

    def gradient(self, field):
        """Tangential gradient of a scalar field, in ambient coordinates.

        The returned (n_nodes, dim+1) vectors are orthogonal to the nodes.
        """
        v, _ = self.frame_derivatives(field)
        return np.einsum("in,ind->nd", v, self.frame)

    def laplacian(self, field):
        """Laplace-Beltrami operator applied to a scalar field."""
        _, h = self.frame_derivatives(field)
        return np.trace(h)

    def _build_dense(self):
        """Operators of the circle's per-node solve on m = min(N, _DENSE_NODES)
        nodes: the dense spectral second-derivative matrix there, and for
        each grid node the index of the nearest of the m nodes.

        The matrix is circulant: column j is the symbol -k^2 transformed
        back to the m nodes and rolled to node j.
        """
        n = self.n_nodes
        m = min(n, _DENSE_NODES)
        k = np.fft.rfftfreq(m, d=1.0 / m)
        col = np.fft.irfft(-(k ** 2), n=m)
        idx = np.arange(m)
        d2 = col[(idx[:, None] - idx[None, :]) % m]
        d2.setflags(write=False)
        nearest = np.rint(np.arange(n) * (m / n)).astype(np.intp) % m
        nearest.setflags(write=False)
        return d2, nearest

    def _circle_solve(self, field, a):
        n = self.n_nodes
        if np.ndim(a) == 0:
            return np.fft.irfft(np.fft.rfft(field) / (1.0 - a * self._mk2),
                                n=n)
        if self._dense is None:
            self._dense = self._build_dense()
        d2, nearest = self._dense
        m = d2.shape[0]
        # each of the m nodes carries the largest coefficient near it
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
        """Solve (I - a * laplacian) x = field for x, a >= 0.

        For a constant `a` the solve is exact for this grid's discrete
        Laplacian: a Fourier divide on the circle, a divide of each
        spherical-harmonic coefficient by 1 + a l(l+1) on the sphere, whose
        result is band-limited to l <= nlat - 1 like every other field the
        sphere grid returns.

        On the circle `a` may also be a per-node array.  On up to
        _DENSE_NODES nodes the system (I - diag(a) Delta) is then solved
        exactly, by dense LU.  On a finer circle the modes below
        _DENSE_NODES / 2 take that dense solve on _DENSE_NODES nodes, each
        carrying the largest coefficient of the grid nodes nearest it, and
        the modes above divide by 1 + max(a) k^2; so the coefficient never
        falls below a node's own, and a solve costs one fixed-size LU plus
        O(N log N).
        """
        field = self._check_field(field)
        if self.dim == 1:
            return self._circle_solve(field, a)
        if np.ndim(a) != 0:
            raise ValueError("the sphere solve takes a constant coefficient")
        coeff = self._analysis(field) / (1.0 - a * self._lap_symbol)[None, :, None]
        return self._to_nodes(self._synthesis(self._leg, coeff)[0])

    def spectral_filter(self, field):
        """Project a dim=2 field on spherical harmonics of degree
        l <= nlat - 1 (the triangular truncation).

        Identity on dim=1 grids.
        """
        if self.dim == 1:
            return np.asarray(field, dtype=float)
        return self._to_nodes(self._synthesis(self._leg, self._analysis(field))[0])


def make_grid(dim, resolution):
    """Build a SphereGrid.

    dim=1: `resolution` uniform angles on the circle.
    dim=2: `resolution` Gauss-Legendre latitudes by 2*resolution longitudes.
    """
    return SphereGrid(dim, resolution)
