"""Quadrature grids and tangential derivatives on the unit circle and 2-sphere.

The circle (dim=1) is a uniform periodic angle grid with spectral (FFT)
differentiation.  The 2-sphere (dim=2) is a latitude-longitude product grid,
Gauss-Legendre in latitude and uniform periodic in longitude, so no node sits
on a pole.  Latitude derivatives use centered finite-difference stencils on a
grid extended smoothly across the poles (a half-turn in longitude); longitude
derivatives are spectral.

Both grids also solve the shifted Laplace equation (I - a*Delta) x = f
exactly for their own discrete Laplacian and a constant `a`: a Fourier
divide on the circle, one banded latitude system per longitude mode on the
sphere.  On the circle `a` may also vary from node to node: the system
(I - diag(a) Delta) is solved by dense LU on at most _DENSE_NODES nodes,
exactly on a circle that small, and on a finer one for its lowest modes only,
with max(a) taken above them (see `SphereGrid.shifted_laplace_solve`).
"""

from __future__ import annotations

import numpy as np

# Latitude stencil width for dim=2 derivatives; must be odd.
_STENCIL = 9

# Most nodes of the circle's dense per-node shifted Laplace solve, so its LU
# costs O(_DENSE_NODES^3) whatever the grid size: about 0.05 ms at 64 nodes,
# against 1-2 ms for a dense LU of 256 nodes and 6-7 ms of 512.
_DENSE_NODES = 64

# Longitude modes kept at colatitude theta: |m| <= max(_FILTER_FLOOR,
# sin(theta) * nlon / 2).  Smooth fields on the sphere carry O(sin(theta)^m)
# energy in mode m near the poles, so the discarded content is negligible,
# while the retained modes keep the advective/diffusive symbol (m/sin)^2
# uniformly bounded over the grid.
_FILTER_FLOOR = 4


def _fd_weights(z, x, m):
    """Finite-difference weights at z for derivatives 0..m from nodes x.

    Fornberg's recursion; returns an array w of shape (len(x), m+1) where
    w[j, k] is the weight of node x[j] in the k-th derivative at z.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    w = np.zeros((n, m + 1))
    c1 = 1.0
    c4 = x[0] - z
    w[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    w[i, k] = c1 * (k * w[i - 1, k - 1] - c5 * w[i - 1, k]) / c2
                w[i, 0] = -c1 * c5 * w[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                w[j, k] = (c4 * w[j, k] - k * w[j, k - 1]) / c3
            w[j, 0] = c4 * w[j, 0] / c3
        c1 = c2
    return w


class SphereGrid:
    """Nodes, quadrature weights and tangential derivatives on S^1 or S^2.

    Immutable after construction; all operations are pure.  Reductions are
    performed in a fixed node order so repeated runs are bit-identical.  The
    operators of `shifted_laplace_solve` (the dense second-derivative matrix
    of a per-node solve on the circle, the banded latitude operators on the
    sphere) are built on the first call that needs them and kept on the
    grid.

    Attributes
    ----------
    dim : 1 or 2 (dimension of the sphere, ambient space has dim+1 coords)
    nodes : (n_nodes, dim+1) unit vectors
    weights : (n_nodes,) positive quadrature weights summing to |S^dim|
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
        for arr in (self.nodes, self.weights):
            arr.setflags(write=False)

    # ------------------------------------------------------------------ S^1

    def _build_circle(self, n):
        self.angles = 2.0 * np.pi * np.arange(n) / n
        self.nodes = np.column_stack([np.cos(self.angles), np.sin(self.angles)])
        self.weights = np.full(n, 2.0 * np.pi / n)
        self.tangents = np.column_stack([-np.sin(self.angles), np.cos(self.angles)])
        k = np.fft.rfftfreq(n, d=1.0 / n)  # integer wavenumbers 0..n/2
        self._ik = 1j * k
        if n % 2 == 0:
            self._ik[-1] = 0.0  # odd derivative of the Nyquist mode is ambiguous
        self._mk2 = -(k ** 2)
        self._dense = None
        self.spacing = 2.0 * np.pi / n
        # Largest magnitude of the discrete second-derivative symbol.
        self.curvature_symbol_bound = (n / 2.0) ** 2

    # ------------------------------------------------------------------ S^2

    def _build_sphere(self, nlat):
        nlon = 2 * nlat
        mu, glw = np.polynomial.legendre.leggauss(nlat)
        order = np.argsort(-mu)  # colatitude increasing from north to south
        mu = mu[order]
        glw = glw[order]
        self.nlat = nlat
        self.nlon = nlon
        self.colat = np.arccos(mu)
        self.lon = 2.0 * np.pi * np.arange(nlon) / nlon
        self.sin_colat = np.sqrt(1.0 - mu ** 2)
        self.cos_colat = mu

        st = self.sin_colat[:, None]
        ct = self.cos_colat[:, None]
        cp = np.cos(self.lon)[None, :]
        sp = np.sin(self.lon)[None, :]
        nodes = np.empty((nlat, nlon, 3))
        nodes[:, :, 0] = st * cp
        nodes[:, :, 1] = st * sp
        nodes[:, :, 2] = ct * np.ones_like(cp)
        self.nodes = nodes.reshape(-1, 3)
        self.weights = np.repeat(glw * (2.0 * np.pi / nlon), nlon)

        # Orthonormal chart frame (colatitude and longitude directions).
        e_th = np.empty((nlat, nlon, 3))
        e_th[:, :, 0] = ct * cp
        e_th[:, :, 1] = ct * sp
        e_th[:, :, 2] = -st * np.ones_like(cp)
        e_ph = np.empty((nlat, nlon, 3))
        e_ph[:, :, 0] = -sp * np.ones_like(ct)
        e_ph[:, :, 1] = cp * np.ones_like(ct)
        e_ph[:, :, 2] = 0.0
        self.frame_colat = e_th.reshape(-1, 3)
        self.frame_lon = e_ph.reshape(-1, 3)

        # Latitude stencils on the pole-extended colatitude axis.  A field on
        # the sphere continues across a pole as f(-t, phi) = f(t, phi + pi),
        # so ghost rows are mirrored rows rolled by half a turn in longitude.
        g = _STENCIL // 2
        self._ghost = g
        colat_ext = np.concatenate([-self.colat[g - 1::-1],
                                    self.colat,
                                    2.0 * np.pi - self.colat[:nlat - g - 1:-1]])
        w1 = np.empty((nlat, _STENCIL))
        w2 = np.empty((nlat, _STENCIL))
        for j in range(nlat):
            w = _fd_weights(self.colat[j], colat_ext[j:j + _STENCIL], 2)
            w1[j] = w[:, 1]
            w2[j] = w[:, 2]
        self._lat_w1 = w1
        self._lat_w2 = w2
        self._lat_bands = None

        m = np.fft.rfftfreq(nlon, d=1.0 / nlon)
        self._ik_lon = 1j * m
        if nlon % 2 == 0:
            self._ik_lon[-1] = 0.0
        self._mk2_lon = -(m ** 2)

        # Per-ring longitude mode cap and associated filter masks.
        m_allow = np.maximum(_FILTER_FLOOR,
                             np.floor(self.sin_colat * nlon / 2.0)).astype(int)
        m_allow = np.minimum(m_allow, nlon // 2)
        self._filter_mask = (m[None, :] <= m_allow[:, None]).astype(float)
        self._filter_active = bool(np.any(self._filter_mask == 0.0))

        dlat = np.diff(self.colat)
        self.spacing = float(np.min(dlat))
        lam_lat = (np.pi / self.spacing) ** 2
        lam_lon = float(np.max((m_allow / self.sin_colat) ** 2))
        self.curvature_symbol_bound = lam_lat + lam_lon

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

    def _dlat(self, f2, w):
        g = self._ghost
        half = self.nlon // 2
        ext = np.empty((self.nlat + 2 * g, self.nlon))
        ext[g:g + self.nlat] = f2
        ext[:g] = np.roll(f2[g - 1::-1], half, axis=1)
        ext[g + self.nlat:] = np.roll(f2[:self.nlat - g - 1:-1], half, axis=1)
        idx = np.arange(self.nlat)[:, None] + np.arange(_STENCIL)[None, :]
        return np.einsum("js,jsk->jk", w, ext[idx])

    def _dlon(self, f2, symbol):
        fk = np.fft.rfft(f2, axis=1)
        return np.fft.irfft(fk * symbol[None, :], n=self.nlon, axis=1)

    def latlon_derivatives(self, field):
        """Chart partials (f_t, f_p, f_tt, f_tp, f_pp) in colatitude/longitude (dim=2)."""
        if self.dim != 2:
            raise ValueError("latlon_derivatives is defined for dim=2 grids")
        f2 = self._check_field(field).reshape(self.nlat, self.nlon)
        f_t = self._dlat(f2, self._lat_w1)
        f_tt = self._dlat(f2, self._lat_w2)
        f_p = self._dlon(f2, self._ik_lon)
        f_pp = self._dlon(f2, self._mk2_lon)
        f_tp = self._dlat(self._dlon(f2, self._ik_lon), self._lat_w1)
        return tuple(a.reshape(-1) for a in (f_t, f_p, f_tt, f_tp, f_pp))

    def gradient(self, field):
        """Tangential gradient of a scalar field, in ambient coordinates.

        The returned (n_nodes, dim+1) vectors are orthogonal to the nodes.
        """
        if self.dim == 1:
            d1, _ = self.angle_derivatives(field)
            return d1[:, None] * self.tangents
        f_t, f_p, _, _, _ = self.latlon_derivatives(field)
        inv_sin = 1.0 / np.repeat(self.sin_colat, self.nlon)
        return f_t[:, None] * self.frame_colat + (f_p * inv_sin)[:, None] * self.frame_lon

    def laplacian(self, field):
        """Laplace-Beltrami operator applied to a scalar field."""
        if self.dim == 1:
            _, d2 = self.angle_derivatives(field)
            return d2
        f_t, _, f_tt, _, f_pp = self.latlon_derivatives(field)
        st = np.repeat(self.sin_colat, self.nlon)
        ct = np.repeat(self.cos_colat, self.nlon)
        return f_tt + (ct / st) * f_t + f_pp / st ** 2

    def _build_lat_bands(self):
        """Latitude part of the Laplacian of each longitude mode, banded.

        The ghost rows of the latitude stencils are mirrored rows rolled by
        half a turn, which multiplies mode m by (-1)^m; folding them back
        leaves bandwidth _STENCIL // 2.  Returns the (2, _STENCIL, nlat)
        bands (LAPACK layout) of the latitude part for even and odd m; the
        longitude part -m^2 / sin^2 is diagonal.
        """
        g = self._ghost
        nlat = self.nlat
        cot = self.cos_colat / self.sin_colat
        bands = np.zeros((2, _STENCIL, nlat))
        for j in range(nlat):
            w = self._lat_w2[j] + cot[j] * self._lat_w1[j]
            for s in range(_STENCIL):
                e = j + s - g          # row of the stencil point, unfolded
                if e < 0:
                    k, fold = -1 - e, True
                elif e >= nlat:
                    k, fold = 2 * nlat - 1 - e, True
                else:
                    k, fold = e, False
                band = g + j - k
                bands[0, band, k] += w[s]
                bands[1, band, k] += -w[s] if fold else w[s]
        return bands

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
        Laplacian: a Fourier divide on the circle; on the sphere one banded
        system per longitude mode, which cannot take a coefficient that
        varies along a latitude ring.

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
        from scipy.linalg.lapack import dgbsv
        if self._lat_bands is None:
            self._lat_bands = self._build_lat_bands()
        g = self._ghost
        fk = np.fft.rfft(field.reshape(self.nlat, self.nlon), axis=1)
        rhs = np.ascontiguousarray(fk.T)            # (modes, nlat) complex
        diag = -self._mk2_lon[:, None] / self.sin_colat[None, :] ** 2
        # dgbsv reads the band from row g on; rows 0..g-1 hold LU fill-in
        ab = np.empty((3 * g + 1, self.nlat), order="F")
        for m in range(rhs.shape[0]):
            np.multiply(self._lat_bands[m % 2], -a, out=ab[g:])
            ab[2 * g] += 1.0 + a * diag[m]
            pair = rhs[m].view(np.float64).reshape(self.nlat, 2)  # re, im
            _, _, x, info = dgbsv(g, g, ab, pair, overwrite_ab=True)
            if info != 0:
                raise np.linalg.LinAlgError(
                    f"singular latitude system for longitude mode {m}")
            pair[:] = x
        return np.fft.irfft(rhs.T, n=self.nlon, axis=1).reshape(-1)

    def spectral_filter(self, field):
        """Damp longitude modes that are unresolvable near the poles (dim=2).

        Identity on dim=1 grids and on dim=2 grids coarse enough that every
        mode is kept.
        """
        if self.dim == 1 or not self._filter_active:
            return np.asarray(field, dtype=float)
        f2 = self._check_field(field).reshape(self.nlat, self.nlon)
        fk = np.fft.rfft(f2, axis=1)
        return np.fft.irfft(fk * self._filter_mask, n=self.nlon, axis=1).reshape(-1)


def make_grid(dim, resolution):
    """Build a SphereGrid.

    dim=1: `resolution` uniform angles on the circle.
    dim=2: `resolution` Gauss-Legendre latitudes by 2*resolution longitudes.
    """
    return SphereGrid(dim, resolution)
