"""Star-shaped hypersurfaces as radial graphs and their anisotropic geometry.

A surface is a positive radial field r over a SphereGrid together with a
star center P, embedding node theta to P + r(theta)*theta.  `geometry`
produces the pointwise quantities the flow and the functionals read (unit
normal, area measures, F at the normal, the anisotropic mean curvature H_F
and the largest tangential eigenvalue of D^2F); the integral functionals
(volume, anisotropic perimeter, weighted momenta, the scale-invariant
quotient Q) are thin quadratures over that cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .minkowski import SectoralHarmonic, ProductHarmonic
from .sphere_grid import SphereGrid


class MeanConvexityError(RuntimeError):
    """Raised when an operation requires H_F > 0 and the surface fails it."""


@dataclass(frozen=True)
class StarSurface:
    """Radial graph r(theta) about a star center, sampled on a SphereGrid."""

    grid: SphereGrid
    r: np.ndarray = field(repr=False)
    center: np.ndarray = None

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float).copy()
        if r.shape != (self.grid.n_nodes,):
            raise ValueError("radial field length does not match the grid")
        if not np.all(np.isfinite(r)) or np.any(r <= 0.0):
            raise ValueError("radial field must be finite and positive")
        c = (np.zeros(self.grid.dim + 1) if self.center is None
             else np.asarray(self.center, dtype=float).copy())
        if c.shape != (self.grid.dim + 1,):
            raise ValueError("center has the wrong dimension")
        r.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "center", c)

    @property
    def points(self):
        return self.center[None, :] + self.r[:, None] * self.grid.nodes

    def scaled(self, k, about=None):
        """Surface scaled by k about a point (default: its own center)."""
        about = self.center if about is None else np.asarray(about, dtype=float)
        new_center = about + k * (self.center - about)
        return StarSurface(self.grid, k * self.r, new_center)


@dataclass
class GeometryCache:
    """Pointwise geometric data of a surface/norm pair.

    `aniso_mean_curv` is H_F = tr(D^2F(normal) o d(normal)) and
    `norm_hess_max` the largest eigenvalue of D^2F(normal) on the tangent
    plane.  `area_w` and `aniso_area_w` already include the quadrature
    weights, so integrals over the surface are plain sums against them.
    """

    normal: np.ndarray = field(repr=False)
    grad_r: np.ndarray = field(repr=False)
    area_w: np.ndarray = field(repr=False)        # measure weights d(mu)
    f_normal: np.ndarray = field(repr=False)      # F(normal)
    aniso_area_w: np.ndarray = field(repr=False)  # F(normal) d(mu)
    norm_hess_max: np.ndarray = field(repr=False)  # top eigenvalue, tangent
    aniso_mean_curv: np.ndarray = field(repr=False)

    @property
    def min_mean_curv(self):
        return float(np.min(self.aniso_mean_curv))


def geometry(surface, norm):
    """All pointwise geometric quantities of a surface under a norm.

    In the grid's orthonormal frame e_i, with v and h the gradient and
    covariant Hessian of r there, the chart tangents are
    t_i = v_i theta + r e_i, the metric is g = r^2 I + v v^T and the second
    fundamental form b = (r^2 I + 2 v v^T - r h) / sqrt(r^2 + |v|^2); with
    C_ij = t_i . D^2F(normal) t_j, H_F = tr(g^-1 C g^-1 b).  The same
    formulas serve the circle (one tangent) and the sphere (two); the small
    matrices are held node-last, [i, j, node], so every product runs along
    node rows.
    """
    grid = surface.grid
    if norm.ambient_dim != grid.dim + 1:
        raise ValueError("norm and surface grid dimensions do not match")
    r = surface.r
    v, h = grid.frame_derivatives(r)
    r2 = r * r
    w2 = r2 + np.einsum("in,in->n", v, v)
    sq = np.sqrt(w2)
    grad_r = np.einsum("in,ind->nd", v, grid.frame)
    normal = (r[:, None] * grid.nodes - grad_r) / sq[:, None]

    eye = np.eye(grid.dim)[:, :, None]
    vv = v[:, None] * v[None, :]
    # Sherman-Morrison inverse of the metric
    g_inv = (eye - vv / w2) / r2
    b = (r2 * eye + 2.0 * vv - r * h) / sq
    t = v[:, None] * grid.nodes.T + r * grid.frame.transpose(0, 2, 1)
    f_nu = norm.value(normal)
    hess = np.ascontiguousarray(norm.hess(normal).transpose(1, 2, 0))
    c = np.einsum("idn,jdn->ijn", np.einsum("den,ien->idn", hess, t), t)

    # H_F = tr(M S) with M = g^-1 C and S = g^-1 b the shape operator
    m = np.einsum("ijn,jkn->ikn", g_inv, c)
    hf = np.einsum("ijn,jkn,kin->n", m, g_inv, b)
    if not np.isfinite(hf).all():
        raise ValueError("non-finite mean curvature; the surface is under-resolved")

    # largest eigenvalue of M, exact for one and two tangents; this form of
    # the discriminant stays accurate when the eigenvalues coincide, and the
    # clip only absorbs rounding
    disc = sum(((m[i, i] - m[j, j]) / 2.0) ** 2 + m[i, j] * m[j, i]
               for i, j in combinations(range(grid.dim), 2))
    hess_max = np.trace(m) / grid.dim + np.sqrt(np.maximum(disc, 0.0))

    area_w = r ** (grid.dim - 1) * sq * grid.weights
    return GeometryCache(
        normal=normal, grad_r=grad_r, area_w=area_w,
        f_normal=f_nu, aniso_area_w=f_nu * area_w,
        norm_hess_max=hess_max, aniso_mean_curv=hf)


# --------------------------------------------------------------------------
# Integral functionals
# --------------------------------------------------------------------------


def volume(surface):
    """Enclosed volume, via the radial cone formula about the star center."""
    n = surface.grid.dim
    return surface.grid.integrate(surface.r ** (n + 1)) / (n + 1)


def flux_volume(surface, cache, about=None):
    """Enclosed volume via the divergence-theorem flux about any point."""
    n = surface.grid.dim
    about = surface.center if about is None else np.asarray(about, dtype=float)
    rel = surface.points - about[None, :]
    return float(np.sum(np.einsum("ij,ij->i", rel, cache.normal)
                        * cache.area_w)) / (n + 1)


def aniso_perimeter(surface, norm, cache=None):
    """Anisotropic perimeter: integral of F(normal) over the surface."""
    if cache is None:
        cache = geometry(surface, norm)
    return float(np.sum(cache.aniso_area_w))


def weighted_momentum(surface, norm, center, p=1.0, cache=None):
    """Weighted momentum: integral of dual_value(x - center)^p against the
    anisotropic area measure."""
    if p < 1.0:
        raise ValueError(f"momentum exponent must be >= 1, got {p}")
    if cache is None:
        cache = geometry(surface, norm)
    center = np.asarray(center, dtype=float)
    rel = surface.points - center[None, :]
    return float(np.sum(norm.dual_value(rel) ** p * cache.aniso_area_w))


def q_functional(surface, norm, center=None, cache=None):
    """Scale-invariant quotient Q = per^(-1-1/n) * (momentum - volume)."""
    if cache is None:
        cache = geometry(surface, norm)
    n = surface.grid.dim
    c = np.zeros(n + 1) if center is None else np.asarray(center, dtype=float)
    per = float(np.sum(cache.aniso_area_w))
    mom = weighted_momentum(surface, norm, c, 1.0, cache)
    return per ** (-1.0 - 1.0 / n) * (mom - volume(surface))


def wulff_q_value(volume, n):
    """Value of Q on any rescaled translate of the Wulff shape, from the
    Wulff shape's enclosed volume and the surface dimension n."""
    return n * (n + 1) ** (-1.0 - 1.0 / n) * float(volume) ** (-1.0 / n)


# --------------------------------------------------------------------------
# Surface constructors
# --------------------------------------------------------------------------


def sphere_surface(grid, radius=1.0, center=None):
    return StarSurface(grid, np.full(grid.n_nodes, float(radius)), center)


def wulff_surface(norm, grid, scale=1.0, center=None):
    """The rescaled Wulff shape scale*W (+ center) as a radial graph."""
    return StarSurface(grid, scale * norm.wulff_radius(grid.nodes), center)


# The keys a radial harmonic takes on the circle (dim 1) and on the sphere
# (dim 2); `degree` is another name for `k`, and a harmonic gives at most
# one of them
HARMONIC_KEYS = {1: ("k", "degree", "delta", "phase"),
                 2: ("kind", "k", "degree", "delta")}


def _harmonic_profile(grid, h):
    """Evaluate one radial harmonic described by a spec dict on the grid."""
    for key in h:
        if key not in HARMONIC_KEYS[grid.dim]:
            raise ValueError(f"{key!r} is not a key of a dim-{grid.dim} "
                             f"harmonic")
    if "k" in h and "degree" in h:
        raise ValueError("'degree' is another name for 'k': give one of them")
    if grid.dim == 1:
        k = int(h.get("k", h.get("degree", 1)))
        phase = float(h.get("phase", 0.0))
        return np.cos(k * grid.angles + phase)
    kind = h.get("kind", "sectoral")
    k = int(h.get("k", h.get("degree", 2)))
    if kind == "sectoral":
        return SectoralHarmonic(k).value(grid.nodes)
    if kind == "product":
        if "k" in h or "degree" in h:
            raise ValueError("a product harmonic has degree 3: give no 'k' "
                             "or 'degree'")
        return ProductHarmonic().value(grid.nodes)
    if kind == "zonal":
        # Legendre polynomial of the vertical coordinate
        if k < 0:
            raise ValueError(f"zonal harmonic degree must be >= 0, got {k}")
        coef = np.zeros(k + 1)
        coef[k] = 1.0
        return np.polynomial.legendre.legval(grid.nodes[:, 2], coef)
    raise ValueError(f"unknown harmonic kind: {kind}")


def fourier_surface(grid, r0=1.0, harmonics=(), center=None):
    """Radial profile r = r0 * (1 + sum of delta_k * harmonic_k)."""
    r = np.ones(grid.n_nodes)
    for h in harmonics:
        r = r + float(h.get("delta", 0.0)) * _harmonic_profile(grid, h)
    return StarSurface(grid, float(r0) * r, center)


def surface_from_spec(spec, grid, norm=None):
    """Build a surface from a JSON-style description.

    kinds: sphere {radius}, wulff {scale} (requires a norm),
    radial-fourier {r0, harmonics: [{k, delta, phase}]}; all accept `center`.
    """
    kind = spec.get("kind")
    center = spec.get("center")
    if center is not None:
        center = np.asarray(center, dtype=float)
    if kind == "sphere":
        return sphere_surface(grid, float(spec.get("radius", 1.0)), center)
    if kind == "wulff":
        if norm is None:
            raise ValueError("wulff surfaces need a norm")
        return wulff_surface(norm, grid, float(spec.get("scale", 1.0)), center)
    if kind == "radial-fourier":
        return fourier_surface(grid, float(spec.get("r0", 1.0)),
                               spec.get("harmonics", ()), center)
    raise ValueError(f"unknown surface kind: {kind}")
