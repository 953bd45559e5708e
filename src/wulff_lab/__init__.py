"""Numerical toolkit for anisotropic isoperimetric inequalities.

Star-shaped hypersurfaces in the plane and in 3-space are represented as
radial graphs over the unit circle/sphere.  The package evaluates anisotropic
surface energies and their dual norms, evolves surfaces by inverse
anisotropic mean curvature flow, and measures the deficits and stability
moduli of the associated weighted isoperimetric inequalities.
"""

from .sphere_grid import SphereGrid, make_grid
from .minkowski import (
    MinkowskiNorm,
    EuclideanNorm,
    EllipsoidNorm,
    PerturbedNorm,
    SectoralHarmonic,
    ProductHarmonic,
    WulffShape,
    make_wulff,
    norm_from_spec,
    verify_duality,
)
from .hypersurface import (
    StarSurface,
    GeometryCache,
    geometry,
    volume,
    flux_volume,
    aniso_perimeter,
    weighted_momentum,
    q_functional,
    wulff_q_value,
    sphere_surface,
    wulff_surface,
    fourier_surface,
    surface_from_spec,
    family_surfaces,
    MeanConvexityError,
)
from .iamcf import (
    FlowConfig,
    FlowTrace,
    radial_speed,
    step,
    stable_dt,
    run_flow,
    monotonicity_report,
)
from .stability import (
    DeficitReport,
    deficit_thm11,
    deficit_pmomentum,
    pmomentum_chain,
    asymmetry_index,
    hausdorff_to_wulff,
    gap_integral,
    quantitative_wulff,
    moduli,
    stability_sweep,
    wulff_profile_about,
    full_deficit_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
