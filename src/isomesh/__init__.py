"""Piecewise linear isotropic approximation of tori in R^{2n}.

Pipeline: sample a smooth isotropic parametrization on an almost-isometric
lattice chart, project the quadrangular mesh onto the zero set of the
discrete symplectic density, refine with optimal apexes into an isotropic
triangular mesh, build the piecewise linear map, and certify isotropy,
immersion/embedding and the C0/C1 convergence rates.
"""

from .lattice import (
    Chart,
    DegenerateLattice,
    build_chart,
    rotation,
)
from .symplectic import apply_j, liouville_polygon, omega
from .density import (
    FacetField,
    QuadMesh,
    facet_liouville,
    finite_difference,
    symplectic_density,
    weak_norm,
)
from .immersion import (
    ImmersionSpec,
    PlaneCurve,
    circle,
    figure_eight,
    make_clifford,
    make_flat_plane,
    make_product_torus,
    sample_quad,
    sample_tri,
    spec_from_name,
)
from .solver import (
    LinearSolveFailure,
    MaxIterExceeded,
    SolveReport,
    mu_jacobian,
    project_isotropic,
)
from .refine import (
    NotIsotropic,
    TriMesh,
    apex_refine,
    barycentric_apexes,
    optimal_apexes,
)

__version__ = "0.1.0"
