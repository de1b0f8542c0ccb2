"""Completion of isotropic quadrangular meshes into triangular meshes.

Each quadrangulation facet is refined into four triangles by inserting a
vertex z_kl at the facet center.  The mesh value at z_kl is an apex point
P for the quadrilateral (A0 A1 A2 A3): either the plain barycenter, or the
*optimal apex*, the point closest to the barycenter G such that every
triangle (P, A_i, A_{i+1}) spans an isotropic plane.  The isotropy of
triangle i is the single linear equation

    omega(A_{i+1} - A_i, P) + omega(A_i, A_{i+1}) = 0,

and the four equations (whose rows sum to zero, the edges closing up) are
solvable exactly when the quadrilateral itself is isotropic.  The affine
solution space has codimension equal to the dimension of the quadrilateral's
affine span, so the minimum-distance apex is G plus the minimum-norm
least-squares solution in the shifted variable P - G, whose system is the
one above for the quadrilateral centred on G.  The rows are J applied to
the edges, so that solution is J E^+ applied to the shifted right-hand side,
E the edge matrix.  A thin QR of the edges e0, e1, e2 drops every edge whose
projected norm is at most a relative cutoff times the longest edge; this
gives an orthonormal basis Q of the span and its rank, and E = C Q^T with C
of full column rank, so E^+ = Q C^+ is a second thin QR of the 4 x rank
edge coordinates C.  Flat and degenerate quadrilaterals need no special case.

One limit judges isotropy, here and in the certificate of the PL map: a
triangle's residual may be at most ISO_CERT_FACTOR times a squared edge
length.  The gate takes the longest side of the quadrilateral, an edge of
its four triangles, so no mesh it passes fails the certificate, whose scale
is the longest edge of the whole mesh, beyond the rounding of recomputing
the residuals from the triangle values.
"""

from dataclasses import dataclass

import numpy as np

from .density import QuadMesh, corner_value_table, _mesh_arrays
from .lattice import Chart
from .linalg import back_substitute, coordinate_dot, thin_qr
from .symplectic import apply_j, liouville_polygon, omega

_RANK_CUTOFF = 1e-10
#: Facets refined at once: ``optimal_apexes`` holds about 0.9 kB per facet.
_FACET_BLOCK = 1 << 11

#: The one isotropy limit: a triangle's residual |omega(B - A, C - A)| may be
#: at most this times its squared scale, in the refine gate and the certificate.
ISO_CERT_FACTOR = 1e-9


class NotIsotropic(ValueError):
    """Quadrilateral fails the isotropy compatibility condition."""

    def __init__(self, message, facet=None):
        super().__init__(message)
        self.facet = facet


@dataclass
class TriMesh:
    """Values on the triangulated quadrangulation: corners plus facet apexes.

    corner_values has one row per canonical quadrangulation vertex and
    apex_values one row per canonical facet; the induced triangulation has
    4 |det M| triangles.
    """

    chart: Chart
    corner_values: np.ndarray
    apex_values: np.ndarray
    target_periods: np.ndarray | None = None

    def __post_init__(self):
        self.corner_values, self.target_periods = _mesh_arrays(
            self.chart, self.corner_values, self.target_periods
        )
        self.apex_values = np.asarray(self.apex_values, dtype=float)
        if self.corner_values.shape != self.apex_values.shape:
            raise ValueError("corner and apex tables must have matching shapes")

    @property
    def dim(self) -> int:
        return self.corner_values.shape[1]

    def corner_table(self, facets=slice(None)):
        return corner_value_table(self.chart, self.corner_values, self.target_periods, facets)


def barycentric_apexes(mesh: QuadMesh) -> TriMesh:
    """Triangular mesh with each apex at the barycenter of its quadrilateral."""
    quads = mesh.corner_table()
    return TriMesh(
        chart=mesh.chart,
        corner_values=mesh.values.copy(),
        apex_values=quads.mean(axis=1),
        target_periods=mesh.target_periods.copy(),
    )


def apex_constraints(quads):
    """Constraint rows and right-hand side of the isotropic-apex system.

    ``quads`` has shape (..., 4, 2n).  Row i of the returned (..., 4, 2n)
    matrix represents P -> omega(A_{i+1} - A_i, P) = <P, J(A_{i+1} - A_i)>;
    the right-hand side is -omega(A_i, A_{i+1}).  Rows sum to zero, and the
    right-hand sides sum to -2x the Liouville integral of the quadrilateral,
    which is the solvability obstruction.
    """
    quads = np.asarray(quads, dtype=float)
    nxt = np.roll(quads, -1, axis=-2)
    rows = apply_j(nxt - quads)
    rhs = -omega(quads, nxt)
    return rows, rhs


def quad_edges(quads):
    """Coordinate-major edges (2n, 4, ...) of (..., 4, 2n) quadrilaterals,
    edge i from corner i to corner i + 1, and the longest edge length of
    each, shape (...); squares are summed coordinate by coordinate."""
    x = np.moveaxis(np.asarray(quads, dtype=float), (-1, -2), (0, 1))
    edges = np.empty(x.shape)
    np.subtract(x[:, 1:], x[:, :3], out=edges[:, :3])
    np.subtract(x[:, 0], x[:, 3], out=edges[:, 3])
    return edges, np.sqrt(coordinate_dot(edges, edges)).max(axis=0)


def isotropy_limit(side):
    """The one isotropy limit: each apex-triangle residual of a quadrilateral
    may be at most ISO_CERT_FACTOR times its longest side squared."""
    return ISO_CERT_FACTOR * side * side


def optimal_apexes(quads, facet_label=int):
    """Optimal apexes of (..., 4, 2n) quadrilaterals, shape (..., 2n).

    A planar isotropic parallelogram gets its barycenter, a repeated point
    itself.  The one isotropy gate is the certificate's test: every
    apex-triangle residual r_i = omega(A_i - P, A_{i+1} - P) must be at most
    ISO_CERT_FACTOR times the squared longest edge.  It is formed on the
    quadrilateral centred on its barycenter, so it does not depend on the
    scale or the position.  It bounds the Liouville integral L as well,
    since the r_i sum to 2L, so max |r_i| >= |L| / 2.  NotIsotropic names
    the first failing quadrilateral, i in row-major order, by
    ``facet_label(i)``.  Facets are worked coordinate-major, as (2n, 4, F),
    both thin QRs included.
    """
    quads = np.asarray(quads, dtype=float)
    flat = quads.reshape(-1, 4, quads.shape[-1])
    # Q of the thin QR of e0, e1, e2, (3, 2n, F), with the rank cutoff.
    edges, scale = quad_edges(flat)
    basis = edges[:, :3].transpose(1, 0, 2).copy()
    thin_qr(basis, 3, _RANK_CUTOFF * scale)
    centred = np.ascontiguousarray(flat.transpose(2, 1, 0))
    g = centred.mean(axis=1)
    # The system of the centred quadrilateral: rows J e_i, right-hand sides
    # -omega(A_i - g, A_{i+1} - g).
    centred -= g[:, None]
    nxt = centred.take([1, 2, 3, 0], axis=1)
    shifted = -(centred[0::2] * nxt[1::2] - centred[1::2] * nxt[0::2]).sum(axis=0)
    # Columns of C = E Q over the four edges, then the right-hand side; a
    # NaN spreads to the step.
    coords = np.empty((4, 4, len(flat)))
    for j, column in enumerate(basis):
        coords[j] = coordinate_dot(edges, column[:, None])
    coords[3] = shifted
    coeff = back_substitute(thin_qr(coords, 3, 0.0), 3)
    # The step is J y, y = Q c; row i at it is <J e_i, J y> = <e_i, y>.
    y = coeff[0] * basis[0] + coeff[1] * basis[1] + coeff[2] * basis[2]
    nxt -= centred
    resid = np.abs(coordinate_dot(nxt, y[:, None]) - shifted).max(axis=0)
    limit = isotropy_limit(scale)
    bad = np.nonzero(~(resid <= limit))[0]  # NaN fails
    if bad.size:
        i = int(bad[0])
        label = facet_label(i)
        raise NotIsotropic(
            f"facet {label}: isotropy residual {resid[i]:.3e} exceeds its limit "
            f"{limit[i]:.3e} (liouville integral {liouville_polygon(flat[i]):.3e})",
            facet=label,
        )
    apex = g + apply_j(y.T).T
    return apex.T.reshape(quads.shape[:-2] + (quads.shape[-1],))


def apex_refine(mesh: QuadMesh) -> TriMesh:
    """Optimal-apex triangular refinement of an isotropic quadrangular mesh,
    ``_FACET_BLOCK`` facets at a time.

    Raises NotIsotropic with the offending facet index when a quadrilateral
    fails the compatibility condition.
    """
    chart = mesh.chart
    kc, lc = chart.all_canonical()
    apexes = np.empty_like(mesh.values)
    for lo in range(0, chart.vertex_count, _FACET_BLOCK):
        block = slice(lo, lo + _FACET_BLOCK)
        apexes[block] = optimal_apexes(
            mesh.corner_table(block), facet_label=lambda i: (int(kc[lo + i]), int(lc[lo + i]))
        )
    return TriMesh(
        chart=chart,
        corner_values=mesh.values.copy(),
        apex_values=apexes,
        target_periods=mesh.target_periods.copy(),
    )
