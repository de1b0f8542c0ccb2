"""Discrete symplectic geometry on quadrangular meshes.

A quadrangular mesh assigns a point of R^{2n} to every vertex of the quotient
quadrangulation.  Each facet f_kl carries the quadrilateral

    A0 = tau(v_kl), A1 = tau(v_{k+1,l}), A2 = tau(v_{k+1,l+1}), A3 = tau(v_{k,l+1})

whose renormalized diagonals are

    U(f) = (N/sqrt(2)) (A2 - A0),      V(f) = (N/sqrt(2)) (A3 - A1).

The symplectic density is the per-facet scalar mu(f) = omega(U(f), V(f)).
The Liouville integral around the facet quadrilateral equals N^{-2} mu(f)
(N^{-2} is the Euclidean facet area), so a mesh is isotropic exactly when
mu vanishes on every facet.

Weak norms are built from finite differences along the diagonal translations
T_u (k,l) -> (k+1,l+1) and T_v (k,l) -> (k-1,l+1) only.  These span an
index-2 sublattice of the grid, so the weak norms are deliberately blind to
the axis directions e1, e2.
"""

from dataclasses import dataclass, field

import numpy as np

from .lattice import Chart
from .symplectic import liouville_polygon, omega

#: Index steps (dk, dl) from facet f_kl to its corners v_kl, v_{k+1,l},
#: v_{k+1,l+1}, v_{k,l+1}.  Corner c of every facet sits at entry
#: (1 + dk, 1 + dl) of ``Chart.neighbours`` and ``Chart.shifts``.
CORNER_STEPS = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=np.int64)


def at_corners(table):
    """(F, 4, ...) entries of a 3x3 neighbourhood table (``Chart.neighbours``
    or ``Chart.shifts``) at the corners A0..A3 of every facet, in canonical
    facet order."""
    i, j = 1 + CORNER_STEPS.T
    return table[:, i, j]


def corner_facets(chart):
    """(F, 4): column c holds f_c = v - step_c, the facet whose corner c is
    vertex v, read off ``Chart.neighbours``."""
    i, j = 1 - CORNER_STEPS.T
    return chart.neighbours[:, i, j]


def corner_value_table(chart, values, periods=None, facets=slice(None)):
    """(F, 4, d) table of facet corner values A0..A3 in canonical facet order,
    of the facets ``facets`` (a slice; all by default).

    values[o] stores the canonical representative; a corner displaced by
    M (q1, q2) picks up the target translation q1 u_1 + q2 u_2, where u_i is
    the target period attached to gamma_i.  Periodic meshes have u_i = 0, so
    their lattice shifts are never formed.
    """
    table = values.take(at_corners(chart.neighbours[facets]), axis=0)
    if periods is None or not periods.any():
        return table
    q = at_corners(chart.shifts[facets])
    return table + q[..., 0, None] * periods[0] + q[..., 1, None] * periods[1]


def _mesh_arrays(chart, values, periods):
    """Vertex values (F, 2n) and target periods (2, 2n) as float arrays,
    zero periods for None; ValueError unless F is |det M| and 2n is even."""
    values = np.asarray(values, dtype=float)
    f = chart.vertex_count
    if values.ndim != 2 or values.shape[0] != f:
        raise ValueError(f"expected {f} vertex values, got {values.shape}")
    if values.shape[1] % 2 != 0:
        raise ValueError("target dimension must be even")
    if periods is None:
        return values, np.zeros((2, values.shape[1]))
    periods = np.asarray(periods, dtype=float)
    if periods.shape != (2, values.shape[1]):
        raise ValueError("target_periods must have shape (2, 2n)")
    return values, periods


@dataclass
class QuadMesh:
    """R^{2n} value per canonical vertex of the quotient quadrangulation.

    ``target_periods`` (2, 2n) holds the target translation gained per period
    gamma_i; zero for genuinely periodic meshes.  A raw vertex index reads
    its canonical coset representative plus that translation (see
    ``corner_value_table``), so the stored table has exactly |det M| rows.
    """

    chart: Chart
    values: np.ndarray
    target_periods: np.ndarray | None = None
    _diagonals: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.values, self.target_periods = _mesh_arrays(
            self.chart, self.values, self.target_periods
        )

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def corner_table(self, facets=slice(None)):
        return corner_value_table(self.chart, self.values, self.target_periods, facets)


@dataclass
class FacetField:
    """Scalar or vector value per canonical facet of the quadrangulation."""

    chart: Chart
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        f = self.chart.vertex_count
        if self.values.shape[0] != f:
            raise ValueError(f"expected {f} facet values, got {self.values.shape}")


def _diagonals_of(chart: Chart, quads):
    """Renormalized diagonals U, V (F, 2n) of an (F, 4, 2n) corner table."""
    s = chart.N / np.sqrt(2.0)
    return s * (quads[:, 2] - quads[:, 0]), s * (quads[:, 3] - quads[:, 1])


def _diagonal_fields(mesh: QuadMesh):
    """Renormalized diagonal fields U, V as (F, 2n) arrays, formed once per
    mesh and kept on it: the solver's Jacobian at a mesh reads those its
    density formed."""
    if mesh._diagonals is None:
        mesh._diagonals = _diagonals_of(mesh.chart, mesh.corner_table())
    return mesh._diagonals


def symplectic_density(mesh: QuadMesh) -> FacetField:
    """Per-facet density mu(f) = omega(U(f), V(f)); zero iff the mesh is isotropic."""
    u, v = _diagonal_fields(mesh)
    return FacetField(mesh.chart, omega(u, v))


def facet_liouville(mesh: QuadMesh) -> FacetField:
    """Liouville integral around every facet quadrilateral (= N^{-2} mu)."""
    quads = mesh.corner_table()
    return FacetField(mesh.chart, liouville_polygon(quads))


# Entries of Chart.neighbours for T_u (k+1, l+1) and T_v (k-1, l+1).
_DIAG_CELLS = {"u": (2, 2), "v": (0, 2)}


def finite_difference(f: FacetField, direction: str) -> FacetField:
    """Diagonal finite difference (N/sqrt 2)(phi(T f) - phi(f)) of a facet field."""
    try:
        i, j = _DIAG_CELLS[direction]
    except KeyError:
        raise ValueError(f"direction must be 'u' or 'v', got {direction!r}") from None
    chart = f.chart
    shifted = f.values[chart.neighbours[:, i, j]]
    s = chart.N / np.sqrt(2.0)
    return FacetField(chart, s * (shifted - f.values))


def _diagonal_parity_classes(chart: Chart):
    """Facet offsets grouped by diagonal reachability.

    The diagonal translations span the even-coordinate-sum sublattice, so
    facets split into two parity classes of k+l when both columns of M have
    even coordinate sums (parity then descends to the quotient); otherwise
    the diagonal translations act transitively and there is a single class.
    """
    m = chart.m_matrix
    kc, lc = chart.all_canonical()
    if (int(m[0, 0] + m[1, 0]) % 2 == 0) and (int(m[0, 1] + m[1, 1]) % 2 == 0):
        par = (kc + lc) % 2
        return [np.nonzero(par == 0)[0], np.nonzero(par == 1)[0]]
    return [np.arange(chart.vertex_count)]


def _magnitudes(values: np.ndarray) -> np.ndarray:
    if values.ndim == 1:
        return np.abs(values)
    return np.linalg.norm(values, axis=-1)


#: Hoelder exponent of the C0alpha_w norm; the exact double loop runs up to
#: _EXACT_PAIR_LIMIT facets, and beyond it _SAMPLE_PAIRS seeded random pairs.
_ALPHA = 0.5
_EXACT_PAIR_LIMIT = 4096
_SAMPLE_PAIRS = 100_000


def _holder_seminorm(f: FacetField, seed):
    chart = f.chart
    kc, lc = chart.all_canonical()
    # Quotient distance between facet centers, indexed by the canonical
    # representative of the index difference (center offsets cancel).
    table = chart.torus_distance(kc, lc)
    vals = f.values

    def ratio_max(i, j):
        """Largest |phi(i) - phi(j)| / d(i, j)^alpha over index pairs (i, j), 0 for none."""
        off = chart.offset_of_raw(kc[i] - kc[j], lc[i] - lc[j])
        ratio = _magnitudes(vals[i] - vals[j]) / table[off] ** _ALPHA
        return float(ratio.max()) if ratio.size else 0.0

    best = 0.0
    for cls in _diagonal_parity_classes(chart):
        if cls.size < 2:
            continue
        if chart.vertex_count <= _EXACT_PAIR_LIMIT:
            pairs = ((cls[a], cls[a + 1 :]) for a in range(cls.size - 1))
        else:
            rng = np.random.default_rng(seed)
            i = cls[rng.integers(0, cls.size, size=_SAMPLE_PAIRS)]
            j = cls[rng.integers(0, cls.size, size=_SAMPLE_PAIRS)]
            keep = i != j
            pairs = [(i[keep], j[keep])]
        for i, j in pairs:
            best = max(best, ratio_max(i, j))
    return best


def weak_norm(f: FacetField, kind: str, seed: int = 0) -> float:
    """Weak discrete norms of a facet field.

    kind = "C0":          max |phi|.
    kind = "C1_w":        C0 plus the larger C0 norm of the two diagonal
                          finite-difference fields.
    kind = "C0alpha_w":   C0 plus the Hoelder quotient sup |phi(f1)-phi(f2)| /
                          d(f1,f2)^alpha, alpha = 1/2, over pairs of facets in
                          the same diagonal parity class, with d the flat
                          quotient distance of the facet centers.  Exact
                          double loop up to 4096 facets, 100000 random pairs
                          drawn with ``seed`` beyond that.
    """
    mags = _magnitudes(f.values)
    c0 = float(mags.max())
    if kind == "C0":
        return c0
    if kind == "C1_w":
        du = finite_difference(f, "u")
        dv = finite_difference(f, "v")
        return c0 + max(
            float(_magnitudes(du.values).max()), float(_magnitudes(dv.values).max())
        )
    if kind == "C0alpha_w":
        return c0 + _holder_seminorm(f, seed)
    raise ValueError(f"unknown norm kind {kind!r}")
