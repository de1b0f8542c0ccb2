"""Piecewise linear maps from triangular meshes, their certification and export.

Each quadrangulation facet contributes four chart triangles

    (v_kl, v_{k+1,l}, z_kl), (v_{k+1,l}, v_{k+1,l+1}, z_kl),
    (v_{k+1,l+1}, v_{k,l+1}, z_kl), (v_{k,l+1}, v_kl, z_kl),

and the PL map is the affine interpolant of the stored values on each of
them.  The chart is linear (positions A_N (k/N, l/N)), so the chart
triangles of every facet are translates of four fixed shapes: one
per-chart table (``PLMap.shapes``) holds their inverse edge matrices and
sample-grid offsets from the facet centre.  A ``PLMap`` stores only the
triangle values and vertex ids; differentials and distance samples are
formed from that table per block of at most ``_PAIR_BLOCK`` triangles,
over which the distances and the degenerate-triangle test take their
maxima.  The source metric is the flat chart metric, the target metric
Euclidean.
Per-triangle pullbacks of the symplectic form are constant, so PL isotropy
is the finite list of residuals |omega(B - A, C - A)| over triangles, which
equals exactly twice the Liouville integral around the triangle boundary.

Topology checks are tolerance-based floating point, against tol * scale,
and measure by one exact distance, ``adjacent._tri_tri_distances``: the 49
face pairs of a triangle pair, one batched thin QR per number of unknowns
(not the normal equations, which misjudge nearly parallel crossing edges).
Immersion judges every pair of triangles that shares a vertex id, the
pairs within each star (the 8 triangles at a corner, the 4 at an apex),
with one predicate, ``adjacent._adjacent_distances``, that kernel on the
far sub-simplices of the pair.  Sound bounds go first.  The planar star
test (``adjacent._fans_cleared``) clears whole stars, in blocks of
facets: it projects a star onto a plane of its spokes, and on a smooth
map it clears every star.  Only the stars it leaves are listed, from the
chart's neighbour table (``adjacent._star_pairs``), and of their pairs
``adjacent._pairs_cleared`` clears those whose vertex cones, or whose
half-planes at a shared edge, lie far enough apart (on a thin torus no
plane shows a corner star as a fan, but most of its pairs clear so).
The rest are gathered into one predicate call, so witnesses and
distances are those of the predicate alone.  Embedding is the map's own immersion verdict,
memoized on the map per tol so that the adjacent pairs are judged once,
plus the pairs that share no vertex id: a uniform-grid broadphase over
the triangle boxes, then the kernel on the far candidates, block by
block.  NaN fails.
"""

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .adjacent import (
    _LEN_SLACK,
    _PAIR_BLOCK,
    _adjacent_distances,
    _fans_cleared,
    _pairs_cleared,
    _star_pairs,
    _tri_tri_distances,
)
from .density import CORNER_STEPS, at_corners
from .immersion import ImmersionSpec
from .linalg import dot
from .refine import TriMesh

# Corner slots (A_s, A_{s+1}) of sub-triangle s; its third vertex is the apex.
_SUB_CORNERS = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])


def _sub_triangles(corners, apexes):
    """(4F, 3, ...) sub-triangles from (F, 4, ...) corners and (F, ...) apexes.

    Row 4 f + s is sub-triangle s of facet f: (A_s, A_{s+1}, z_f).
    """
    nfacets = apexes.shape[0]
    apex = np.broadcast_to(apexes[:, None, None], (nfacets, 4, 1) + apexes.shape[1:])
    tris = np.concatenate([corners[:, _SUB_CORNERS], apex], axis=2)
    return tris.reshape((4 * nfacets, 3) + apexes.shape[1:])


@dataclass
class PLMap:
    """Triangular mesh with the two tables of the induced PL map: the values
    (T, 3, d) and the vertex ids (T, 3) of its triangles.  Differentials are
    formed for a block of whole facets on demand (``differential``), so that
    the certificates and distances work block by block."""

    tri: TriMesh
    tri_values: np.ndarray = field(init=False, repr=False)
    tri_vertex_ids: np.ndarray = field(init=False, repr=False)
    _edge_scale: float | None = field(default=None, init=False, repr=False, compare=False)
    _immersion: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        tri = self.tri
        nfacets = tri.chart.vertex_count
        self.tri_values = _sub_triangles(tri.corner_table(), tri.apex_values)
        cids = at_corners(tri.chart.neighbours)
        self.tri_vertex_ids = _sub_triangles(cids, nfacets + np.arange(nfacets))

    @property
    def chart(self):
        return self.tri.chart

    @property
    def dim(self) -> int:
        return self.tri.dim

    @cached_property
    def shapes(self):
        """The four chart triangles of a facet, relative to its centre: their
        inverse edge matrices E_s^-1 (4, 2, 2), E_s = [B - A, C - A] for
        sub-triangle s = (A, B, C), and the points of their sample grids
        (4, m^2, 2)."""
        chart = self.chart
        corners = (CORNER_STEPS - 0.5) @ (chart.a_matrix / chart.N).T
        tris = _sub_triangles(corners[None], np.zeros((1, 2)))
        edges = np.stack([tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]], axis=-1)
        return np.linalg.inv(edges), np.einsum("gk,skx->sgx", _triangle_grid(), tris)

    def differential(self, rows: slice = slice(None)) -> np.ndarray:
        """(K, d, 2) differentials of the PL map on the triangle rows ``rows``,
        a slice of whole facets (its bounds multiples of 4); all rows by
        default.  The value edges from the first vertex times E_s^-1."""
        vals = self.tri_values[rows]
        w = np.stack([vals[:, 1] - vals[:, 0], vals[:, 2] - vals[:, 0]], -1)
        return (w.reshape(-1, 4, self.dim, 2) @ self.shapes[0]).reshape(w.shape)

    def edges(self, rows: slice) -> np.ndarray:
        """Value edges (d, 3, K) of the triangle rows ``rows``, coordinate-major:
        [k, s, t] is coordinate k of edge s, slot s to s + 1, of triangle t."""
        v = self.tri_values[rows].transpose(2, 1, 0)
        return v.take([1, 2, 0], axis=1) - v

    def blocks(self, share: int = 1):
        """Slices of ``_PAIR_BLOCK`` / ``share`` rows (whole facets) covering the map."""
        size = _PAIR_BLOCK // share // 4 * 4
        return (slice(lo, lo + size) for lo in range(0, len(self.tri_values), size))

    def edge_scale(self) -> float:
        """Max finite image edge length, the geometric scale for tolerance
        tests: the root of the largest finite squared length, computed once."""
        if self._edge_scale is None:
            top = 0.0
            for rows in self.blocks(3):
                squares = (self.edges(rows) ** 2).sum(axis=0)
                top = max(top, squares.max(initial=0.0, where=np.isfinite(squares)))
            self._edge_scale = float(np.sqrt(top))
        return self._edge_scale


def build_pl(tri: TriMesh) -> PLMap:
    """PL map whose restriction to each chart triangle interpolates the mesh."""
    return PLMap(tri)


#: Distance sample grid: _OVERSAMPLE^2 points per triangle.
_OVERSAMPLE = 4


def _triangle_grid() -> np.ndarray:
    """Barycentric sample weights, an _OVERSAMPLE^2 grid folded into the triangle."""
    step = (np.arange(_OVERSAMPLE) + 0.5) / _OVERSAMPLE
    a, b = np.meshgrid(step, step, indexing="ij")
    a = a.ravel()
    b = b.ravel()
    flip = a + b > 1.0
    a = np.where(flip, 1.0 - a, a)
    b = np.where(flip, 1.0 - b, b)
    return np.stack([1.0 - a - b, a, b], axis=-1)  # (m^2, 3)


def _sample_points(plm: PLMap, rows: slice):
    """Chart points and PL values of the sample grids of the triangle rows
    (whole facets): the facet centres plus the grids of ``PLMap.shapes``."""
    start, stop, _ = rows.indices(len(plm.tri_values))
    kc, lc = (c[start // 4 : stop // 4] for c in plm.chart.all_canonical())
    grids = plm.shapes[1]
    pts = plm.chart.facet_center(kc, lc)[:, None, None] + grids
    vals = np.einsum("gk,tkd->tgd", _triangle_grid(), plm.tri_values[rows])
    return pts.reshape(-1, *grids.shape[1:]), vals


def distance_c0(plm: PLMap, spec: ImmersionSpec) -> float:
    """Sup distance max_p ||ell(p) - ell_N(p)|| over per-triangle sample
    grids, block by block."""
    worst = []
    for rows in plm.blocks():
        pts, vals = _sample_points(plm, rows)
        worst.append(np.linalg.norm(spec.eval(pts) - vals, axis=-1).max())
    return float(np.max(worst))


def _operator_norm(mat) -> np.ndarray:
    """Largest singular values of (..., d, 2) matrices [x y], in closed form:
    the root of the larger eigenvalue of the Gram matrix [[xx, xy], [xy, yy]]."""
    x, y = mat[..., 0], mat[..., 1]
    xx, yy, xy = dot(x, x), dot(y, y), dot(x, y)
    return np.sqrt(0.5 * (xx + yy + np.hypot(xx - yy, 2.0 * xy)))


def distance_c1(plm: PLMap, spec: ImmersionSpec) -> float:
    """C1 distance: distance_c0 plus the sup operator norm of d ell - d ell_N,
    over the same sample grids, block by block.  A non-finite value gives NaN."""
    c0, c1 = [], []
    for rows in plm.blocks():
        pts, vals = _sample_points(plm, rows)
        smooth, deriv = spec.jet(pts)
        c0.append(np.linalg.norm(smooth - vals, axis=-1).max())
        c1.append(_operator_norm(deriv - plm.differential(rows)[:, None]).max())
    return float(np.max(c0)) + float(np.max(c1))


def pl_isotropy_residual(plm: PLMap) -> np.ndarray:
    """Per-triangle |omega(B - A, C - A)| = |omega(e0, e2)|, by blocks; all
    zero iff the PL map is isotropic."""
    out = np.empty(len(plm.tri_values))
    for rows in plm.blocks(3):
        x, y = plm.edges(rows)[:, ::2].transpose(1, 0, 2)
        out[rows] = np.abs((x[0::2] * y[1::2] - x[1::2] * y[0::2]).sum(axis=0))
    return out


# -- uniform-grid broadphase --------------------------------------------------


def _box_close_pairs(lo: np.ndarray, hi: np.ndarray, threshold: float):
    """Index arrays (i, j), i < j, sorted, of the boxes within ``threshold``.

    Boxes (rows of lo, hi in R^d) come within ``threshold`` when the norm of
    their per-axis gap max(0, lo_i - hi_j, lo_j - hi_i) is at most it.  The
    boxes, inflated by ``threshold``, are binned into a uniform grid whose
    cell edge is the largest inflated extent, so each box touches at most two
    cells per axis (three only through rounding).  A pair is taken once, in
    the first cell the two boxes share (on each axis one of the two is in
    its first cell there), and filtered by the exact gap norm; the pairs of
    the cells are made in chunks of about ``_PAIR_BLOCK``.  Cells and box ids
    are binned as int32, the axis bits in the smallest unsigned type, and
    only the box ids, bits and group sizes outlive the binning.
    """
    count, dim = lo.shape
    if count < 2:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    boxes, later, after = _cell_entries(lo, hi, threshold)
    # Pair each entry with the rest of its cell, whole entries at a time.
    total = np.cumsum(after)
    keys = [np.empty(0, dtype=np.int64)]
    start = 0
    while start < boxes.size:
        end = total[start] - after[start] + _PAIR_BLOCK
        stop = max(np.searchsorted(total, end, "right"), start + 1)
        rep = after[start:stop]
        a = np.repeat(np.arange(start, stop), rep)
        b = a + 1 + np.arange(a.size) - np.repeat(np.cumsum(rep) - rep, rep)
        own = (later[a] & later[b]) == 0
        a, b = boxes[a[own]], boxes[b[own]]
        i, j = np.minimum(a, b), np.maximum(a, b)
        gap2 = np.zeros(i.size)
        for k in range(dim):  # one axis at a time keeps the gathers small
            gap = np.maximum(0.0, np.maximum(lo[i, k] - hi[j, k], lo[j, k] - hi[i, k]))
            gap2 += gap * gap
        close = np.sqrt(gap2) <= threshold
        keys.append(i[close].astype(np.int64) * count + j[close])
        start = stop
    key = np.concatenate(keys)
    key.sort()
    return key // count, key % count


def _cell_entries(lo, hi, threshold):
    """The (box, cell) entries of ``_box_close_pairs``, grouped by cell:
    their box ids (int32), their axis bits (bit k set past the box's first
    cell on axis k) and the number of entries after each in its cell."""
    dim = lo.shape[1]
    glo = lo - threshold
    ghi = hi + threshold
    origin = glo.min(axis=0)
    # At most 2^20 cells per axis, whatever the box sizes; 1 for point boxes.
    reach = float((ghi.max(axis=0) - origin).max())
    edge = max(float((ghi - glo).max()), reach * 2.0**-20) or 1.0
    first = np.floor((glo - origin) / edge).astype(np.int32)
    span = np.floor((ghi - origin) / edge).astype(np.int32) - first
    boxes, cells, later = [], [], []
    bits = np.min_scalar_type((1 << dim) - 1)
    for step in itertools.product(range(int(span.max()) + 1), repeat=dim):
        hit = np.nonzero((span >= step).all(axis=1))[0]
        boxes.append(hit.astype(np.int32))
        cells.append(first[hit] + np.array(step, dtype=np.int32))
        later.append(np.full(hit.size, sum(1 << k for k, s in enumerate(step) if s), bits))
    cells = np.concatenate(cells)
    order = np.lexsort(cells.T[::-1])
    cells = cells[order]
    new_cell = np.ones(order.size, dtype=bool)
    new_cell[1:] = (cells[1:] != cells[:-1]).any(axis=1)
    starts = np.nonzero(new_cell)[0]
    ends = np.append(starts[1:], order.size)
    after = np.repeat(ends, ends - starts) - np.arange(order.size) - 1
    return np.concatenate(boxes)[order], np.concatenate(later)[order], after


# -- verdicts -----------------------------------------------------------------


#: Default of the topology certificates' ``tol``: their distance threshold
#: is this share of the max image edge length.
TOPOLOGY_TOL = 1e-6


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    witnesses: list


def _threshold(plm: PLMap, tol: float) -> float:
    """The certificates' distance threshold, tol times the max edge length."""
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    return tol * plm.edge_scale()


def _differential_norms(plm: PLMap):
    """Each differential [x y] = [e0, -e2] E_s^-1's s_max and |x ^ y|, from
    coordinate-major value edges in blocks of whole facets (closed-form
    singular values: s_max as in _operator_norm, and s_max s_min = |x ^
    y|, the root sum of squared minors, so s_min <= tol max(s_max) reads |x
    ^ y| <= tol max(s_max) s_max)."""
    count, _, dim = plm.tri_values.shape
    big, area = np.empty((2, count))
    inverse = plm.shapes[0].reshape(4, 4).T  # entry (i, j) of E_s^-1 at row 2 i + j
    for rows in plm.blocks(3):
        edges = plm.edges(rows)
        c00, c01, c10, c11 = np.tile(inverse, edges.shape[-1] // 4)
        x, y = (edges[:, 0] * a - edges[:, 2] * b for a, b in ((c00, c10), (c01, c11)))
        xx, yy, xy = ((p * q).sum(axis=0) for p, q in ((x, x), (y, y), (x, y)))
        big[rows] = np.sqrt(0.5 * (xx + yy + np.hypot(xx - yy, 2.0 * xy)))
        squares = np.zeros(edges.shape[-1])
        for i, j in itertools.combinations(range(dim), 2):
            minor = x[i] * y[j] - x[j] * y[i]
            squares += minor * minor
        area[rows] = np.sqrt(squares)
    return big, area


#: Incidences 3 s + slot, within its facet's 12, of corner c (column c) and
#: of its spokes: rows own value, next corner A_c+1, apex, previous corner
#: A_c-1.
_FAN_SLOTS = (3 * np.arange(4) + np.array([[0], [1], [2], [-3]])) % 12


def _fan_distinct(ids, own) -> bool:
    """Whether a star's spoke ids and its own id are all distinct: then its
    pairs are those of its fan, and by translation equivariance every star
    of its kind's."""
    return len(set(ids) | {own}) == len(ids) + 1


def _corner_facets(chart):
    """(F, 4): column c holds 12 f_c, f_c = v - step_c the facet whose corner
    c is corner v, read off ``Chart.neighbours``."""
    i, j = 1 - CORNER_STEPS.T
    return 12 * chart.neighbours[:, i, j]


def _star_codes(chart):
    """The stars' incidence codes 3 t + slot: (F, 8) for the corner stars
    and (F, 4) for the apex stars, row v the star of corner v or of the apex
    of facet v.  Corner v is corner c of facet f_c (``_corner_facets``), at
    slot 0 of its sub-triangle c and slot 1 of c - 1; the apex of facet f is
    slot 2 of its 4."""
    facets = _corner_facets(chart)
    corner = np.stack([facets + 3 * np.arange(4), facets + 3 * np.arange(-1, 3) % 12 + 1], -1)
    apex = 12 * np.arange(len(facets))[:, None] + 3 * np.arange(4) + 2
    return corner.reshape(-1, 8).astype(np.int32), apex.astype(np.int32)


def _stars_left(plm: PLMap, reach: float, slack: float):
    """Masks (2, F) of the stars that the planar star test,
    ``adjacent._fans_cleared``, leaves at ``reach`` and ``slack``: row 0
    the corner stars, row 1 the apex stars, as in ``_star_codes``.  Tested
    in blocks of whole facets from the PL map's values.

    Apex star f: spokes z -> A_0 .. A_3 of facet f.  Corner star v: corner c
    of facet f_c = v - step_c for c = 0..3, with the spokes, in fan order,
    g_0, z_0, g_1, z_1, .., z_3: z_c the apex of f_c and g_c (E, N, W, S)
    the grid neighbour after v in f_c, A_c+1, which is also the one before
    v in f_c-1, A_c-2.  Each spoke is taken relative to its facet's own copy
    of v; g_c is the mean of its two copies and their distance is the
    spread (a rounding error on a map built from a mesh, whose two facets
    read the same raw steps, both moved by one lattice shift).  Row 0's ids
    decide the fan pattern of each kind; where they repeat, every star of
    that kind is left."""
    nfacets, dim = plm.chart.vertex_count, plm.dim
    flat, ids = plm.tri_values.reshape(-1, dim), plm.tri_vertex_ids.ravel()
    facets = _corner_facets(plm.chart)
    row0 = ids[facets[0] + _FAN_SLOTS]
    fans = (_fan_distinct(row0[1:3].ravel().tolist(), row0[0, 0]),
            _fan_distinct(ids[3 * np.arange(4)].tolist(), nfacets))
    left = np.ones((2, nfacets), dtype=bool)
    for rows in plm.blocks(2):
        stars = slice(rows.start // 4, rows.stop // 4)
        if fans[0]:
            at = facets[stars].T + _FAN_SLOTS[..., None]
            near = np.take(flat, at.ravel(), axis=0).reshape(at.shape + (dim,))
            ahead, apex, behind = near[1:] - near[0]  # (4 c, stars, d) each
            behind = behind[[3, 0, 1, 2]]  # before v in f_c-1: g_c
            fan = np.empty((8,) + ahead.shape[1:])
            np.add(ahead, behind, out=fan[0::2])
            fan[0::2] *= 0.5
            fan[1::2] = apex
            ahead -= behind
            spread = np.sqrt(np.einsum("csk,csk->cs", ahead, ahead)).max(axis=0)
            fan = np.ascontiguousarray(fan.transpose(2, 0, 1))
            left[0, stars] = ~_fans_cleared(fan, spread, reach, slack)
        if fans[1]:
            vals = plm.tri_values[rows].reshape(-1, 4, 3, dim)
            fan = np.ascontiguousarray((vals[:, :, 0] - vals[:, :1, 2]).transpose(2, 1, 0))
            left[1, stars] = ~_fans_cleared(fan, 0.0, reach, slack)
    return left


def check_immersion(plm: PLMap, tol: float = TOPOLOGY_TOL) -> CheckResult:
    """Local injectivity verdict for the PL map.

    Passes iff every triangle differential has two singular values above tol
    times the largest, and every pair of triangles that shares a vertex keeps
    its distance beyond the shared simplex (``_adjacent_distances``) at or
    above tol times the max image edge length.  A pair is aligned at v, the
    smallest vertex id it shares: each triangle is measured relative to its
    own value at v.  Witnesses: ``("degenerate_triangle", t)``, then
    ``("vertex_star", v, t1, t2, dist)`` sorted by (t1, t2), v numbered as
    in ``tri_vertex_ids``.  The verdict is computed once per map and
    ``tol``, after ``tol`` is validated, and memoized on the map.

    Sound bounds clear pairs before the predicate, at the threshold raised
    by a rounding slack: the planar star test (``_stars_left``) clears
    whole stars, and only the stars it leaves are listed (``_star_codes``,
    ``adjacent._star_pairs``); of their pairs, those that the cone and
    half-plane bounds do not clear (``adjacent._pairs_cleared``) are
    measured, all in one call, so witnesses and distances are the
    predicate's own.
    """
    threshold = _threshold(plm, tol)
    if tol in plm._immersion:
        return plm._immersion[tol]
    big, area = _differential_norms(plm)
    top = big.max(initial=0.0, where=np.isfinite(big))
    degenerate = np.nonzero(~(area > tol * top * big))[0]  # NaN fails
    witnesses = [("degenerate_triangle", int(t)) for t in degenerate]
    slack = _LEN_SLACK * (threshold + plm.edge_scale())
    left = _stars_left(plm, threshold + slack, slack)
    u = w = np.empty((2, 0), dtype=np.int32)
    if left.any():
        stars = [codes[rows] for codes, rows in zip(_star_codes(plm.chart), left) if rows.any()]
        u, w = np.concatenate([_star_pairs(plm.tri_vertex_ids, c) for c in stars], axis=-1)
        flat = plm.tri_values.reshape(-1, plm.dim)
        kept = ~_pairs_cleared(flat, u, w, threshold + slack, slack)
        u, w = u[:, kept], w[:, kept]
    dist = _adjacent_distances(plm.tri_values, u, w)
    bad = ~(dist >= threshold)  # NaN fails
    u, dist = u[:, bad], dist[bad]
    v = plm.tri_vertex_ids.ravel()[u[0]]
    i, j = u // 3
    for k in np.lexsort((j, i)):
        witnesses.append(("vertex_star", int(v[k]), int(i[k]), int(j[k]), float(dist[k])))
    plm._immersion[tol] = CheckResult(passed=not witnesses, witnesses=witnesses)
    return plm._immersion[tol]


def check_embedding(plm: PLMap, tol: float = TOPOLOGY_TOL) -> CheckResult:
    """Global injectivity verdict: the immersion verdict plus the far pairs.

    Passes iff ``check_immersion(plm, tol)`` passes (it judges every pair of
    triangles that shares a vertex id, and is memoized on the map) and no
    two triangles that share no vertex id come within tol times the max
    edge length, by exact convex distance.  Candidate pairs come from a
    uniform-grid broadphase over the triangle boxes; they are split into far
    and adjacent, and the far ones measured, in blocks of ``_PAIR_BLOCK``
    candidates, so the kernel's memory does not grow with their count.
    Witnesses are the far pairs (triangle, triangle, distance), sorted; a
    triangle t with a non-finite value cannot be placed and is (t, t, nan).
    """
    threshold = _threshold(plm, tol)
    vals, vids = plm.tri_values, plm.tri_vertex_ids
    finite = np.isfinite(vals).all(axis=(1, 2))
    keep = np.nonzero(finite)[0]
    lo, hi = vals[keep].min(axis=1), vals[keep].max(axis=1)
    pairs_i, pairs_j = (keep[k] for k in _box_close_pairs(lo, hi, threshold))
    witnesses = [(int(t), int(t), np.nan) for t in np.nonzero(~finite)[0]]
    for start in range(0, pairs_i.size, _PAIR_BLOCK):
        block = slice(start, start + _PAIR_BLOCK)
        i, j = pairs_i[block], pairs_j[block]
        far = ~(vids[i, :, None] == vids[j, None, :]).any(axis=(1, 2))
        i, j = i[far], j[far]
        dist = _tri_tri_distances(vals[i], vals[j])
        bad = np.nonzero(~(dist >= threshold))[0]  # NaN fails
        witnesses += [(int(i[k]), int(j[k]), float(dist[k])) for k in bad]
    passed = check_immersion(plm, tol).passed and not witnesses
    return CheckResult(passed=passed, witnesses=sorted(witnesses))


# -- export -------------------------------------------------------------------


def export_mesh(plm: PLMap, path, projection=None) -> None:
    """Write the full-dimensional triangle mesh in the symmesh text format.

    Header ``symmesh <2n> <num_vertices> <num_faces>``, vertex lines
    ``v <2n floats>`` (17 significant digits, bit-faithful round trip), face
    lines ``f <i> <j> <k>`` 1-based.  Vertices are the canonical corners
    followed by the facet apexes.  With ``projection`` (three coordinate
    indices) an additional standard ``v x y z`` / ``f i j k`` file is written
    next to it at ``<path>.obj``.
    """
    tri = plm.tri
    verts = np.vstack([tri.corner_values, tri.apex_values])
    if projection is not None:
        proj = tuple(int(i) for i in projection)
        if len(proj) != 3 or any(i < 0 or i >= verts.shape[1] for i in proj):
            raise ValueError("projection must pick 3 valid coordinate indices")
    faces = plm.tri_vertex_ids + 1
    _write_mesh(path, verts, faces, f"symmesh {verts.shape[1]} {len(verts)} {len(faces)}")
    if projection is not None:
        _write_mesh(f"{path}.obj", verts[:, proj], faces)


def _write_mesh(path, verts, faces, header=None) -> None:
    """An optional ``header`` line, then ``v`` lines of 17-digit floats and
    ``f`` lines of the (1-based) faces."""
    lines = [] if header is None else [header]
    for row in verts:
        lines.append("v " + " ".join(f"{x:.17g}" for x in row))
    for a, b, c in faces:
        lines.append(f"f {a} {b} {c}")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
