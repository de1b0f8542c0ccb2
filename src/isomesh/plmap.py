"""Piecewise linear maps from triangular meshes, their certification and export.

Each quadrangulation facet contributes four chart triangles

    (v_kl, v_{k+1,l}, z_kl), (v_{k+1,l}, v_{k+1,l+1}, z_kl),
    (v_{k+1,l+1}, v_{k,l+1}, z_kl), (v_{k,l+1}, v_kl, z_kl),

and the PL map is the affine interpolant of the stored values on each of
them.  The chart is linear (positions A_N (k/N, l/N)), so the chart
triangles of every facet are translates of four fixed shapes: one
per-chart table (``PLMap.shapes``) holds their inverse edge matrices and
sample-grid offsets from the facet centre.  A ``PLMap`` keeps facet
tables, each facet's own corner copies and its apex, coordinate-major (d
first), and the certificates gather their values from them in that layout
(``_pair_values``).  Differentials and distance samples, over which the
distances take their maxima, are row-major, (..., d) as the spec's values,
and formed per block of facets.  One pass over blocks of facets
(``_facet_pass``, kept on the map) reads each facet's quad edges and
spokes and yields the edge scale, the isotropy residuals, the
differential norms of the degenerate-triangle test and the planar star
test's bounds.  The source metric is the flat chart metric, the target
metric Euclidean.  Per-triangle pullbacks of the symplectic form are
constant, so PL isotropy is the finite list of residuals
|omega(B - A, C - A)| over triangles, which equals exactly twice the
Liouville integral around the triangle boundary.

Topology checks are tolerance-based floating point, against tol * scale,
and measure by one exact distance, ``adjacent._tri_tri_distances``: the 49
face pairs of a triangle pair, one batched thin QR per number of unknowns
(not the normal equations, which misjudge nearly parallel crossing edges).
Immersion judges every pair of triangles that shares a vertex id, the
pairs within each star (the 8 triangles at a corner, the 4 at an apex),
with one predicate, ``adjacent._adjacent_distances``, that kernel on the
far sub-simplices of the pair.  Sound bounds go first.  The planar star
test (``adjacent._fans_cleared``) clears whole stars: it projects a star
onto a plane of its spokes, and on a smooth map it clears every star,
and then no incidence table is formed.  Only the stars it leaves are
listed, from the chart's neighbour table (``adjacent._star_pairs``), and
of their pairs ``adjacent._pairs_cleared`` clears those whose vertex
cones, or whose half-planes at a shared edge, lie far enough apart (on a
thin torus no plane shows a corner star as a fan, but most of its pairs
clear so).  The rest are gathered into one predicate call, so witnesses
and distances are those of the predicate alone.  Embedding is the map's
own immersion verdict, memoized on the map per tol so that the adjacent
pairs are judged once, plus the pairs that share no vertex id
(``_far_pairs``): a uniform-grid broadphase over the facet boxes finds the
facet pairs within the threshold, and each gives those of its 16 triangle
pairs that share no corner id.  They pass the exact box-gap test; a
separating-axis bound (``adjacent._pairs_separated``) clears those whose
projections onto one axis lie apart, and the kernel measures the rest,
block by block.  NaN fails.
"""

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .adjacent import (
    _LEN_SLACK,
    _PAIR_BLOCK,
    _adjacent_distances,
    _fan_bounds,
    _fans_cleared,
    _pairs_cleared,
    _pairs_separated,
    _star_pairs,
    _tri_tri_distances,
)
from .density import CORNER_STEPS, at_corners, corner_facets
from .immersion import ImmersionSpec
from .linalg import coordinate_dot
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
    """Triangular mesh with the facet tables of the induced PL map, copied
    from the mesh at build, coordinate-major: ``corners`` (d, 4, F) holds
    each facet's own copies of its corners A_0 .. A_3, lattice shifts
    applied, and ``apexes`` (d, F) its apex z.  The triangle values and
    vertex ids are formed on demand (``tri_values``, ``tri_vertex_ids``,
    and ``triangles`` for a block of facets), and so are differentials
    (``differential``), so that the distances work block by block; the
    certificates gather their values from the facet tables."""

    tri: TriMesh
    corners: np.ndarray = field(init=False, repr=False)
    apexes: np.ndarray = field(init=False, repr=False)
    _pass: "_FacetPass | None" = field(default=None, init=False, repr=False, compare=False)
    _immersion: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.corners = np.ascontiguousarray(self.tri.corner_table().transpose(2, 1, 0))
        self.apexes = np.ascontiguousarray(self.tri.apex_values.T)

    @property
    def chart(self):
        return self.tri.chart

    @property
    def dim(self) -> int:
        return self.tri.dim

    @property
    def tri_values(self) -> np.ndarray:
        """(T, 3, d) values of every triangle, formed on each access: row
        4 f + s is sub-triangle s of facet f, (A_s, A_s+1, z)."""
        return self.triangles()

    @property
    def tri_vertex_ids(self) -> np.ndarray:
        """(T, 3) vertex ids of every triangle, formed on each access: the
        canonical corners 0 .. F - 1, then the apexes F + f."""
        nfacets = self.chart.vertex_count
        return _sub_triangles(at_corners(self.chart.neighbours), nfacets + np.arange(nfacets))

    def triangles(self, facets: slice = slice(None)) -> np.ndarray:
        """(4 f, 3, d) values of the sub-triangles of the facets ``facets``."""
        corners = self.corners[:, :, facets].transpose(2, 1, 0)
        return _sub_triangles(corners, self.apexes[:, facets].T)

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

    def differential(self, facets: slice = slice(None)) -> np.ndarray:
        """(4 f, d, 2) differentials of the PL map on the sub-triangles of the
        facets ``facets``; all by default.  The value edges from the first
        vertex times E_s^-1."""
        vals = self.triangles(facets)
        w = np.stack([vals[:, 1] - vals[:, 0], vals[:, 2] - vals[:, 0]], -1)
        return (w.reshape(-1, 4, self.dim, 2) @ self.shapes[0]).reshape(w.shape)

    def blocks(self, share: int = 1):
        """Slices of f >= 1 facets covering the map, with 4 f triangles at
        most ``_PAIR_BLOCK`` / ``share`` where f > 1."""
        size = max(_PAIR_BLOCK // share // 4, 1)
        return (slice(lo, lo + size) for lo in range(0, self.chart.vertex_count, size))

    def edge_scale(self) -> float:
        """Max finite image edge length, the geometric scale for tolerance
        tests: the root of the largest finite squared length (``_facet_pass``)."""
        return float(np.sqrt(_facet_pass(self).top))


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


def _sample_points(plm: PLMap, facets: slice):
    """Chart points and PL values of the sample grids of the sub-triangles of
    the facets ``facets``: the facet centres plus the grids of
    ``PLMap.shapes``."""
    kc, lc = (c[facets] for c in plm.chart.all_canonical())
    grids = plm.shapes[1]
    pts = plm.chart.facet_center(kc, lc)[:, None, None] + grids
    vals = np.einsum("gk,tkd->tgd", _triangle_grid(), plm.triangles(facets))
    return pts.reshape(-1, *grids.shape[1:]), vals


def distance_c0(plm: PLMap, spec: ImmersionSpec) -> float:
    """Sup distance max_p ||ell(p) - ell_N(p)|| over per-triangle sample
    grids, block by block."""
    worst = []
    for facets in plm.blocks():
        pts, vals = _sample_points(plm, facets)
        worst.append(np.linalg.norm(spec.eval(pts) - vals, axis=-1).max())
    return float(np.max(worst))


def _operator_norm(x, y) -> np.ndarray:
    """Largest singular values s_max of the (d, 2) matrices [x y], columns x,
    y (d, ...) coordinate-major, in closed form: the root of the larger
    eigenvalue of the Gram matrix [[xx, xy], [xy, yy]]."""
    xx, yy, xy = coordinate_dot(x, x), coordinate_dot(y, y), coordinate_dot(x, y)
    return np.sqrt(0.5 * (xx + yy + np.hypot(xx - yy, 2.0 * xy)))


def distance_c1(plm: PLMap, spec: ImmersionSpec) -> float:
    """C1 distance: distance_c0 plus the sup operator norm of d ell - d ell_N,
    over the same sample grids, block by block.  A non-finite value gives NaN."""
    c0, c1 = [], []
    for facets in plm.blocks():
        pts, vals = _sample_points(plm, facets)
        smooth, deriv = spec.jet(pts)
        c0.append(np.linalg.norm(smooth - vals, axis=-1).max())
        gap = np.moveaxis(deriv - plm.differential(facets)[:, None], -2, 0)  # (d, ..., 2)
        c1.append(_operator_norm(gap[..., 0], gap[..., 1]).max())
    return float(np.max(c0)) + float(np.max(c1))


def pl_isotropy_residual(plm: PLMap) -> np.ndarray:
    """Per-triangle |omega(B - A, C - A)|, read-only (``_facet_pass``); all
    zero iff the PL map is isotropic."""
    return _facet_pass(plm).residual


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
    count = len(lo)
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
        close = _gaps_close(lo.T, hi.T, i, j, threshold)
        keys.append(i[close].astype(np.int64) * count + j[close])
        start = stop
    key = np.concatenate(keys)
    key.sort()
    return key // count, key % count


def _gaps_close(lo, hi, i, j, threshold):
    """Mask of the box pairs (i, j), columns of lo, hi (dim, count), whose
    gap norm, the root of the summed squares of max(0, lo_i - hi_j, lo_j -
    hi_i) over the axes, is at most ``threshold``; NaN is never close."""
    gap2 = np.zeros(i.size)
    for low, high in zip(lo, hi):  # one axis at a time keeps the gathers small
        gap = np.maximum(0.0, np.maximum(low.take(i) - high.take(j), low.take(j) - high.take(i)))
        gap2 += gap * gap
    return np.sqrt(gap2) <= threshold


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


@dataclass(frozen=True)
class _FacetPass:
    """What one pass over the facet tables yields, kept on the map and
    read-only: the largest finite squared edge length; per triangle, its
    isotropy residual and its differential's s_max and |x ^ y| (T,); per
    star kind, corner then apex, the ``adjacent._fan_bounds`` and spreads
    (F,) of its stars, or None where the kind's spoke ids repeat."""

    top: float
    residual: np.ndarray
    big: np.ndarray
    area: np.ndarray
    fans: tuple


def _facet_pass(plm: PLMap) -> _FacetPass:
    """The map's ``_FacetPass``, formed on first use in blocks of whole
    facets from the quad edges E_s = A_s+1 - A_s and the spokes S_s = A_s
    - z, coordinate-major; sub-triangle s has edges E_s, -S_s+1 and S_s.

    - The edge scale: the largest finite squared |E_s| and |S_s|.
    - The isotropy residual of sub-triangle s: |omega(E_s, S_s)|.
    - Its differential [x y] = [E_s, -S_s] E_s^-1: s_max and |x ^ y| in
      closed form (s_max by ``_operator_norm``, and s_max s_min = |x ^ y|,
      the root sum of squared minors).
    - The planar star test's bounds (``_corner_fans`` for the corner
      stars, the spokes S_0 .. S_3 for the apex stars).
    """
    if plm._pass is not None:
        return plm._pass
    chart, dim = plm.chart, plm.dim
    nfacets = chart.vertex_count
    residual, big, area = np.empty((3, nfacets, 4))
    inverse = plm.shapes[0].reshape(4, 4).T[..., None]  # entry (i, j) of E_s^-1 at row 2 i + j
    at_corner = corner_facets(chart)
    fans = [(np.empty(nfacets, dtype=bool), *np.empty((4, nfacets))) if distinct else None
            for distinct in _fans_distinct(chart, at_corner[0])]

    def keep(kind, facets, fan, spread):
        """Store the bounds and spreads of a block's stars of one kind."""
        for table, value in zip(kind, (*_fan_bounds(fan), spread)):
            table[facets] = value

    def block(facets):
        """Fill the tables at ``facets``; their largest finite squared edge."""
        if fans[0] is not None:
            keep(fans[0], facets, *_corner_fans(plm, at_corner[facets]))
        corners = plm.corners[:, :, facets]
        edge = corners.take([1, 2, 3, 0], axis=1)
        edge -= corners
        spoke = corners - plm.apexes[:, None, facets]
        top = 0.0
        for vec in (edge, spoke):
            squares = coordinate_dot(vec, vec)
            top = max(top, squares.max(initial=0.0, where=np.isfinite(squares)))
        omega = (edge[0::2] * spoke[1::2] - edge[1::2] * spoke[0::2]).sum(axis=0)
        residual[facets] = np.abs(omega).T
        x, y = (edge * a - spoke * b for a, b in (inverse[0::2], inverse[1::2]))
        big[facets] = _operator_norm(x, y).T
        squares = np.zeros(x.shape[1:])
        for i, j in itertools.combinations(range(dim), 2):
            minor = x[i] * y[j] - x[j] * y[i]
            squares += minor * minor
        area[facets] = np.sqrt(squares).T
        if fans[1] is not None:
            keep(fans[1], facets, spoke, 0.0)
        return top

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is an inf or NaN entry
        top = max(block(facets) for facets in plm.blocks(4))
    for table in (residual, big, area, *(t for kind in fans if kind for t in kind)):
        table.flags.writeable = False
    plm._pass = _FacetPass(top, residual.reshape(-1), big.reshape(-1), area.reshape(-1),
                           tuple(fans))
    return plm._pass


def _differential_norms(plm: PLMap):
    """Each triangle's differential s_max and |x ^ y| (``_facet_pass``): its
    singular values s_max and s_min read s_min <= tol max(s_max) as |x ^
    y| <= tol max(s_max) s_max."""
    found = _facet_pass(plm)
    return found.big, found.area


def _fan_distinct(ids, own) -> bool:
    """Whether a star's spoke ids and its own id are all distinct: then its
    pairs are those of its fan, and by translation equivariance every star
    of its kind's."""
    return len(set(ids) | {own}) == len(ids) + 1


def _fans_distinct(chart, facets):
    """``_fan_distinct`` for the corner stars and the apex stars, read off
    row 0 of each kind: corner v = 0, whose facets f_c are ``facets``, with
    their next corners A_c+1 and apexes, and the apex of facet 0 with its
    corners."""
    nfacets = chart.vertex_count
    ids = at_corners(chart.neighbours)
    facets = facets.tolist()
    spokes = [int(ids[f, (c + 1) % 4]) for c, f in enumerate(facets)]
    corner = _fan_distinct(spokes + [nfacets + f for f in facets], int(ids[facets[0], 0]))
    return corner, _fan_distinct(ids[0].tolist(), nfacets)


#: Corner slots of facet f_c read by corner star v, corner c of f_c: rows
#: its own copy of v, the next corner A_c+1 and the previous one A_c-1.
_NEAR_CORNERS = (np.arange(4) + np.array([[0], [1], [-1]])) % 4


def _corner_fans(plm: PLMap, facets):
    """Spokes (d, 8, n) in fan order, and spreads (n,), of the corner stars
    whose facets f_c are the rows of ``facets`` (n, 4).

    Corner star v: corner c of facet f_c = v - step_c for c = 0..3, with the
    spokes, in fan order, g_0, z_0, g_1, z_1, .., z_3: z_c the apex of f_c
    and g_c (E, N, W, S) the grid neighbour after v in f_c, A_c+1, which is
    also the one before v in f_c-1, A_c-2.  Each spoke is taken relative to
    its facet's own copy of v; g_c is the mean of its two copies and their
    distance is the spread (a rounding error on a map built from a mesh,
    whose two facets read the same raw steps, both moved by one lattice
    shift)."""
    dim, nfacets = plm.dim, plm.chart.vertex_count
    at = facets.T
    near = plm.corners.reshape(dim, -1).take(_NEAR_CORNERS[..., None] * nfacets + at, axis=1)
    own = near[:, 0]
    apex = plm.apexes.take(at, axis=1)
    apex -= own
    ahead, behind = near[:, 1] - own, near[:, 2] - own  # (d, 4 c, n) each
    behind = behind.take([3, 0, 1, 2], axis=1)  # before v in f_c-1: g_c
    fan = np.empty((dim, 8) + at.shape[1:])
    np.add(ahead, behind, out=fan[:, 0::2])
    fan[:, 0::2] *= 0.5
    fan[:, 1::2] = apex
    ahead -= behind
    return fan, np.sqrt(coordinate_dot(ahead, ahead)).max(axis=0)


def _star_codes(chart):
    """The stars' incidence codes 3 t + slot: (F, 8) for the corner stars
    and (F, 4) for the apex stars, row v the star of corner v or of the apex
    of facet v.  Corner v is corner c of facet f_c (``corner_facets``), at
    slot 0 of its sub-triangle c and slot 1 of c - 1; the apex of facet f is
    slot 2 of its 4."""
    facets = 12 * corner_facets(chart)
    corner = np.stack([facets + 3 * np.arange(4), facets + 3 * np.arange(-1, 3) % 12 + 1], -1)
    apex = 12 * np.arange(len(facets))[:, None] + 3 * np.arange(4) + 2
    return corner.reshape(-1, 8).astype(np.int32), apex.astype(np.int32)


def _stars_left(plm: PLMap, reach: float, slack: float):
    """Masks (2, F) of the stars that the planar star test,
    ``adjacent._fans_cleared``, leaves at ``reach`` and ``slack``: row 0
    the corner stars (``_corner_fans``), row 1 the apex stars (spokes z ->
    A_0 .. A_3 of facet f), as in ``_star_codes``, decided from the bounds
    that ``_facet_pass`` keeps.  Row 0's ids decide the fan pattern of each
    kind; where they repeat, every star of that kind is left."""
    left = np.ones((2, plm.chart.vertex_count), dtype=bool)
    for row, kind in zip(left, _facet_pass(plm).fans):
        if kind is not None:
            *bounds, spread = kind
            row[:] = ~_fans_cleared(bounds, spread, reach, slack)
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
    predicate's own.  Only when a star is left is the incidence table (d,
    3T) gathered from the facet tables (``_pair_values``), column 3 t +
    slot, with the vertex ids.
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
    if left.any():
        vids = plm.tri_vertex_ids
        flat = _pair_values(plm, np.arange(len(vids))).swapaxes(1, 2).reshape(plm.dim, -1)
        stars = [codes[rows] for codes, rows in zip(_star_codes(plm.chart), left) if rows.any()]
        u, w = np.concatenate([_star_pairs(vids, c) for c in stars], axis=-1)
        kept = ~_pairs_cleared(flat, u, w, threshold + slack, slack)
        u, w = u[:, kept], w[:, kept]
        dist = _adjacent_distances(flat, u, w)
        bad = ~(dist >= threshold)  # NaN fails
        u, dist = u[:, bad], dist[bad]
        v = vids.ravel()[u[0]]
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
    edge length, by exact convex distance.  The candidates are the pairs
    that share no id and whose boxes come within that threshold, listed
    from the facet pairs of the facet-box broadphase (``_far_pairs``).  In
    blocks of ``_PAIR_BLOCK`` candidates, the separating-axis bound
    (``adjacent._pairs_separated``) clears those whose projections onto one
    axis lie farther apart than the threshold raised by a rounding slack,
    and the rest are measured, so the witnesses and distances are the
    kernel's own and its memory does not grow with their count.  Witnesses
    are the far pairs (triangle, triangle, distance), sorted; a triangle t
    with a non-finite value cannot be placed and is (t, t, nan).
    """
    threshold = _threshold(plm, tol)
    reach = threshold + _LEN_SLACK * (threshold + plm.edge_scale())
    lo, hi = _triangle_boxes(plm)
    witnesses = [(int(t), int(t), np.nan) for t in np.flatnonzero(np.isnan(lo[0]))]
    pairs = _far_pairs(plm, lo, hi, threshold)
    for start in range(0, pairs.shape[1], _PAIR_BLOCK):
        i, j = pairs[:, start : start + _PAIR_BLOCK]
        p, q = _pair_values(plm, i), _pair_values(plm, j)
        left = np.flatnonzero(~_pairs_separated(p, q, reach))
        dist = _tri_tri_distances(p[..., left], q[..., left])
        bad = np.flatnonzero(~(dist >= threshold))  # NaN fails
        witnesses += [(int(i[left[k]]), int(j[left[k]]), float(dist[k])) for k in bad]
    passed = check_immersion(plm, tol).passed and not witnesses
    return CheckResult(passed=passed, witnesses=sorted(witnesses))


# -- embedding candidates -----------------------------------------------------


def _triangle_boxes(plm: PLMap):
    """Boxes lo, hi (d, T) of the triangles, columns in ``tri_values`` order
    (t = 4 f + s): the least and the largest of the three values on each
    axis, NaN for a triangle with a non-finite value."""
    corners, apexes = plm.corners, plm.apexes[:, None]
    after = corners.take([1, 2, 3, 0], axis=1)
    lo = np.minimum(np.minimum(corners, after), apexes)
    hi = np.maximum(np.maximum(corners, after), apexes)
    finite = np.isfinite(corners) & np.isfinite(after) & np.isfinite(apexes)
    bad = ~finite.all(axis=0)
    lo[:, bad] = hi[:, bad] = np.nan
    return (box.transpose(0, 2, 1).reshape(plm.dim, -1) for box in (lo, hi))


def _pair_values(plm: PLMap, tris) -> np.ndarray:
    """(d, 3, K) values of the triangles ``tris`` (K,), coordinate-major,
    read from the facet tables: sub-triangle s of facet f is (A_s, A_s+1, z)."""
    facet, sub = np.divmod(tris, 4)
    nfacets = plm.chart.vertex_count
    flat = plm.corners.reshape(plm.dim, -1)  # corner s of facet f at s F + f
    out = np.empty((plm.dim, 3, len(tris)))
    out[:, 0] = flat[:, sub * nfacets + facet]
    out[:, 1] = flat[:, (sub + 1) % 4 * nfacets + facet]
    out[:, 2] = plm.apexes[:, facet]
    return out


def _far_pairs(plm: PLMap, lo, hi, threshold: float) -> np.ndarray:
    """(2, K) triangle pairs (i, j), i < j, that share no vertex id and
    whose boxes ``lo``, ``hi`` (``_triangle_boxes``) come within
    ``threshold`` by ``_gaps_close``.

    A triangle pair whose boxes are that close has facets whose boxes, over
    their finite triangles, are too, so the pairs are among the 16
    sub-triangle pairs (s, s') of each facet pair f < g that
    ``_box_close_pairs`` finds.  Sub-triangle s holds corners A_s, A_s+1 and
    its facet's own apex, so s and s' share an id exactly when they share a
    corner id; those that share none go through the exact box test, in
    blocks of about ``_PAIR_BLOCK`` pairs.
    """
    nfacets = plm.chart.vertex_count
    ids = at_corners(plm.chart.neighbours)
    flo = np.fmin.reduce(lo.reshape(len(lo), nfacets, 4), axis=2)
    fhi = np.fmax.reduce(hi.reshape(len(hi), nfacets, 4), axis=2)
    keep = np.flatnonzero(~np.isnan(flo[0]))
    f, g = (keep[k] for k in _box_close_pairs(flo[:, keep].T, fhi[:, keep].T, threshold))
    size = max(_PAIR_BLOCK // 16, 1)
    pairs = [np.empty((2, 0), dtype=np.int64)]
    for start in range(0, len(f), size):
        a, b = f[start : start + size], g[start : start + size]
        shared = ids[a][:, :, None] == ids[b][:, None, :]  # corner u of a is corner v of b
        shared |= np.roll(shared, -1, axis=1)
        shared |= np.roll(shared, -1, axis=2)
        slot = np.flatnonzero(~shared)  # 16 k + 4 s + s' for facet pair k
        k = slot >> 4
        i, j = 4 * a[k] + (slot >> 2 & 3), 4 * b[k] + (slot & 3)
        close = _gaps_close(lo, hi, i, j, threshold)
        pairs.append(np.stack([i[close], j[close]]))
    return np.concatenate(pairs, axis=1)


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
