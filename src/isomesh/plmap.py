"""Piecewise linear maps from triangular meshes, their certification and export.

Each quadrangulation facet contributes four chart triangles

    (v_kl, v_{k+1,l}, z_kl), (v_{k+1,l}, v_{k+1,l+1}, z_kl),
    (v_{k+1,l+1}, v_{k,l+1}, z_kl), (v_{k,l+1}, v_kl, z_kl),

and the PL map is the affine interpolant of the stored values on each of
them.  The source metric is the flat chart metric (positions A_N (k/N, l/N)),
the target metric Euclidean.  Per-triangle pullbacks of the symplectic form
are constant, so PL isotropy is the finite list of residuals
|omega(B - A, C - A)| over triangles, which equals exactly twice the
Liouville integral around the triangle boundary.

Topology checks are tolerance-based floating point: immersion = nondegenerate
differentials plus pairwise star separation beyond shared simplices;
embedding = no two non-adjacent triangle images within tol * scale.  Candidate
pairs come from a uniform grid over the axis-aligned triangle boxes in
R^{2n}; exact pair distances come from convex minimization over barycentric
coordinates, solved for all candidate pairs in one batch per face pair.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .density import CORNER_STEPS, _period_shifted
from .immersion import ImmersionSpec
from .refine import TriMesh
from .symplectic import liouville_polygon, omega

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
    """Triangular mesh with evaluation tables for the induced PL map."""

    tri: TriMesh
    tri_values: np.ndarray = field(init=False, repr=False)
    tri_source: np.ndarray = field(init=False, repr=False)
    tri_vertex_ids: np.ndarray = field(init=False, repr=False)
    differentials: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        tri = self.tri
        chart = tri.chart
        nfacets = chart.vertex_count
        kc, lc = chart.all_canonical()
        steps = CORNER_STEPS.T
        self.tri_values = _sub_triangles(tri.corner_table(), tri.apex_values)
        self.tri_source = _sub_triangles(
            chart.position(kc[:, None] + steps[0], lc[:, None] + steps[1]),
            chart.facet_center(kc, lc),
        )
        cids = chart.neighbours[0][:, 1 + steps[0], 1 + steps[1]]
        self.tri_vertex_ids = _sub_triangles(cids, nfacets + np.arange(nfacets))

        e = np.stack(
            [
                self.tri_source[:, 1] - self.tri_source[:, 0],
                self.tri_source[:, 2] - self.tri_source[:, 0],
            ],
            axis=-1,
        )  # (T, 2, 2)
        w = np.stack(
            [
                self.tri_values[:, 1] - self.tri_values[:, 0],
                self.tri_values[:, 2] - self.tri_values[:, 0],
            ],
            axis=-1,
        )  # (T, d, 2)
        det = e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0]
        inv = np.empty_like(e)
        inv[:, 0, 0] = e[:, 1, 1]
        inv[:, 0, 1] = -e[:, 0, 1]
        inv[:, 1, 0] = -e[:, 1, 0]
        inv[:, 1, 1] = e[:, 0, 0]
        inv /= det[:, None, None]
        self.differentials = np.einsum("tdj,tjk->tdk", w, inv)

    @property
    def chart(self):
        return self.tri.chart

    @property
    def triangle_count(self) -> int:
        return self.tri_values.shape[0]

    @property
    def dim(self) -> int:
        return self.tri.dim

    def triangle_source_centers(self) -> np.ndarray:
        return self.tri_source.mean(axis=1)

    def edge_scale(self) -> float:
        """Max image edge length, the geometric scale for tolerance tests."""
        edges = np.roll(self.tri_values, -1, axis=1) - self.tri_values
        return float(np.linalg.norm(edges, axis=-1).max())


def build_pl(tri: TriMesh) -> PLMap:
    """PL map whose restriction to each chart triangle interpolates the mesh."""
    return PLMap(tri)


# Local geometry of the four sub-triangles of the unit square facet:
# corners (0,0),(1,0),(1,1),(0,1) and center (1/2,1/2).
_LOCAL_CORNERS = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
_LOCAL_EDGE_INV = np.empty((4, 2, 2))
for _s in range(4):
    _c0 = _LOCAL_CORNERS[_s]
    _c1 = _LOCAL_CORNERS[(_s + 1) % 4]
    _mat = np.stack([_c1 - _c0, np.array([0.5, 0.5]) - _c0], axis=-1)
    _LOCAL_EDGE_INV[_s] = np.linalg.inv(_mat)


def eval_pl(plm: PLMap, p) -> np.ndarray:
    """Evaluate the PL map at plane points (..., 2).

    Point location: the facet is the floor of N A_N^{-1} p, the sub-triangle
    follows from sign tests against the two facet diagonals; a raw facet
    index reads the triangle of its canonical representative (plus target
    periods for quasi-periodic meshes), so evaluation is Gamma-equivariant.
    """
    chart = plm.chart
    p = np.asarray(p, dtype=float)
    scalar_input = p.ndim == 1
    pts = np.atleast_2d(p)
    xi = chart.N * np.einsum(
        "ij,...j->...i", np.linalg.inv(chart.a_matrix), pts
    )
    k = np.floor(xi[..., 0]).astype(np.int64)
    l = np.floor(xi[..., 1]).astype(np.int64)
    u = xi[..., 0] - k
    v = xi[..., 1] - l
    d1 = v - u
    d2 = u + v - 1.0
    sub = np.where(
        d1 <= 0.0, np.where(d2 <= 0.0, 0, 1), np.where(d2 <= 0.0, 3, 2)
    )
    x, y, q1, q2 = chart.canonical_with_shift(k, l)
    per = plm.tri.target_periods
    shift = q1[..., None] * per[0] + q2[..., None] * per[1]
    tris = plm.tri_values[4 * chart.offset_xy(x, y) + sub] + shift[..., None, :]
    v0, v1, v2 = np.moveaxis(tris, -2, 0)
    local = np.stack([u, v], axis=-1) - _LOCAL_CORNERS[sub]
    lam = np.einsum("...ij,...j->...i", _LOCAL_EDGE_INV[sub], local)
    out = (
        v0
        + lam[..., 0:1] * (v1 - v0)
        + lam[..., 1:2] * (v2 - v0)
    )
    return out[0] if scalar_input else out


def facet_differential(plm: PLMap, triangle) -> np.ndarray:
    """Constant differential of the affine piece, w.r.t. flat chart coordinates."""
    return plm.differentials[triangle]


def _triangle_grid(oversample: int) -> np.ndarray:
    """Barycentric sample weights, an oversample^2 grid folded into the triangle."""
    step = (np.arange(oversample) + 0.5) / oversample
    a, b = np.meshgrid(step, step, indexing="ij")
    a = a.ravel()
    b = b.ravel()
    flip = a + b > 1.0
    a = np.where(flip, 1.0 - a, a)
    b = np.where(flip, 1.0 - b, b)
    return np.stack([1.0 - a - b, a, b], axis=-1)  # (m^2, 3)


def _sample_points(plm: PLMap, oversample: int):
    lam = _triangle_grid(oversample)
    pts = np.einsum("gk,tkx->tgx", lam, plm.tri_source)
    vals = np.einsum("gk,tkd->tgd", lam, plm.tri_values)
    return pts, vals


def distance_c0(plm: PLMap, spec: ImmersionSpec, oversample: int = 4) -> float:
    """Sup distance max_p ||ell(p) - ell_N(p)|| over per-triangle sample grids."""
    if oversample < 1:
        raise ValueError("oversample must be at least 1")
    pts, vals = _sample_points(plm, oversample)
    smooth = spec.eval(pts)
    return float(np.linalg.norm(smooth - vals, axis=-1).max())


def distance_c1(plm: PLMap, spec: ImmersionSpec, oversample: int = 4) -> float:
    """C1 distance: distance_c0 plus the sup operator norm of d ell - d ell_N."""
    if oversample < 1:
        raise ValueError("oversample must be at least 1")
    pts, vals = _sample_points(plm, oversample)
    smooth, deriv = spec.jet(pts)
    c0 = float(np.linalg.norm(smooth - vals, axis=-1).max())
    diff = deriv - plm.differentials[:, None, :, :]
    sv = np.linalg.svd(diff, compute_uv=False)
    return c0 + float(sv[..., 0].max())


def pl_isotropy_residual(plm: PLMap) -> np.ndarray:
    """Per-triangle |omega(B - A, C - A)|; all zero iff the PL map is isotropic."""
    a = plm.tri_values[:, 0]
    b = plm.tri_values[:, 1]
    c = plm.tri_values[:, 2]
    return np.abs(omega(b - a, c - a))


def triangle_liouville(plm: PLMap) -> np.ndarray:
    """Liouville integral around every triangle boundary (= residual / 2)."""
    return liouville_polygon(plm.tri_values)


# -- batched segment/segment distance ----------------------------------------


def _seg_seg_distance(p0, p1, q0, q1):
    """Min distance between segments [p0,p1] and [q0,q1], batched, any dim.

    Degenerate segments (coincident endpoints) reduce to points.
    """
    d1 = p1 - p0
    d2 = q1 - q0
    r = p0 - q0
    a = np.einsum("...i,...i->...", d1, d1)
    e = np.einsum("...i,...i->...", d2, d2)
    f = np.einsum("...i,...i->...", d2, r)
    c = np.einsum("...i,...i->...", d1, r)
    b = np.einsum("...i,...i->...", d1, d2)
    denom = a * e - b * b
    safe_denom = np.where(denom > 0.0, denom, 1.0)
    s = np.where(denom > 0.0, np.clip((b * f - c * e) / safe_denom, 0.0, 1.0), 0.0)
    safe_e = np.where(e > 0.0, e, 1.0)
    t = np.where(e > 0.0, (b * s + f) / safe_e, 0.0)
    t = np.clip(t, 0.0, 1.0)
    safe_a = np.where(a > 0.0, a, 1.0)
    s = np.where(a > 0.0, np.clip((b * t - c) / safe_a, 0.0, 1.0), 0.0)
    closest1 = p0 + s[..., None] * d1
    closest2 = q0 + t[..., None] * d2
    return np.linalg.norm(closest1 - closest2, axis=-1)


# -- triangle/triangle distance ----------------------------------------------

_TRI_FEATURES = (
    (0,),
    (1,),
    (2,),
    (0, 1),
    (1, 2),
    (2, 0),
    (0, 1, 2),
)


def _tri_tri_distances(p, q, feas_tol=1e-9) -> np.ndarray:
    """Exact min distances between triangle pairs p[k], q[k], each (K, 3, d).

    For every pair of faces, the minimum-norm least-squares minimizer between
    the affine hulls counts when its barycentric coordinates are feasible
    within ``feas_tol``.  Singular values at or below max(rows, cols) * eps
    times the largest are dropped, the cutoff of ``lstsq(rcond=None)``.  The
    distance is the minimum over all 49 face pairs.  Vertex-vertex pairs are
    always feasible, so every face combination of the convex program is
    covered.  Each face pair is solved for the whole batch at once.
    """
    best = np.full(p.shape[0], np.inf)
    for fp in _TRI_FEATURES:
        for fq in _TRI_FEATURES:
            ps = p[:, fp]
            qs = q[:, fq]
            rhs = qs[:, 0] - ps[:, 0]
            mat = np.concatenate([ps[:, 1:] - ps[:, :1], qs[:, :1] - qs[:, 1:]], axis=1)
            mat = mat.transpose(0, 2, 1)  # (K, d, m), m = 0 for two vertices
            rcond = np.finfo(float).eps * max(mat.shape[1:])
            sol = np.einsum("kmd,kd->km", np.linalg.pinv(mat, rcond=rcond), rhs)
            cand = np.linalg.norm(np.einsum("kdm,km->kd", mat, sol) - rhs, axis=-1)
            for coeffs in (sol[:, : len(fp) - 1], sol[:, len(fp) - 1 :]):
                if coeffs.shape[1]:
                    infeasible = (coeffs.min(axis=1) < -feas_tol) | (
                        coeffs.sum(axis=1) > 1.0 + feas_tol
                    )
                    cand[infeasible] = np.inf
            best = np.minimum(best, cand)
    return best


# -- uniform-grid broadphase --------------------------------------------------


def _box_close_pairs(lo: np.ndarray, hi: np.ndarray, threshold: float):
    """Index arrays (i, j), i < j, sorted, of the boxes within ``threshold``.

    Boxes (rows of lo, hi in R^d) come within ``threshold`` when the norm of
    their per-axis gap max(0, lo_i - hi_j, lo_j - hi_i) is at most it.  The
    boxes, inflated by ``threshold``, are binned into a uniform grid whose
    cell edge is the largest inflated extent, so each box touches at most two
    cells per axis (three only through rounding).  Pairs that share a cell
    are deduplicated and then filtered by the exact gap norm.
    """
    count, dim = lo.shape
    if count < 2:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    glo = lo - threshold
    ghi = hi + threshold
    origin = glo.min(axis=0)
    # At most 2^20 cells per axis, whatever the box sizes; 1 for point boxes.
    reach = float((ghi.max(axis=0) - origin).max())
    edge = max(float((ghi - glo).max()), reach * 2.0**-20) or 1.0
    first = np.floor((glo - origin) / edge).astype(np.int64)
    span = np.floor((ghi - origin) / edge).astype(np.int64) - first
    boxes, cells = [], []
    for step in itertools.product(range(int(span.max()) + 1), repeat=dim):
        hit = np.nonzero((span >= step).all(axis=1))[0]
        boxes.append(hit)
        cells.append(first[hit] + np.array(step, dtype=np.int64))
    boxes = np.concatenate(boxes)
    cells = np.concatenate(cells)
    order = np.lexsort(cells.T[::-1])
    boxes = boxes[order]
    cells = cells[order]

    # Entries are now grouped by cell; pair each with the rest of its group.
    new_cell = np.ones(boxes.size, dtype=bool)
    new_cell[1:] = (cells[1:] != cells[:-1]).any(axis=1)
    starts = np.nonzero(new_cell)[0]
    ends = np.append(starts[1:], boxes.size)
    after = np.repeat(ends, ends - starts) - np.arange(boxes.size) - 1
    a = np.repeat(np.arange(boxes.size), after)
    b = a + 1 + np.arange(a.size) - np.repeat(np.cumsum(after) - after, after)
    a, b = boxes[a], boxes[b]
    key = np.sort(np.minimum(a, b) * count + np.maximum(a, b))
    key = key[np.diff(key, prepend=-1) != 0]
    i, j = key // count, key % count

    gap2 = np.zeros(key.size)
    for k in range(dim):  # one axis at a time keeps the gathers small
        gap = np.maximum(0.0, np.maximum(lo[i, k] - hi[j, k], lo[j, k] - hi[i, k]))
        gap2 += gap * gap
    close = np.sqrt(gap2) <= threshold
    return i[close], j[close]


# -- verdicts -----------------------------------------------------------------


@dataclass
class CheckResult:
    passed: bool
    witnesses: list


# Star of a quadrangulation vertex: the 8 incident triangles, described in a
# local frame where the vertex sits at index offset (0, 0).  Each entry is
# (facet offset, sub-triangle, symbolic vertex ids); apex ids are per facet.
_STAR_FACETS = {"A": (-1, -1), "B": (0, -1), "C": (-1, 0), "D": (0, 0)}
_STAR_TRIS = (
    ("D", 0, ((0, 0), (1, 0), "zD")),
    ("D", 3, ((0, 1), (0, 0), "zD")),
    ("C", 0, ((-1, 0), (0, 0), "zC")),
    ("C", 1, ((0, 0), (0, 1), "zC")),
    ("A", 1, ((0, -1), (0, 0), "zA")),
    ("A", 2, ((0, 0), (-1, 0), "zA")),
    ("B", 2, ((1, 0), (0, 0), "zB")),
    ("B", 3, ((0, 0), (0, -1), "zB")),
)
_STAR_STEPS = np.array([_STAR_FACETS[name] for name, _, _ in _STAR_TRIS])
_STAR_SUBS = np.array([sub for _, sub, _ in _STAR_TRIS])
_STAR_CORNER_STEPS = _STAR_STEPS[:, None] + CORNER_STEPS[_SUB_CORNERS[_STAR_SUBS]]


def _pair_features(ids_a, ids_b):
    """Slots of the non-shared closed faces of two triangles given vertex ids."""
    shared = set(ids_a) & set(ids_b)
    fa = [s for s in range(3) if ids_a[s] not in shared]
    fb = [s for s in range(3) if ids_b[s] not in shared]
    return fa, fb


_STAR_PAIRS = []
for _i, _j in itertools.combinations(range(len(_STAR_TRIS)), 2):
    _fa, _fb = _pair_features(_STAR_TRIS[_i][2], _STAR_TRIS[_j][2])
    _STAR_PAIRS.append((_i, _j, _fa, _fb))

_APEX_TRIS = tuple((s, ((s, "c"), ((s + 1) % 4, "c"), "z")) for s in range(4))
_APEX_PAIRS = []
for _i, _j in itertools.combinations(range(4), 2):
    _fa, _fb = _pair_features(_APEX_TRIS[_i][1], _APEX_TRIS[_j][1])
    _APEX_PAIRS.append((_i, _j, _fa, _fb))


def _segment_of(values, slots):
    """Closed face spanned by the given slots as a (possibly degenerate) segment."""
    p0 = values[:, slots[0]]
    p1 = values[:, slots[-1]]
    return p0, p1


def _star_values(plm: PLMap):
    """(F, 8, 3, d) local star triangle values and (F, 8) global triangle ids.

    Star triangle t of a vertex is sub-triangle _STAR_SUBS[t] of the facet at
    step _STAR_STEPS[t] from it; all its vertices lie in the vertex's 3x3
    neighbourhood, so every value is one lookup in ``Chart.neighbours``.
    """
    tri = plm.tri
    offsets, shifts = plm.chart.neighbours
    fi, fj = 1 + _STAR_STEPS.T
    ci, cj = 1 + np.moveaxis(_STAR_CORNER_STEPS, -1, 0)
    corners = _period_shifted(
        tri.corner_values[offsets[:, ci, cj]], shifts[:, ci, cj], tri.target_periods
    )
    apexes = _period_shifted(
        tri.apex_values[offsets[:, fi, fj]], shifts[:, fi, fj], tri.target_periods
    )
    star = np.concatenate([corners, apexes[:, :, None]], axis=2)
    return star, 4 * offsets[:, fi, fj] + _STAR_SUBS


def check_immersion(plm: PLMap, tol: float = 1e-6) -> CheckResult:
    """Local injectivity verdict for the PL map.

    Passes iff (a) every triangle differential has two singular values above
    tol times the largest differential singular value, and (b) around every
    vertex (quadrangulation vertices and apexes) the star triangles stay
    separated beyond their shared simplices: the non-shared closed faces of
    each pair keep distance above tol times the max image edge length.
    Witnesses identify offending triangles / vertex stars.
    """
    witnesses = []
    sv = np.linalg.svd(plm.differentials, compute_uv=False)
    scale_d = float(sv[:, 0].max())
    degen = np.nonzero(sv[:, 1] <= tol * scale_d)[0]
    witnesses.extend(("degenerate_triangle", int(t)) for t in degen)

    scale_g = plm.edge_scale()
    threshold = tol * scale_g

    star, tri_ids = _star_values(plm)
    for i, j, fa, fb in _STAR_PAIRS:
        p0, p1 = _segment_of(star[:, i], fa)
        q0, q1 = _segment_of(star[:, j], fb)
        dist = _seg_seg_distance(p0, p1, q0, q1)
        bad = np.nonzero(dist < threshold)[0]
        for v in bad:
            witnesses.append(
                (
                    "vertex_star",
                    int(v),
                    int(tri_ids[v, i]),
                    int(tri_ids[v, j]),
                    float(dist[v]),
                )
            )

    nfacets = plm.chart.vertex_count
    corners = plm.tri_values.reshape(nfacets, 4, 3, plm.dim)
    for i, j, fa, fb in _APEX_PAIRS:
        p0, p1 = _segment_of(corners[:, i], fa)
        q0, q1 = _segment_of(corners[:, j], fb)
        dist = _seg_seg_distance(p0, p1, q0, q1)
        bad = np.nonzero(dist < threshold)[0]
        for f in bad:
            witnesses.append(
                ("apex_star", int(f), int(f * 4 + i), int(f * 4 + j), float(dist[f]))
            )
    return CheckResult(passed=not witnesses, witnesses=witnesses)


def check_embedding(plm: PLMap, tol: float = 1e-6) -> CheckResult:
    """Global injectivity verdict (requires a map that passes check_immersion).

    Fails when two non-adjacent triangle images come within tol times the max
    edge length (exact convex distance), or when an adjacent pair overlaps
    beyond the shared simplex (non-shared closed faces within the same
    threshold).  Candidate pairs come from a uniform-grid broadphase over the
    triangle boxes; adjacent and non-adjacent pairs are each measured in one
    batch.  Witnesses are (triangle, triangle, distance) tuples sorted by
    triangle pair.
    """
    threshold = tol * plm.edge_scale()
    vals = plm.tri_values
    vids = plm.tri_vertex_ids
    i, j = _box_close_pairs(vals.min(axis=1), vals.max(axis=1), threshold)
    same = vids[i][:, :, None] == vids[j][:, None, :]  # (K, 3, 3)
    free_i = ~same.any(axis=2)
    free_j = ~same.any(axis=1)
    adjacent = ~free_i.all(axis=1)
    dist = np.full(i.size, np.inf)

    # Adjacent pairs: the segments from the first to the last non-shared slot.
    seg = np.nonzero(adjacent & free_i.any(axis=1) & free_j.any(axis=1))[0]
    ends = []
    for tri, free in ((i[seg], free_i[seg]), (j[seg], free_j[seg])):
        ends.append(vals[tri, np.argmax(free, axis=1)])
        ends.append(vals[tri, 2 - np.argmax(free[:, ::-1], axis=1)])
    dist[seg] = _seg_seg_distance(*ends)

    far = np.nonzero(~adjacent)[0]
    dist[far] = _tri_tri_distances(vals[i[far]], vals[j[far]])
    witnesses = [
        (int(i[k]), int(j[k]), float(dist[k])) for k in np.nonzero(dist < threshold)[0]
    ]
    return CheckResult(passed=not witnesses, witnesses=witnesses)


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
    faces = plm.tri_vertex_ids

    lines = [f"symmesh {verts.shape[1]} {verts.shape[0]} {faces.shape[0]}"]
    for row in verts:
        lines.append("v " + " ".join(f"{x:.17g}" for x in row))
    for a, b, c in faces + 1:
        lines.append(f"f {a} {b} {c}")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")

    if projection is not None:
        plines = []
        for row in verts[:, proj]:
            plines.append("v " + " ".join(f"{x:.17g}" for x in row))
        for a, b, c in faces + 1:
            plines.append(f"f {a} {b} {c}")
        with open(f"{path}.obj", "w") as handle:
            handle.write("\n".join(plines) + "\n")


def load_mesh(path):
    """Parse a symmesh file (or plain v/f triangle file) back into arrays.

    Returns (dim, vertices, faces) with 0-based face indices; validates the
    header counts and face index ranges.
    """
    verts = []
    faces = []
    dim = None
    counts = None
    with open(path) as handle:
        for line in handle:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "symmesh":
                dim = int(parts[1])
                counts = (int(parts[2]), int(parts[3]))
            elif parts[0] == "v":
                verts.append([float(x) for x in parts[1:]])
            elif parts[0] == "f":
                faces.append([int(x) - 1 for x in parts[1:]])
    verts = np.array(verts)
    faces = np.array(faces, dtype=np.int64)
    if dim is None:
        dim = verts.shape[1] if verts.size else 0
    if verts.size and verts.shape[1] != dim:
        raise ValueError("vertex line width disagrees with header")
    if counts is not None and (verts.shape[0], faces.shape[0]) != counts:
        raise ValueError("header counts disagree with records")
    if faces.size and (faces.min() < 0 or faces.max() >= verts.shape[0]):
        raise ValueError("face indices out of range")
    return dim, verts, faces
