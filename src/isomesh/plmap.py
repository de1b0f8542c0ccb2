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

Topology checks are tolerance-based floating point, against tol * scale.
One predicate, ``_adjacent_distances``, judges pairs of triangles that share
a vertex id: all of them (from sorting ``tri_vertex_ids``) for immersion, the
adjacent candidates of a uniform-grid broadphase over the triangle boxes for
embedding.  Other candidates get exact convex distances over barycentric
coordinates, one batched thin QR per number of unknowns (not the normal
equations, which misjudge nearly parallel crossing edges).  NaN fails.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .density import CORNER_STEPS
from .immersion import ImmersionSpec
from .linalg import back_substitute, dot, thin_qr
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
        self.differentials = w @ inv

    @property
    def chart(self):
        return self.tri.chart

    @property
    def triangle_count(self) -> int:
        return self.tri_values.shape[0]

    @property
    def dim(self) -> int:
        return self.tri.dim

    def edge_scale(self) -> float:
        """Max finite image edge length, the geometric scale for tolerance tests."""
        edges = np.roll(self.tri_values, -1, axis=1) - self.tri_values
        lengths = np.linalg.norm(edges, axis=-1)
        return float(lengths.max(initial=0.0, where=np.isfinite(lengths)))


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


def _operator_norm(mat) -> np.ndarray:
    """Largest singular values of (..., d, 2) matrices [x y], in closed form:
    the root of the larger eigenvalue of the Gram matrix [[xx, xy], [xy, yy]]."""
    x, y = mat[..., 0], mat[..., 1]
    xx, yy, xy = dot(x, x), dot(y, y), dot(x, y)
    return np.sqrt(0.5 * (xx + yy + np.hypot(xx - yy, 2.0 * xy)))


def distance_c1(plm: PLMap, spec: ImmersionSpec, oversample: int = 4) -> float:
    """C1 distance: distance_c0 plus the sup operator norm of d ell - d ell_N,
    over the same sample grids.  A non-finite value gives NaN."""
    if oversample < 1:
        raise ValueError("oversample must be at least 1")
    pts, vals = _sample_points(plm, oversample)
    smooth, deriv = spec.jet(pts)
    c0 = float(np.linalg.norm(smooth - vals, axis=-1).max())
    return c0 + float(_operator_norm(deriv - plm.differentials[:, None]).max())


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
    a = dot(d1, d1)
    e = dot(d2, d2)
    f = dot(d2, r)
    c = dot(d1, r)
    b = dot(d1, d2)
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


_TRI_FEATURES = ((0,), (1,), (2,), (0, 1), (1, 2), (2, 0), (0, 1, 2))

# Face pairs (fp, fq) by unknown count m = (|fp| - 1) + (|fq| - 1), 9, 18, 15,
# 6 and 1 of them: tables (m + 1, G) of the columns p_k - p_0, q_0 - q_k and
# the right-hand side q_0 - p_0 (last), v_a - v_b stored as 6 a + b over the
# stacked vertices v = (p_0, p_1, p_2, q_0, q_1, q_2).
_FACE_PAIRS = [[] for _ in range(5)]
for _fp, _fq in itertools.product(_TRI_FEATURES, repeat=2):
    _p0, _q0 = _fp[0], 3 + _fq[0]
    _cols = [6 * k + _p0 for k in _fp[1:]] + [6 * _q0 + 3 + k for k in _fq[1:]]
    _FACE_PAIRS[len(_cols)].append(_cols + [6 * _q0 + _p0])
_FACE_PAIRS = [np.array(group).T for group in _FACE_PAIRS]


def _tri_tri_distances(p, q, feas_tol=1e-9) -> np.ndarray:
    """Exact min distances between triangle pairs p[k], q[k], each (K, 3, d).

    For every pair of faces, the least-squares minimizer between the affine
    hulls counts when its barycentric coordinates are feasible within
    ``feas_tol``; the distance is the least over the 49 face pairs.
    Vertex-vertex pairs are plain norms.  The face pairs with m >= 1
    unknowns are solved together by one ``thin_qr`` of [columns | right-hand
    side]: back-substitution gives the coordinates, the norm of the
    projected right-hand side the distance.  A face pair with a column whose projected
    norm is at most max(d, m) eps times the largest column norm (the
    relative cutoff of ``lstsq(rcond=None)``) is rank-deficient and dropped:
    an extreme point of the closest-pair set lies on a full-rank face pair.
    A pair with a non-finite value comes out NaN.
    """
    verts = np.concatenate([p, q], axis=1).transpose(1, 0, 2)  # (6, K, d)
    diffs = (verts[:, None] - verts[None]).reshape((36,) + verts.shape[1:])
    lens = np.sqrt(dot(diffs, diffs))
    best = lens[_FACE_PAIRS[0][0]].min(axis=0)
    for m, group in enumerate(_FACE_PAIRS[1:], start=1):
        cols = diffs[group]  # (m + 1, G, K, d), overwritten by Q
        cutoff = max(p.shape[-1], m) * np.finfo(float).eps * lens[group[:m]].max(axis=0)
        r = thin_qr(cols, m, cutoff)
        x = back_substitute(r, m)
        on_p = group[:m, :, None] < 18  # columns p_k - p_0: 6 a + b with a < 3
        drop = (r[range(m), range(m)] == 0.0).any(axis=0) | (x.min(axis=0) < -feas_tol)
        for side in (on_p, ~on_p):
            drop |= (x * side).sum(axis=0) > 1.0 + feas_tol
        dist = np.sqrt(dot(cols[m], cols[m]))
        best = np.minimum(best, np.where(drop, np.inf, dist).min(axis=0))
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


def _vertex_pairs(vids):
    """(v, i, j): every pair i < j of triangles that share a vertex id, once,
    with v the smallest id they share.  The (id, triangle) incidences are
    sorted on the id, and step k pairs each with the one k places on while
    the id holds; a pair that also shares a smaller id (an edge) is left to
    that id."""
    flat = vids.ravel()
    slots = np.argsort(flat, kind="stable")
    ids, tris = flat[slots], slots // 3
    # A triangle that holds an id twice (N <= 2) keeps one incidence of it.
    once = np.append(True, (np.diff(ids) != 0) | (np.diff(tris) != 0))
    ids, tris, slots = ids[once], tris[once], slots[once]
    x1, x2 = (flat[3 * tris + (slots + step) % 3] for step in (1, 2))  # the other ids
    pairs = [(ids[:0],) * 3]
    for k in range(1, ids.size):
        e = np.nonzero(ids[k:] == ids[:-k])[0]
        if not e.size:
            break
        f = e + k
        lower = np.zeros(e.size, dtype=bool)
        for x in (x1[e], x2[e]):
            lower |= (x < ids[e]) & ((x == x1[f]) | (x == x2[f]))
        pairs.append((ids[e[~lower]], tris[e[~lower]], tris[f[~lower]]))
    return [np.concatenate(column) for column in zip(*pairs)]


def _far_side_distances(x, e, gx, ge, m, edge, threshold):
    """Distances from the far side of T1 = (0, x1, x2), the segment x1 x2 or
    (where ``edge`` holds) the point x2, to T2 = (0, e1, e2).

    gx = (x1.x1, x1.x2, x2.x2) and ge are the Gram entries, m[k][l] =
    x_k . e_l.  They give the distance to T2's plane, a lower bound whose
    square is off by at most ``slack`` ~ eps (tr^2 / det) |x|^2.  Rows below
    ``threshold`` within the slack get the exact distance: the plane distance
    where its foot lies in T2, else the least to T2's edges.  Also returns a
    lower bound on the plane distance.
    """
    g11, g12, g22 = ge
    det = g11 * g22 - g12 * g12
    inv = 1.0 / np.where(det > 0.0, det, 1.0)
    # Plane coordinates G^-1 c of y0 = x1 (x2 on edges) and y1 = x2.
    c = [[np.where(edge, m[1][k], m[0][k]) for k in (0, 1)], m[1]]
    lam = [((g22 * c1 - g12 * c2) * inv, (g11 * c2 - g12 * c1) * inv) for c1, c2 in c]
    yy = np.where(edge, gx[2], gx[0]), np.where(edge, gx[2], gx[1]), gx[2]
    # Off-plane |r0|^2, r0.r1, |r1|^2; then min of |r0 + s (r1 - r0)|^2, s in [0, 1].
    n00, n01, n11 = (
        yy[k] - lam[p][0] * c[q][0] - lam[p][1] * c[q][1]
        for k, (p, q) in enumerate(((0, 0), (0, 1), (1, 1)))
    )
    dd = n00 - 2.0 * n01 + n11
    s = np.clip((n00 - n01) / np.where(dd > 0.0, dd, 1.0), 0.0, 1.0)
    gap2 = n00 - 2.0 * s * (n00 - n01) + s * s * dd
    slack = 64.0 * np.finfo(float).eps * (g11 + g22) ** 2 * inv * (yy[0] + yy[2])
    slack[det <= 0.0] = np.inf
    dist = np.sqrt(np.maximum(gap2, 0.0))
    near = np.nonzero(gap2 < threshold * threshold + slack)[0]
    if near.size:
        e1, e2, y1 = e[0][near], e[1][near], x[1][near]
        y0 = np.where(edge[near, None], y1, x[0][near])
        r0, r1 = (y - a[near, None] * e1 - b[near, None] * e2 for y, (a, b) in zip((y0, y1), lam))
        diff = r1 - r0
        t = np.clip(-dot(r0, diff) / np.maximum(dot(diff, diff), np.finfo(float).tiny), 0.0, 1.0)
        gap = r0 + t[:, None] * diff
        la, mu = ((1.0 - t) * a[near] + t * b[near] for a, b in zip(*lam))
        inside = (det[near] > 0.0) & (la >= 0.0) & (mu >= 0.0) & (la + mu <= 1.0)
        zero = np.zeros_like(e1)
        edges = [_seg_seg_distance(y0, y1, p, q) for p, q in ((zero, e1), (e1, e2), (e2, zero))]
        dist[near] = np.where(inside, np.sqrt(dot(gap, gap)), np.min(edges, axis=0))
    return dist, np.sqrt(np.maximum(gap2 - slack, 0.0))


#: Adjacent pairs measured at once; bounds the temporaries of the predicate.
_PAIR_BLOCK = 1 << 14


def _adjacent_distances(vals, vids, i, j, threshold):
    """Distances between triangles i[k], j[k] beyond their shared simplex;
    exact below ``threshold``, lower bounds at or above it.

    u is the smallest vertex id the two share, w the next if any, each read
    at its first slot; both triangles are taken relative to their own value
    at u, which puts them in one lift.  A vertex-sharing pair (u, a, b),
    (u, c, d) scores min(dist(ab, T2), dist(cd, T1)): a ray from u through a
    common point leaves the intersection on ab or cd.  An edge-sharing pair
    (u, w, a), (u, w, c) scores min(dist(a, T2), dist(c, T1), dist(ua, wc),
    dist(wa, uc)): such triangles meet beyond uw only folded onto one side of
    it in a common plane.  Both scores are zero exactly when the pair meets.
    """
    flat = vals.reshape(-1, vals.shape[-1])  # one row per (triangle, slot)
    big = np.iinfo(vids.dtype).max
    out = np.empty(i.size)
    for lo in range(0, i.size, _PAIR_BLOCK):
        tris = i[lo : lo + _PAIR_BLOCK], j[lo : lo + _PAIR_BLOCK]
        ids = [np.take(vids, t, axis=0).T.copy() for t in tris]
        shared = [np.where((c == ids[1]).any(axis=0), c, big) for c in ids[0]]
        u = np.minimum.reduce(shared)
        w = np.minimum.reduce([np.where(c > u, c, big) for c in shared])
        edge = w < big
        a, b = [], []  # values at the slot of w (or the next) and the last one, less u
        for t, (c0, c1, _), rel in zip(tris, ids, (a, b)):
            su, sw = (np.where(c0 == x, 0, np.where(c1 == x, 1, 2)) for x in (u, w))
            sw = np.where(edge, sw, (su + 1) % 3)
            base = np.take(flat, 3 * t + su, axis=0)
            rel += [np.take(flat, 3 * t + k, axis=0) - base for k in (sw, 3 - su - sw)]
        ga, gb = ((dot(x[0], x[0]), dot(x[0], x[1]), dot(x[1], x[1])) for x in (a, b))
        m = [[dot(x, y) for y in b] for x in a]
        (dist, ha), (dist_b, hc) = (
            _far_side_distances(a, b, ga, gb, m, edge, threshold),
            _far_side_distances(b, a, gb, ga, [list(col) for col in zip(*m)], edge, threshold),
        )
        np.minimum(dist, dist_b, out=dist)
        # Edge pairs also test ua against wc and wa against uc.  For p, q on
        # them at fractions s, t from u or w, |p - q| >= s h_a, t h_c (plane
        # distances; u, w lie in both planes when the values at w agree) and
        # >= |w - u| - s l_a - t l_c, l_a = 2 |a - u| + |w - u|.  So both
        # terms clear the threshold where |w - u| > threshold (1 + l_a / h_a
        # + l_c / h_c); the other edge pairs are measured.
        e = np.nonzero(edge)[0]
        span, ha, hc = np.sqrt(ga[0][e]), ha[e], hc[e]
        la, lc = 2.0 * np.sqrt(ga[2][e]) + span, 2.0 * np.sqrt(gb[2][e]) + span
        clear = span * ha * hc > 2.0 * threshold * (ha * hc + la * hc + lc * ha)
        e = e[~clear | (a[0][e] != b[0][e]).any(axis=1)]
        zero = np.zeros((e.size, vals.shape[-1]))
        ends = ((zero, a[0][e]), (a[1][e],) * 2, (b[0][e], zero), (b[1][e],) * 2)
        cross = _seg_seg_distance(*(np.concatenate(pair) for pair in ends))
        dist[e] = np.minimum(dist[e], np.minimum(cross[: e.size], cross[e.size :]))
        out[lo : lo + _PAIR_BLOCK] = dist
    return out


def _threshold(plm: PLMap, tol: float) -> float:
    """The certificates' distance threshold, tol times the max edge length."""
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    return tol * plm.edge_scale()


def check_immersion(plm: PLMap, tol: float = 1e-6) -> CheckResult:
    """Local injectivity verdict for the PL map.

    Passes iff every triangle differential has two singular values above tol
    times the largest, and every pair of triangles that shares a vertex keeps
    its distance beyond the shared simplex (``_adjacent_distances``) at or
    above tol times the max image edge length.  A pair is aligned at v, the
    smallest vertex id it shares: each triangle is measured relative to its
    own value at v.  Witnesses: ``("degenerate_triangle", t)``, then
    ``("vertex_star", v, t1, t2, dist)`` sorted by (t1, t2), v numbered as
    in ``tri_vertex_ids``.
    """
    threshold = _threshold(plm, tol)
    # Closed-form singular values of each [x y]: s_max from _operator_norm,
    # and s_max s_min = |x ^ y|, the root sum of squared minors, so
    # s_min <= tol max(s_max) reads |x ^ y| <= tol max(s_max) s_max.
    x, y = np.moveaxis(plm.differentials, -1, 0)
    a, b = np.triu_indices(plm.dim, 1)
    big = _operator_norm(plm.differentials)
    area = np.linalg.norm(x[:, a] * y[:, b] - x[:, b] * y[:, a], axis=-1)
    top = big.max(initial=0.0, where=np.isfinite(big))
    degen = np.nonzero(~(area > tol * top * big))[0]  # NaN fails
    witnesses = [("degenerate_triangle", int(t)) for t in degen]
    v, i, j = _vertex_pairs(plm.tri_vertex_ids)
    dist = _adjacent_distances(plm.tri_values, plm.tri_vertex_ids, i, j, threshold)
    bad = np.nonzero(~(dist >= threshold))[0]
    for k in bad[np.lexsort((j[bad], i[bad]))]:
        witnesses.append(("vertex_star", int(v[k]), int(i[k]), int(j[k]), float(dist[k])))
    return CheckResult(passed=not witnesses, witnesses=witnesses)


def check_embedding(plm: PLMap, tol: float = 1e-6) -> CheckResult:
    """Global injectivity verdict (requires a map that passes check_immersion).

    Fails when two triangle images come within tol times the max edge length:
    beyond their shared simplex for pairs that share a vertex
    (``_adjacent_distances``), by exact convex distance for the others.
    Candidate pairs come from a uniform-grid broadphase over the triangle
    boxes.  Witnesses are (triangle, triangle, distance), sorted by pair; a
    triangle t with a non-finite value cannot be placed and is (t, t, nan).
    """
    threshold = _threshold(plm, tol)
    vals, vids = plm.tri_values, plm.tri_vertex_ids
    finite = np.isfinite(vals).all(axis=(1, 2))
    keep = np.nonzero(finite)[0]
    lo, hi = vals[keep].min(axis=1), vals[keep].max(axis=1)
    i, j = (keep[k] for k in _box_close_pairs(lo, hi, threshold))
    adjacent = (vids[i][:, :, None] == vids[j][:, None, :]).any(axis=(1, 2))
    dist = np.empty(i.size)
    dist[adjacent] = _adjacent_distances(vals, vids, i[adjacent], j[adjacent], threshold)
    dist[~adjacent] = _tri_tri_distances(vals[i[~adjacent]], vals[j[~adjacent]])
    bad = np.nonzero(~(dist >= threshold))[0]  # NaN fails
    witnesses = [(int(i[k]), int(j[k]), float(dist[k])) for k in bad]
    witnesses += [(int(t), int(t), np.nan) for t in np.nonzero(~finite)[0]]
    return CheckResult(passed=not witnesses, witnesses=sorted(witnesses))


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
