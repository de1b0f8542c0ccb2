"""Exact triangle distances, and the pairs of triangles that share a vertex:
their enumeration, their distance beyond the shared simplex, and the screen
in front of that distance.

Triangles are rows of a (T, 3, d) value array with a (T, 3) table of vertex
ids; a pair is given by incidence codes 3 t + slot.  ``_tri_tri_distances``
is the one exact distance of both topology certificates.  ``_vertex_pairs``
lists every pair that shares an id, ``_adjacent_distances`` measures a pair
beyond its shared vertex or edge by that kernel on degenerate triangles, and
``_Screen`` clears, at one dot product each, the pairs that two lower bounds
put at or above the threshold, so that only the others are measured.
"""

import itertools

import numpy as np

from .linalg import back_substitute, dot, thin_qr


#: Pairs handled at once (half as many in the screen and in the adjacent-pair
#: predicate, whose pairs make two or four kernel rows each, and a third as
#: many triangles, so as many incidences, for the cone table); bounds the
#: temporaries of the broadphase, its shared-id mask, the vertex pairs of a
#: step, the adjacent-pair predicate and its screen.  Also the triangles
#: (whole facets: a multiple of 4) of a block of the PL map.
_PAIR_BLOCK = 1 << 14


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


def _tri_tri_distances(p, q) -> np.ndarray:
    """Exact min distances between triangle pairs p[k], q[k], each (K, 3, d).

    For every pair of faces, the least-squares minimizer between the affine
    hulls counts when its barycentric coordinates are feasible exactly: none
    negative, and neither triangle's sum above 1.  A minimizer on the
    boundary of a face pair is one of a lower-dimensional face pair, and
    those are always enumerated; the distance is the least over the 49 face
    pairs.  Vertex-vertex pairs are plain norms.  The face pairs with m >= 1
    unknowns are solved together by one ``thin_qr`` of [columns | right-hand
    side]: back-substitution gives the coordinates, the norm of the
    projected right-hand side the distance.  A face pair with a column whose
    projected norm is at most max(d, m) eps times the largest column norm
    (the relative cutoff of ``lstsq(rcond=None)``) is rank-deficient and
    dropped: an extreme point of the closest-pair set lies on a full-rank
    face pair.  So a repeated vertex drops every face it spans twice, and
    (a, b, b) is the segment ab, (a, a, a) the point a.  A pair with a
    non-finite value comes out NaN.
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
        drop = (r[range(m), range(m)] == 0.0).any(axis=0) | (x.min(axis=0) < 0.0)
        for side in (on_p, ~on_p):
            drop |= (x * side).sum(axis=0) > 1.0
        dist = np.sqrt(dot(cols[m], cols[m]))
        best = np.minimum(best, np.where(drop, np.inf, dist).min(axis=0))
    return best


# -- pairs that share a vertex ------------------------------------------------


def _slot_after(codes, step):
    """Incidence codes of the slot ``step`` places on in the same triangle."""
    return codes - codes % 3 + (codes % 3 + step) % 3


def _vertex_pairs(vids):
    """Every pair i < j of triangles that share a vertex id, once, in blocks
    (u, w) of (2, K) int32 incidence codes 3 t + slot, row 0 in triangle i,
    row 1 in j.  u is the first slot of the smallest id the two share; w that
    of the next shared id, or -1 where they share only u.  The (id, triangle)
    incidences are sorted on the id, and step k pairs each with the one k
    places on while the id holds, in blocks of at most ``_PAIR_BLOCK`` such
    incidences; a pair that also shares a smaller id (an edge) is left to
    that id."""
    flat = vids.ravel().astype(np.int32)
    codes = np.argsort(flat, kind="stable").astype(np.int32)
    ids = flat[codes]
    # A triangle that holds an id twice (N <= 2) keeps its first incidence.
    once = np.append(True, (np.diff(ids) != 0) | (np.diff(codes // 3) != 0))
    ids, codes = ids[once], codes[once]
    others = [flat[_slot_after(codes, step)] for step in (1, 2)]
    for k in range(1, ids.size):
        e = np.nonzero(ids[k:] == ids[:-k])[0]
        if not e.size:  # past the largest vertex star
            return
        for lo in range(0, e.size, _PAIR_BLOCK):
            yield _vertex_pairs_at(ids, codes, others, e[lo : lo + _PAIR_BLOCK], k)


def _vertex_pairs_at(ids, codes, others, e, k):
    """The pairs of ``_vertex_pairs`` at step k from the incidence positions
    e, each with the same id as the one k places on."""
    f = e + k
    x, y = [o[e] for o in others], [o[f] for o in others]
    shared = [(z == y[0]) | (z == y[1]) for z in x]
    alone = ~(shared[0] | shared[1])
    g = np.nonzero(~alone)[0]  # the pairs that share another id
    x, shared, uid = [z[g] for z in x], [s[g] for s in shared], ids[e[g]]
    lower = (shared[0] & (x[0] < uid)) | (shared[1] & (x[1] < uid))
    later = [s & (z > uid) & ~lower for z, s in zip(x, shared)]
    edge = later[0] | later[1]
    alone[g[~lower & ~edge]] = True  # u held twice (N <= 2)
    g, x, later = g[edge], [z[edge] for z in x], [s[edge] for s in later]
    # w is the smaller shared id past u, read at its first slot.
    wid = np.where(later[0] & (~later[1] | (x[0] < x[1])), x[0], x[1])
    cut, none = np.count_nonzero(alone), np.iinfo(np.int32).max
    u = np.empty((2, cut + g.size), dtype=np.int32)
    w = np.full_like(u, -1)
    for row_u, row_w, t in zip(u, w, (e, f)):
        c = codes[t]
        row_u[:cut], row_u[cut:] = c[alone], c[g]
        c, t = c[g], t[g]
        hits = [np.where(o[t] == wid, _slot_after(c, k), none) for k, o in zip((1, 2), others)]
        row_w[cut:] = np.minimum(*hits)
    return u, w


def _far_points(flat, c, d):
    """Values at the incidences d and at the third slot of their triangles,
    less the values at the incidences c, from the (3T, dim) values ``flat``."""
    origin = np.take(flat, c, axis=0)
    return [np.take(flat, x, axis=0) - origin for x in (d, 3 * (c - c % 3) + 3 - c - d)]


#: The terms of ``_adjacent_distances`` as triangle pairs (P, Q) of indices
#: into a pair's points (u, w, a) of T1 and (u, w, c) of T2, w the slot after
#: u in a vertex pair; a repeated index makes a segment or a point.  Vertex
#: pairs: dist(wa, T2), dist(wc, T1); edge pairs: dist(a, T2), dist(c, T1),
#: dist(ua, wc), dist(wa, uc).
_TERMS = (
    np.array([[[1, 2, 2], [3, 4, 5]], [[4, 5, 5], [0, 1, 2]]]),
    np.array(
        [
            [[2, 2, 2], [3, 4, 5]],
            [[5, 5, 5], [0, 1, 2]],
            [[0, 2, 2], [4, 5, 5]],
            [[1, 2, 2], [3, 5, 5]],
        ]
    ),
)


def _adjacent_distances(vals, u, w):
    """Exact distances between triangles sharing a vertex beyond their
    shared simplex, for the pairs given by incidence codes (u, w) as
    ``_vertex_pairs`` gives them.

    u is the smallest vertex id the two share, w the next if any, each read
    at its first slot; both triangles are taken relative to their own value
    at u, which puts them in one lift.  A vertex-sharing pair (u, a, b),
    (u, c, d) scores min(dist(ab, T2), dist(cd, T1)): a ray from u through a
    common point leaves the intersection on ab or cd.  An edge-sharing pair
    (u, w, a), (u, w, c) scores min(dist(a, T2), dist(c, T1), dist(ua, wc),
    dist(wa, uc)): such triangles meet beyond uw only folded onto one side of
    it in a common plane.  Both scores are zero exactly when the pair meets.
    Every term is one row of ``_tri_tri_distances``, with (a, b, b) for the
    segment ab and (a, a, a) for the point a; the terms of ``_PAIR_BLOCK``
    / 2 pairs go to it at once.  A pair with a non-finite value scores NaN.
    """
    flat = vals.reshape(-1, vals.shape[-1])  # one row per (triangle, slot)
    out = np.empty(u.shape[1])
    step = _PAIR_BLOCK // 2
    for lo in range(0, u.shape[1], step):
        cu, cw = u[:, lo : lo + step], w[:, lo : lo + step]
        edge = cw[0] >= 0
        points = []
        for c, d in zip(cu, cw):
            far = _far_points(flat, c, np.where(edge, d, _slot_after(c, 1)))
            points += [np.zeros_like(far[0])] + far
        points = np.stack(points, axis=1)  # (K, 6, dim)
        kinds = (~edge, edge)
        tris = np.concatenate(
            [points[k][:, t].reshape(-1, 2, 3, flat.shape[-1]) for k, t in zip(kinds, _TERMS)]
        )
        dist = _tri_tri_distances(tris[:, 0], tris[:, 1])
        split = 2 * np.count_nonzero(~edge)
        block = out[lo : lo + step]
        block[~edge] = dist[:split].reshape(-1, 2).min(axis=1)
        block[edge] = dist[split:].reshape(-1, 4).min(axis=1)
    return out


# -- the screen ---------------------------------------------------------------


#: The screen's rounding allowances (``_Screen`` gives the bounds): slack on
#: cosines, relative slack on lengths, and the margin of conditioning an
#: incidence needs to be screened at all.
_COS_SLACK = 2.0**-30
_LEN_SLACK = 2.0**-36
_MARGIN = 2.0**-8


def _cone_table(vals, reach, slack):
    """(3T, d + 2) rows [n, cos(gamma), sin(gamma)], one per incidence code
    3 t + slot: the unit bisector of the triangle's cone at that slot and
    gamma = alpha + asin(reach / (H - slack)), by square roots only.  An
    incidence that cannot be screened, or has gamma >= pi / 2, holds a NaN
    cosine, so no pair with it clears."""
    tris, _, dim = vals.shape
    table = np.empty((tris, 3, dim + 2))
    after, before = [1, 2, 0], [2, 0, 1]
    with np.errstate(invalid="ignore", divide="ignore"):
        for lo in range(0, tris, _PAIR_BLOCK // 3):
            v = vals[lo : lo + _PAIR_BLOCK // 3].transpose(1, 2, 0)  # slot, coordinate, triangle
            edges = v.take(after, axis=0) - v  # edge s runs from slot s to slot s + 1
            length2 = (edges * edges).sum(axis=1)
            length = np.sqrt(length2)
            unit = edges / length[:, None]
            n = unit - unit.take(before, axis=0)  # the cone at slot s spans edge s, -edge s-1
            cos_a = 0.5 * np.sqrt((n * n).sum(axis=1))
            sin_a = np.sqrt(1.0 - np.minimum(cos_a * cos_a, 1.0))
            n /= 2.0 * cos_a[:, None]
            # H at slot s: its distance from the line of edge s + 1.
            turn = (edges * edges.take(after, axis=0)).sum(axis=1)
            height = np.sqrt(np.maximum(length2 - turn * turn / length2.take(after, axis=0), 0.0))
            x = reach / (height - slack)
            cos_b = np.sqrt(1.0 - x * x)
            cos_g = cos_a * cos_b - sin_a * x
            ok = (np.minimum(cos_a, sin_a) >= _MARGIN) & (x <= 1.0 - _MARGIN) & (cos_g > 0.0)
            ok &= height >= _MARGIN * np.maximum(length, length.take(before, axis=0))
            ok &= height > slack
            cos_g[~ok] = np.nan
            rows = table[lo : lo + _PAIR_BLOCK // 3]
            rows[..., :dim] = n.transpose(2, 0, 1)
            rows[..., dim] = cos_g.T
            rows[..., dim + 1] = (sin_a * cos_b + cos_a * x).T
    return table.reshape(3 * tris, dim + 2)


def _edges_cleared(flat, u, w, reach, slack):
    """Mask of the edge pairs (codes u, w) the half-plane bound clears.

    With e = w - u in T1, let nu be the unit normal of uw in a triangle's
    plane, towards its third vertex (a in T1, c in T2), and h that vertex's
    distance from line uw.  A point s e + r nu1 of T1 is at least r sin(phi)
    from the half-plane of T2 (r when nu1.nu2 <= 0), phi = angle(nu1, nu2).
    With these heights h' = h sin(phi), dist(a, T2) >= h'_a and dist(c, T1)
    >= h'_c.  For the cross terms, take p on ua (or wa) and q on wc (or uc)
    at fractions s and r from u or w: |p - q| >= s h'_a and >= r h'_c (each
    is that far from the other's half-plane), and >= |w - u| - s l_a - r
    l_c, where l_a = 2 |a - u| + |w - u| bounds both edges at a, and l_c
    likewise.  So |p - q| >= t wherever |w - u| > t (1 + l_a / h'_a + l_c /
    h'_c); the mask asks |w - u| h'_a h'_c > 2 t (h'_a h'_c + l_a h'_c + l_c
    h'_a), which also gives h' > 2 t, so that all four terms of
    ``_adjacent_distances`` are at or above t.  When T2's value at w
    differs (a lift), T2 is measured with T1's: that moves no point of T2 by
    more than the difference, which the reach t gains.  ``_Screen`` gives
    the rounding slack, with which each h is lowered.
    """
    (e, a), (e2, c) = (_far_points(flat, *codes) for codes in zip(u, w))
    ee, ae, ce = dot(e, e), dot(a, e), dot(c, e)
    span = np.sqrt(ee)
    aa, cc = dot(a, a), dot(c, c)
    ha, hc = (np.sqrt(np.maximum(xx - xe * xe / ee, 0.0)) for xx, xe in ((aa, ae), (cc, ce)))
    la, lc = 2.0 * np.sqrt(aa) + span, 2.0 * np.sqrt(cc) + span
    cos_phi = (dot(a, c) - ae * ce / ee) / (ha * hc)
    sin_phi = np.sqrt(np.maximum(1.0 - cos_phi * cos_phi - _COS_SLACK, 0.0))
    sin_phi[cos_phi <= 0.0] = 1.0
    ok = (ha >= _MARGIN * la) & (hc >= _MARGIN * lc)
    ha, hc = (ha - slack) * sin_phi, (hc - slack) * sin_phi
    reach = reach + np.sqrt(dot(e - e2, e - e2))  # T2 measured with T1's value at w
    return ok & (span * ha * hc > 2.0 * reach * (ha * hc + la * hc + lc * ha))


class _Screen:
    """The screen in front of ``_adjacent_distances`` for triangle values
    ``vals``, a threshold t and the largest edge length ``scale`` L: the
    cone table is built once, and a vertex pair then costs one dot product
    of two of its rows.  A pair clears when its score is proven at or above
    t by one of two bounds:

    - vertex pairs: every point of T1 - u lies within the half-aperture
      alpha1 of the unit bisector n1 of its cone at u, and every point of ab
      is at least H1 = dist(u, line ab) from u.  So a point p of ab and any
      q of T2 are theta >= angle(n1, n2) - alpha1 - alpha2 apart as seen
      from u (spherical triangle inequality), and |p - q| >= H1 sin(min(
      theta, pi / 2)); likewise for cd.  The score is at least
      min(H1, H2) sin(min(theta, pi / 2)), which exceeds t when both H
      exceed t and angle(n1, n2) > gamma1 + gamma2, gamma = alpha +
      asin(t / H).  The screen takes each gamma below pi / 2, so the test
      reads n1.n2 < cos(gamma1 + gamma2) in cosines.
    - edge pairs: the heights of the third vertices over the two half-planes
      at the shared edge, as ``_edges_cleared`` proves.

    Rounding: t is raised by delta = 2^-36 (t + L), and every H and h is
    lowered by delta.  That covers the screen's own lengths and the
    rounding of ``_tri_tri_distances``.  That kernel reads a distance as the
    norm of a right-hand side projected by twice-orthogonalised Gram-Schmidt,
    which is backward stable: it is the residual of columns and right-hand
    side moved by a few eps L (the points of a pair lie within 2 L of u), at
    coordinates checked feasible, so never more than a few eps L below the
    true distance.  Cosine comparisons carry a slack of 2^-30.  An incidence
    is screened only when it is well conditioned: at a vertex cos(alpha),
    sin(alpha) >= 2^-8, H >= 2^-8 times its longer edge and t / H <= 1 -
    2^-8; at an edge h >= 2^-8 l.  Then every computed unit vector, cosine,
    sine and height is within about 2^12 eps (times the lengths) of its
    exact value, far inside both slacks.  A NaN or inf value never clears.
    """

    def __init__(self, vals, threshold: float, scale: float):
        self.vals = vals
        self.slack = _LEN_SLACK * (threshold + scale)
        self.reach = threshold + self.slack
        self.cones = _cone_table(self.vals, self.reach, self.slack)

    def cleared(self, u, w):
        """Mask of the pairs (codes u, w) whose score is proven at or above
        the threshold."""
        dim = self.vals.shape[-1]
        flat = self.vals.reshape(-1, dim)
        clear = np.zeros(u.shape[1], dtype=bool)
        vertex, edge = np.nonzero(w[0] < 0)[0], np.nonzero(w[0] >= 0)[0]
        with np.errstate(invalid="ignore", divide="ignore"):  # NaN never clears
            for lo in range(0, vertex.size, _PAIR_BLOCK // 2):
                rows = vertex[lo : lo + _PAIR_BLOCK // 2]
                p, q = (np.take(self.cones, c[rows], axis=0) for c in u)
                (cp, sp), (cq, sq) = p[:, dim:].T, q[:, dim:].T
                clear[rows] = dot(p[:, :dim], q[:, :dim]) < cp * cq - sp * sq - _COS_SLACK
            for lo in range(0, edge.size, _PAIR_BLOCK // 2):
                rows = edge[lo : lo + _PAIR_BLOCK // 2]
                clear[rows] = _edges_cleared(flat, u[:, rows], w[:, rows], self.reach, self.slack)
        return clear
