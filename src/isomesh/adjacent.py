"""Pairs of triangles that share a vertex: their enumeration, their distance
beyond the shared simplex, and the screen in front of that distance.

Triangles are rows of a (T, 3, d) value array with a (T, 3) table of vertex
ids; a pair is given by incidence codes 3 t + slot.  ``_vertex_pairs`` lists
every pair that shares an id, ``_adjacent_distances`` measures a pair
beyond its shared vertex or edge, and ``_Screen`` clears, at one dot product
each, the pairs that two lower bounds put at or above the threshold, so that
only the others are measured.
"""

import numpy as np

from .linalg import dot


#: Pairs handled at once (half as many in the screen, and a third as many
#: triangles, so as many incidences, for the cone table); bounds the
#: temporaries of the broadphase, its shared-id mask, the adjacent-pair
#: predicate and its screen.
_PAIR_BLOCK = 1 << 14


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


def _slot_after(codes, step):
    """Incidence codes of the slot ``step`` places on in the same triangle."""
    return codes - codes % 3 + (codes % 3 + step) % 3


def _vertex_pairs(vids):
    """Every pair i < j of triangles that share a vertex id, once, in blocks
    (u, w) of (2, K) int32 incidence codes 3 t + slot, row 0 in triangle i,
    row 1 in j.  u is the first slot of the smallest id the two share; w that
    of the next shared id, or -1 where they share only u.  The (id, triangle)
    incidences are sorted on the id, and step k (one block) pairs each with
    the one k places on while the id holds; a pair that also shares a smaller
    id (an edge) is left to that id."""
    flat = vids.ravel().astype(np.int32)
    codes = np.argsort(flat, kind="stable").astype(np.int32)
    ids = flat[codes]
    # A triangle that holds an id twice (N <= 2) keeps its first incidence.
    once = np.append(True, (np.diff(ids) != 0) | (np.diff(codes // 3) != 0))
    ids, codes = ids[once], codes[once]
    others = [flat[_slot_after(codes, step)] for step in (1, 2)]
    for k in range(1, ids.size):
        block = _vertex_pairs_at(ids, codes, others, k)
        if block is None:
            return
        yield block


def _vertex_pairs_at(ids, codes, others, k):
    """Step k of ``_vertex_pairs``, or None past the largest vertex star."""
    e = np.nonzero(ids[k:] == ids[:-k])[0]
    if not e.size:
        return None
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


def _adjacent_distances(vals, u, w, threshold):
    """Distances between triangles sharing a vertex beyond their shared
    simplex; exact below ``threshold``, lower bounds at or above it.  The
    pairs are given by incidence codes (u, w) as ``_vertex_pairs`` gives
    them.

    u is the smallest vertex id the two share, w the next if any, each read
    at its first slot; both triangles are taken relative to their own value
    at u, which puts them in one lift.  A vertex-sharing pair (u, a, b),
    (u, c, d) scores min(dist(ab, T2), dist(cd, T1)): a ray from u through a
    common point leaves the intersection on ab or cd.  An edge-sharing pair
    (u, w, a), (u, w, c) scores min(dist(a, T2), dist(c, T1), dist(ua, wc),
    dist(wa, uc)): such triangles meet beyond uw only folded onto one side of
    it in a common plane.  Both scores are zero exactly when the pair meets.

    ``check_immersion`` calls it only for the pairs that ``_Screen`` cannot
    prove at or above the threshold t by one of two bounds:

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
    - edge pairs, with e = w - u in T1: let nu be the unit normal of uw in a
      triangle's plane, towards its third vertex, and h that vertex's
      distance from line uw.  A point s e + r nu1 of T1 is at least r
      sin(phi) from the half-plane of T2 (r when nu1.nu2 <= 0), phi =
      angle(nu1, nu2).  With these heights h' = h sin(phi) in place of the
      plane distances, dist(a, T2) >= h'_a, dist(c, T1) >= h'_c, and the
      cross terms clear as in the exact path below, by |w - u| h'_a h'_c >
      2 t (h'_a h'_c + l_a h'_c + l_c h'_a), which also gives h' > 2 t.
      When T2's value at w differs (a lift), T2 is measured with T1's: that
      moves no point of T2 by more than the difference, which t gains.

    Rounding: t is raised by delta = 2^-36 (t + L), L the largest edge
    length of the map, and every H and h is lowered by delta.  That covers
    the rounding of this function, which measures distances between
    computed points (never more than a few eps L below the true ones), and
    of the screen's own lengths.  Cosine comparisons carry a slack of
    2^-30.  An incidence is screened only when it is well conditioned: at a
    vertex cos(alpha), sin(alpha) >= 2^-8, H >= 2^-8 times its longer edge
    and t / H <= 1 - 2^-8; at an edge h >= 2^-8 l.  Then every computed unit
    vector, cosine, sine and height is within about 2^12 eps (times the
    lengths) of its exact value, far inside both slacks.  A NaN or inf value
    never clears.
    """
    flat = vals.reshape(-1, vals.shape[-1])  # one row per (triangle, slot)
    out = np.empty(u.shape[1])
    for lo in range(0, u.shape[1], _PAIR_BLOCK):
        cu, cw = u[:, lo : lo + _PAIR_BLOCK], w[:, lo : lo + _PAIR_BLOCK]
        edge = cw[0] >= 0
        a, b = [], []  # values at the slot of w (or the next) and the last one, less u
        for c, d, rel in zip(cu, cw, (a, b)):
            base = c - c % 3
            d = np.where(edge, d, base + (c - base + 1) % 3)
            origin = np.take(flat, c, axis=0)
            rel += [np.take(flat, x, axis=0) - origin for x in (d, 3 * base + 3 - c - d)]
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


#: The screen's rounding allowances (``_adjacent_distances`` gives the
#: bounds): slack on cosines, relative slack on lengths, and the margin of
#: conditioning an incidence needs to be screened at all.
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
    """Mask of the edge pairs (codes u, w) the half-plane bound clears."""
    rel = []
    for c, d in zip(u, w):
        origin = np.take(flat, c, axis=0)
        rel += [np.take(flat, x, axis=0) - origin for x in (d, 3 * (c - c % 3) + 3 - c - d)]
    e, a, e2, c = rel
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
    """The screen in front of ``_adjacent_distances`` (which gives its bounds)
    for triangle values ``vals``, a threshold and the largest edge length
    ``scale``: the cone table is built once, and a vertex pair then costs one
    dot product of two of its rows."""

    def __init__(self, vals, threshold: float, scale: float):
        self.vals = vals
        self.threshold = threshold
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

    def distances(self, u, w):
        """(rows, dist): ``_adjacent_distances`` of the pairs not cleared."""
        rows = np.nonzero(~self.cleared(u, w))[0]
        return rows, _adjacent_distances(self.vals, u[:, rows], w[:, rows], self.threshold)
