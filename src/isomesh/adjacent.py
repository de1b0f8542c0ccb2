"""Exact triangle distances, and the pairs of triangles that share a vertex:
their star table, their distance beyond the shared simplex, and the two
tiers in front of that distance.

Triangles are rows of a (T, 3, d) value array with a (T, 3) table of vertex
ids; a pair is given by incidence codes 3 t + slot.  ``_tri_tri_distances``
is the one exact distance of both topology certificates.  ``_star_pairs``
lists every pair that shares an id, by the star of each id, and
``_adjacent_distances`` measures a pair beyond its shared vertex or edge by
that kernel on degenerate triangles.  In front of it, ``_fans_cleared``
clears whole stars whose fan, projected onto a plane, winds once with
room to spare, and ``_Screen`` clears, at one dot product each, the pairs
of the other stars that two lower bounds put at or above the threshold,
so that only the rest are measured.
"""

import itertools

import numpy as np

from .linalg import back_substitute, dot, thin_qr


#: Pairs handled at once (half as many in the screen and in the adjacent-pair
#: predicate, whose pairs make two or four kernel rows each, and a third as
#: many triangles, so as many edges, for the edges and cone rows); bounds the
#: temporaries of the broadphase, its shared-id mask, the adjacent-pair
#: predicate and its screen.  Also the triangles (whole facets: a multiple
#: of 4) of a block of the PL map.
_PAIR_BLOCK = 1 << 14


# -- triangle/triangle distance ----------------------------------------------


_TRI_FEATURES = ((0,), (1,), (2,), (0, 1), (1, 2), (2, 0), (0, 1, 2))
_SEGMENT_FEATURES = ((0,), (1,), (0, 1))  # the distinct faces of (a, b, b)


def _face_pairs(p_features, q_features):
    """Face pairs by unknown count m = (|fp| - 1) + (|fq| - 1), 0 first: tables
    (m + 1, G) of the columns p_k - p_0, q_0 - q_k and the right-hand side
    q_0 - p_0, v_a - v_b as 6 a + b over v = (p_0, p_1, p_2, q_0, q_1, q_2)."""
    groups = [[] for _ in range(5)]
    for fp, fq in itertools.product(p_features, q_features):
        p0, q0 = fp[0], 3 + fq[0]
        cols = [6 * k + p0 for k in fp[1:]] + [6 * q0 + 3 + k for k in fq[1:]]
        groups[len(cols)].append(cols + [6 * q0 + p0])
    return {m: np.array(group).T for m, group in enumerate(groups) if group}


#: The 49 face pairs of two triangles, and those of the distinct faces of a
#: segment and a triangle (21), a point (a, a, a) and a triangle (7), two
#: segments (9).
_FACE_PAIRS = _face_pairs(_TRI_FEATURES, _TRI_FEATURES)
_SEGMENT_TRIANGLE = _face_pairs(_SEGMENT_FEATURES, _TRI_FEATURES)
_POINT_TRIANGLE = _face_pairs(((0,),), _TRI_FEATURES)
_SEGMENT_SEGMENT = _face_pairs(_SEGMENT_FEATURES, _SEGMENT_FEATURES)


def _tri_tri_distances(p, q, pairs=_FACE_PAIRS) -> np.ndarray:
    """Exact min distances between triangle pairs p[k], q[k], each (K, 3, d),
    over the face pairs ``pairs`` (``_face_pairs``), all 49 by default.

    For every pair of faces, the least-squares minimizer between the affine
    hulls counts when its barycentric coordinates are feasible exactly: none
    negative, and neither triangle's sum above 1.  A minimizer on the
    boundary of a face pair is one of a lower-dimensional face pair, and
    those are always enumerated; the distance is the least over the face
    pairs.  Vertex-vertex pairs are plain norms.  The face pairs with m >= 1
    unknowns are solved together by one ``thin_qr`` of [columns | right-hand
    side]: back-substitution gives the coordinates, the norm of the
    projected right-hand side the distance.  A face pair with a column whose
    projected norm is at most max(d, m) eps times the largest column norm
    (the relative cutoff of ``lstsq(rcond=None)``) is rank-deficient and
    dropped: an extreme point of the closest-pair set lies on a full-rank
    face pair.  So (a, b, b) is the segment ab, (a, a, a) the point a, and
    their distinct faces' pairs suffice.  A non-finite value gives NaN.
    """
    verts = np.concatenate([p, q], axis=1).transpose(1, 0, 2)  # (6, K, d)
    diffs = (verts[:, None] - verts[None]).reshape((36,) + verts.shape[1:])
    lens = np.sqrt(dot(diffs, diffs))
    best = lens[pairs[0][0]].min(axis=0)
    for m, group in list(pairs.items())[1:]:
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


def _star_pairs(vids, codes):
    """The pairs in the stars ``codes`` (S, m) of triangles with vertex ids
    ``vids``, row r of ``codes`` every incidence code 3 t + slot of one id:
    (codes, vertex, edge, slots).  The entries (a, b) of ``vertex`` (2, E)
    pair triangles that share only the row's id; those of ``edge`` (2, E')
    share more, and row r of ``slots`` (2, S, E') holds the slot of their
    next shared id in each triangle, or -1 where a smaller shared id lists
    the pair.  Ids are translation-equivariant, so every row repeats row
    0's pattern of which slots share ids; an entry pairs two triangles at
    the first slot of the row's id (a triangle holds an id twice at N <=
    2), and the rest is plain compares per row."""
    flat = vids.ravel()
    ids = vids[codes[0] // 3].tolist()
    own = flat[codes[0, 0]]
    first = [i.index(own) == c % 3 for i, c in zip(ids, codes[0])]
    entries, slots = ([], []), []
    for a, b in itertools.combinations(range(codes.shape[1]), 2):
        shared = sorted(set(ids[a]) & set(ids[b]) - {own})
        if first[a] and first[b]:
            entries[bool(shared)].append((a, b))
            if shared:  # one other id or two, as two
                slots.append([(ids[a].index(i), ids[b].index(i)) for i in shared * 2][:2])
    vertex, edge = (np.array(e, dtype=np.int64).reshape(-1, 2).T for e in entries)
    slots = np.array(slots, dtype=np.int8).reshape(-1, 2, 2).T  # (2 sides, 2 ids, E')
    at = codes[:, edge[0]] - codes[:, edge[0]] % 3
    other = [flat[at + k] for k in slots[0]]  # (S, E') each
    pick = np.where(other[1] < other[0], slots[:, 1, None], slots[:, 0, None])
    keep = flat[codes[:, :1]] < np.minimum(*other)
    return codes, vertex, edge, np.where(keep, pick, np.int8(-1))


def _oriented(u, w):
    """(u, w) with row 0 in the smaller triangle (codes compare as triangles)."""
    swap = u[0] > u[1]
    return np.where(swap, u[::-1], u), np.where(swap, w[::-1], w)


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
    shared simplex, for the pairs given by incidence codes (u, w), each
    (2, K), row 0 in one triangle and row 1 in the other (w -1 if none).

    u is the smallest vertex id the two share, w the next if any, each read
    at its first slot; both triangles are taken relative to their own value
    at u, which puts them in one lift.  A vertex-sharing pair (u, a, b),
    (u, c, d) scores min(dist(ab, T2), dist(cd, T1)): a ray from u through a
    common point leaves the intersection on ab or cd.  An edge-sharing pair
    (u, w, a), (u, w, c) scores min(dist(a, T2), dist(c, T1), dist(ua, wc),
    dist(wa, uc)): such triangles meet beyond uw only folded onto one side of
    it in a common plane.  Both scores are zero exactly when the pair meets.
    Every term is one row of ``_tri_tri_distances``, with (a, b, b) for the
    segment ab and (a, a, a) for the point a, on the face pairs of its
    distinct faces; the terms of ``_PAIR_BLOCK`` / 2 pairs go to it at once,
    one call per kind of term.  A pair with a non-finite value scores NaN.
    """
    flat = vals.reshape(-1, vals.shape[-1])  # one row per (triangle, slot)
    out = np.empty(u.shape[1])
    step = _PAIR_BLOCK // 2
    for lo in range(0, u.shape[1], step):
        cu, cw = u[:, lo : lo + step], w[:, lo : lo + step]
        edge = cw[0] >= 0
        points = []
        for c, d in zip(cu, cw):
            far = _far_points(flat, c, np.where(edge, d, c - c % 3 + (c % 3 + 1) % 3))
            points += [np.zeros_like(far[0])] + far
        points = np.stack(points, axis=1)  # (K, 6, dim)
        block = out[lo : lo + step]
        block[~edge] = _term_distances(points[~edge], _TERMS[0], _SEGMENT_TRIANGLE)
        block[edge] = np.minimum(
            _term_distances(points[edge], _TERMS[1][:2], _POINT_TRIANGLE),
            _term_distances(points[edge], _TERMS[1][2:], _SEGMENT_SEGMENT),
        )
    return out


def _term_distances(points, terms, pairs):
    """Least distance over ``terms`` (n, 2, 3), triangle pairs of indices into
    each row of ``points`` (K, 6, dim), on the face pairs ``pairs``."""
    tris = points[:, terms].reshape(-1, 2, 3, points.shape[-1])
    return _tri_tri_distances(tris[:, 0], tris[:, 1], pairs).reshape(-1, len(terms)).min(axis=1)


# -- the screen ---------------------------------------------------------------


#: The screen's rounding allowances (``_Screen`` gives the bounds): slack on
#: cosines, relative slack on lengths, and the margin of conditioning an
#: incidence needs to be screened at all.
_COS_SLACK = 2.0**-30
_LEN_SLACK = 2.0**-36
_MARGIN = 2.0**-8


def _cone_rows(edges, reach, slack, out):
    """Cone rows [n, cos(gamma), sin(gamma)] of K triangles with edges (d, 3,
    K), edge s from slot s to slot s + 1, into ``out`` (d + 2, K, 3): at each
    slot the unit bisector of the cone and gamma = alpha + asin(reach / (H -
    slack)), by square roots only.  An incidence that cannot be screened, or
    has gamma >= pi / 2, holds a NaN cosine, so no pair with it clears."""
    after, before = [1, 2, 0], [2, 0, 1]
    dim = edges.shape[0]
    with np.errstate(invalid="ignore", divide="ignore"):
        length2 = (edges * edges).sum(axis=0)
        length = np.sqrt(length2)
        unit = edges / length
        n = unit - unit.take(before, axis=1)  # the cone at slot s spans edge s, -edge s-1
        cos_a = 0.5 * np.sqrt((n * n).sum(axis=0))
        sin_a = np.sqrt(1.0 - np.minimum(cos_a * cos_a, 1.0))
        n /= 2.0 * cos_a
        # H at slot s: its distance from the line of edge s + 1.
        turn = (edges * edges.take(after, axis=1)).sum(axis=0)
        height = np.sqrt(np.maximum(length2 - turn * turn / length2.take(after, axis=0), 0.0))
        x = reach / (height - slack)
        cos_b = np.sqrt(1.0 - x * x)
        cos_g = cos_a * cos_b - sin_a * x
        ok = (np.minimum(cos_a, sin_a) >= _MARGIN) & (x <= 1.0 - _MARGIN) & (cos_g > 0.0)
        ok &= height >= _MARGIN * np.maximum(length, length.take(before, axis=0))
        ok &= height > slack
        cos_g[~ok] = np.nan
        out[:dim] = n.transpose(0, 2, 1)
        out[dim] = cos_g.T
        out[dim + 1] = (sin_a * cos_b + cos_a * x).T


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


def _fans_cleared(spokes, spread, reach, slack):
    """Mask of the stars whose every pair the planar star test clears.

    ``spokes`` (d, m, S), coordinate-major, holds the m spokes q_0 .. q_m-1
    of each of S stars in fan order, relative to the star's vertex: sector
    i is the triangle (0, q_i, q_i+1), indices mod m, and the pairs of the
    star are two sectors that share a spoke (an edge pair) or only the
    vertex (a vertex pair).  Each star is projected onto the plane of
    q_m/2 - q_0 and q_3m/4 - q_m/4 (Gram-Schmidt).  Orthogonal projection
    never increases a distance, so a lower bound on the distance between
    projected sub-simplices bounds the terms of ``_adjacent_distances`` in
    R^d.  In the plane, with lambda and Lambda the shortest and longest
    spoke and kappa the least cross product q_i x q_i+1, a star clears when:

    - The fan winds once: kappa > 0, so every sector has an angle in (0,
      pi), and exactly one sector turns from y < 0 to y >= 0.  Such a sector
      is the one that crosses the ray through e_1, so the angles sum to 2 pi
      times that count, and the sectors tile the full angle once.
    - Vertex pairs: two sectors that share only the vertex are separated,
      both ways round, by at least one whole sector, so their directions are
      at least theta_min apart.  A point of a far edge is at least H_i =
      kappa_i / |q_i+1 - q_i| >= kappa / (2 Lambda) = H from the vertex,
      hence at least H sin(min(theta_min, pi / 2)) from the other sector.
      Every sine is at least s = kappa / Lambda^2, so the score
      min(dist(ab, T2), dist(cd, T1)) is at least H s: ``_Screen``'s cone
      bound where the apertures tile the plane.
    - Edge pairs: at spoke k the third vertices lie on opposite sides of the
      spoke, at heights at least h = kappa / Lambda, with l_a, l_c <= 3
      Lambda and |q_k| >= lambda, so ``_edges_cleared``'s bound with sin(phi)
      = 1 holds when lambda h' > 2 t (h' + 6 Lambda), h' = h - slack.

    ``spread`` (S,) moves the measured triangles: a triangle whose spokes
    are the fan's moved by at most spread / 2 (a spoke the mean of two
    copies), on either side of a pair, changes every term by at most
    ``spread``, which the reach t gains; that also covers measuring an edge
    pair from its other shared vertex.  Rounding is ``_Screen``'s: H and h
    are lowered by ``slack``, s by 2^-30, and a star is tested only when
    well conditioned: the second axis keeps 2^-8 of its length, and kappa
    >= 3 2^-8 Lambda^2, so that every sine is at least 3 2^-8 and h at
    least 2^-8 l.  Then every computed coordinate and cross product is
    within about 2^12 eps (times Lambda^2) of its exact value, a y that
    rounds across 0 moves its crossing to the next sector, not into a
    second one, and the computed basis, orthonormal to about 2^9 eps,
    lengthens no distance by more than that share of 2 L, inside ``slack``.
    A NaN or inf value never clears.
    """
    dim, m, _ = spokes.shape
    after = np.roll(np.arange(m), -1)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        axes = spokes[:, m // 2 :: m // 4] - spokes[:, : m // 2 : m // 4]  # (d, 2, S)
        e1, e2 = axes[:, 0], axes[:, 1]
        e1 /= np.sqrt((e1 * e1).sum(axis=0))
        full = (e2 * e2).sum(axis=0)
        e2 -= (e1 * e2).sum(axis=0) * e1
        kept = (e2 * e2).sum(axis=0)
        ok = kept >= _MARGIN * _MARGIN * full
        e2 /= np.sqrt(kept)
        x, y = e1[0] * spokes[0], e2[0] * spokes[0]
        for k in range(1, dim):
            x += e1[k] * spokes[k]
            y += e2[k] * spokes[k]
        xn, yn = x.take(after, axis=0), y.take(after, axis=0)
        ok &= ((y < 0.0) & (yn >= 0.0)).sum(axis=0) == 1
        yn *= x
        xn *= y
        yn -= xn
        kappa = yn.min(axis=0)  # the cross products q_i x q_i+1
        x *= x
        y *= y
        x += y
        shortest, longest = np.sqrt(x.min(axis=0)), np.sqrt(x.max(axis=0))
        ok &= kappa >= 3.0 * _MARGIN * longest * longest
        reach = reach + spread
        height = kappa / longest
        ok &= (0.5 * height - slack) * (height / longest - _COS_SLACK) > reach  # H s
        height -= slack
        ok &= shortest * height > 2.0 * reach * (height + 6.0 * longest)
    return ok


class _Screen:
    """The screen in front of ``_adjacent_distances`` for a threshold t and
    the largest edge length ``scale`` L: the cone rows are formed once per
    triangle (``_cone_rows``), and a vertex pair then costs one dot product
    of two of them.  A pair clears when its score is proven at or above t
    by one of two bounds:

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

    def __init__(self, threshold: float, scale: float):
        self.slack = _LEN_SLACK * (threshold + scale)
        self.reach = threshold + self.slack

    def uncleared(self, vals, cones, stars):
        """(u, w) of the pairs of ``stars`` (each as ``_star_pairs`` gives
        it) that neither bound clears, for triangle values ``vals`` and their
        cone rows ``cones`` (d + 2, 3T) by incidence code (``_cone_rows``).
        A block of stars gathers its rows once and tests every entry that
        shares one vertex at once; ``_edges_cleared`` tests the others."""
        dim = vals.shape[-1]
        flat = vals.reshape(-1, dim)
        kept = [np.empty((2, 2, 0), dtype=np.int32)]
        with np.errstate(invalid="ignore", divide="ignore"):  # NaN never clears
            for codes, (a, b), edge, slots in stars:
                step = max(_PAIR_BLOCK // 2 // codes.shape[1], 1)
                for lo in range(0, len(codes), step):
                    star = codes[lo : lo + step]
                    rows = np.take(cones, star.T, axis=1)  # (d + 2, m, stars)
                    dots = rows[0, a] * rows[0, b]
                    for k in range(1, dim):
                        dots += rows[k, a] * rows[k, b]
                    cos = rows[dim, a] * rows[dim, b] - rows[dim + 1, a] * rows[dim + 1, b]
                    left = ~(dots < cos - _COS_SLACK)
                    if left.any():
                        k, r = np.nonzero(left)
                        u = np.stack([star[r, a[k]], star[r, b[k]]])
                        kept.append(np.stack(_oriented(u, np.full_like(u, -1))))
                    listed = slots[:, lo : lo + step].reshape(2, -1)
                    keep = np.flatnonzero(listed[0] >= 0)
                    u = np.stack([star[:, e].ravel() for e in edge]).take(keep, axis=1)
                    u, w = _oriented(u, u - u % 3 + listed.take(keep, axis=1))
                    left = ~_edges_cleared(flat, u, w, self.reach, self.slack)
                    kept.append(np.stack([u[:, left], w[:, left]]))
        return np.concatenate(kept, axis=-1)
