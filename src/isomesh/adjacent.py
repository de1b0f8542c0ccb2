"""Exact triangle distances, and the pairs of triangles that share a vertex:
their listing by star, their distance beyond the shared simplex, and the
sound bounds in front of that distance.

Triangles are rows of a (T, 3, d) value array with a (T, 3) table of vertex
ids; a pair is given by incidence codes 3 t + slot.  ``_tri_tri_distances``
is the one exact distance of both topology certificates.  ``_star_pairs``
lists every pair of the given stars that shares an id, and
``_adjacent_distances`` measures a pair beyond its shared vertex or edge by
that kernel on degenerate triangles.  In front of it, ``_fans_cleared``
clears whole stars whose fan, projected onto a plane, winds once with
room to spare, so that only the pairs of the other stars are listed; of
those, ``_pairs_cleared`` clears the pairs whose vertex cones, or whose
half-planes at a shared edge, lie far enough apart, and the rest are
measured.
"""

import itertools

import numpy as np

from .linalg import back_substitute, dot, thin_qr


#: Pairs handled at once (half as many in the adjacent-pair predicate, whose
#: pairs make two or four kernel rows each); bounds the temporaries of the
#: broadphase, its shared-id mask and the adjacent-pair predicate.  Also the
#: triangles (whole facets: a multiple of 4) of a block of the PL map, a half
#: or a third as many in the passes that form spokes or edges.
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
    ``vids``, row r of ``codes`` every incidence code 3 t + slot of one id,
    as the columns (u, w), each (2, K), that ``_adjacent_distances`` takes:
    u at the row's id, w at the next id the pair shares (-1 if none), row 0
    in the smaller triangle.  A pair that shares more than the row's id is
    listed by its smallest shared id only.  Ids are translation-equivariant,
    so every row repeats row 0's pattern of which slots share ids; an entry
    pairs two triangles at the first slot of the row's id (a triangle holds
    an id twice at N <= 2), and the rest is plain compares per row."""
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
    r, k = np.nonzero(flat[codes[:, :1]] < np.minimum(*other))
    alone = codes[:, vertex].swapaxes(0, 1).reshape(2, -1)
    more = codes[r, edge[:, k]]
    u = np.concatenate([alone, more], axis=1)
    w = np.concatenate([np.full_like(alone, -1), more - more % 3 + pick[:, r, k]], axis=1)
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


# -- the planar star test ----------------------------------------------------


#: The rounding allowances of the planar star test and the cone bound
#: (``_fans_cleared`` and ``_pairs_cleared`` give the bounds): slack
#: on sines and cosines, relative slack on lengths, and the margin of
#: conditioning a star or a cone needs to be tested at all.
_COS_SLACK = 2.0**-30
_LEN_SLACK = 2.0**-36
_MARGIN = 2.0**-8


def _fans_cleared(spokes, spread, reach, slack):
    """Mask of the stars whose every pair the planar star test clears.

    ``spokes`` (d, m, S), coordinate-major, holds the m spokes q_0 .. q_m-1
    of each of S stars in fan order, relative to the star's vertex: sector
    i is the triangle (0, q_i, q_i+1), indices mod m, and the pairs of the
    star are two sectors that share a spoke (an edge pair) or only the
    vertex (a vertex pair).  ``reach`` t is the threshold raised by
    ``slack`` delta = 2^-36 (threshold + L), L the largest edge length, so
    every spoke is at most L long.  Each star is projected onto the plane
    of q_m/2 - q_0 and q_3m/4 - q_m/4 (Gram-Schmidt).  Orthogonal
    projection never increases a distance, so a lower bound on the distance
    between projected sub-simplices bounds the terms of
    ``_adjacent_distances`` in R^d.  In the plane, with lambda and Lambda
    the shortest and longest spoke and kappa the least cross product q_i x
    q_i+1, a star clears when:

    - The fan winds once: kappa > 0, so every sector has an angle theta_i
      in (0, pi), and exactly one sector turns from y < 0 to y >= 0.  Such
      a sector is the one that crosses the ray through e_1, so the angles
      sum to 2 pi times that count, and the sectors tile the full angle
      once.
    - Vertex pairs: the score is min(dist(ab, T2), dist(cd, T1)), ab the far
      edge q_i q_i+1 of one sector and T2 another sector that shares only
      the vertex.  The two are separated, both ways round, by at least one
      whole sector k, so the direction of a point p of ab is at least
      theta_k from that of any point x of T2, and |p - x| >= |p| sin(min(
      theta_k, pi / 2)): the distance from p to the ray through x, or |p|
      past a right angle.  The line of ab is H_i = kappa_i / |q_i+1 - q_i|
      >= kappa / (2 Lambda) = H from the vertex, so |p| >= H, and
      sin(min(theta_k, pi / 2)) >= sin(theta_k) = kappa_k / (|q_k| |q_k+1|)
      >= kappa / Lambda^2 = s.  Both terms are at least H s; the test asks
      (H - delta) (s - 2^-30) > t.
    - Edge pairs: sectors k - 1 and k share the spoke q_k, and their third
      vertices lie on opposite sides of its line (sin(phi) = 1 in
      ``_edges_cleared``), at heights at least h = kappa / Lambda, with l_a,
      l_c <= 3 Lambda and |q_k| >= lambda.  So ``_edges_cleared``'s bound
      holds when lambda h' > 2 t (h' + 6 Lambda), h' = h - delta.

    ``spread`` (S,) moves the measured triangles: a triangle whose spokes
    are the fan's moved by at most spread / 2 (a spoke the mean of two
    copies), on either side of a pair, changes every term by at most
    ``spread``, which the reach t gains; that also covers measuring an edge
    pair from its other shared vertex.

    Rounding.  The predicate's: ``_tri_tri_distances`` reads a distance as
    the norm of a right-hand side projected by twice-orthogonalised
    Gram-Schmidt, which is backward stable.  It is the residual of columns
    and right-hand side moved by a few eps L (the points of a pair lie
    within 2 L of u), at coordinates checked feasible, so never more than a
    few eps L below the true distance: far inside delta, by which t is
    raised.  The test's own: a star is tested only when the second axis
    keeps 2^-8 of its length, so the computed basis is orthonormal to about
    2^10 eps and lengthens no distance by more than that share of 2 L,
    inside delta.  In that basis every coordinate is within about 2^3 eps
    Lambda of its exact value, and every cross product and squared length
    within about 2^5 eps Lambda^2.  So H and h are within about 2^5 eps L,
    inside the delta by which they are lowered, and s within about 2^6 eps,
    inside the 2^-30 by which it is lowered; lambda, at least kappa /
    Lambda, is within a share 2^-16 of itself, inside the factor 2 of the
    edge test.  The margin kappa >= 2^-16 Lambda^2 keeps every sector's
    sine at least 2^-16, far above both errors: the computed kappa > 0
    proves every exact kappa_i > 0, and a y can round across 0 only for a
    spoke within 2^-34 of the axis, whose neighbours lie in opposite
    half-planes, so its crossing moves to the next sector and is neither
    lost nor doubled.  A NaN or inf value never clears.
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
        ok &= kappa >= _MARGIN * _MARGIN * longest * longest
        reach = reach + spread
        height = kappa / longest
        ok &= (0.5 * height - slack) * (height / longest - _COS_SLACK) > reach  # H s
        height -= slack
        ok &= shortest * height > 2.0 * reach * (height + 6.0 * longest)
    return ok


# -- the pair bounds for the stars left -----------------------------------------


def _cones(tris, reach, slack):
    """The cones at the three slots of triangles ``tris`` (K, 3, dim): unit
    bisectors n (dim, K, 3), and cos(gamma), sin(gamma) (K, 3), gamma =
    alpha + asin(reach / (H - slack)), alpha the half-aperture and H the
    distance from the vertex to the line of the far edge.  An incidence
    that is not well conditioned, or has gamma >= pi / 2, gets a NaN
    cosine, so no pair with it clears."""
    after, before = [1, 2, 0], [2, 0, 1]
    near = np.ascontiguousarray(tris.transpose(1, 2, 0))  # (3, dim, K)
    edges = near.take(after, axis=0) - near  # edge s from slot s to s + 1
    length2 = (edges * edges).sum(axis=1)
    length = np.sqrt(length2)
    unit = edges / length[:, None]
    n = unit - unit.take(before, axis=0)  # the cone at slot s spans edge s, -edge s-1
    cos_a = 0.5 * np.sqrt((n * n).sum(axis=1))
    sin_a = np.sqrt(1.0 - np.minimum(cos_a * cos_a, 1.0))
    n /= 2.0 * cos_a[:, None]
    turn = (edges * edges.take(after, axis=0)).sum(axis=1)  # H at slot s: to edge s + 1
    height = np.sqrt(np.maximum(length2 - turn * turn / length2.take(after, axis=0), 0.0))
    x = reach / (height - slack)
    cos_b = np.sqrt(1.0 - x * x)
    cos_g = cos_a * cos_b - sin_a * x
    ok = (np.minimum(cos_a, sin_a) >= _MARGIN) & (x <= 1.0 - _MARGIN) & (cos_g > 0.0)
    ok &= (height >= _MARGIN * np.maximum(length, length.take(before, axis=0))) & (height > slack)
    rows = (n.transpose(1, 2, 0), np.where(ok, cos_g, np.nan).T, (sin_a * cos_b + cos_a * x).T)
    return tuple(np.ascontiguousarray(r) for r in rows)


def _edges_cleared(flat, u, w, reach, slack):
    """Mask of the edge pairs (codes u, w) that the half-plane bound clears.

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
    more than the difference, which the reach t gains.  Rounding is as in
    ``_pairs_cleared``: each h is lowered by delta, and an edge counts only
    when h >= 2^-8 l at both sides.
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


def _pairs_cleared(flat, u, w, reach, slack):
    """Mask of the pairs (u, w), as ``_adjacent_distances`` takes them, that
    one of two bounds clears, at ``reach`` t and ``slack`` delta as in
    ``_fans_cleared``: for the stars the planar test leaves.  A star that no
    plane shows as a fan (a thin torus's, say) still has most of its pairs
    far apart in angle.

    - Vertex pairs: every point of T1 - u lies within the half-aperture
      alpha1 of the unit bisector n1 of its cone at u (``_cones``), and
      every point of its far edge ab is at least H1 = dist(u, line ab) from
      u.  So a point p of ab and any q of T2 are theta >= angle(n1, n2) -
      alpha1 - alpha2 apart as seen from u (spherical triangle inequality),
      and |p - q| >= H1 sin(min(theta, pi / 2)); likewise for cd.  The
      score min(dist(ab, T2), dist(cd, T1)) is then at least t when
      angle(n1, n2) > gamma1 + gamma2, gamma = alpha + asin(t / H), each
      below pi / 2, which reads n1.n2 < cos(gamma1 + gamma2) in cosines.
    - Edge pairs: the heights of the third vertices over the two
      half-planes at the shared edge, as ``_edges_cleared`` proves.

    Rounding: as in ``_fans_cleared``, t is raised by delta, which covers
    the predicate's rounding, and every H and h is lowered by it; the
    cosines carry a slack of 2^-30.  A cone counts only when it is well
    conditioned: cos(alpha), sin(alpha) >= 2^-8, H >= 2^-8 times its longer
    edge and t / H <= 1 - 2^-8.  Then every computed unit vector, cosine,
    sine and height is within about 2^12 eps (times the lengths) of its
    exact value, far inside both slacks.  A NaN or inf value never clears.
    """
    out = np.empty(u.shape[1], dtype=bool)
    vertex, edge = np.flatnonzero(w[0] < 0), np.flatnonzero(w[0] >= 0)
    at = np.zeros(len(flat) // 3, dtype=np.intp)  # a cone serves many pairs: form each once
    at[u[:, vertex] // 3] = 1
    tris = np.flatnonzero(at)
    at[tris] = 3 * np.arange(len(tris))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        n, cos, sin = _cones(flat.reshape(-1, 3, flat.shape[-1])[tris], reach, slack)
        n, cos, sin = n.reshape(len(n), -1), cos.ravel(), sin.ravel()
        for lo in range(0, len(vertex), _PAIR_BLOCK):
            codes = u[:, vertex[lo : lo + _PAIR_BLOCK]]
            a, b = at[codes // 3] + codes % 3
            dots = n[0, a] * n[0, b]
            for k in range(1, len(n)):
                dots += n[k, a] * n[k, b]
            out[vertex[lo : lo + _PAIR_BLOCK]] = dots < cos[a] * cos[b] - sin[a] * sin[b] - _COS_SLACK
        for lo in range(0, len(edge), _PAIR_BLOCK):
            rows = edge[lo : lo + _PAIR_BLOCK]
            out[rows] = _edges_cleared(flat, u[:, rows], w[:, rows], reach, slack)
    return out
