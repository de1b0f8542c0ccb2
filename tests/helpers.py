"""Shared construction helpers for the test suite."""

import numpy as np

from isomesh import build_chart, rotation
from isomesh.cli import DEFAULT_ROTATION
from isomesh.density import QuadMesh
from isomesh.plmap import (
    _LOCAL_CORNERS,
    _LOCAL_EDGE_INV,
    _STAR_FACETS,
    _STAR_TRIS,
    _seg_seg_distance,
)
from isomesh.symplectic import apply_j, liouville_polygon, omega


def identity_chart(n):
    return build_chart(np.eye(2), np.eye(2), n)


def rotated_chart(n, basis=None):
    basis = np.eye(2) if basis is None else basis
    return build_chart(basis, rotation(DEFAULT_ROTATION), n)


def hex_basis():
    return np.array([[1.0, 0.5], [0.0, np.sqrt(3.0) / 2.0]])


def random_mesh(chart, rng, dim=4, scale=1.0):
    values = scale * rng.standard_normal((chart.vertex_count, dim))
    return QuadMesh(chart, values)


def random_unitary_symplectic(n, rng):
    """Random orthogonal-and-symplectic matrix via a complex unitary matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :].conj()
    out = np.zeros((2 * n, 2 * n))
    out[0::2, 0::2] = q.real
    out[0::2, 1::2] = -q.imag
    out[1::2, 0::2] = q.imag
    out[1::2, 1::2] = q.real
    return out


def random_symplectic(n, rng, magnitude=0.3):
    """Random symplectic matrix as the exponential of a Hamiltonian matrix."""
    from scipy.linalg import expm

    sym = rng.standard_normal((2 * n, 2 * n)) * magnitude
    sym = 0.5 * (sym + sym.T)
    jmat = np.zeros((2 * n, 2 * n))
    for k in range(n):
        jmat[2 * k, 2 * k + 1] = -1.0
        jmat[2 * k + 1, 2 * k] = 1.0
    return expm(jmat @ sym)


def random_isotropic_plane_parallelogram(rng, dim=4):
    """Parallelogram spanning an isotropic 2-plane, at a random basepoint."""
    v1 = rng.standard_normal(dim)
    v2 = rng.standard_normal(dim)
    v2 = v2 - (omega(v1, v2) / (v1 @ v1)) * apply_j(v1)
    base = rng.standard_normal(dim)
    return np.stack([base, base + v1, base + v1 + v2, base + v2])


def random_isotropic_quadrilateral(rng, dim=4):
    """Generic non-planar quadrilateral with vanishing Liouville integral.

    The Liouville integral is affine in the last vertex with gradient
    J(A2 - A0)/2, so one correction step along that direction zeroes it.
    """
    while True:
        pts = rng.standard_normal((4, dim))
        grad = apply_j(pts[2] - pts[0])
        gg = grad @ grad
        if gg < 1e-6:
            continue
        liou = liouville_polygon(pts)
        pts[3] = pts[3] - (2.0 * liou / gg) * grad
        if abs(liouville_polygon(pts)) < 1e-12:
            return pts


def box_close_pairs_brute(lo, hi, threshold):
    """Reference all-pairs box query: (i, j), i < j, with gap norm <= threshold."""
    n = lo.shape[0]
    pairs = []
    for i in range(n - 1):
        gap = np.maximum(0.0, np.maximum(lo[i] - hi[i + 1 :], lo[i + 1 :] - hi[i]))
        close = np.nonzero(np.linalg.norm(gap, axis=-1) <= threshold)[0]
        pairs.extend((i, int(i + 1 + j)) for j in close)
    return pairs


_TRI_FACES = ((0,), (1,), (2,), (0, 1), (1, 2), (2, 0), (0, 1, 2))


def tri_tri_distance_lstsq(p, q, feas_tol=1e-9):
    """Reference distance of two triangles, one ``lstsq`` per pair of faces.

    Minimum over face pairs of the minimum-norm least-squares distance
    between their affine hulls, counted when the minimizer's barycentric
    coordinates are feasible within ``feas_tol``.
    """
    best = np.inf
    for fp in _TRI_FACES:
        for fq in _TRI_FACES:
            ps, qs = p[list(fp)], q[list(fq)]
            rhs = qs[0] - ps[0]
            cols = [ps[k] - ps[0] for k in range(1, len(fp))]
            cols += [-(qs[k] - qs[0]) for k in range(1, len(fq))]
            if not cols:
                best = min(best, float(np.linalg.norm(rhs)))
                continue
            mat = np.stack(cols, axis=-1)
            sol = np.linalg.lstsq(mat, rhs, rcond=None)[0]
            lam, nu = sol[: len(fp) - 1], sol[len(fp) - 1 :]
            if any(
                c.size and (c.min() < -feas_tol or c.sum() > 1.0 + feas_tol)
                for c in (lam, nu)
            ):
                continue
            best = min(best, float(np.linalg.norm(mat @ sol - rhs)))
    return best


def embedding_witnesses_brute(plm, tol):
    """All-pairs reference for ``check_embedding``: brute box query, then one
    distance per pair (non-shared closed faces for adjacent pairs)."""
    threshold = tol * plm.edge_scale()
    vals = plm.tri_values
    vids = plm.tri_vertex_ids
    witnesses = []
    for i, j in box_close_pairs_brute(vals.min(axis=1), vals.max(axis=1), threshold):
        shared = set(vids[i]) & set(vids[j])
        if shared:
            fa = [s for s in range(3) if vids[i][s] not in shared]
            fb = [s for s in range(3) if vids[j][s] not in shared]
            if not fa or not fb:
                continue
            dist = float(
                _seg_seg_distance(
                    vals[i][fa[0]], vals[i][fa[-1]], vals[j][fb[0]], vals[j][fb[-1]]
                )
            )
        else:
            dist = tri_tri_distance_lstsq(vals[i], vals[j])
        if dist < threshold:
            witnesses.append((i, j, dist))
    return witnesses


# -- raw-index references for the facet-neighbour table ----------------------

_CORNER_STEPS = ((0, 0), (1, 0), (1, 1), (0, 1))


def corrected_lookup(chart, values, periods, k, l):
    """Reference lookup at raw indices: canonical value plus q1 u_1 + q2 u_2."""
    x, y, q1, q2 = chart.canonical_with_shift(k, l)
    out = values[chart.offset_xy(x, y)]
    if periods is not None and periods.any():
        out = out + q1[..., None] * periods[0] + q2[..., None] * periods[1]
    return out


def corner_values_reference(chart, values, periods):
    """(F, 4, d) facet corner values, one raw lookup per corner."""
    kc, lc = chart.all_canonical()
    cols = [
        corrected_lookup(chart, values, periods, kc + dk, lc + dl)
        for dk, dl in _CORNER_STEPS
    ]
    return np.stack(cols, axis=1)


def tri_vertex_ids_reference(chart):
    """(4F, 3) sub-triangle vertex ids from raw corner offsets; apexes follow
    the F corners."""
    nfacets = chart.vertex_count
    kc, lc = chart.all_canonical()
    cids = [chart.offset_of_raw(kc + dk, lc + dl) for dk, dl in _CORNER_STEPS]
    aid = nfacets + np.arange(nfacets)
    vids = np.stack(
        [np.stack([cids[s], cids[(s + 1) % 4], aid], axis=-1) for s in range(4)],
        axis=1,
    )
    return vids.reshape(4 * nfacets, 3)


def star_values_reference(plm):
    """(F, 8, 3, d) star triangle values and (F, 8) triangle ids, looked up
    per star facet and per corner at raw indices."""
    tri = plm.tri
    chart = plm.chart
    per = tri.target_periods
    xc, yc = chart.all_canonical()
    facets = {}
    for name, (ox, oy) in _STAR_FACETS.items():
        k, l = xc + ox, yc + oy
        corners = np.stack(
            [
                corrected_lookup(chart, tri.corner_values, per, k + dk, l + dl)
                for dk, dl in _CORNER_STEPS
            ],
            axis=1,
        )
        x, y, q1, q2 = chart.canonical_with_shift(k, l)
        off = chart.offset_xy(x, y)
        apex = tri.apex_values[off] + q1[:, None] * per[0] + q2[:, None] * per[1]
        facets[name] = (corners, apex, off)
    star = np.empty((chart.vertex_count, 8, 3, tri.dim))
    ids = np.empty((chart.vertex_count, 8), dtype=np.int64)
    for t, (name, sub, _) in enumerate(_STAR_TRIS):
        corners, apex, off = facets[name]
        star[:, t, 0] = corners[:, sub]
        star[:, t, 1] = corners[:, (sub + 1) % 4]
        star[:, t, 2] = apex
        ids[:, t] = 4 * off + sub
    return star, ids


def eval_pl_reference(plm, p):
    """PL map at plane points (n, 2): point location, then the corner table
    of the raw facet index plus its period translation."""
    tri = plm.tri
    chart = plm.chart
    xi = chart.N * np.einsum("ij,nj->ni", np.linalg.inv(chart.a_matrix), p)
    k = np.floor(xi[:, 0]).astype(np.int64)
    l = np.floor(xi[:, 1]).astype(np.int64)
    u, v = xi[:, 0] - k, xi[:, 1] - l
    d1, d2 = v - u, u + v - 1.0
    sub = np.where(d1 <= 0.0, np.where(d2 <= 0.0, 0, 1), np.where(d2 <= 0.0, 3, 2))
    corners = corner_values_reference(chart, tri.corner_values, tri.target_periods)
    per = tri.target_periods
    x, y, q1, q2 = chart.canonical_with_shift(k, l)
    off = chart.offset_xy(x, y)
    shift = q1[:, None] * per[0] + q2[:, None] * per[1]
    v0 = corners[off, sub] + shift
    v1 = corners[off, (sub + 1) % 4] + shift
    v2 = tri.apex_values[off] + shift
    local = np.stack([u, v], axis=-1) - _LOCAL_CORNERS[sub]
    lam = np.einsum("nij,nj->ni", _LOCAL_EDGE_INV[sub], local)
    return v0 + lam[:, 0:1] * (v1 - v0) + lam[:, 1:2] * (v2 - v0)
