"""Shared construction helpers for the test suite."""

import math

import numpy as np

from isomesh import build_chart, rotation
from isomesh.cli import DEFAULT_ROTATION
from isomesh.density import CORNER_STEPS, QuadMesh, _diagonal_fields, at_corners
from isomesh.plmap import _operator_norm, _sub_triangles, _triangle_grid
from isomesh.linalg import thin_qr
from isomesh.refine import _RANK_CUTOFF, ISO_CERT_FACTOR, apex_constraints, quad_edges
from isomesh.solver import _LSQR_TOL
from isomesh.symplectic import apply_j, liouville_polygon, omega


#: The built-in spec names.
ALL_BUILTINS = [
    "clifford",
    "clifford:1,0.5",
    "product:circle,circle",
    "product:figure8,circle",
    "flat-plane",
]


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


def optimal_apexes_svd(quads):
    """Reference optimal apexes of (F, 4, 2n) quadrilaterals and the refine
    gate's verdicts, one SVD per facet.

    The apex is the barycenter plus the minimum-norm least-squares solution
    of the apex system of the quadrilateral centred on its barycenter,
    singular values at most 1e-10 times the largest dropped; the gate passes
    when every residual is at most ISO_CERT_FACTOR times the squared longest
    edge.
    """
    quads = np.asarray(quads, dtype=float)
    g = quads.mean(axis=1)
    rows, shifted = apex_constraints(quads - g[:, None])
    u, s, vt = np.linalg.svd(rows, full_matrices=False)
    keep = s > 1e-10 * s[:, :1]
    sinv = np.where(keep, 1.0 / np.where(s > 0, s, 1.0), 0.0)
    step = np.einsum("fij,fi->fj", vt, sinv * np.einsum("fij,fi->fj", u, shifted))
    resid = np.abs(np.einsum("fij,fj->fi", rows, step) - shifted).max(axis=1)
    scale = np.linalg.norm(np.roll(quads, -1, axis=1) - quads, axis=-1).max(axis=1)
    return g + step, resid <= ISO_CERT_FACTOR * scale**2


def quad_rank(quad):
    """Dimension of the affine span of a (4, 2n) quadrilateral as the apex
    solve sees it: the edges e0, e1, e2 its thin QR keeps."""
    edges, side = quad_edges(np.asarray(quad, dtype=float))
    r = thin_qr(np.moveaxis(edges[:, :3], 0, -1).copy(), 3, _RANK_CUTOFF * side)
    return int(np.count_nonzero(r[range(3), range(3)]))


def smooth_isotropy_defect(spec, grid_res):
    """Max of |omega(d ell/ds, d ell/dt)| over a grid of the fundamental domain."""
    if grid_res < 2:
        raise ValueError("grid_res must be at least 2")
    frac = np.arange(grid_res) / grid_res
    ss, tt = np.meshgrid(frac, frac, indexing="ij")
    uv = np.stack([ss, tt], axis=-1)
    pts = np.einsum("ij,...j->...i", spec.gamma_basis, uv)
    _, deriv = spec.jet(pts)
    return float(np.abs(omega(deriv[..., 0], deriv[..., 1])).max())


def random_isotropic_quad_of_rank(rng, rank, dim=4):
    """Isotropic quadrilateral whose affine span has dimension ``rank``: a
    repeated point (0), four points on a line (1), a parallelogram in an
    isotropic plane (2) or a generic one (3)."""
    base = rng.standard_normal(dim)
    if rank == 0:
        return np.tile(base, (4, 1))
    if rank == 1:
        return base + rng.standard_normal((4, 1)) * rng.standard_normal(dim)
    if rank == 2:
        return random_isotropic_plane_parallelogram(rng, dim)
    return random_isotropic_quadrilateral(rng, dim)


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


def _distinct_faces(tri):
    faces, seen = [], set()
    for face in _TRI_FACES:
        points = frozenset(tuple(tri[k]) for k in face)
        if points not in seen:
            seen.add(points)
            faces.append(face)
    return faces


def tri_tri_distance_lstsq(p, q, feas_tol=1e-9):
    """Reference distance of two triangles, one ``lstsq`` per pair of faces.

    Minimum over face pairs of the minimum-norm least-squares distance
    between their affine hulls, counted when the minimizer's barycentric
    coordinates are feasible within ``feas_tol``.  Faces with the same
    vertex set as an earlier one are skipped, so (a, b, b) is the segment ab
    and (a, a, a) the point a.
    """
    best = np.inf
    for fp in _distinct_faces(p):
        for fq in _distinct_faces(q):
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


def adjacent_distance_lstsq(vals, vids, i, j):
    """Reference distance of triangles i and j beyond their shared simplex.

    u is the smallest shared vertex id and w the next one, each read at its
    first slot; both triangles are taken relative to their value at u.  A
    vertex-sharing pair (u, a, b), (u, c, d) scores min(dist(ab, T2),
    dist(cd, T1)); an edge-sharing pair (u, w, a), (u, w, c) scores
    min(dist(a, T2), dist(c, T1), dist(ua, wc), dist(wa, uc)).  Every term is
    one ``tri_tri_distance_lstsq`` call, with (a, b, b) for the segment ab and
    (a, a, a) for the point a, and minimizers counted when feasible within
    1e-12: with the default 1e-9, a minimizer up to 1e-9 outside a face
    counts, so a vertex 2.4e-11 outside a triangle reads as inside it.
    """
    shared = sorted(set(vids[i].tolist()) & set(vids[j].tolist()))
    rel = []
    for t in (i, j):
        ids = vids[t].tolist()
        su = ids.index(shared[0])
        sw = ids.index(shared[1]) if len(shared) > 1 else (su + 1) % 3
        rel.append([vals[t][s] - vals[t][su] for s in (su, sw, 3 - su - sw)])
    (o, a1, a2), (_, b1, b2) = rel
    def dist(p, q):
        return tri_tri_distance_lstsq(p, q, feas_tol=1e-12)

    if len(shared) == 1:
        return min(
            dist(np.stack([a1, a2, a2]), np.stack([o, b1, b2])),
            dist(np.stack([b1, b2, b2]), np.stack([o, a1, a2])),
        )
    return min(
        dist(np.stack([a2, a2, a2]), np.stack([o, b1, b2])),
        dist(np.stack([b2, b2, b2]), np.stack([o, a1, a2])),
        dist(np.stack([o, a2, a2]), np.stack([b1, b2, b2])),
        dist(np.stack([a1, a2, a2]), np.stack([o, b2, b2])),
    )


def immersion_witnesses_brute(plm, tol):
    """All-pairs reference for the pair witnesses of ``check_immersion``:
    every pair of triangles that shares a vertex id, scored by
    ``adjacent_distance_lstsq``, as ("vertex_star", v, i, j, dist) with v the
    smallest shared id."""
    threshold = tol * plm.edge_scale()
    vals = plm.tri_values
    vids = plm.tri_vertex_ids
    witnesses = []
    for i in range(len(vids)):
        for j in range(i + 1, len(vids)):
            shared = set(vids[i].tolist()) & set(vids[j].tolist())
            if shared:
                dist = adjacent_distance_lstsq(vals, vids, i, j)
                if dist < threshold:
                    witnesses.append(("vertex_star", min(shared), i, j, dist))
    return witnesses


def embedding_witnesses_brute(plm, tol):
    """All-pairs reference for the witnesses of ``check_embedding``: brute box
    query, then ``tri_tri_distance_lstsq`` for each pair that shares no id
    (the others are ``check_immersion``'s)."""
    threshold = tol * plm.edge_scale()
    vals = plm.tri_values
    vids = plm.tri_vertex_ids
    witnesses = []
    for i, j in box_close_pairs_brute(vals.min(axis=1), vals.max(axis=1), threshold):
        if set(vids[i].tolist()) & set(vids[j].tolist()):
            continue
        dist = tri_tri_distance_lstsq(vals[i], vals[j])
        if dist < threshold:
            witnesses.append((i, j, dist))
    return witnesses


# -- full-table PL map references -----------------------------------------------


def pl_tables_reference(plm):
    """Chart triangles (T, 3, 2) and differentials (T, d, 2) of a PL map, each
    built as one full table over all facets."""
    chart = plm.chart
    kc, lc = chart.all_canonical()
    steps = CORNER_STEPS.T
    source = _sub_triangles(
        chart.position(kc[:, None] + steps[0], lc[:, None] + steps[1]),
        chart.facet_center(kc, lc),
    )
    vals = plm.tri_values
    e = np.stack([source[:, 1] - source[:, 0], source[:, 2] - source[:, 0]], axis=-1)
    w = np.stack([vals[:, 1] - vals[:, 0], vals[:, 2] - vals[:, 0]], axis=-1)
    det = e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0]
    inv = np.empty_like(e)
    inv[:, 0, 0] = e[:, 1, 1]
    inv[:, 0, 1] = -e[:, 0, 1]
    inv[:, 1, 0] = -e[:, 1, 0]
    inv[:, 1, 1] = e[:, 0, 0]
    inv /= det[:, None, None]
    return source, w @ inv


def distances_reference(plm, spec):
    """(C0, C1) distances over the full (T, 16, .) sample grid at once, from
    ``pl_tables_reference``."""
    source, differentials = pl_tables_reference(plm)
    lam = _triangle_grid()
    pts = np.einsum("gk,tkx->tgx", lam, source)
    vals = np.einsum("gk,tkd->tgd", lam, plm.tri_values)
    c0 = float(np.linalg.norm(spec.eval(pts) - vals, axis=-1).max())
    smooth, deriv = spec.jet(pts)
    c1 = float(np.linalg.norm(smooth - vals, axis=-1).max())
    return c0, c1 + float(_operator_norm(deriv - differentials[:, None]).max())


# -- row-major references of the coordinate-major kernels ----------------------


def quad_edges_reference(quads):
    """Edges (F, 4, d) of (F, 4, d) quadrilaterals and their longest edge
    lengths, row-major: norms reduced over the last axis."""
    edges = np.roll(quads, -1, axis=-2) - quads
    return edges, np.linalg.norm(edges, axis=-1).max(axis=-1)


def edge_scale_reference(plm):
    """Max finite edge length of a PL map from its full (T, 3, d) edge table,
    squares reduced over the last axis."""
    vals = plm.tri_values
    edges = vals.take([1, 2, 0], axis=1) - vals
    squares = np.add.reduce(edges * edges, axis=-1)
    return float(np.sqrt(squares.max(initial=0.0, where=np.isfinite(squares))))


def pl_isotropy_residual_reference(plm):
    """|omega(B - A, C - A)| of every triangle, row-major."""
    a, b, c = np.moveaxis(plm.tri_values, 1, 0)
    return np.abs(omega(b - a, c - a))


# -- symmesh reader for export round trips --------------------------------


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


# -- reference linearization ---------------------------------------------------


def mu_jacobian_sparse(mesh):
    """Sparse CSR matrix of the linearization of mu, (F, 2n F) in flattened
    vertex order, assembled from COO triplets (duplicates summed)."""
    import scipy.sparse as sp

    chart = mesh.chart
    nfacets = chart.vertex_count
    dim = mesh.dim
    offs = at_corners(chart.neighbours)
    u, v = _diagonal_fields(mesh)
    s = chart.N / np.sqrt(2.0)
    ju = apply_j(u)
    jv = apply_j(v)
    # d mu / d x_{corner}: gradient wrt U is -J V, wrt V is J U.  Entries are
    # laid out corner by corner, (4, F, 2n).
    data = np.stack([s * jv, -s * ju, -s * jv, s * ju])
    cols = offs.T[:, :, None] * dim + np.arange(dim)
    rows = np.broadcast_to(np.arange(nfacets)[:, None], cols.shape)
    mat = sp.coo_matrix(
        (data.ravel(), (rows.ravel(), cols.ravel())),
        shape=(nfacets, nfacets * dim),
    )
    return mat.tocsr()


def root_preconditioner(chart, plus):
    """y -> P y, P^2 = ``plus``, a convolution on the facet group: P's
    symbol is the root of the symbol of ``plus``, read off its kernel (its
    image of the group's identity)."""
    (d1, d2), _, order = chart.facet_group
    position = np.argsort(order)
    identity = np.zeros(len(order))
    identity[order[0]] = 1.0
    symbol = np.fft.rfft2(plus(identity).take(order).reshape(d1, d2)).real
    root = np.sqrt(np.maximum(symbol, 0.0))

    def apply(y):
        spectrum = np.fft.rfft2(y.take(order).reshape(d1, d2)) * root
        return np.fft.irfft2(spectrum, s=(d1, d2)).ravel().take(position)

    return apply


def lsqr_without_target(jac, rhs, precondition, iter_lim):
    """Reference LSQR in the C^+ inner product with the relative stop tests
    only: ``isomesh.solver.lsqr`` before its ``target`` stop was added."""
    x = np.zeros(jac.shape[1])
    z = precondition(rhs)
    beta = bnorm = math.sqrt(max(rhs @ z, 0.0))
    if beta == 0:
        return x, 0, 0
    u = rhs / beta
    v = jac.rmatvec(z / beta)
    alpha = np.linalg.norm(v)
    if alpha == 0:
        return x, 0, 0
    v /= alpha
    w = v.copy()
    phibar, rhobar, anorm = beta, alpha, 0.0
    for itn in range(1, iter_lim + 1):
        u = jac.matvec(v) - alpha * u
        z = precondition(u)
        beta = math.sqrt(max(u @ z, 0.0))
        if beta > 0:
            u /= beta
            anorm = math.sqrt(anorm**2 + alpha**2 + beta**2)
            v = jac.rmatvec(z / beta) - beta * v
            alpha = np.linalg.norm(v)
            if alpha > 0:
                v /= alpha
        rho = math.hypot(rhobar, beta)
        cs, sn = rhobar / rho, beta / rho
        theta, rhobar = sn * alpha, -cs * alpha
        phi, phibar = cs * phibar, sn * phibar
        x += (phi / rho) * w
        w = v - (theta / rho) * w
        if phibar <= _LSQR_TOL * (bnorm + anorm * np.linalg.norm(x)):
            return x, 1, itn
        if alpha * abs(sn * phi) <= _LSQR_TOL * anorm * phibar:
            return x, 2, itn
    return x, 7, iter_lim


def lsqr_two_applies(jac, rhs, precondition, iter_lim):
    """Reference LSQR on (P J) x = P rhs, P = ``precondition``, as Paige and
    Saunders state it: u = P J v - alpha u and v = J^T P u - beta v, two
    applications of P per iteration.  Returns (x, istop, itn) with the
    stop codes and tolerance of ``isomesh.solver.lsqr``."""
    x = np.zeros(jac.shape[1])
    u = precondition(rhs)
    beta = bnorm = np.linalg.norm(u)
    if beta == 0:
        return x, 0, 0
    u /= beta
    v = jac.rmatvec(precondition(u))
    alpha = np.linalg.norm(v)
    if alpha == 0:
        return x, 0, 0
    v /= alpha
    w = v.copy()
    phibar, rhobar, anorm = beta, alpha, 0.0
    for itn in range(1, iter_lim + 1):
        u = precondition(jac.matvec(v)) - alpha * u
        beta = np.linalg.norm(u)
        if beta > 0:
            u /= beta
            anorm = math.sqrt(anorm**2 + alpha**2 + beta**2)
            v = jac.rmatvec(precondition(u)) - beta * v
            alpha = np.linalg.norm(v)
            if alpha > 0:
                v /= alpha
        rho = math.hypot(rhobar, beta)
        cs, sn = rhobar / rho, beta / rho
        theta, rhobar = sn * alpha, -cs * alpha
        phi, phibar = cs * phibar, sn * phibar
        x += (phi / rho) * w
        w = v - (theta / rho) * w
        if phibar <= _LSQR_TOL * (bnorm + anorm * np.linalg.norm(x)):
            return x, 1, itn
        if alpha * abs(sn * phi) <= _LSQR_TOL * anorm * phibar:
            return x, 2, itn
    return x, 7, iter_lim


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


# Local geometry of the four sub-triangles of the unit square facet:
# corners (0,0),(1,0),(1,1),(0,1) and center (1/2,1/2).
_LOCAL_CORNERS = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
_LOCAL_EDGE_INV = np.linalg.inv(
    np.stack([np.roll(_LOCAL_CORNERS, -1, axis=0), np.full((4, 2), 0.5)], axis=-1)
    - _LOCAL_CORNERS[:, :, None]
)


def eval_pl_reference(plm, p):
    """PL map at plane points (n, 2) or one point (2,): point location, then
    the corner table of the raw facet index plus its period translation."""
    tri = plm.tri
    chart = plm.chart
    p = np.atleast_2d(p)
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
