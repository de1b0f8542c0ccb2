"""Shared construction helpers for the test suite."""

import numpy as np

from isomesh import build_chart, rotation
from isomesh.cli import DEFAULT_ROTATION
from isomesh.density import QuadMesh
from isomesh.plmap import _seg_seg_distance
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
