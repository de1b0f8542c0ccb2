"""Stacks of small dense systems, solved as whole-array operations.

Vectors are coordinate-major: a stack of them has shape (d, ...), the
coordinate axis first, and every inner product is summed coordinate by
coordinate.  The functions loop only over the few columns, never over the
batch: a stack of tiny systems costs a handful of vectorised passes instead
of one LAPACK call per matrix.
"""

import numpy as np


def coordinate_dot(a, b):
    """Inner products along the first axis, broadcasting over the others,
    for coordinate-major (d, ...) data: summed coordinate by coordinate, as
    a sum over axis 0 is, not pairwise as along a contiguous last axis."""
    return np.einsum("k...,k...->...", a, b)


def thin_qr(a, m, cutoff):
    """Thin QR of the columns a[:m] by modified Gram-Schmidt, in place.

    ``a`` has shape (k, d, ...): the m columns, then k - m right-hand sides,
    each coordinate-major.  Each column is orthogonalised twice against the
    ones before it; a column whose projected norm is at most ``cutoff``
    (broadcast over the batch) is dropped: set to zero, with a zero
    diagonal.  A NaN norm is kept, so it spreads.  The right-hand sides are
    projected once onto the complement of the columns, with no cutoff.  On
    return a[:m] holds Q, a[m:] the projected right-hand sides, and the
    result r, shape (m, k, ...), holds R in r[:, :m] and Q^T b in r[:, m:].
    """
    r = np.zeros((m, a.shape[0]) + a.shape[2:])
    for j in range(a.shape[0]):
        for _ in range(1 + (j < m)):
            for i in range(min(j, m)):
                c = coordinate_dot(a[i], a[j])
                a[j] -= c * a[i]
                r[i, j] += c
        if j < m:
            norm = np.sqrt(coordinate_dot(a[j], a[j]))
            drop = norm <= cutoff
            r[j, j] = np.where(drop, 0.0, norm)
            a[j] /= np.where(drop, np.inf, norm)
    return r


def back_substitute(r, m):
    """Least-squares coefficients x (m, ...) from ``thin_qr``'s r with one
    right-hand side: R x = Q^T b, and a dropped column contributes zero."""
    x = np.zeros((m,) + r.shape[2:])
    for j in reversed(range(m)):
        x[j] = r[j, m] - coordinate_dot(r[j, j + 1 : m], x[j + 1 :])
        x[j] /= np.where(r[j, j] > 0.0, r[j, j], 1.0)
    return x
