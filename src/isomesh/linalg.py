"""Stacks of small dense systems, solved as whole-array operations.

Every function takes any leading batch shape and loops only over the few
columns, never over the batch: a stack of tiny systems costs a handful of
vectorised passes instead of one LAPACK call per matrix.
"""

import numpy as np


def dot(a, b):
    """Inner products along the last axis, broadcasting over the others."""
    return np.einsum("...d,...d->...", a, b)


def coordinate_dot(a, b):
    """Inner products along the first axis, broadcasting over the others,
    for coordinate-major (d, ...) data: summed coordinate by coordinate, as
    a sum over axis 0 is, not pairwise as along a contiguous last axis."""
    return np.einsum("k...,k...->...", a, b)


def thin_qr(a, m, cutoff, coordinate_major=False):
    """Thin QR of the columns a[:m] by modified Gram-Schmidt, in place.

    ``a`` has shape (k, ..., d): the m columns, then k - m right-hand sides;
    with ``coordinate_major`` it has shape (k, d, ...), and the inner
    products are ``coordinate_dot``s.  Each column is orthogonalised twice
    against the ones before it; a column whose projected norm is at most
    ``cutoff`` (broadcast over the batch) is dropped: set to zero, with a
    zero diagonal.  A NaN norm is kept, so it spreads.  The right-hand sides
    are projected once onto the complement of the columns, with no cutoff.
    On return a[:m] holds Q, a[m:] the projected right-hand sides, and the
    result r, shape (m, k, ...), holds R in r[:, :m] and Q^T b in r[:, m:].
    """
    if coordinate_major:
        inner, batch, vector = coordinate_dot, a.shape[2:], (None,)
    else:
        inner, batch, vector = dot, a.shape[1:-1], (..., None)
    r = np.zeros((m, a.shape[0]) + batch)
    for j in range(a.shape[0]):
        for _ in range(1 + (j < m)):
            for i in range(min(j, m)):
                c = inner(a[i], a[j])
                a[j] -= c[vector] * a[i]
                r[i, j] += c
        if j < m:
            norm = np.sqrt(inner(a[j], a[j]))
            drop = norm <= cutoff
            r[j, j] = np.where(drop, 0.0, norm)
            a[j] /= np.where(drop, np.inf, norm)[vector]
    return r


def back_substitute(r, m):
    """Least-squares coefficients x (m, ...) from ``thin_qr``'s r with one
    right-hand side: R x = Q^T b, and a dropped column contributes zero."""
    x = np.zeros((m,) + r.shape[2:])
    for j in reversed(range(m)):
        x[j] = r[j, m] - np.einsum("i...,i...->...", r[j, j + 1 : m], x[j + 1 :])
        x[j] /= np.where(r[j, j] > 0.0, r[j, j], 1.0)
    return x
