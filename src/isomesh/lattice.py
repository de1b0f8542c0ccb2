"""Lattice charts for quotient-torus quadrangulations.

The parameter plane carries the square grid with vertices v_kl = (k/N, l/N)
and facets f_kl = [k/N, (k+1)/N] x [l/N, (l+1)/N].  A torus is presented as
the quotient of the plane by a lattice Gamma with basis columns gamma_1,
gamma_2.  Gamma is rarely a sublattice of the grid, so the grid is carried
into the Gamma-plane by a linear almost-isometry A_N chosen so that the image
lattice contains Gamma exactly:

    m_i = round(N R^{-1} gamma_i),      A_N = B (M/N)^{-1},

where R is a reference isometry, B = [gamma_1 gamma_2] and M = [m_1 m_2].
By construction A_N (m_i / N) = gamma_i, and since the rounding error per
entry is at most 1/2, ||A_N - R|| = O(1/N) for fixed Gamma.

On the quotient, vertices and facets are indexed by integer pairs modulo the
sublattice M Z^2; canonical representatives are computed from the column
Hermite normal form H = M U (U unimodular), H = [[a, 0], [b, c]] with a, c > 0
and 0 <= b < c, which gives exactly |det M| = a c cosets.

The facet group Z^2 / M Z^2 is also kept in Smith form Z_d1 x Z_d2
(``Chart.facet_group``), the grid on which one 2-D DFT diagonalises every
convolution by facet steps.

Every facet-local computation (facet corners, diagonal translates,
sub-triangle vertex ids) reads one table, ``Chart.neighbours``: for each
canonical index (x, y) the canonical offsets of the 3x3 raw neighbourhood
(x + i - 1, y + j - 1), i, j in {0, 1, 2}.  Their lattice shifts are a
table of their own, ``Chart.shifts``, formed only when a map with target
periods asks for it.  Only lookups at arbitrary raw indices reduce them on
the fly.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class DegenerateLattice(ValueError):
    """The rounded integer matrix M is singular; retry with a larger N."""


def rotation(theta: float) -> np.ndarray:
    """2x2 rotation matrix, a convenient reference isometry."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _column_hnf(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column Hermite normal form H = M @ U of a 2x2 integer matrix M.

    H is lower triangular with H[0,0] > 0, H[1,1] > 0 and 0 <= H[1,0] < H[1,1];
    U is unimodular.  Columns of H span the same integer lattice as columns of M.
    Raises DegenerateLattice for a singular M (H[1,1] = det M / H[0,0] = 0).
    """
    m = np.asarray(m, dtype=np.int64)
    g, s, t = _ext_gcd(int(m[0, 0]), int(m[0, 1]))
    if g == 0:
        raise DegenerateLattice("top row of M vanishes")
    # Unimodular column mix zeroing H[0,1]:  det U = (s*m00 + t*m01)/g = 1.
    uni = np.array([[s, -int(m[0, 1]) // g], [t, int(m[0, 0]) // g]], dtype=np.int64)
    hnf = m @ uni
    if hnf[1, 1] == 0:
        raise DegenerateLattice("det M = 0")
    if hnf[1, 1] < 0:
        hnf[:, 1] *= -1
        uni[:, 1] *= -1
    q = hnf[1, 0] // hnf[1, 1]
    hnf[:, 0] -= q * hnf[:, 1]
    uni[:, 0] -= q * uni[:, 1]
    assert hnf[0, 0] > 0 and hnf[0, 1] == 0 and 0 <= hnf[1, 0] < hnf[1, 1]
    return hnf, uni


def _smith_form(h: np.ndarray) -> tuple[tuple[int, int], np.ndarray]:
    """Smith form of the lattice spanned by the columns of a nonsingular 2x2
    integer matrix h with h[0, 0] != 0.

    Returns ((d1, d2), W): d1 | d2, and W is unimodular with
    W h Z^2 = diag(d1, d2) Z^2, so z -> W z mod (d1, d2) maps Z^2 / h Z^2
    isomorphically onto Z_d1 x Z_d2.  Row operations build W; column
    operations only change the basis of h Z^2.  |a[0, 0]| never grows and
    falls at least every second pass, so the loop ends.
    """
    a = h.astype(np.int64)
    w = np.eye(2, dtype=np.int64)
    while True:
        p = int(a[0, 0])
        if a[0, 1] % p:
            g, s, t = _ext_gcd(p, int(a[0, 1]))
            a = a @ np.array([[s, -int(a[0, 1]) // g], [t, p // g]])
            continue
        if a[1, 0] % p:
            g, s, t = _ext_gcd(p, int(a[1, 0]))
            row = np.array([[s, t], [-int(a[1, 0]) // g, p // g]])
        else:
            a = a @ np.array([[1, -int(a[0, 1]) // p], [0, 1]])
            row = np.array([[1, 0], [-int(a[1, 0]) // p, 1]])
            if a[1, 1] % p == 0:
                return (abs(p), abs(int(a[1, 1]))), row @ w
            row = np.array([[1, 1], [0, 1]]) @ row
        a, w = row @ a, row @ w


def _gauss_reduction(b: np.ndarray) -> np.ndarray:
    """Unimodular U with the columns of b U Lagrange-Gauss reduced: the first
    is a shortest lattice vector and |<b_1, b_2>| <= |b_1|^2 / 2."""
    u = np.eye(2, dtype=np.int64)
    while True:
        v = b @ u
        u[:, 1] -= round(float(v[:, 0] @ v[:, 1]) / float(v[:, 0] @ v[:, 0])) * u[:, 0]
        v = b @ u
        if v[:, 0] @ v[:, 0] <= v[:, 1] @ v[:, 1]:
            return u
        u = u[:, ::-1].copy()  # the shorter vector first; |b_1| falls at every swap


@dataclass
class Chart:
    """Almost-isometric identification of the 1/N grid with the Gamma-plane.

    Fields
    ------
    N : subdivision count of the grid.
    gamma_basis : (2, 2) matrix B with the period lattice basis as columns.
    m_matrix : (2, 2) integer matrix M; columns m_i satisfy A_N m_i / N = gamma_i.
    a_matrix : (2, 2) linear part A_N of the chart.
    """

    N: int
    gamma_basis: np.ndarray
    m_matrix: np.ndarray
    a_matrix: np.ndarray
    _hnf: np.ndarray = field(init=False, repr=False)
    _unimodular: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.gamma_basis = np.asarray(self.gamma_basis, dtype=float)
        self.m_matrix = np.asarray(self.m_matrix).astype(np.int64)
        self.a_matrix = np.asarray(self.a_matrix, dtype=float)
        self._hnf, self._unimodular = _column_hnf(self.m_matrix)

    @property
    def vertex_count(self) -> int:
        """Number of canonical vertices (= facets) per fundamental domain."""
        return int(self._hnf[0, 0] * self._hnf[1, 1])

    # -- index arithmetic ---------------------------------------------------

    def _reduce(self, k, l):
        """(x, y, p1, p2) with (k, l) = (x, y) + H (p1, p2) and (x, y) the
        canonical coset representative."""
        k = np.asarray(k, dtype=np.int64)
        l = np.asarray(l, dtype=np.int64)
        a = int(self._hnf[0, 0])
        b = int(self._hnf[1, 0])
        c = int(self._hnf[1, 1])
        p1 = k // a
        x = k - p1 * a
        l2 = l - p1 * b
        p2 = l2 // c
        y = l2 - p2 * c
        return x, y, p1, p2

    def canonical_with_shift(self, k, l):
        """Reduce raw indices to canonical reps plus the lattice coordinates.

        Returns (x, y, q1, q2) with (k, l) = (x, y) + M (q1, q2) and (x, y)
        the canonical coset representative.
        """
        x, y, p1, p2 = self._reduce(k, l)
        u = self._unimodular
        q1 = u[0, 0] * p1 + u[0, 1] * p2
        q2 = u[1, 0] * p1 + u[1, 1] * p2
        return x, y, q1, q2

    def canonical(self, k, l):
        return self._reduce(k, l)[:2]

    def offset_xy(self, x, y):
        """Flat storage offset of a canonical index (x, y)."""
        return x * int(self._hnf[1, 1]) + y

    def offset_of_raw(self, k, l):
        x, y = self.canonical(k, l)
        return self.offset_xy(x, y)

    def all_canonical(self):
        """All canonical indices in storage order (offset = x*c + y)."""
        a = int(self._hnf[0, 0])
        c = int(self._hnf[1, 1])
        x = np.repeat(np.arange(a, dtype=np.int64), c)
        y = np.tile(np.arange(c, dtype=np.int64), a)
        return x, y

    def _around(self):
        """Raw indices (k, l), each (F, 3, 3), of (x + i - 1, y + j - 1)
        around every canonical (x, y) in storage order."""
        x, y = self.all_canonical()
        step = np.arange(-1, 2)
        return np.broadcast_arrays(x[:, None, None] + step[:, None], y[:, None, None] + step)

    @cached_property
    def neighbours(self) -> np.ndarray:
        """Canonical offsets (F, 3, 3) of the raw indices (x + i - 1, y + j -
        1) around every canonical (x, y): entry [f, i, j] is offset_xy(x',
        y') of the raw neighbour's representative (x', y').  A facet step
        (dk, dl) with |dk|, |dl| <= 1 is entry [f, 1 + dk, 1 + dl]."""
        return self.offset_xy(*self.canonical(*self._around()))

    @cached_property
    def shifts(self) -> np.ndarray:
        """Lattice shifts (F, 3, 3, 2) of the same raw indices: entry [f, i,
        j] is (q1, q2) with raw neighbour = (x', y') + M (q1, q2)."""
        _, _, q1, q2 = self.canonical_with_shift(*self._around())
        return np.stack([q1, q2], axis=-1)

    @cached_property
    def facet_group(self):
        """The facet group Z^2 / M Z^2 in Smith form, Z_d1 x Z_d2 with d1 | d2.

        Returns ((d1, d2), W, order).  W is unimodular and the index (k, l)
        has group coordinates W (k, l) mod (d1, d2), so on the 2-D DFT of a
        facet field the facet step (dk, dl) is multiplication by the
        character exp(2 pi i (p w1 / d1 + q w2 / d2)), w = W (dk, dl).
        ``order`` (F,) lists the canonical offsets in C order of the
        (d1, d2) grid: values[order].reshape(d1, d2) is the field on the
        grid.  A cyclic group has d1 = 1.
        """
        (d1, d2), w = _smith_form(self._hnf)
        x, y = self.all_canonical()
        grid = (w[0, 0] * x + w[0, 1] * y) % d1 * d2 + (w[1, 0] * x + w[1, 1] * y) % d2
        order = np.empty(self.vertex_count, dtype=np.int64)
        order[grid] = self.offset_xy(x, y)
        return (d1, d2), w, order

    # -- geometry -----------------------------------------------------------

    def position(self, k, l) -> np.ndarray:
        """Plane position A_N (k/N, l/N) of grid coordinates (may be fractional)."""
        idx = np.stack(
            [np.asarray(k, dtype=float), np.asarray(l, dtype=float)], axis=-1
        )
        return np.einsum("ij,...j->...i", self.a_matrix, idx) / self.N

    def facet_center(self, k, l) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        l = np.asarray(l, dtype=float)
        return self.position(k + 0.5, l + 0.5)

    @cached_property
    def _search_basis(self) -> np.ndarray:
        """M U, U unimodular with B U Lagrange-Gauss reduced; M itself when B is."""
        return self.m_matrix @ _gauss_reduction(self.gamma_basis)

    def torus_distance(self, dk, dl) -> np.ndarray:
        """Plane distance ||A_N (d - M q)|| / N minimized over q in Z^2.

        The flat distance between cells whose indices differ by d = (dk, dl),
        measured on the quotient by Gamma = A_N (M/N) Z^2.  The search runs
        in the basis ``_search_basis``, where the closest lattice point lies
        within 2 steps of the rounded coordinates in each direction.
        """
        dk = np.asarray(dk, dtype=float)
        dl = np.asarray(dl, dtype=float)
        delta = np.stack([dk, dl], axis=-1)
        minv = np.linalg.inv(self._search_basis.astype(float))
        q0 = np.rint(np.einsum("ij,...j->...i", minv, delta))
        best = None
        mfloat = self._search_basis.astype(float)
        for w1 in range(-2, 3):
            for w2 in range(-2, 3):
                q = q0 + np.array([w1, w2], dtype=float)
                rem = delta - np.einsum("ij,...j->...i", mfloat, q)
                vec = np.einsum("ij,...j->...i", self.a_matrix, rem) / self.N
                dist = np.linalg.norm(vec, axis=-1)
                best = dist if best is None else np.minimum(best, dist)
        return best


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def build_chart(gamma_basis, reference_isometry, N: int) -> Chart:
    """Build the almost-isometric chart at subdivision N.

    ``gamma_basis`` is the 2x2 matrix of period columns, ``reference_isometry``
    an orthogonal 2x2 matrix R.  Componentwise rounding (half away from zero)
    of N R^{-1} gamma_i gives the integer columns m_i, and A_N = B (M/N)^{-1},
    so that Gamma sits inside the image of the 1/N grid lattice exactly and
    A_N -> R at rate O(1/N).

    Raises DegenerateLattice when the rounded matrix is singular (possible for
    tiny N; the caller should raise N).
    """
    b = np.asarray(gamma_basis, dtype=float)
    r = np.asarray(reference_isometry, dtype=float)
    if b.shape != (2, 2) or abs(np.linalg.det(b)) < 1e-12:
        raise ValueError("gamma_basis must be an invertible 2x2 matrix")
    if r.shape != (2, 2) or not np.allclose(r @ r.T, np.eye(2), atol=1e-10):
        raise ValueError("reference_isometry must be orthogonal")
    if N < 1:
        raise ValueError("N must be a positive integer")
    target = N * np.linalg.solve(r, b)
    m = _round_half_away(target).astype(np.int64)
    if int(m[0, 0]) * int(m[1, 1]) - int(m[0, 1]) * int(m[1, 0]) == 0:
        raise DegenerateLattice(f"rounded lattice matrix singular at N={N}")
    a = b @ np.linalg.inv(m.astype(float) / N)
    return Chart(N=int(N), gamma_basis=b, m_matrix=m, a_matrix=a)
