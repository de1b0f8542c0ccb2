"""Projection of near-isotropic quadrangular meshes onto the zero set of mu.

The density mu is quadratic in the mesh, so its exact linearization at tau is

    J(delta) = omega(U_delta, V_tau) + omega(U_tau, V_delta),

whose facet row touches exactly the four corner vertices.  J is applied
matrix-free from the two diagonal fields s J U and s J V of the mesh (its
row is +-s J V at corners 0 and 2, +-s J U at 1 and 3): J delta gathers
the corners of every facet, and J^T y gathers, for every vertex, the four
facets that have it as a corner.  The projection
is a Gauss-Newton iteration: each step solves J(delta) = -mu for the
minimum-Euclidean-norm delta with LSQR (Paige & Saunders, ACM TOMS 8, 1982),
whose iterates never leave the row space of J (the step is orthogonal to the
null space, where the shear symmetries live).  The rows sum to zero
identically -- boundary Liouville integrals cancel pairwise on the closed
torus -- so the residual is projected onto mean zero before solving.

LSQR runs on (P J) delta = P b with T. Chan's optimal circulant
preconditioner (SIAM J. Sci. Stat. Comput. 9, 1988), P = C^(-1/2), where C
is the average of J J^T over the facet group Z^2 / M Z^2.  J J^T is a 3x3
stencil on that group, so C is a convolution, diagonalised by a 2-D DFT on
the chart's storage grid, twisted by the grid's wrap.  P zeroes the
constant mode and is injective on the mean-zero fields, where J's range
lies, so P J delta = P b has the solutions of J delta = -mu, and the
iterates stay in range(J^T P) = range(J^T): the step is the same
minimum-norm step.  LSQR carries its left vectors u = P u~ as u~, in the
inner product of P^2 = C^+ (generalized Golub-Kahan bidiagonalization,
M. Arioli, SIAM J. Matrix Anal. Appl. 34, 2013), so each iteration applies
C^+ once.  C is built once per projection, from the Jacobian at the input
mesh.

Each step is solved only as exactly as the outer iteration needs (inexact
Newton, Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982): phibar
is the C^+ norm of the mean-zero residual r = rhs - J x, and C's symbol is
at most s_max, so ||r||_inf <= sqrt(s_max) phibar, which LSQR takes down to
_INNER_SHARE times the smallest facet stop.  The outer loop still tests the
density against the stop, so a loose bound costs iterations, not correctness.

Full Newton steps are taken; if the sup norm of the residual fails to
decrease, the step is halved up to ten times.  The iteration stops once
|mu(f)| / (2 N^2), the residual the refine gate sees at the optimal apex of
a full-rank facet, is at most _HEADROOM times the gate's limit on every
facet, taken on the input facet; so the stop scales with the map.  The
Jacobian at an accepted mesh is built from the diagonal fields that the
line search's density formed there (``density._diagonal_fields`` keeps them
on the mesh), and the input's corner table gives both the stop and the
first density, so each mesh's corner table is gathered once, and dropped
once they are formed; the mesh drops U and V once J holds s J U and s J V,
so they are not held through LSQR.
"""

import math
from dataclasses import dataclass

import numpy as np

from .density import (
    CORNER_STEPS,
    QuadMesh,
    _diagonal_fields,
    _diagonals_of,
    at_corners,
    corner_facets,
    symplectic_density,
)
from .lattice import Chart
from .refine import isotropy_limit, quad_edges
from .symplectic import apply_j

#: LSQR stopping tolerance (atol and btol) of each inner least-squares solve.
_LSQR_TOL = 1e-12
#: Share of the smallest facet stop that LSQR's bound on its residual reaches.
_INNER_SHARE = 0.01
#: Floor of the preconditioner's symbol, relative to its largest value.
_SYMBOL_FLOOR = 1e-12
#: Facet count up to which the preconditioner is applied as a dense matrix.
_DENSE_FACETS = 512
#: Step halvings the line search tries before a Gauss-Newton step fails.
_MAX_HALVINGS = 10
#: Gauss-Newton steps before the projection fails.
_MAX_ITER = 50
#: Share of the refine gate's isotropy limit that the projection stops at.
_HEADROOM = 1e-3


#: Signs of the fields in the gradients of mu at corners A_0 .. A_3.
_CORNER_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])


class MaxIterExceeded(RuntimeError):
    """Residual above the stop after the iteration budget."""


class LinearSolveFailure(RuntimeError):
    """The inner least-squares solve or the line search stagnated, or the
    density is not finite."""


@dataclass
class SolveReport:
    iterations: int
    residual_c0: float
    correction_c0: float


@dataclass
class MuJacobian:
    """Linearization of mu at a mesh, (F, 2n F) in flattened vertex order.

    ``fields`` (2, F, 2n) holds s J V and s J U, s = N / sqrt(2): the
    gradient of mu(f) with respect to its corners A_0 .. A_3 is s J V,
    -s J U, -s J V and s J U (that of omega(U, V) is -J V in U and J U in
    V).  So J delta is fields[k] . (delta at corners[0, k] - delta at
    corners[1, k]), summed over k, ``corners`` (2, 2, F) holding the
    vertices at corners (0, 3) and (2, 1) of each facet.  ``co_rows[c, v]``
    is the row of the flattened (2F, 2n) fields that facet f_c, whose
    corner c is vertex v, weighs that vertex with, so J^T is a gather too,
    with the same signs.  Column sums vanish identically (differentiated
    telescoping identity): J^T 1 = 0.
    """

    fields: np.ndarray
    corners: np.ndarray
    co_rows: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        _, nfacets, dim = self.fields.shape
        return nfacets, nfacets * dim

    def matvec(self, x: np.ndarray) -> np.ndarray:
        near = x.reshape(-1, self.fields.shape[-1]).take(self.corners, axis=0)
        near[0] -= near[1]
        return np.einsum("kfd,kfd->f", self.fields, near[0])

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        flat = (self.fields * y[:, None]).reshape(-1, self.fields.shape[-1])
        out = flat.take(self.co_rows[0], axis=0)
        out -= flat.take(self.co_rows[2], axis=0)
        out += flat.take(self.co_rows[3], axis=0)
        out -= flat.take(self.co_rows[1], axis=0)
        return out.ravel()


def mu_jacobian(mesh: QuadMesh) -> MuJacobian:
    """Matrix-free linearization of mu at the mesh.

    Acting on a displacement delta (flattened (F, 2n)), the row of facet f is
    omega(U_delta, V_tau)(f) + omega(U_tau, V_delta)(f).
    """
    offsets = mesh.chart.neighbours
    u, v = _diagonal_fields(mesh)
    s = mesh.chart.N / np.sqrt(2.0)
    corners = at_corners(offsets).T[[[0, 3], [2, 1]]]
    # Facet f_c of vertex v has v as its corner c; its weight is field
    # c % 2 (s J V at corners 0 and 2, s J U at 1 and 3).
    co_rows = corner_facets(mesh.chart).T + len(offsets) * (np.arange(4) % 2)[:, None]
    return MuJacobian(np.stack([s * apply_j(v), s * apply_j(u)]), corners, co_rows)


def _circulant_preconditioner(chart: Chart, jac: MuJacobian):
    """(y -> C^+ y, s_max): C the facet-group average of J J^T, constant mode
    zeroed, and the largest value of its symbol.

    Entry (f, f + delta) of J J^T sums g_c(f) . g_c'(f + delta), g_c the
    gradient of mu(f) with respect to corner c, over the corner pairs with
    step_c - step_c' = delta; its facet average a(delta) is the Gram matrix
    of the gradients at each vertex, summed along the pairs.
    C is diagonalised on the chart's (a, c) storage grid, where (x + a, y)
    is (x, y - b) (``Chart.storage_grid``): rfft along y, the twist
    exp(2 pi i b x q / (a c)), fft along x.  There the facet step delta =
    (dk, dl) multiplies by the character of phase 2 pi (p dk / a + q (a dl
    - b dk) / (a c)), so the symbol of C is sum a(delta) cos(phase), from
    per-axis cosines; it is floored at _SYMBOL_FLOOR times its maximum and
    inverted.  Up to _DENSE_FACETS facets, C^+ is applied as the dense
    matrix of its convolution kernel, which costs less than the FFT calls.
    """
    (a, c), b = chart.storage_grid
    nfacets = a * c
    # The gradients at each vertex: the fields at co_rows, with the corner signs.
    by_corner = jac.fields.reshape(-1, jac.fields.shape[-1]).take(jac.co_rows, axis=0)
    by_corner = by_corner.reshape(4, -1)
    gram = by_corner @ by_corner.T / nfacets * np.outer(_CORNER_SIGNS, _CORNER_SIGNS)
    del by_corner  # (4, F, 2n): not kept through the symbol
    # Per-axis phases of the corner pairs' delta = step_c - step_e, integers
    # reduced before scaling, and cos(x + y) = cos x cos y - sin x sin y.
    dk, dl = (CORNER_STEPS[:, None] - CORNER_STEPS).reshape(16, 2).T
    q = np.arange(c // 2 + 1)
    t1 = 2 * np.pi * (dk[:, None] * np.arange(a) % a) / a
    t2 = 2 * np.pi * ((a * dl - b * dk)[:, None] * q % (a * c)) / (a * c)
    g = gram.reshape(16, 1)
    symbol = (g * np.cos(t1)).T @ np.cos(t2) - (g * np.sin(t1)).T @ np.sin(t2)
    s_max = float(symbol.max())
    scale = 1.0 / np.maximum(symbol, _SYMBOL_FLOOR * s_max)
    scale[0, 0] = 0.0
    twist = np.exp(2j * np.pi * (b * np.arange(a)[:, None] * q % (a * c)) / (a * c))
    untwist = twist.conj()

    def apply(y: np.ndarray) -> np.ndarray:
        spectrum = np.fft.fft(np.fft.rfft(y.reshape(a, c)) * twist, axis=0) * scale
        return np.fft.irfft(np.fft.ifft(spectrum, axis=0) * untwist, n=c).ravel()

    if nfacets > _DENSE_FACETS:
        return apply, s_max
    # C^+[f, g] = k(f - g), k = C^+ e_0: block (x, x') is the circulant
    # i, j -> k[(x - x') mod a, (i - j + b [x < x']) mod c], read as windows
    # of the doubled, reversed rows of k and of k rolled by b.
    kernel = apply(np.eye(1, nfacets).ravel()).reshape(a, c)
    rows = np.concatenate([kernel, np.roll(kernel, -b, axis=1)])[:, ::-1]
    circulants = np.lib.stride_tricks.sliding_window_view(np.tile(rows, 2), c, axis=1)
    x = np.arange(a)
    block = (x[:, None] < x) * a + (x[:, None] - x) % a
    dense = circulants[:, c - 1::-1][block[:, None], np.arange(c)[:, None]]
    dense = dense.reshape(nfacets, nfacets)
    return (lambda y: dense @ y), s_max


def lsqr(jac: MuJacobian, rhs: np.ndarray, precondition, iter_lim: int, target: float = 0.0):
    """Paige-Saunders LSQR on (P J) x = P rhs from x = 0, P^2 = ``precondition``.

    Returns (x, istop, itn), with scipy's stop codes: istop 0 when
    A^T P rhs = 0 (x = 0), 1 when ||r|| <= tol (||P rhs|| + ||A|| ||x||) or
    ||r|| <= ``target``, 2 when ||A^T r|| <= tol ||A|| ||r||, 7 when
    iter_lim iterations pass first.  Here A = P J, r = P rhs - A x, ||r||
    is LSQR's estimate phibar, ||A|| its running Frobenius estimate and tol
    is _LSQR_TOL.  The iterates lie in range(A^T).  u = P u~ is kept as u~:
    ||u||^2 = u~ . P^2 u~ and A^T u = J^T P^2 u~.
    """
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
        rho = math.hypot(rhobar, beta)
        cs, sn = rhobar / rho, beta / rho
        phi, phibar = cs * phibar, sn * phibar
        x += (phi / rho) * w
        # Test 1 reads x, phibar and anorm only: it goes before v_k+1 and w.
        if phibar <= _LSQR_TOL * (bnorm + anorm * np.linalg.norm(x)) or phibar <= target:
            return x, 1, itn
        if beta > 0:
            v *= -beta
            v += jac.rmatvec(z / beta)
            alpha = np.linalg.norm(v)
            if alpha > 0:
                v /= alpha
        theta, rhobar = sn * alpha, -cs * alpha
        w *= -(theta / rho)
        w += v
        if alpha * abs(sn * phi) <= _LSQR_TOL * anorm * phibar:
            return x, 2, itn
    return x, 7, iter_lim


def project_isotropic(tau0: QuadMesh) -> tuple[QuadMesh, SolveReport]:
    """Project a quadrangular mesh onto the isotropic meshes, min-norm steps.

    Returns the projected mesh rho, within the stop on every facet, and a
    report with the iteration count, max |mu(rho)| and the sup-norm
    correction ||rho - tau0||.  A mesh already within the stop is returned
    unchanged with zero iterations.  Raises MaxIterExceeded if the residual
    stays above the stop for _MAX_ITER Gauss-Newton steps and
    LinearSolveFailure when the inner solver or the damping safeguard
    stagnates.
    """
    chart = tau0.chart
    dim = tau0.dim
    values = tau0.values.copy()
    periods = tau0.target_periods.copy()
    mesh = QuadMesh(chart, values, periods)
    # One gather of the input's corners gives the stop and the first density;
    # an overflow there is the non-finite residual reported below.
    quads = mesh.corner_table()
    with np.errstate(over="ignore", invalid="ignore"):
        stop = 2.0 * _HEADROOM * chart.N**2 * isotropy_limit(quad_edges(quads)[1])
        mesh._diagonals = _diagonals_of(chart, quads)
        del quads
        mu = symplectic_density(mesh).values
    res = float(np.abs(mu).max())
    iterations = 0
    nfacets = chart.vertex_count
    iter_lim = max(1000, 4 * nfacets)
    precondition = None
    while not np.all(np.abs(mu) <= stop):  # a NaN residual fails
        if not np.isfinite(res):
            raise LinearSolveFailure(f"non-finite density residual {res}")
        if iterations >= _MAX_ITER:
            raise MaxIterExceeded(
                f"residual {res:.3e} above the stop after {iterations} iterations"
            )
        jac = mu_jacobian(mesh)
        mesh._diagonals = None  # J holds s J U and s J V: U and V are not kept through LSQR
        if precondition is None:
            precondition, s_max = _circulant_preconditioner(chart, jac)
            target = _INNER_SHARE * float(stop.min()) / math.sqrt(s_max) if s_max > 0 else 0.0
        rhs = -(mu - mu.mean())
        delta, istop, _ = lsqr(jac, rhs, precondition, iter_lim, target)
        del jac  # the line search does not need J
        if istop == 7:
            raise LinearSolveFailure(f"lsqr stopped with istop={istop}")
        delta = delta.reshape(nfacets, dim)
        step = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            trial_values = values + step * delta
            trial = QuadMesh(chart, trial_values, periods)
            trial_mu = symplectic_density(trial).values
            trial_res = float(np.abs(trial_mu).max())
            if trial_res < res:
                break
            step *= 0.5
        else:
            raise LinearSolveFailure(
                f"no residual decrease after {_MAX_HALVINGS} halvings "
                f"(residual {res:.3e})"
            )
        values, mesh, mu, res = trial_values, trial, trial_mu, trial_res
        iterations += 1
    correction = float(np.linalg.norm(values - tau0.values, axis=1).max())
    # A new mesh on the same values: the result does not keep the diagonals.
    return QuadMesh(chart, values, periods), SolveReport(iterations, res, correction)
