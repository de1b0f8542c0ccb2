"""Projection of near-isotropic quadrangular meshes onto the zero set of mu.

The density mu is quadratic in the mesh, so its exact linearization at tau is

    L(delta) = omega(U_delta, V_tau) + omega(U_tau, V_delta),

a sparse operator whose facet row touches exactly the four corner vertices
(8n nonzeros per row).  The projection is a Gauss-Newton iteration: each step
solves L(delta) = -mu for the minimum-Euclidean-norm delta with LSQR, which
works on the normal equations and therefore never leaves the row space of L
(the step is orthogonal to the null space, where the shear symmetries live).
The constraint rows sum to zero identically -- boundary Liouville integrals
cancel pairwise on the closed torus -- so the residual is projected onto mean
zero before solving, defensively.

Full Newton steps are taken; if the sup norm of the residual fails to
decrease, the step is halved up to ten times.  The iteration stops once
|mu(f)| / (2 N^2), the residual the refine gate sees at the optimal apex of
a full-rank facet, is at most _HEADROOM times the gate's limit on every
facet, taken on the input facet; so the stop scales with the map.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import lsqr

from .density import QuadMesh, _diagonal_fields, at_corners, symplectic_density
from .refine import isotropy_limit, quad_edges
from .symplectic import apply_j

#: LSQR stopping tolerance (atol and btol) of each inner least-squares solve.
_LSQR_TOL = 1e-12
#: Step halvings the line search tries before a Gauss-Newton step fails.
_MAX_HALVINGS = 10
#: Gauss-Newton steps before the projection fails.
_MAX_ITER = 50
#: Share of the refine gate's isotropy limit that the projection stops at.
_HEADROOM = 1e-3


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


def mu_jacobian(mesh: QuadMesh) -> sp.csr_matrix:
    """Sparse linearization of mu at the mesh, (F, 2n F) in flattened vertex order.

    Acting on a displacement delta (flattened (F, 2n)), the row of facet f is
    omega(U_delta, V_tau)(f) + omega(U_tau, V_delta)(f).  Column sums vanish
    identically (differentiated telescoping identity).
    """
    chart = mesh.chart
    nfacets = chart.vertex_count
    dim = mesh.dim
    offs = at_corners(chart.neighbours[0])
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
    _, side = quad_edges(tau0.corner_table())
    stop = 2.0 * _HEADROOM * chart.N**2 * isotropy_limit(side)
    mu = symplectic_density(mesh).values
    res = float(np.abs(mu).max())
    iterations = 0
    nfacets = chart.vertex_count
    iter_lim = max(1000, 4 * nfacets)
    while not np.all(np.abs(mu) <= stop):  # a NaN residual fails
        if not np.isfinite(res):
            raise LinearSolveFailure(f"non-finite density residual {res}")
        if iterations >= _MAX_ITER:
            raise MaxIterExceeded(
                f"residual {res:.3e} above the stop after {iterations} iterations"
            )
        jac = mu_jacobian(mesh)
        rhs = -(mu - mu.mean())
        result = lsqr(jac, rhs, atol=_LSQR_TOL, btol=_LSQR_TOL, iter_lim=iter_lim)
        delta, istop = result[0], result[1]
        if istop not in (0, 1, 2, 4, 5):
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
    return mesh, SolveReport(iterations, res, correction)
