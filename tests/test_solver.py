"""Linearization of the density and the isotropic projection."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse.linalg import lsqr as scipy_lsqr

from helpers import (
    hex_basis,
    identity_chart,
    lsqr_two_applies,
    lsqr_without_target,
    mu_jacobian_sparse,
    random_mesh,
    random_unitary_symplectic,
    root_preconditioner,
    rotated_chart,
)
from isomesh import (
    LinearSolveFailure,
    MaxIterExceeded,
    make_clifford,
    make_flat_plane,
    make_product_torus,
    circle,
    figure_eight,
    mu_jacobian,
    project_isotropic,
    sample_quad,
    symplectic_density,
)
from isomesh import density, solver, spec_from_name
from isomesh.cli import Pipeline, PipelineConfig
from isomesh.density import QuadMesh, facet_liouville
from isomesh.refine import isotropy_limit, quad_edges
from isomesh.solver import _HEADROOM, _circulant_preconditioner, lsqr


def mu_of(values, chart, periods=None):
    return symplectic_density(QuadMesh(chart, values, periods)).values


class TestJacobian:
    def test_directional_derivative_order(self):
        rng = np.random.default_rng(0)
        ch = rotated_chart(6)
        mesh = random_mesh(ch, rng)
        delta = rng.standard_normal(mesh.values.shape)
        jac = mu_jacobian(mesh)
        mu0 = symplectic_density(mesh).values
        lin = jac.matvec(delta.ravel())
        errs = []
        for h in (1e-2, 1e-3, 1e-4, 1e-5):
            err = np.abs(
                mu_of(mesh.values + h * delta, ch) - mu0 - h * lin
            ).max()
            errs.append(err)
        orders = [
            np.log(errs[i] / errs[i + 1]) / np.log(10.0) for i in range(2)
        ]
        assert min(orders) >= 1.9

    def test_constant_displacement_in_kernel(self):
        rng = np.random.default_rng(1)
        ch = identity_chart(6)
        mesh = random_mesh(ch, rng)
        jac = mu_jacobian(mesh)
        const = np.tile(rng.standard_normal(4), (ch.vertex_count, 1))
        assert np.abs(jac.matvec(const.ravel())).max() <= 1e-12

    def test_row_sums_vanish(self):
        # Sum over facets of L(delta) is zero for every delta: the column
        # sums of the matrix vanish (differentiated telescoping identity),
        # relative to its largest entry, the largest of the diagonal fields.
        rng = np.random.default_rng(2)
        ch = rotated_chart(8)
        mesh = random_mesh(ch, rng)
        jac = mu_jacobian(mesh)
        colsums = jac.rmatvec(np.ones(ch.vertex_count))
        assert colsums.shape == (jac.shape[1],)
        assert np.abs(colsums).max() <= 1e-10 * max(1.0, np.abs(jac.fields).max())

    def test_row_sparsity(self):
        ch = rotated_chart(6)
        rng = np.random.default_rng(3)
        mesh = random_mesh(ch, rng)
        jac = mu_jacobian(mesh)
        dense = dense_matrix(jac)
        assert dense.shape == (ch.vertex_count, 4 * ch.vertex_count)
        for row in dense:
            cols = np.flatnonzero(row)
            assert cols.size <= 4 * 4  # 4 corners x 2n with n = 2
            assert np.unique(cols // 4).size <= 4

    @pytest.mark.parametrize("dim", [4, 6])
    def test_matches_sparse_reference(self, dim):
        rng = np.random.default_rng(8)
        ch = rotated_chart(7, hex_basis())
        mesh = random_mesh(ch, rng, dim=dim)
        jac = mu_jacobian(mesh)
        ref = mu_jacobian_sparse(mesh)
        assert jac.shape == ref.shape
        x = rng.standard_normal(ref.shape[1])
        y = rng.standard_normal(ref.shape[0])
        scale = np.abs(ref.data).max()
        assert np.abs(jac.matvec(x) - ref @ x).max() <= 1e-13 * scale * np.abs(x).sum()
        assert np.abs(jac.rmatvec(y) - ref.T @ y).max() <= 1e-13 * scale * np.abs(y).sum()
        assert np.array_equal(dense_matrix(jac) != 0, ref.toarray() != 0)


def dense_matrix(jac):
    """Dense matrix of a matrix-free linearization, one matvec per column."""
    return np.stack([jac.matvec(e) for e in np.eye(jac.shape[1])], axis=1)


def gauss_newton_rhs(mesh):
    mu = symplectic_density(mesh).values
    return -(mu - mu.mean())


def _chart_case(name):
    rng = np.random.default_rng(9)
    spec = make_product_torus(figure_eight(), circle())
    if name == "figure8-rotated-12":  # cyclic: HNF [[1, 0], [119, 146]]
        return sample_quad(spec, rotated_chart(12))
    if name == "figure8-rotated-96":  # Z_43 x Z_215, the benchmark's chart
        return sample_quad(spec, rotated_chart(96))
    if name == "figure8x2-rotated-20":  # storage grid (9, 45), wrap b = 18
        return sample_quad(make_product_torus(figure_eight(), figure_eight()), rotated_chart(20))
    if name == "identity-8-r4":  # Z_8 x Z_8
        return random_mesh(identity_chart(8), rng)
    if name == "identity-8-r6":
        return random_mesh(identity_chart(8), rng, dim=6)
    if name == "rotated-7-r6":  # Z_3 x Z_15
        return random_mesh(rotated_chart(7), rng, dim=6)
    if name == "hex-10-r4":  # cyclic: HNF [[1, 0], [76, 86]]
        return random_mesh(rotated_chart(10, hex_basis()), rng)
    if name == "hex-9-r6":
        return random_mesh(rotated_chart(9, hex_basis()), rng, dim=6)
    raise KeyError(name)


class TestPreconditionedStep:
    CASES = [
        "figure8-rotated-12",
        "figure8-rotated-96",
        "identity-8-r4",
        "identity-8-r6",
        "rotated-7-r6",
        "hex-10-r4",
        "hex-9-r6",
    ]

    @pytest.mark.parametrize("dense_facets", [0, 512])
    @pytest.mark.parametrize("name", CASES)
    def test_matches_scipy_lsqr(self, name, dense_facets, monkeypatch):
        # The preconditioned step is the minimum-norm step that unpreconditioned
        # LSQR on the assembled sparse matrix converges to; with the FFT applied
        # every iteration (0) and, up to 512 facets, as a dense matrix.
        monkeypatch.setattr("isomesh.solver._DENSE_FACETS", dense_facets)
        mesh = _chart_case(name)
        rhs = gauss_newton_rhs(mesh)
        jac = mu_jacobian(mesh)
        precondition, _ = _circulant_preconditioner(mesh.chart, jac)
        step, istop, itn = lsqr(jac, rhs, precondition, 10_000)
        assert istop in (1, 2) and itn > 0
        ref = scipy_lsqr(mu_jacobian_sparse(mesh), rhs, atol=1e-12, btol=1e-12,
                         iter_lim=10_000)
        assert ref[1] in (1, 2)
        assert np.abs(step - ref[0]).max() <= 1e-8 * np.abs(ref[0]).max()

    @pytest.mark.parametrize("dense_facets", [0, 512])
    @pytest.mark.parametrize("name", CASES)
    def test_default_target_keeps_the_relative_stop(self, name, dense_facets, monkeypatch):
        # With no target, lsqr takes the relative stop tests' steps bit for bit.
        monkeypatch.setattr("isomesh.solver._DENSE_FACETS", dense_facets)
        mesh = _chart_case(name)
        rhs = gauss_newton_rhs(mesh)
        jac = mu_jacobian(mesh)
        precondition, _ = _circulant_preconditioner(mesh.chart, jac)
        step, istop, itn = lsqr(jac, rhs, precondition, 10_000)
        ref, ref_istop, ref_itn = lsqr_without_target(jac, rhs, precondition, 10_000)
        assert (istop, itn) == (ref_istop, ref_itn)
        assert np.array_equal(step, ref)

    @pytest.mark.parametrize("name", ["figure8-rotated-12", "figure8-rotated-96", "hex-9-r6"])
    def test_target_bounds_the_linearised_residual(self, name):
        # phibar is the C^+ norm of r = rhs - J x, and sqrt(s_max) phibar
        # bounds its sup norm: stopping at a target bounds the true residual.
        mesh = _chart_case(name)
        rhs = gauss_newton_rhs(mesh)
        jac = mu_jacobian(mesh)
        precondition, s_max = _circulant_preconditioner(mesh.chart, jac)
        bound = 1e-3 * np.abs(rhs).max()
        step, istop, itn = lsqr(jac, rhs, precondition, 10_000, bound / np.sqrt(s_max))
        assert istop == 1
        assert itn < lsqr(jac, rhs, precondition, 10_000)[2]
        assert np.abs(rhs - jac.matvec(step)).max() <= bound * (1 + 1e-9)

    @pytest.mark.parametrize("dense_facets", [0, 512])
    @pytest.mark.parametrize("name", CASES)
    def test_one_apply_matches_two_applies(self, name, dense_facets, monkeypatch):
        # LSQR in the C^+ inner product takes the steps of LSQR on (P J) x =
        # P rhs, P = C^(-1/2) applied twice per iteration: the same stop,
        # the same step to rounding.  The iteration count may differ by one
        # where the stop test is met within rounding (identity-8-r6: 33 and
        # 34, as with two applies by FFT and by the dense kernel).
        monkeypatch.setattr("isomesh.solver._DENSE_FACETS", dense_facets)
        mesh = _chart_case(name)
        rhs = gauss_newton_rhs(mesh)
        jac = mu_jacobian(mesh)
        plus, _ = _circulant_preconditioner(mesh.chart, jac)
        step, istop, itn = lsqr(jac, rhs, plus, 10_000)
        ref, ref_istop, ref_itn = lsqr_two_applies(
            jac, rhs, root_preconditioner(mesh.chart, plus), 10_000
        )
        assert istop == ref_istop and abs(itn - ref_itn) <= 1
        assert np.abs(step - ref).max() <= 1e-10 * np.abs(ref).max()
        if name.startswith("figure8"):
            assert itn == ref_itn
            assert np.abs(step - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize(
        "name", ["identity-8-r6", "hex-10-r4", "figure8x2-rotated-20", "figure8-rotated-96"]
    )
    def test_preconditioner_is_symmetric_and_kills_constants(self, name, monkeypatch):
        monkeypatch.setattr("isomesh.solver._DENSE_FACETS", 0)
        mesh = _chart_case(name)
        jac = mu_jacobian(mesh)
        precondition, _ = _circulant_preconditioner(mesh.chart, jac)
        nfacets = mesh.chart.vertex_count
        rng = np.random.default_rng(10)
        a, b = rng.standard_normal((2, nfacets))
        pb = precondition(b)
        assert abs(a @ pb - b @ precondition(a)) <= 1e-12 * np.linalg.norm(a) * np.linalg.norm(pb)
        assert np.abs(precondition(np.ones(nfacets))).max() <= 1e-12 * np.abs(pb).max()
        if nfacets <= 512:
            monkeypatch.setattr("isomesh.solver._DENSE_FACETS", 512)
            dense, _ = _circulant_preconditioner(mesh.chart, jac)
            assert np.abs(dense(b) - pb).max() <= 1e-12 * np.abs(pb).max()

    @pytest.mark.parametrize(
        "name", ["identity-8-r6", "hex-9-r6", "figure8x2-rotated-20", "figure8-rotated-96"]
    )
    def test_inverts_the_facet_average_of_j_jt(self, name):
        # C y = sum over the 3x3 facet steps delta of a(delta) y(f + delta),
        # a(delta) the facet average of (J J^T)[f, f + delta], read off the
        # assembled matrix: C C^+ C = C up to the floored symbol values.
        mesh = _chart_case(name)
        jac = mu_jacobian(mesh)
        precondition, s_max = _circulant_preconditioner(mesh.chart, jac)
        ref = mu_jacobian_sparse(mesh)
        gram = (ref @ ref.T).tocsr()
        offsets = mesh.chart.neighbours.reshape(-1, 9)
        facets = np.arange(len(offsets))
        assert all(len(set(row)) == 9 for row in offsets)  # 9 distinct steps
        average = [np.asarray(gram[facets, offsets[:, k]]).mean() for k in range(9)]

        def convolve(y):
            return sum(average[k] * y[offsets[:, k]] for k in range(9))

        y = np.random.default_rng(11).standard_normal(len(offsets))
        cy = convolve(y)
        assert np.abs(convolve(precondition(cy)) - cy).max() <= 1e-10 * s_max * np.abs(y).max()

    @pytest.mark.parametrize("name", ["figure8-rotated-12", "figure8-rotated-96", "hex-9-r6"])
    def test_first_stop_applies_the_transpose_once_per_iteration(self, name):
        # Stop test 1 reads x, phibar and anorm only, so a run that ends
        # there applies J^T once before the loop and once in each iteration
        # but the last.
        mesh = _chart_case(name)
        rhs = gauss_newton_rhs(mesh)
        jac = mu_jacobian(mesh)
        precondition, s_max = _circulant_preconditioner(mesh.chart, jac)
        calls = []

        def rmatvec(y):
            calls.append(1)
            return jac.rmatvec(y)

        counted = SimpleNamespace(shape=jac.shape, matvec=jac.matvec, rmatvec=rmatvec)
        bound = 1e-6 * np.abs(rhs).max()
        _, istop, itn = lsqr(counted, rhs, precondition, 10_000, bound / np.sqrt(s_max))
        assert istop == 1 and itn > 1
        assert len(calls) == itn

    def test_fewer_iterations_than_unpreconditioned(self):
        mesh = _chart_case("figure8-rotated-96")
        rhs = gauss_newton_rhs(mesh)
        jac = mu_jacobian(mesh)
        precondition, _ = _circulant_preconditioner(mesh.chart, jac)
        _, _, itn = lsqr(jac, rhs, precondition, 10_000)
        _, _, plain = lsqr(jac, rhs, lambda y: y - y.mean(), 10_000)
        assert 2 * itn <= plain

    def test_zero_rhs(self):
        mesh = _chart_case("hex-10-r4")
        jac = mu_jacobian(mesh)
        precondition, _ = _circulant_preconditioner(mesh.chart, jac)
        step, istop, itn = lsqr(jac, np.zeros(jac.shape[0]), precondition, 10)
        assert (istop, itn) == (0, 0) and not step.any()

    def test_iteration_limit_is_a_failure(self, monkeypatch):
        # With a zero tolerance and no inner target no stopping test passes
        # before a breakdown (beta = 0, which rounding may bring at any
        # iteration), so LSQR capped at 3 iterations runs to its limit and
        # the projection fails.
        monkeypatch.setattr("isomesh.solver._LSQR_TOL", 0.0)
        monkeypatch.setattr("isomesh.solver._INNER_SHARE", 0.0)
        monkeypatch.setattr(solver, "lsqr", lambda *args: lsqr(*args[:3], 3, *args[4:]))
        spec = make_product_torus(figure_eight(), circle())
        with pytest.raises(LinearSolveFailure, match="istop=7"):
            project_isotropic(sample_quad(spec, rotated_chart(6)))


class TestProjectIsotropic:
    def test_flat_plane_fixed_point(self):
        mesh = sample_quad(make_flat_plane(), identity_chart(4))
        rho, rep = project_isotropic(mesh)
        assert rep.iterations == 0
        assert rep.correction_c0 == 0.0
        assert np.array_equal(rho.values, mesh.values)

    def test_sheared_isotropic_fixed_point(self):
        # Adding independent constants to the two vertex parity classes
        # keeps the mesh isotropic; the solver returns it unchanged.
        ch = identity_chart(8)
        mesh = sample_quad(make_flat_plane(), ch)
        kc, lc = ch.all_canonical()
        parity = ((kc + lc) % 2)[:, None]
        rng = np.random.default_rng(4)
        values = mesh.values + np.where(parity == 0, rng.standard_normal(4),
                                        rng.standard_normal(4))
        sheared = QuadMesh(ch, values, mesh.target_periods)
        assert np.abs(symplectic_density(sheared).values).max() <= 1e-12
        rho, rep = project_isotropic(sheared)
        assert rep.iterations == 0
        assert np.array_equal(rho.values, sheared.values)

    @pytest.mark.parametrize("n", [8, 16])
    def test_output_contract(self, n):
        spec = make_product_torus(figure_eight(), circle())
        tau = sample_quad(spec, rotated_chart(n))
        rho, rep = project_isotropic(tau)
        mu = symplectic_density(rho).values
        assert rep.residual_c0 == np.abs(mu).max() <= 1e-10
        # Half of each facet's Liouville integral, the residual the refine gate
        # sees at the optimal apex, is within a thousandth of the gate's limit.
        limit = isotropy_limit(quad_edges(tau.corner_table())[1])
        assert np.all(np.abs(facet_liouville(rho).values) / 2 <= 1e-3 * limit)
        assert np.all(np.abs(mu) <= 2e-3 * n**2 * limit)
        assert rep.correction_c0 > 0

    @pytest.mark.parametrize("k", range(-6, 7))
    def test_stop_is_scale_invariant(self, k):
        # The stop scales with the squared map: every scale takes the unscaled
        # run's steps, and the correction scales with the map.
        spec = make_product_torus(figure_eight(), circle())
        tau = sample_quad(spec, rotated_chart(12))
        _, rep1 = project_isotropic(tau)
        c = 10.0**k
        scaled = QuadMesh(tau.chart, c * tau.values, c * tau.target_periods)
        _, rep = project_isotropic(scaled)
        assert rep1.iterations == rep.iterations == 3
        assert rep.correction_c0 == pytest.approx(c * rep1.correction_c0, rel=1e-9)

    def test_equivariance_under_unitary_symplectic(self):
        spec = make_product_torus(figure_eight(), circle())
        tau = sample_quad(spec, rotated_chart(8))
        rng = np.random.default_rng(5)
        a = random_unitary_symplectic(2, rng)
        rho0, rep0 = project_isotropic(tau)
        mapped = QuadMesh(tau.chart, tau.values @ a.T, tau.target_periods)
        rho1, rep1 = project_isotropic(mapped)
        assert rep0.iterations == rep1.iterations
        assert np.abs(rho1.values - rho0.values @ a.T).max() <= 1e-10

    def test_min_norm_step(self):
        # The Gauss-Newton step is orthogonal to the kernel of the
        # linearization (dense SVD null space on a small chart).
        ch = rotated_chart(4)
        assert ch.vertex_count <= 64
        spec = make_product_torus(figure_eight(), circle())
        tau = sample_quad(spec, ch)
        jac = mu_jacobian(tau)
        rhs = gauss_newton_rhs(tau)
        precondition, _ = _circulant_preconditioner(ch, jac)
        delta, istop, _ = lsqr(jac, rhs, precondition, 10_000)
        assert istop in (1, 2)
        dense = dense_matrix(jac)
        assert np.abs(dense @ delta - rhs).max() <= 1e-10 * np.abs(rhs).max()
        _, s, vt = np.linalg.svd(dense)
        null = vt[np.sum(s > 1e-10 * s[0]) :]
        assert null.shape[0] > 0
        overlap = np.abs(null @ delta).max()
        assert overlap <= 1e-8 * np.linalg.norm(delta)

    def test_max_iter_exceeded(self, monkeypatch):
        monkeypatch.setattr("isomesh.solver._MAX_ITER", 0)
        rng = np.random.default_rng(6)
        mesh = random_mesh(identity_chart(4), rng)
        assert np.abs(symplectic_density(mesh).values).max() > 1e-10
        with pytest.raises(MaxIterExceeded):
            project_isotropic(mesh)

    def test_random_mesh_converges_eventually(self):
        rng = np.random.default_rng(7)
        mesh = random_mesh(identity_chart(4), rng, scale=0.1)
        rho, rep = project_isotropic(mesh)
        assert rep.residual_c0 <= 1e-10
        assert np.abs(symplectic_density(rho).values).max() <= 1e-10

    @pytest.mark.parametrize("max_iter", [0, 50])
    def test_non_finite_density_fails(self, monkeypatch, max_iter):
        # Radius 1e155 overflows the density to NaN; "NaN > stop" is false, so
        # the loop must be written to fail closed.
        monkeypatch.setattr("isomesh.solver._MAX_ITER", max_iter)
        tau = sample_quad(make_clifford(1e155, 1.0), rotated_chart(6))
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(LinearSolveFailure, match="non-finite"):
                project_isotropic(tau)

    def test_corner_tables_gathered_once_per_mesh(self, monkeypatch):
        # The input's corner table gives the stop and the first density, and
        # each accepted step's density gives its Jacobian: a 2-step projection
        # gathers 3 tables, one per mesh.
        calls = []
        gather = density.corner_value_table

        def counted(*args):
            calls.append(1)
            return gather(*args)

        spec = make_product_torus(figure_eight(), circle())
        tau = sample_quad(spec, rotated_chart(96))
        monkeypatch.setattr(density, "corner_value_table", counted)
        _, rep = project_isotropic(tau)
        assert rep.iterations == 2
        assert len(calls) == 3

    def test_clifford_trivially_converged(self):
        # Product-of-circles samples are already isotropic, so the projection
        # is the identity with zero iterations on any linear chart.
        tau = sample_quad(make_clifford(1.0, 1.0), rotated_chart(8))
        rho, rep = project_isotropic(tau)
        assert rep.iterations == 0
        assert rep.correction_c0 == 0.0


#: The inexact-Newton comparison: the preconditioned-step charts and the five
def test_projection_memory_is_bounded_by_the_value_table():
    # At N=96 on figure8 x circle (9,245 facets) the projection's traced
    # peak stays within 18 copies of the mesh's value table (F d floats):
    # the accepted mesh's diagonal fields U, V are dropped once the Jacobian
    # holds s J U and s J V.  Measured 17.4, and 19.4 with U and V kept
    # through LSQR.
    project_isotropic(Pipeline(PipelineConfig(spec="product:figure8,circle", n=4)).tau)
    tau = Pipeline(PipelineConfig(spec="product:figure8,circle", n=96)).tau
    tracemalloc.start()
    try:
        project_isotropic(tau)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ratio = peak / tau.values.nbytes
    assert ratio <= 18.0, f"traced peak {ratio:.2f} value tables"


#: built-in specs at N = 12 and 96.
_SPECS = ("flat-plane", "clifford", "product:figure8,circle", "product:circle,figure8",
          "product:figure8,figure8")
_INEXACT_CASES = [*TestPreconditionedStep.CASES, *(f"{s}@{n}" for s in _SPECS for n in (12, 96))]


def _inexact_case(name):
    if "@" not in name:
        return _chart_case(name)
    spec, n = name.split("@")
    return sample_quad(spec_from_name(spec), rotated_chart(int(n)))


@pytest.mark.parametrize("name", _INEXACT_CASES)
def test_inner_target_keeps_the_projection(name, monkeypatch):
    # Against inner solves to the relative tolerance (share 0): the same
    # Gauss-Newton steps, every facet within the stop, the same values to
    # 1e-14 of their size, and no more LSQR iterations in all.
    tau = _inexact_case(name)
    stop = 2.0 * _HEADROOM * tau.chart.N**2 * isotropy_limit(quad_edges(tau.corner_table())[1])
    itns = []

    def counted(*args, **kwargs):
        result = lsqr(*args, **kwargs)
        itns[-1] += result[2]
        return result

    monkeypatch.setattr(solver, "lsqr", counted)
    runs = []
    for share in (0.0, solver._INNER_SHARE):
        monkeypatch.setattr(solver, "_INNER_SHARE", share)
        itns.append(0)
        runs.append(project_isotropic(tau))
    (exact, exact_rep), (rho, rep) = runs
    assert rep.iterations == exact_rep.iterations
    assert np.all(np.abs(symplectic_density(rho).values) <= stop)
    assert np.abs(rho.values - exact.values).max() <= 1e-14 * np.abs(exact.values).max()
    assert itns[1] <= itns[0]
