"""Barycentric and optimal apexes, quadrilateral dimension, refinement."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    identity_chart,
    optimal_apexes_svd,
    quad_edges_reference,
    quad_rank,
    random_isotropic_plane_parallelogram,
    random_isotropic_quad_of_rank,
    random_isotropic_quadrilateral,
    random_mesh,
    random_unitary_symplectic,
    rotated_chart,
)
from isomesh import (
    NotIsotropic,
    TriMesh,
    apex_refine,
    barycentric_apexes,
    make_flat_plane,
    make_product_torus,
    circle,
    figure_eight,
    optimal_apexes,
    project_isotropic,
    sample_quad,
)
from isomesh.density import QuadMesh
from isomesh.plmap import build_pl
from isomesh.refine import apex_constraints, quad_edges
from isomesh.symplectic import liouville_polygon, omega


UNIT_SQUARE = np.array(
    [[0, 0, 0, 0], [1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 0, 0]], dtype=float
)


class TestBarycentricApexes:
    def test_unit_square(self):
        ch = identity_chart(2)
        rng = np.random.default_rng(0)
        mesh = random_mesh(ch, rng)
        tri = barycentric_apexes(mesh)
        quads = mesh.corner_table()
        assert np.allclose(tri.apex_values, quads.mean(axis=1))

    def test_constant_mesh(self):
        ch = identity_chart(4)
        mesh = QuadMesh(ch, np.tile([1.0, -2.0, 0.5, 3.0], (16, 1)))
        tri = barycentric_apexes(mesh)
        assert np.allclose(tri.apex_values, [1.0, -2.0, 0.5, 3.0])

    def test_barycentric_rate(self, clifford_sweep):
        # ||hat rho - tau'|| decays at second order over the dyadic sweep.
        vals = [(n, clifford_sweep[n]["hat_c0"]) for n in sorted(clifford_sweep)]
        from isomesh.cli import fit_slope

        assert -2.3 <= fit_slope(vals) <= -1.7


class TestOptimalApex:
    def test_isotropic_plane_square(self):
        # Planar isotropic parallelogram: apex is the barycenter exactly.
        pts = np.array(
            [[0, 0, 0, 0], [1, 0, 0, 0], [1, 0, 1, 0], [0, 0, 1, 0]], dtype=float
        )
        apex = optimal_apexes(pts)
        assert np.abs(apex - pts.mean(axis=0)).max() <= 1e-12

    def test_random_parallelograms(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            pts = random_isotropic_plane_parallelogram(rng)
            apex = optimal_apexes(pts)
            assert np.abs(apex - pts.mean(axis=0)).max() <= 1e-12 * max(
                1.0, np.abs(pts).max()
            )

    def test_degenerate_point(self):
        q = np.array([0.3, -1.2, 0.7, 2.0])
        apex = optimal_apexes([q, q, q, q])
        assert np.allclose(apex, q)

    def test_random_isotropic_quadrilaterals(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            pts = random_isotropic_quadrilateral(rng)
            apex = optimal_apexes(pts)
            rows, rhs = apex_constraints(pts)
            # All four constraints hold.
            assert np.abs(rows @ apex - rhs).max() <= 1e-11
            # Pyramid triangles span isotropic planes.
            for i in range(4):
                a, b = pts[i], pts[(i + 1) % 4]
                assert abs(omega(a - apex, b - apex)) <= 1e-11
            # Minimum-distance optimality against a pseudoinverse oracle.
            g = pts.mean(axis=0)
            oracle = g + np.linalg.pinv(rows, rcond=1e-12) @ (rhs - rows @ g)
            assert np.abs(apex - oracle).max() <= 1e-9
            # KKT: the correction lies in the row space of the constraints.
            _, s, vt = np.linalg.svd(rows)
            null = vt[np.sum(s > 1e-10 * s[0]) :]
            assert np.abs(null @ (apex - g)).max() <= 1e-10

    def test_equivariance(self):
        rng = np.random.default_rng(3)
        pts = random_isotropic_quadrilateral(rng)
        apex = optimal_apexes(pts)
        for _ in range(5):
            a = random_unitary_symplectic(2, rng)
            c = rng.standard_normal(4)
            mapped = pts @ a.T + c
            mapped_apex = optimal_apexes(mapped)
            assert np.abs(mapped_apex - (a @ apex + c)).max() <= 1e-10

    @pytest.mark.parametrize("side", [1e-7, 1e-3, 1.0, 1e6, 1e150, 1e300])
    def test_symplectic_square_raises_at_any_scale(self, side):
        # The unit square of the (x1, y1) plane is as far from isotropic as
        # a square can be; the gate is scale-invariant, so no side passes,
        # also where the squared side overflows the limit to inf.
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(NotIsotropic):
                optimal_apexes(side * UNIT_SQUARE)

    def test_isotropic_quads_pass_at_any_scale_and_position(self):
        # Rank 0-3 isotropic quads in R^4 and R^6, scaled by 1e-6 ... 1e6
        # and moved by up to 1e6 times that scale, all pass: the gate is
        # formed on the quad centred on its barycenter.  The moved quads
        # are isotropic up to the rounding of the move, under half the
        # limit at the largest move.
        for dim in (4, 6):
            rng = np.random.default_rng(dim)
            base = np.stack(
                [random_isotropic_quad_of_rank(rng, r, dim) for r in range(4) for _ in range(25)]
            )
            move = rng.standard_normal((base.shape[0], 1, dim))
            move /= np.linalg.norm(move, axis=-1, keepdims=True)
            scales = 10.0 ** np.arange(-6, 7)[:, None, None, None, None]
            shifts = np.array([0.0, 1e3, 1e6])[:, None, None, None]
            quads = scales * (base + shifts * move)
            apex = optimal_apexes(quads)
            assert np.isfinite(apex).all()

    def test_non_isotropic_raises(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            pts = rng.standard_normal((4, 4))
            liou = liouville_polygon(pts)
            if abs(liou) < 1e-3:
                continue
            with pytest.raises(NotIsotropic):
                optimal_apexes(pts)
            # Feasibility <=> isotropy: the least-squares residual of the
            # apex system is bounded below by |liouville| / 2 in sup norm
            # (the four residuals always sum to 2x the Liouville integral).
            rows, rhs = apex_constraints(pts)
            sol = np.linalg.lstsq(rows, rhs, rcond=None)[0]
            assert np.abs(rows @ sol - rhs).max() >= abs(liou) / 2.0 - 1e-12


class TestApexAgainstSvd:
    @given(
        seed=st.integers(0, 2**32 - 1),
        rank=st.integers(0, 3),
        dim=st.sampled_from([4, 6]),
        exponent=st.integers(-6, 6),
    )
    @settings(max_examples=80, deadline=None)
    def test_isotropic_quads(self, seed, rank, dim, exponent):
        # Both apexes pass the gate at every scale, and the QR apex is the
        # SVD apex within rounding of the conditioned solve.
        rng = np.random.default_rng(seed)
        quads = 10.0**exponent * np.stack(
            [random_isotropic_quad_of_rank(rng, rank, dim) for _ in range(4)]
        )
        ref, ref_passed = optimal_apexes_svd(quads)
        assert ref_passed.all()
        eps = np.finfo(float).eps
        for quad, want in zip(quads, ref):
            assert quad_rank(quad) == rank
            got = optimal_apexes(quad)
            s = np.linalg.svd(apex_constraints(quad)[0], compute_uv=False)
            cond = s[0] / s[rank - 1] if rank else 1.0
            assert np.abs(got - want).max() <= 64 * eps * cond * np.abs(quad).max()

    @given(
        seed=st.integers(0, 2**32 - 1),
        rank=st.integers(0, 3),
        dim=st.sampled_from([4, 6]),
        exponent=st.integers(-6, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_spoiled_quads_same_verdict(self, seed, rank, dim, exponent):
        # Off isotropy by a Liouville integral far above rounding, the two
        # least-squares apexes give the same gate verdict.
        rng = np.random.default_rng(seed)
        quad = random_isotropic_quad_of_rank(rng, rank, dim)
        quad = quad + 0.5 * rng.standard_normal(quad.shape)
        assume(abs(liouville_polygon(quad)) > 1e-2)
        quad *= 10.0**exponent
        _, (want_passed,) = optimal_apexes_svd(quad[None])
        try:
            optimal_apexes(quad)
            passed = True
        except NotIsotropic:
            passed = False
        assert passed == want_passed


class TestQuadDimension:
    def test_unit_square(self):
        assert quad_rank(UNIT_SQUARE) == 2

    def test_repeated_point(self):
        q = np.ones(4)
        assert quad_rank([q, q, q, q]) == 0

    def test_segment(self):
        a = np.zeros(4)
        b = np.array([1.0, 0, 0, 0])
        assert quad_rank([a, b, a, b]) == 1

    def test_generic_isotropic_rank_match(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            pts = random_isotropic_quadrilateral(rng)
            dim = quad_rank(pts)
            rows, _ = apex_constraints(pts)
            rank = np.linalg.matrix_rank(rows, tol=1e-10)
            assert dim == 3
            assert rank == dim


class TestApexRefine:
    def test_flat_plane_barycenters(self):
        mesh = sample_quad(make_flat_plane(), identity_chart(4))
        rho, _ = project_isotropic(mesh)
        tri = apex_refine(rho)
        hat = barycentric_apexes(rho)
        assert np.abs(tri.apex_values - hat.apex_values).max() <= 1e-13

    def test_triangle_isotropy(self):
        spec = make_product_torus(figure_eight(), circle())
        tau = sample_quad(spec, rotated_chart(8))
        rho, _ = project_isotropic(tau)
        tri = apex_refine(rho)
        quads = rho.corner_table()
        edges = np.roll(quads, -1, axis=1) - quads
        scale = np.linalg.norm(edges, axis=-1).max()
        worst = 0.0
        for s in range(4):
            a = quads[:, s]
            b = quads[:, (s + 1) % 4]
            p = tri.apex_values
            worst = max(worst, np.abs(omega(a - p, b - p)).max())
        assert worst <= 1e-9 * scale**2

    def test_non_finite_raises(self):
        # An overflowing (x 1e155) or NaN quadrilateral has NaN residuals,
        # which must fail the gate, not pass it.
        quad = random_isotropic_quadrilateral(np.random.default_rng(7))
        spoiled = quad.copy()
        spoiled[1, 2] = np.nan
        for bad in (1e155 * quad, spoiled):
            with np.errstate(invalid="ignore", over="ignore"):
                with pytest.raises(NotIsotropic):
                    optimal_apexes(bad)

    def test_not_isotropic_propagates_facet(self):
        rng = np.random.default_rng(6)
        mesh = random_mesh(identity_chart(4), rng)
        with pytest.raises(NotIsotropic) as err:
            apex_refine(mesh)
        assert err.value.facet is not None

    def test_not_isotropic_names_first_bad_facet(self):
        # Lifting one vertex of a flat isotropic mesh out of its plane
        # spoils the four facets around it; the error names the first in
        # canonical order as (k, l), with its residual, limit and Liouville
        # integral.
        chart = rotated_chart(4)
        rho, _ = project_isotropic(sample_quad(make_flat_plane(), chart))
        values = rho.values.copy()
        values[5] += [0.0, 0.3, -0.2, 0.0]
        mesh = QuadMesh(chart, values, target_periods=rho.target_periods)
        _, passed = optimal_apexes_svd(mesh.corner_table())
        first = int(np.nonzero(~passed)[0][0])
        kc, lc = chart.all_canonical()
        with pytest.raises(NotIsotropic) as err:
            apex_refine(mesh)
        facet = err.value.facet
        assert facet == (kc[first], lc[first])
        assert all(type(x) is int for x in facet)
        pattern = (
            rf"facet \({facet[0]}, {facet[1]}\): isotropy residual \S+e[+-]\d\d "
            r"exceeds its limit \S+e[+-]\d\d \(liouville integral \S+e[+-]\d\d\)"
        )
        assert re.fullmatch(pattern, str(err.value))

    def test_counts(self):
        mesh = sample_quad(make_flat_plane(), identity_chart(3))
        rho, _ = project_isotropic(mesh)
        tri = apex_refine(rho)
        assert tri.corner_values.shape == (9, 4)
        assert tri.apex_values.shape == (9, 4)
        assert build_pl(tri).tri_values.shape[0] == 36

    def test_apex_stays_near_barycenter(self, clifford_sweep):
        # Optimal apexes deviate from the barycenters at second order.
        from isomesh.cli import fit_slope

        vals = []
        for n in sorted(clifford_sweep):
            rho = clifford_sweep[n]["rho"]
            tri = clifford_sweep[n]["tri"]
            hat = barycentric_apexes(rho)
            vals.append(
                (n, float(np.linalg.norm(tri.apex_values - hat.apex_values, axis=1).max()))
            )
        assert -2.4 <= fit_slope(vals) <= -1.6


class TestMeshValidation:
    # QuadMesh and TriMesh share one rule: values (F, 2n) with 2n even,
    # target periods (2, 2n).
    @pytest.mark.parametrize(
        "make",
        [
            lambda chart, values, periods: QuadMesh(chart, values, periods),
            lambda chart, values, periods: TriMesh(chart, values, values, periods),
        ],
        ids=["QuadMesh", "TriMesh"],
    )
    @pytest.mark.parametrize(
        "shape, periods_shape, message",
        [
            ((15, 4), None, "expected 16 vertex values"),
            ((16, 3), None, "target dimension must be even"),
            ((16, 4), (3, 4), "target_periods must have shape"),
            ((16, 4), (2, 6), "target_periods must have shape"),
        ],
    )
    def test_rejects(self, make, shape, periods_shape, message):
        periods = None if periods_shape is None else np.zeros(periods_shape)
        with pytest.raises(ValueError, match=message):
            make(identity_chart(4), np.zeros(shape), periods)

    def test_tri_apex_table_matches_corners(self):
        with pytest.raises(ValueError, match="matching shapes"):
            TriMesh(identity_chart(4), np.zeros((16, 4)), np.zeros((16, 6)))


@pytest.mark.parametrize("dim", [4, 6])
def test_quad_edges_match_row_major(dim):
    # Coordinate-major edges and their longest lengths, summed coordinate by
    # coordinate, equal the row-major reference bit for bit.
    rng = np.random.default_rng(dim)
    quads = rng.standard_normal((3, 50, 4, dim)) * 10.0 ** rng.uniform(-8, 8, (3, 50, 1, 1))
    edges, side = quad_edges(quads)
    ref_edges, ref_side = quad_edges_reference(quads)
    assert np.array_equal(np.moveaxis(edges, (0, 1), (-1, -2)), ref_edges)
    assert np.array_equal(side, ref_side)
    spec = make_product_torus(figure_eight(), circle())
    corners = project_isotropic(sample_quad(spec, rotated_chart(12)))[0].corner_table()
    assert np.array_equal(quad_edges(corners)[1], quad_edges_reference(corners)[1])
