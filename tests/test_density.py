"""Diagonals, symplectic density, Liouville integrals, weak norms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    corrected_lookup,
    identity_chart,
    random_mesh,
    random_symplectic,
    rotated_chart,
)
from isomesh import (
    build_chart,
    make_clifford,
    make_flat_plane,
    sample_quad,
    symplectic_density,
    weak_norm,
)
from isomesh import density
from isomesh.density import (
    FacetField,
    QuadMesh,
    _diagonal_fields,
    _diagonal_parity_classes,
    facet_liouville,
    finite_difference,
)
from isomesh.symplectic import liouville_polygon


def unit_square_mesh():
    """N=1 chart on the doubled lattice: one facet with 4 distinct corners."""
    ch = build_chart(2 * np.eye(2), np.eye(2), 1)
    values = np.zeros((4, 4))
    values[ch.offset_of_raw(1, 0)] = [1, 0, 0, 0]
    values[ch.offset_of_raw(1, 1)] = [1, 1, 0, 0]
    values[ch.offset_of_raw(0, 1)] = [0, 1, 0, 0]
    return ch, QuadMesh(ch, values)


def diagonals(mesh, k, l):
    """Renormalized diagonals (U, V) of facet (k, l)."""
    u, v = _diagonal_fields(mesh)
    f = mesh.chart.offset_of_raw(k, l)
    return u[f], v[f]


class TestDiagonals:
    def test_constant_mesh(self):
        ch = identity_chart(4)
        mesh = QuadMesh(ch, np.tile([1.0, 2.0, 3.0, 4.0], (16, 1)))
        u, v = diagonals(mesh, 1, 2)
        assert np.allclose(u, 0) and np.allclose(v, 0)

    def test_unit_square(self):
        _, mesh = unit_square_mesh()
        u, v = diagonals(mesh, 0, 0)
        s = 1 / np.sqrt(2)
        assert np.allclose(u, [s, s, 0, 0])
        assert np.allclose(v, [-s, s, 0, 0])

    def test_flat_plane_diagonals(self):
        ch = identity_chart(4)
        mesh = sample_quad(make_flat_plane(), ch)
        u, v = diagonals(mesh, 1, 1)
        s = 1 / np.sqrt(2)
        assert np.allclose(u, [s, 0, s, 0], atol=1e-14)
        assert np.allclose(v, [-s, 0, s, 0], atol=1e-14)


class TestSymplecticDensity:
    def test_unit_square_density(self):
        _, mesh = unit_square_mesh()
        mu = symplectic_density(mesh).values
        assert mu.shape == (4,)
        # Oracle: the Liouville integral of the unit square is 1 and
        # mu = N^2 * liouville with N = 1.
        assert abs(mu[0] - 1.0) <= 1e-14

    def test_flat_plane_zero(self):
        mesh = sample_quad(make_flat_plane(), identity_chart(4))
        assert np.abs(symplectic_density(mesh).values).max() == 0.0

    @pytest.mark.parametrize("n", [4, 8])
    def test_liouville_consistency(self, n):
        # For every facet of every mesh: liouville = N^{-2} mu.
        rng = np.random.default_rng(n)
        for chart in (identity_chart(n), rotated_chart(n)):
            mesh = random_mesh(chart, rng)
            mu = symplectic_density(mesh).values
            liou = facet_liouville(mesh).values
            assert np.abs(liou - mu / chart.N**2).max() <= 1e-12

    def test_telescoping(self):
        rng = np.random.default_rng(5)
        for chart in (identity_chart(8), rotated_chart(8), identity_chart(5)):
            for _ in range(5):
                mesh = random_mesh(chart, rng)
                mu = symplectic_density(mesh).values
                assert abs(mu.sum()) <= 1e-11 * chart.vertex_count

    def test_translation_invariance(self):
        rng = np.random.default_rng(6)
        ch = rotated_chart(8)
        mesh = random_mesh(ch, rng)
        shifted = QuadMesh(ch, mesh.values + rng.standard_normal(4))
        assert np.allclose(
            symplectic_density(mesh).values,
            symplectic_density(shifted).values,
            atol=1e-12,
        )

    def test_shear_invariance(self):
        # Independent constant translations of the two vertex parity classes.
        rng = np.random.default_rng(7)
        ch = identity_chart(8)
        kc, lc = ch.all_canonical()
        parity = (kc + lc) % 2
        mesh = random_mesh(ch, rng)
        mu0 = symplectic_density(mesh).values
        for _ in range(5):
            c_even = rng.standard_normal(4)
            c_odd = rng.standard_normal(4)
            values = mesh.values + np.where(
                (parity == 0)[:, None], c_even, c_odd
            )
            mu1 = symplectic_density(QuadMesh(ch, values)).values
            assert np.abs(mu1 - mu0).max() <= 1e-12

    def test_symplectomorphism_equivariance(self):
        rng = np.random.default_rng(8)
        ch = rotated_chart(6)
        mesh = random_mesh(ch, rng)
        mu0 = symplectic_density(mesh).values
        for _ in range(5):
            a = random_symplectic(2, rng)
            mapped = QuadMesh(ch, mesh.values @ a.T)
            mu1 = symplectic_density(mapped).values
            assert np.abs(mu1 - mu0).max() <= 1e-9 * max(1.0, np.abs(mu0).max())


class TestLiouvillePolygon:
    def test_unit_square(self):
        square = np.array(
            [[0, 0, 0, 0], [1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 0, 0]], dtype=float
        )
        assert abs(liouville_polygon(square) - 1.0) <= 1e-15

    def test_shoelace_oracle(self):
        # Polygons in the (x1, y1) plane: the Liouville integral equals the
        # shoelace signed area.
        rng = np.random.default_rng(9)
        for m in (3, 4, 7):
            xy = rng.standard_normal((m, 2))
            pts = np.zeros((m, 4))
            pts[:, 0] = xy[:, 0]
            pts[:, 1] = xy[:, 1]
            shoelace = 0.5 * np.sum(
                xy[:, 0] * np.roll(xy[:, 1], -1) - np.roll(xy[:, 0], -1) * xy[:, 1]
            )
            assert abs(liouville_polygon(pts) - shoelace) <= 1e-12

    def test_isotropic_plane_zero(self):
        rng = np.random.default_rng(10)
        pts = np.zeros((5, 4))
        pts[:, 0] = rng.standard_normal(5)  # x1
        pts[:, 2] = rng.standard_normal(5)  # x2
        assert abs(liouville_polygon(pts)) <= 1e-15

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            liouville_polygon(np.zeros((2, 4)))

    @given(st.integers(0, 6))
    @settings(max_examples=20, deadline=None)
    def test_cyclic_invariance(self, shift):
        rng = np.random.default_rng(42)
        pts = rng.standard_normal((7, 4))
        rolled = np.roll(pts, shift, axis=0)
        assert abs(liouville_polygon(pts) - liouville_polygon(rolled)) <= 1e-12


class TestFiniteDifference:
    def test_constant_field(self):
        ch = identity_chart(4)
        f = FacetField(ch, np.full(16, 3.25))
        for d in ("u", "v"):
            assert np.abs(finite_difference(f, d).values).max() == 0.0

    def test_parity_field_annihilated(self):
        ch = identity_chart(8)
        kc, lc = ch.all_canonical()
        f = FacetField(ch, (-1.0) ** (kc + lc))
        for d in ("u", "v"):
            assert np.abs(finite_difference(f, d).values).max() == 0.0

    def test_linear_field_interior(self):
        n = 4
        ch = identity_chart(n)
        kc, lc = ch.all_canonical()
        f = FacetField(ch, (kc + lc) / n)
        du = finite_difference(f, "u").values
        # Interior facets (no wrap in the u-step): difference is sqrt(2).
        interior = (kc < n - 1) & (lc < n - 1)
        assert np.allclose(du[interior], np.sqrt(2.0), atol=1e-13)

    def test_bad_direction(self):
        ch = identity_chart(4)
        with pytest.raises(ValueError):
            finite_difference(FacetField(ch, np.zeros(16)), "e1")


class TestWeakNorm:
    def test_constant_field(self):
        ch = identity_chart(8)
        f = FacetField(ch, np.full(64, -2.5))
        assert weak_norm(f, "C0") == 2.5
        assert weak_norm(f, "C1_w") == 2.5
        assert weak_norm(f, "C0alpha_w") == 2.5

    def test_parity_field_blind_spot(self):
        # The weak norms do not see the alternating field's e1 oscillation:
        # C1_w stays 1 while the e1 finite difference grows like N.
        n = 8
        ch = identity_chart(n)
        kc, lc = ch.all_canonical()
        f = FacetField(ch, (-1.0) ** (kc + lc))
        assert weak_norm(f, "C1_w") == 1.0
        e1_diff = (n / np.sqrt(2)) * np.abs(
            f.values[ch.offset_of_raw(kc + 1, lc)] - f.values
        )
        assert e1_diff.max() == pytest.approx(n * np.sqrt(2))

    def test_holder_control_quick(self):
        ch = identity_chart(8)
        rng = np.random.default_rng(12)
        for _ in range(10):
            f = FacetField(ch, rng.standard_normal(64))
            assert weak_norm(f, "C0alpha_w") <= 3.0 * weak_norm(f, "C1_w")

    def test_vector_valued(self):
        ch = identity_chart(4)
        f = FacetField(ch, np.tile([3.0, 4.0, 0.0, 0.0], (16, 1)))
        assert weak_norm(f, "C0") == pytest.approx(5.0)

    def test_bad_kind(self):
        ch = identity_chart(4)
        f = FacetField(ch, np.zeros(16))
        with pytest.raises(ValueError):
            weak_norm(f, "C2_w")

    def test_sampled_pairs_close_to_exact(self, monkeypatch):
        ch = identity_chart(8)
        rng = np.random.default_rng(13)
        f = FacetField(ch, rng.standard_normal(64))
        exact = weak_norm(f, "C0alpha_w")
        monkeypatch.setattr(density, "_EXACT_PAIR_LIMIT", 1)
        monkeypatch.setattr(density, "_SAMPLE_PAIRS", 200_000)
        sampled = weak_norm(f, "C0alpha_w")
        assert sampled <= exact + 1e-12
        assert sampled >= 0.5 * exact


class TestParityClasses:
    def test_even_chart_splits(self):
        ch = identity_chart(8)
        classes = _diagonal_parity_classes(ch)
        assert len(classes) == 2
        assert sum(c.size for c in classes) == 64

    def test_odd_chart_single_class(self):
        ch = identity_chart(5)
        classes = _diagonal_parity_classes(ch)
        assert len(classes) == 1
        assert classes[0].size == 25


class TestQuadMesh:
    def test_size_validation(self):
        ch = identity_chart(4)
        with pytest.raises(ValueError):
            QuadMesh(ch, np.zeros((15, 4)))
        with pytest.raises(ValueError):
            QuadMesh(ch, np.zeros((16, 3)))

    def test_raw_lookup_resolves(self):
        ch = rotated_chart(6)
        rng = np.random.default_rng(14)
        mesh = random_mesh(ch, rng)
        kc, lc = ch.all_canonical()
        m = ch.m_matrix
        raw_k = kc + m[0, 0] * 3 - m[0, 1]
        raw_l = lc + m[1, 0] * 3 - m[1, 1]
        got = corrected_lookup(ch, mesh.values, mesh.target_periods, raw_k, raw_l)
        assert np.array_equal(got, mesh.values)

    def test_quasi_periodic_lookup(self):
        ch = identity_chart(4)
        mesh = sample_quad(make_flat_plane(), ch)
        # One period over in k: values shift by the first target period.
        got = corrected_lookup(ch, mesh.values, mesh.target_periods, 4, 0)
        want = corrected_lookup(ch, mesh.values, mesh.target_periods, 0, 0) + [1, 0, 0, 0]
        assert np.allclose(got, want, atol=1e-15)

    def test_mu_paper_rate_instance_is_degenerate(self):
        # Product-of-circles samples are exactly isotropic on linear charts:
        # the density is facet-constant and telescoping forces it to zero.
        for chart in (identity_chart(8), rotated_chart(8)):
            mesh = sample_quad(make_clifford(1.0, 1.0), chart)
            assert np.abs(symplectic_density(mesh).values).max() <= 1e-12
