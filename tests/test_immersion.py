"""Built-in parametrizations, jets, isotropy defects, sampling."""

import numpy as np
import pytest

from helpers import (
    ALL_BUILTINS,
    corrected_lookup,
    identity_chart,
    rotated_chart,
    smooth_isotropy_defect,
)
from isomesh import (
    ImmersionSpec,
    build_chart,
    circle,
    figure_eight,
    make_clifford,
    make_flat_plane,
    make_product_torus,
    sample_quad,
    sample_tri,
    spec_from_name,
)
from isomesh.immersion import FIGURE_EIGHT_NODE_PARAMS


class TestClifford:
    def test_point_values(self):
        spec = make_clifford(1.0, 1.0)
        assert np.allclose(spec.eval(np.array([0.0, 0.0])), [1, 0, 1, 0])

    def test_jet_ds(self):
        spec = make_clifford(1.0, 1.0)
        _, deriv = spec.jet(np.array([0.0, 0.0]))
        assert np.allclose(deriv[:, 0], [0, 2 * np.pi, 0, 0], atol=1e-14)
        assert np.allclose(deriv[:, 1], [0, 0, 0, 2 * np.pi], atol=1e-14)

    def test_isotropy_defect(self):
        assert smooth_isotropy_defect(make_clifford(1.0, 1.0), 32) <= 1e-14

    def test_bad_radii(self):
        with pytest.raises(ValueError):
            make_clifford(0.0, 1.0)


class TestFlatPlane:
    def test_exact_zero_defect(self):
        assert smooth_isotropy_defect(make_flat_plane(), 8) == 0.0

    def test_target_periods(self):
        spec = make_flat_plane()
        p = np.array([0.3, 0.7])
        for i in range(2):
            gamma = spec.gamma_basis[:, i]
            shift = spec.eval(p + gamma) - spec.eval(p)
            assert np.allclose(shift, spec.target_periods[i], atol=1e-14)


def test_non_isotropic_defect_value():
    # ell(s,t) = (sin 2 pi s, sin 2 pi t, 0, 0): omega(ds, dt) =
    # 4 pi^2 cos(2 pi s) cos(2 pi t), with max 4 pi^2 attained on the grid.
    def evaluate(p):
        p = np.asarray(p, dtype=float)
        zero = np.zeros_like(p[..., 0])
        return np.stack(
            [
                np.sin(2 * np.pi * p[..., 0]),
                np.sin(2 * np.pi * p[..., 1]),
                zero,
                zero,
            ],
            axis=-1,
        )

    def jet(p):
        p = np.asarray(p, dtype=float)
        zero = np.zeros_like(p[..., 0])
        ds = np.stack([2 * np.pi * np.cos(2 * np.pi * p[..., 0]), zero, zero, zero], -1)
        dt = np.stack([zero, 2 * np.pi * np.cos(2 * np.pi * p[..., 1]), zero, zero], -1)
        return evaluate(p), np.stack([ds, dt], axis=-1)

    spec = ImmersionSpec(
        dim_n=2, eval=evaluate, jet=jet, gamma_basis=np.eye(2), name="test"
    )
    defect = smooth_isotropy_defect(spec, 32)
    assert abs(defect - 4 * np.pi**2) < 1e-12


class TestProductTorus:
    @pytest.mark.parametrize("radii", [(1.0, 1.0), (1.0, 2.0), (0.3, 5.5)])
    def test_circle_circle_matches_clifford(self, radii):
        prod = make_product_torus(circle(radii[0]), circle(radii[1]))
        cliff = make_clifford(*radii)
        rng = np.random.default_rng(0)
        pts = rng.uniform(-2, 2, size=(50, 2))
        assert np.array_equal(prod.eval(pts), cliff.eval(pts))
        for got, want in zip(cliff.jet(pts), prod.jet(pts)):
            assert np.array_equal(got, want)
        # The closed form (r1 cos 2 pi s, r1 sin 2 pi s, r2 cos 2 pi t, r2 sin 2 pi t).
        (r1, r2), (ws, wt) = radii, 2.0 * np.pi * pts.T
        zero = np.zeros_like(ws)
        value = np.stack(
            [r1 * np.cos(ws), r1 * np.sin(ws), r2 * np.cos(wt), r2 * np.sin(wt)], axis=-1
        )
        ds = [-2.0 * np.pi * r1 * np.sin(ws), 2.0 * np.pi * r1 * np.cos(ws), zero, zero]
        dt = [zero, zero, -2.0 * np.pi * r2 * np.sin(wt), 2.0 * np.pi * r2 * np.cos(wt)]
        deriv = np.stack([np.stack(ds, axis=-1), np.stack(dt, axis=-1)], axis=-1)
        assert np.array_equal(cliff.eval(pts), value)
        assert np.array_equal(cliff.jet(pts)[0], value)
        assert np.array_equal(cliff.jet(pts)[1], deriv)

    def test_always_isotropic(self):
        assert smooth_isotropy_defect(
            make_product_torus(figure_eight(), circle()), 32
        ) <= 1e-12

    def test_random_curves_isotropic(self):
        # omega has no cross terms between the factors, so products of
        # arbitrary closed curves are isotropic.
        from isomesh import PlaneCurve

        rng = np.random.default_rng(21)
        for _ in range(5):
            coeff = rng.standard_normal((2, 3, 2))

            def point(t, c=coeff):
                t = np.asarray(t, dtype=float)
                out = np.zeros(t.shape + (2,))
                for k in range(3):
                    w = 2 * np.pi * (k + 1) * t
                    out[..., 0] += c[0, k, 0] * np.cos(w) + c[0, k, 1] * np.sin(w)
                    out[..., 1] += c[1, k, 0] * np.cos(w) + c[1, k, 1] * np.sin(w)
                return out

            def velocity(t, c=coeff):
                t = np.asarray(t, dtype=float)
                out = np.zeros(t.shape + (2,))
                for k in range(3):
                    f = 2 * np.pi * (k + 1)
                    w = f * t
                    out[..., 0] += f * (-c[0, k, 0] * np.sin(w) + c[0, k, 1] * np.cos(w))
                    out[..., 1] += f * (-c[1, k, 0] * np.sin(w) + c[1, k, 1] * np.cos(w))
                return out

            curve = PlaneCurve("fourier", point, velocity)
            spec = make_product_torus(curve, figure_eight())
            assert smooth_isotropy_defect(spec, 16) <= 1e-12

    def test_figure_eight_node(self):
        spec = make_product_torus(figure_eight(), circle())
        s1, s2 = FIGURE_EIGHT_NODE_PARAMS
        assert s1 != s2
        for t in (0.0, 0.31, 0.77):
            p1 = spec.eval(np.array([s1, t]))
            p2 = spec.eval(np.array([s2, t]))
            assert np.allclose(p1, p2, atol=1e-14)

    def test_node_by_root_finding(self):
        # Independent check of the node parameters: scan for distinct curve
        # parameters with coincident points and refine by bisection of the
        # x-difference along the second branch.
        from scipy.optimize import brentq

        f8 = figure_eight()

        def gap(s):
            return np.linalg.norm(f8.point(np.array(s)) - f8.point(np.array(0.0)))

        root = brentq(
            lambda s: f8.point(np.array(s))[1], 0.45, 0.55, xtol=1e-12
        )
        assert abs(root - FIGURE_EIGHT_NODE_PARAMS[1]) < 1e-9
        assert gap(root) < 1e-9


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_jet_matches_finite_differences(name):
    spec = spec_from_name(name)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1, 2, size=(100, 2))
    _, deriv = spec.jet(pts)
    step = 1e-5
    for axis in range(2):
        e = np.zeros(2)
        e[axis] = step
        fd = (spec.eval(pts + e) - spec.eval(pts - e)) / (2 * step)
        denom = np.abs(deriv[..., axis]).max() + 1.0
        assert np.abs(fd - deriv[..., axis]).max() / denom <= 1e-8


@pytest.mark.parametrize("name", ["clifford", "product:figure8,circle"])
def test_periodicity(name):
    spec = spec_from_name(name)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2, 2, size=(40, 2))
    for i in range(2):
        gamma = spec.gamma_basis[:, i]
        assert np.abs(spec.eval(pts + gamma) - spec.eval(pts)).max() <= 1e-12


class TestSampling:
    def test_flat_plane_values(self):
        ch = identity_chart(4)
        mesh = sample_quad(make_flat_plane(), ch)
        for k in range(4):
            for l in range(4):
                got = mesh.values[ch.offset_of_raw(k, l)]
                assert np.allclose(got, [k / 4, 0, l / 4, 0], atol=1e-15)

    def test_clifford_origin(self):
        mesh = sample_quad(make_clifford(1.0, 1.0), identity_chart(8))
        assert np.allclose(mesh.values[0], [1, 0, 1, 0])

    def test_naturality(self):
        # Sampling then translating the index by the period lattice matches
        # the canonical sample.
        ch = rotated_chart(8)
        mesh = sample_quad(make_clifford(1.0, 1.0), ch)
        m = ch.m_matrix
        rng = np.random.default_rng(11)
        for _ in range(20):
            k, l = rng.integers(-10, 10, size=2)
            q = rng.integers(-2, 3, size=2)
            shifted = (k + m[0, 0] * q[0] + m[0, 1] * q[1],
                       l + m[1, 0] * q[0] + m[1, 1] * q[1])
            got = corrected_lookup(ch, mesh.values, mesh.target_periods, *shifted)
            want = corrected_lookup(ch, mesh.values, mesh.target_periods, k, l)
            assert np.allclose(got, want, atol=1e-15)

    def test_sample_tri_center_values(self):
        ch = identity_chart(4)
        tri = sample_tri(make_flat_plane(), ch)
        assert np.allclose(tri.apex_values[ch.offset_of_raw(0, 0)],
                           [1 / 8, 0, 1 / 8, 0], atol=1e-15)

        spec = make_clifford(1.0, 1.0)
        ch8 = identity_chart(8)
        tri8 = sample_tri(spec, ch8)
        expected = spec.eval(np.array([1 / 16, 1 / 16]))
        assert np.allclose(tri8.apex_values[0], expected, atol=1e-15)

    def test_tri_restricts_to_quad(self):
        ch = rotated_chart(8)
        spec = make_clifford(1.0, 1.0)
        assert np.array_equal(
            sample_tri(spec, ch).corner_values, sample_quad(spec, ch).values
        )

    def test_gamma_mismatch_raises(self):
        ch = build_chart(2 * np.eye(2), np.eye(2), 4)
        with pytest.raises(ValueError):
            sample_quad(make_clifford(1.0, 1.0), ch)


class TestSpecFromName:
    def test_known_names(self):
        for name in ALL_BUILTINS:
            spec = spec_from_name(name)
            assert spec.dim_n == 2

    def test_unknown(self):
        for bad in ("sphere", "product:circle", "product:circle,helix",
                    "clifford:1"):
            with pytest.raises(ValueError):
                spec_from_name(bad)

    @pytest.mark.parametrize(
        "name, printed",
        [
            ("clifford", "clifford:1,1"),
            ("clifford:1000,1000", "clifford:1000,1000"),
            ("clifford:1,0.5", "clifford:1,0.5"),
            ("clifford:1.23456789,1", "clifford:1.23456789,1"),
            ("clifford:0.1,3e-7", "clifford:0.1,3e-07"),
            ("clifford:1e155,1", "clifford:1e+155,1"),
            ("product:figure8,circle", "product:figure8,circle"),
            ("flat-plane", "flat-plane"),
        ],
    )
    def test_name_reproduces_the_spec(self, name, printed):
        # The report's spec line must rebuild the map that ran, bit for bit.
        spec = spec_from_name(name)
        assert spec.name == printed
        again = spec_from_name(spec.name)
        p = np.random.default_rng(0).uniform(-1.0, 2.0, (64, 2))
        assert np.array_equal(again.eval(p), spec.eval(p))
        for a, b in zip(again.jet(p), spec.jet(p)):
            assert np.array_equal(a, b)
