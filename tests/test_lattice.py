"""Charts, coset reduction, vertex positions."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import hex_basis, rotated_chart, twisted_dft, twisted_idft
from isomesh import Chart, DegenerateLattice, build_chart, rotation


class TestBuildChart:
    def test_integer_lattice(self):
        ch = build_chart(np.eye(2), np.eye(2), 8)
        assert np.array_equal(ch.m_matrix, 8 * np.eye(2, dtype=int))
        assert np.allclose(ch.a_matrix, np.eye(2))
        assert ch.vertex_count == 64

    def test_rotated_square_basis(self):
        basis = np.array([[1.0, -1.0], [1.0, 1.0]])
        ch = build_chart(basis, np.eye(2), 10)
        assert np.array_equal(ch.m_matrix[:, 0], [10, 10])
        assert np.array_equal(ch.m_matrix[:, 1], [-10, 10])
        assert np.abs(ch.a_matrix - np.eye(2)).max() <= 1e-15

    def test_hexagonal(self):
        ch = build_chart(hex_basis(), np.eye(2), 10)
        assert np.array_equal(ch.m_matrix[:, 1], [5, 9])
        # Gamma sits inside the image lattice exactly.
        got = ch.a_matrix @ (ch.m_matrix[:, 1] / 10.0)
        assert np.abs(got - hex_basis()[:, 1]).max() <= 1e-14
        assert np.linalg.norm(ch.a_matrix - np.eye(2), 2) <= 0.04

    def test_sublattice_inclusion_exact(self):
        for n in (8, 13, 64):
            ch = build_chart(hex_basis(), rotation(0.3), n)
            got = ch.a_matrix @ (ch.m_matrix / float(n))
            assert np.abs(got - hex_basis()).max() <= 1e-13

    def test_almost_isometry_rate(self):
        # ||A_N - R|| * N stays bounded for fixed Gamma and R.
        r = rotation(0.7)
        vals = [
            n * np.linalg.norm(build_chart(np.eye(2), r, n).a_matrix - r, 2)
            for n in range(8, 65)
        ]
        assert max(vals) <= 4.0

    def test_degenerate_raises(self):
        squashed = np.array([[1.0, 1.0], [0.0, 1e-9]])
        with pytest.raises(DegenerateLattice):
            build_chart(squashed, np.eye(2), 1)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            build_chart(np.zeros((2, 2)), np.eye(2), 8)
        with pytest.raises(ValueError):
            build_chart(np.eye(2), 2.0 * np.eye(2), 8)
        with pytest.raises(ValueError):
            build_chart(np.eye(2), np.eye(2), 0)


class TestCanonicalIndex:
    def test_modular_reduction(self):
        ch = build_chart(np.eye(2), np.eye(2), 8)
        assert ch.canonical(9, -1) == (1, 7)
        assert ch.canonical(8, 8) == (0, 0)

    def test_coset_against_brute_force(self):
        m = np.array([[10, 5], [0, 9]])
        ch = Chart(N=10, gamma_basis=np.eye(2), m_matrix=m, a_matrix=np.eye(2))
        # Brute-force coset table: group a window of raw indices by membership
        # of the difference in the column span of M over the integers.
        minv = np.linalg.inv(m.astype(float))

        def same_coset(p, q):
            diff = np.array([p[0] - q[0], p[1] - q[1]], dtype=float)
            coeff = minv @ diff
            return np.allclose(coeff, np.round(coeff), atol=1e-9)

        assert same_coset((11, 10), (6, 1))
        a = ch.canonical(11, 10)
        b = ch.canonical(6, 1)
        assert a == b
        assert same_coset((11, 10), tuple(a))
        # Exactly |det M| distinct canonical representatives.
        seen = {
            ch.canonical(k, l)
            for k in range(-15, 25)
            for l in range(-15, 25)
        }
        assert len(seen) == 90

    @given(
        st.tuples(*(st.integers(-6, 6) for _ in range(4))).filter(
            lambda t: t[0] * t[3] - t[1] * t[2] != 0
        ),
        st.integers(-100, 100),
        st.integers(-100, 100),
    )
    @settings(max_examples=60, deadline=None)
    def test_reduction_properties(self, mvals, k, l):
        m = np.array([[mvals[0], mvals[1]], [mvals[2], mvals[3]]])
        ch = Chart(N=4, gamma_basis=np.eye(2), m_matrix=m, a_matrix=np.eye(2))
        x, y = ch.canonical(k, l)
        # Idempotent retraction.
        assert ch.canonical(x, y) == (x, y)
        # Difference lies in the integer column span of M.
        coeff = np.linalg.solve(m.astype(float), [k - x, l - y])
        assert np.allclose(coeff, np.round(coeff), atol=1e-9)
        # canonical_with_shift reconstructs the raw index exactly.
        cx, cy, q1, q2 = ch.canonical_with_shift(k, l)
        assert (cx, cy) == (x, y)
        assert k == x + m[0, 0] * q1 + m[0, 1] * q2
        assert l == y + m[1, 0] * q1 + m[1, 1] * q2

    @given(
        st.tuples(*(st.integers(-5, 5) for _ in range(4))).filter(
            lambda t: 0 < abs(t[0] * t[3] - t[1] * t[2]) <= 30
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_coset_count(self, mvals):
        m = np.array([[mvals[0], mvals[1]], [mvals[2], mvals[3]]])
        det = abs(int(np.rint(np.linalg.det(m))))
        ch = Chart(N=4, gamma_basis=np.eye(2), m_matrix=m, a_matrix=np.eye(2))
        assert ch.vertex_count == det
        seen = {
            ch.canonical(k, l)
            for k in range(-12, 13)
            for l in range(-12, 13)
        }
        assert len(seen) == det


class TestNeighbours:
    @given(
        st.integers(1, 12),
        st.floats(-np.pi, np.pi),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_canonical_with_shift(self, n, theta, hexagonal):
        basis = hex_basis() if hexagonal else np.eye(2)
        try:
            ch = build_chart(basis, rotation(theta), n)
        except DegenerateLattice:
            assume(False)
        offsets, shifts = ch.neighbours, ch.shifts
        assert offsets.shape == (ch.vertex_count, 3, 3)
        assert shifts.shape == (ch.vertex_count, 3, 3, 2)
        kc, lc = ch.all_canonical()
        for i in range(3):
            for j in range(3):
                x, y, q1, q2 = ch.canonical_with_shift(kc + i - 1, lc + j - 1)
                assert np.array_equal(offsets[:, i, j], ch.offset_xy(x, y))
                assert np.array_equal(shifts[:, i, j, 0], q1)
                assert np.array_equal(shifts[:, i, j, 1], q2)

    def test_computed_once(self):
        ch = rotated_chart(6, hex_basis())
        assert ch.neighbours is ch.neighbours
        assert ch.shifts is ch.shifts

    @pytest.mark.parametrize("n", [1, 2, 3, 12, 96])
    @pytest.mark.parametrize("basis", ["I", "hex", "skew"])
    def test_tables_match_one_reduction(self, basis, n):
        # Offsets and shifts, now two tables, equal bit for bit the pair that
        # one reduction of the whole 3x3 neighbourhood gave, and the offsets
        # are formed without the shifts.
        bases = {"I": np.eye(2), "hex": hex_basis(), "skew": np.array([[1.0, 7.0], [0.0, 1.0]])}
        ch = rotated_chart(n, bases[basis])
        x, y = ch.all_canonical()
        step = np.arange(-1, 2)
        k, l = np.broadcast_arrays(x[:, None, None] + step[:, None], y[:, None, None] + step)
        cx, cy, q1, q2 = ch.canonical_with_shift(k, l)
        offsets = ch.neighbours
        assert "shifts" not in ch.__dict__
        assert offsets.dtype == np.int64 and np.array_equal(offsets, ch.offset_xy(cx, cy))
        shifts = ch.shifts
        assert shifts.dtype == np.int64 and np.array_equal(shifts, np.stack([q1, q2], axis=-1))


class TestFacetGroup:
    @given(
        st.tuples(*(st.integers(-9, 9) for _ in range(4))).filter(
            lambda t: 0 < abs(t[0] * t[3] - t[1] * t[2]) <= 120
        ),
        st.integers(0, 2**32 - 1),
    )
    @example((3, 0, 5, 7), 0)  # (a, c) = (3, 7), b = 5
    @settings(max_examples=60, deadline=None)
    def test_twisted_dft_diagonalises_facet_steps(self, mvals, seed):
        m = np.array([[mvals[0], mvals[1]], [mvals[2], mvals[3]]])
        ch = Chart(N=4, gamma_basis=np.eye(2), m_matrix=m, a_matrix=np.eye(2))
        (a, c), b = ch.storage_grid
        nfacets = ch.vertex_count
        assert a * c == nfacets and 0 <= b < c
        assert a == np.gcd(m[0, 0], m[0, 1])
        # The transform round-trips.
        values = np.random.default_rng(seed).standard_normal(nfacets)
        spectrum = twisted_dft(ch, values)
        assert np.abs(twisted_idft(ch, spectrum) - values).max() <= 1e-12 * nfacets
        # Each facet step is multiplication of the transform by its character.
        p, q = np.ogrid[:a, :c]
        offsets = ch.neighbours
        for i, j in np.ndindex(3, 3):
            dk, dl = i - 1, j - 1
            phase = (p * dk * c + q * (a * dl - b * dk)) % (a * c) / (a * c)
            character = np.exp(2j * np.pi * phase)
            stepped = twisted_dft(ch, values[offsets[:, i, j]])
            assert np.abs(stepped - character * spectrum).max() <= 1e-12 * nfacets

    @pytest.mark.parametrize("n, shape", [(12, (1, 146)), (96, (43, 215))])
    def test_default_rotation_groups(self, n, shape):
        # The default chart rotation does not always give a cyclic grid (a = 1).
        assert rotated_chart(n).storage_grid[0] == shape


class TestVertexPosition:
    def test_scaling(self):
        ch = build_chart(np.eye(2), np.eye(2), 8)
        assert np.allclose(ch.position(2, 3), [0.25, 0.375])

    def test_periodicity(self):
        ch = build_chart(np.eye(2), np.eye(2), 8)
        for k, l in ((0, 0), (3, 5)):
            shift = ch.position(k + 8, l) - ch.position(k, l)
            assert np.allclose(shift, ch.gamma_basis[:, 0], atol=1e-14)

    def test_hexagonal_period_vertex(self):
        ch = build_chart(hex_basis(), np.eye(2), 10)
        assert np.abs(ch.position(5, 9) - hex_basis()[:, 1]).max() <= 1e-14


def test_rotated_chart_rate():
    r = rotated_chart(8).a_matrix  # smoke: exists and is close to the rotation
    from isomesh.cli import DEFAULT_ROTATION

    assert np.linalg.norm(r - rotation(DEFAULT_ROTATION), 2) < 0.1


class TestTorusDistance:
    @pytest.mark.parametrize(
        "basis",
        [
            np.eye(2),
            hex_basis(),
            np.array([[1.0, 7.0], [0.0, 1.0]]),  # Z^2 in a skewed basis
            np.array([[2.0, 11.3], [0.1, 1.0]]),
            np.array([[1.0, 0.0], [5.0, 1.0]]),  # sheared
        ],
    )
    @pytest.mark.parametrize("n", [8, 16, 24])
    def test_matches_wide_search(self, basis, n):
        ch = rotated_chart(n, basis)
        k, l = ch.all_canonical()
        d = np.stack([k, l], axis=-1).astype(float)
        m = ch.m_matrix.astype(float)
        q0 = np.rint(d @ np.linalg.inv(m).T)
        best = np.full(len(d), np.inf)
        for w1 in range(-30, 31):
            w = np.stack([np.full(61, w1), np.arange(-30, 31)], axis=-1)
            rem = d[:, None, :] - (q0[:, None, :] + w) @ m.T
            dist = np.linalg.norm(rem @ ch.a_matrix.T, axis=-1).min(axis=1) / n
            best = np.minimum(best, dist)
        assert np.allclose(ch.torus_distance(k, l), best, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [8, 16, 24])
    def test_square_lattice_searches_in_m(self, n):
        # Gamma = Z^2 is reduced: the search keeps M, as every built-in spec does.
        ch = rotated_chart(n)
        assert np.array_equal(ch._search_basis, ch.m_matrix)
