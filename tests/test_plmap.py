"""PL evaluation, differentials, distances, certification, export."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    ALL_BUILTINS,
    adjacent_distance_lstsq,
    box_close_pairs_brute,
    corner_values_reference,
    edge_scale_reference,
    embedding_witnesses_brute,
    eval_pl_reference,
    far_pairs_brute,
    hex_basis,
    identity_chart,
    immersion_witnesses_brute,
    incidence_values,
    distances_reference,
    load_mesh,
    pl_isotropy_residual_reference,
    pl_tables_reference,
    rotated_chart,
    tri_tri_distance_lstsq,
    tri_vertex_ids_reference,
)
from isomesh import (
    build_chart,
    make_clifford,
    make_flat_plane,
    make_product_torus,
    circle,
    figure_eight,
    project_isotropic,
    sample_quad,
    sample_tri,
    apex_refine,
    barycentric_apexes,
)
from isomesh.cli import _COMMANDS, Pipeline, PipelineConfig, run_pipeline
from isomesh import adjacent, plmap
from isomesh.adjacent import (
    _LEN_SLACK,
    _adjacent_distances,
    _pairs_cleared,
    _pairs_separated,
    _star_pairs,
    _tri_tri_distances,
)
from isomesh.density import CORNER_STEPS, corner_value_table
from isomesh.immersion import ImmersionSpec
from isomesh.plmap import (
    TOPOLOGY_TOL,
    PLMap,
    _box_close_pairs,
    _operator_norm,
    build_pl,
    check_embedding,
    check_immersion,
    distance_c0,
    distance_c1,
    export_mesh,
    pl_isotropy_residual,
)
from isomesh.refine import TriMesh
from isomesh.symplectic import liouville_polygon


def random_trimesh(chart, rng, dim=4):
    return TriMesh(
        chart=chart,
        corner_values=rng.standard_normal((chart.vertex_count, dim)),
        apex_values=rng.standard_normal((chart.vertex_count, dim)),
    )


def solved_plmap(spec_name="product:figure8,circle", n=8):
    from isomesh import spec_from_name

    spec = spec_from_name(spec_name)
    tau = sample_quad(spec, rotated_chart(n))
    rho, _ = project_isotropic(tau)
    return spec, build_pl(apex_refine(rho))


class TestEvaluation:
    def test_vertex_and_apex_exact(self):
        rng = np.random.default_rng(0)
        ch = identity_chart(4)
        tri = random_trimesh(ch, rng)
        plm = build_pl(tri)
        kc, lc = ch.all_canonical()
        verts = ch.position(kc, lc)
        got = eval_pl_reference(plm, verts)
        assert np.abs(got - tri.corner_values).max() <= 1e-12
        centers = ch.facet_center(kc, lc)
        got = eval_pl_reference(plm, centers)
        assert np.abs(got - tri.apex_values).max() <= 1e-12

    def test_edge_midpoint_average(self):
        rng = np.random.default_rng(1)
        ch = identity_chart(4)
        tri = random_trimesh(ch, rng)
        plm = build_pl(tri)
        # Midpoint of the edge (v_00, z_00).
        p = 0.5 * (ch.position(0, 0) + ch.facet_center(0, 0))
        expected = 0.5 * (
            tri.corner_values[ch.offset_of_raw(0, 0)]
            + tri.apex_values[ch.offset_of_raw(0, 0)]
        )
        assert np.abs(eval_pl_reference(plm, p) - expected).max() <= 1e-12

    def test_affine_reproduction(self):
        spec = make_flat_plane()
        for chart in (identity_chart(4), rotated_chart(4)):
            tau = sample_quad(spec, chart)
            rho, _ = project_isotropic(tau)
            plm = build_pl(apex_refine(rho))
            rng = np.random.default_rng(2)
            pts = rng.uniform(-1.5, 2.5, size=(200, 2))
            assert np.abs(eval_pl_reference(plm, pts) - spec.eval(pts)).max() <= 1e-12

    def test_periodicity(self):
        spec, plm = solved_plmap(n=8)
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 1, size=(50, 2))
        base = eval_pl_reference(plm, pts)
        for gamma in plm.chart.gamma_basis.T:
            assert np.abs(eval_pl_reference(plm, pts + gamma) - base).max() <= 1e-12

    def test_continuity_across_edges(self):
        # Random points on interior edges evaluated from both incident
        # affine pieces agree.
        rng = np.random.default_rng(4)
        ch = identity_chart(4)
        tri = random_trimesh(ch, rng)
        plm = build_pl(tri)
        vals = plm.tri_values
        vids = plm.tri_vertex_ids
        edge_map = {}
        for t in range(len(vids)):
            for a in range(3):
                b = (a + 1) % 3
                key = tuple(sorted((vids[t, a], vids[t, b])))
                edge_map.setdefault(key, []).append((t, a, b))
        checked = 0
        for key, entries in edge_map.items():
            if len(entries) != 2:
                continue
            (t1, a1, b1), (t2, a2, b2) = entries
            # Same edge must have identical endpoint values; interpolate at
            # random parameters and compare the two affine pieces by direct
            # barycentric evaluation.
            for lam in rng.uniform(0.05, 0.95, size=11):
                p1 = vals[t1, a1] * (1 - lam) + vals[t1, b1] * lam
                if vids[t1, a1] == vids[t2, a2]:
                    p2 = vals[t2, a2] * (1 - lam) + vals[t2, b2] * lam
                else:
                    p2 = vals[t2, b2] * (1 - lam) + vals[t2, a2] * lam
                assert np.abs(p1 - p2).max() <= 1e-12
                checked += 1
        assert checked >= 1000

    def test_eval_on_diagonal_boundaries_consistent(self):
        rng = np.random.default_rng(5)
        ch = identity_chart(4)
        tri = random_trimesh(ch, rng)
        plm = build_pl(tri)
        # Points on a facet diagonal: nudging to either side changes the
        # value only at the scale of the nudge (continuity).
        for _ in range(50):
            k, l = rng.integers(0, 4, size=2)
            t = rng.uniform(0.05, 0.45)
            p = np.array([(k + t) / 4.0, (l + t) / 4.0])
            eps = 1e-9
            up = eval_pl_reference(plm, p + [0, eps])
            down = eval_pl_reference(plm, p - [0, eps])
            assert np.abs(up - down).max() <= 1e-6


class TestNeighbourTableReference:
    """Table-driven lookups against raw-index lookups on a hex chart.

    Random non-zero target periods make a wrong lattice shift visible; on
    periodic meshes every shift is multiplied by zero.
    """

    @pytest.fixture(params=[(7, 0), (5, 1), (9, 2)], ids=lambda p: f"N{p[0]}")
    def plm(self, request):
        n, seed = request.param
        rng = np.random.default_rng(seed)
        chart = rotated_chart(n, hex_basis())
        f = chart.vertex_count
        return PLMap(
            TriMesh(
                chart=chart,
                corner_values=rng.uniform(-1.0, 1.0, (f, 4)),
                apex_values=rng.uniform(-1.0, 1.0, (f, 4)),
                target_periods=rng.uniform(-1.0, 1.0, (2, 4)),
            )
        )

    def test_corner_value_table(self, plm):
        tri = plm.tri
        got = corner_value_table(plm.chart, tri.corner_values, tri.target_periods)
        want = corner_values_reference(plm.chart, tri.corner_values, tri.target_periods)
        assert np.array_equal(got, want)

    def test_tri_vertex_ids(self, plm):
        assert np.array_equal(plm.tri_vertex_ids, tri_vertex_ids_reference(plm.chart))

    def test_eval_pl(self, plm):
        # The triangle tables interpolate like the raw-lookup PL map at an
        # interior point of every triangle.
        lam = np.array([0.6, 0.25, 0.15])
        pts = np.einsum("k,tkx->tx", lam, pl_tables_reference(plm)[0])
        want = np.einsum("k,tkd->td", lam, plm.tri_values)
        assert np.abs(eval_pl_reference(plm, pts) - want).max() <= 1e-12


class TestDifferential:
    def test_constant_mesh_zero(self):
        ch = identity_chart(4)
        tri = TriMesh(
            chart=ch,
            corner_values=np.tile([1.0, 2.0, 3.0, 4.0], (16, 1)),
            apex_values=np.tile([1.0, 2.0, 3.0, 4.0], (16, 1)),
        )
        plm = build_pl(tri)
        assert np.abs(plm.differential()).max() == 0.0

    def test_flat_plane_exact(self):
        spec = make_flat_plane()
        ch = identity_chart(4)
        plm = build_pl(sample_tri(spec, ch))
        expected = np.zeros((4, 2))
        expected[0, 0] = 1.0
        expected[2, 1] = 1.0
        assert np.abs(plm.differential() - expected).max() <= 1e-13

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(6)
        ch = identity_chart(4)
        tri = random_trimesh(ch, rng)
        plm = build_pl(tri)
        # Interior point of triangle 0 of facet (1,1): barycentric blend.
        t = 4 * ch.offset_of_raw(1, 1) + 0
        lam = np.array([0.5, 0.3, 0.2])
        p = lam @ pl_tables_reference(plm)[0][t]
        d = plm.differential(slice(t // 4, t // 4 + 1))[0]
        h = 1e-7
        for axis in range(2):
            e = np.zeros(2)
            e[axis] = h
            fd = (eval_pl_reference(plm, p + e) - eval_pl_reference(plm, p - e)) / (2 * h)
            assert np.abs(fd - d[:, axis]).max() <= 1e-10 * max(
                1.0, np.abs(d).max()
            )


class TestDistances:
    def test_affine_zero(self):
        spec = make_flat_plane()
        tau = sample_quad(spec, identity_chart(4))
        rho, _ = project_isotropic(tau)
        plm = build_pl(apex_refine(rho))
        assert distance_c0(plm, spec) <= 1e-13
        assert distance_c1(plm, spec) <= 1e-13

    def test_random_points_within_bound(self):
        spec, plm = solved_plmap("clifford", n=8)
        bound = distance_c0(plm, spec)
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 1, size=(1000, 2))
        worst = np.linalg.norm(spec.eval(pts) - eval_pl_reference(plm, pts), axis=-1).max()
        assert worst <= 1.5 * bound + 1e-12

    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([2, 3, 4, 6]),
        rank=st.integers(0, 2),
        exponent=st.integers(-100, 100),
    )
    @settings(max_examples=60, deadline=None)
    def test_operator_norm_matches_svd(self, seed, dim, rank, exponent):
        rng = np.random.default_rng(seed)
        mats = rng.standard_normal((32, dim, 2))
        if rank == 1:  # one column a multiple of the other, or zero
            mats[..., 1] = mats[..., 0] * rng.choice([0.0, -1.0, 3.0], (32, 1))
        if rank == 0:
            mats[:16] = 0.0
        mats *= 10.0**exponent
        want = np.linalg.svd(mats, compute_uv=False)[..., 0]
        x, y = mats.transpose(2, 1, 0)  # coordinate-major columns (dim, 32)
        np.testing.assert_allclose(_operator_norm(x, y), want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_value_gives_nan(self, bad):
        spec = make_flat_plane()
        chart = identity_chart(4)
        tri = sample_tri(spec, chart)
        tri.apex_values[chart.offset_of_raw(1, 1), 2] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            plm = build_pl(tri)
            assert np.isnan(distance_c1(plm, spec))

    def test_differential_gap_first_order(self, clifford_sweep):
        # The facet-differential gap between the optimal PL map and the plain
        # interpolant decays at first order (values are O(N^-2) on an O(1/N)
        # cell).
        from isomesh.cli import fit_slope

        vals = []
        for n in sorted(clifford_sweep):
            entry = clifford_sweep[n]
            diff = entry["plm"].differential() - entry["interp"].differential()
            sv = np.linalg.svd(diff, compute_uv=False)
            vals.append((n, float(sv[..., 0].max())))
        slope = fit_slope(vals)
        assert -2.5 <= slope <= -0.6
        assert max(n * v for n, v in vals) <= 4.0 * min(n * v for n, v in vals)


class TestIsotropyResidual:
    def test_flat_plane_zero(self):
        plm = build_pl(sample_tri(make_flat_plane(), identity_chart(4)))
        assert pl_isotropy_residual(plm).max() == 0.0

    def test_apex_refined_isotropic(self):
        _, plm = solved_plmap(n=8)
        scale = plm.edge_scale()
        assert pl_isotropy_residual(plm).max() <= 1e-9 * scale**2

    def test_barycentric_not_isotropic(self):
        spec = make_product_torus(figure_eight(), circle())
        tau = sample_quad(spec, rotated_chart(8))
        rho, _ = project_isotropic(tau)
        plm = build_pl(barycentric_apexes(rho))
        assert pl_isotropy_residual(plm).max() > 1e-6

    def test_cross_check_liouville(self):
        rng = np.random.default_rng(8)
        plm = build_pl(random_trimesh(identity_chart(4), rng))
        res = pl_isotropy_residual(plm)
        liou = liouville_polygon(plm.tri_values)
        assert np.abs(res - 2.0 * np.abs(liou)).max() <= 1e-12


class TestGeometryPrimitives:
    def test_seg_seg_known(self):
        # Segments and points as degenerate triangles (a, b, b) and (a, a, a).
        def seg_seg(p0, p1, q0, q1):
            p, q = np.stack([p0, p1, p1]), np.stack([q0, q1, q1])
            return _tri_tri_distances(p[None].T, q[None].T)[0]

        p0 = np.array([0.0, 0.0, 0.0, 0.0])
        p1 = np.array([1.0, 0.0, 0.0, 0.0])
        q0 = np.array([0.0, 1.0, 0.0, 0.0])
        q1 = np.array([1.0, 1.0, 0.0, 0.0])
        assert seg_seg(p0, p1, q0, q1) == pytest.approx(1.0)
        # Degenerate: points.
        assert seg_seg(p0, p0, q0, q0) == pytest.approx(1.0)
        # Crossing segments in a plane.
        a = np.array([[-1.0, -1.0, 0, 0], [1.0, 1.0, 0, 0]])
        b = np.array([[-1.0, 1.0, 0, 0], [1.0, -1.0, 0, 0]])
        assert seg_seg(a[0], a[1], b[0], b[1]) == pytest.approx(0.0)

    def test_tri_tri_distance_cases(self):
        t1 = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
        # Separated parallel copy.
        t2 = t1 + np.array([0, 0, 2.0, 0])
        # Transverse intersection through the interiors (planes x12 and x34).
        t3 = np.array(
            [[0.25, 0.25, -1, -1], [0.25, 0.25, 1, 0], [0.25, 0.25, 0, 1]],
            dtype=float,
        )
        # Vertex near edge.
        t4 = t1 + np.array([0.5, 0.5, 0.1, 0.0])
        brute = _brute_tri_distance(t1, t4)
        for batch in (
            [_tri_tri_distances(t1[None].T, t[None].T)[0] for t in (t2, t3, t4)],
            _tri_tri_distances(np.stack([t1] * 3).T, np.stack([t2, t3, t4]).T),
        ):
            assert batch[0] == pytest.approx(2.0)
            assert batch[1] == pytest.approx(0.0, abs=1e-12)
            assert batch[2] == pytest.approx(brute, abs=2e-3)

    def test_tri_tri_against_brute_force(self):
        rng = np.random.default_rng(9)
        pairs = [
            (rng.standard_normal((3, 4)), rng.standard_normal((3, 4)) + 0.5)
            for _ in range(25)
        ]
        p, q = (np.stack(side) for side in zip(*pairs))
        many = _tri_tri_distances(p.T, q.T)
        for k in range(25):
            one = _tri_tri_distances(p[k : k + 1].T, q[k : k + 1].T)[0]
            want = tri_tri_distance_lstsq(p[k], q[k])
            for exact in (one, many[k]):
                assert exact == pytest.approx(want, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize(
        "case, want",
        [
            # Coplanar, overlapping: a shifted copy in the same 2-plane.
            ("coplanar", 0.0),
            # Edges (0,0)-(1,0) and (0,-1)-(1,-1) parallel, offset 0.5 in x3.
            ("parallel_edges", np.sqrt(1.25)),
            # Collinear vertices: a segment one unit above the x12 plane.
            ("zero_area", 1.0),
            # Triangles in R^6 separated along x5, plus a random pair.
            ("r6", 2.0),
            ("r6_random", None),
        ],
    )
    def test_tri_tri_degenerate_inputs(self, case, want):
        base = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
        if case == "coplanar":
            p, q = base, base + np.array([0.2, 0.2, 0.0, 0.0])
        elif case == "parallel_edges":
            p = base
            q = np.array([[0, -1, 0.5, 0], [1, -1, 0.5, 0], [0.5, -2, 0.5, 0]])
        elif case == "zero_area":
            p = base
            q = np.array([[0, 0, 1, 0], [1, 0, 1, 0], [2, 0, 1, 0]], dtype=float)
        elif case == "r6":
            p = np.hstack([base, np.zeros((3, 2))])
            q = p + np.array([0, 0, 0, 0, 2.0, 0])
        else:
            rng = np.random.default_rng(12)
            p = rng.standard_normal((3, 6))
            q = rng.standard_normal((3, 6)) + 0.3
        ref = tri_tri_distance_lstsq(p, q)
        one = _tri_tri_distances(p[None].T, q[None].T)[0]
        many = _tri_tri_distances(np.stack([q, p, p]).T, np.stack([p, q, p]).T)
        for exact in (one, many[0], many[1]):
            assert exact == pytest.approx(ref, rel=1e-9, abs=1e-12)
            if want is not None:
                assert exact == pytest.approx(want, abs=1e-12)
        assert many[2] == 0.0

    @pytest.mark.parametrize("dim", [4, 6])
    def test_tri_tri_crossing_edges(self, dim):
        # Edges of length 2 crossing at angle theta = 10^-k, the third
        # vertices off in two other directions, under random orthogonal
        # maps: the distance is 0.  A solve through the normal equations
        # squares the conditioning of the edge-edge pair and misses the zero
        # by far more than 1e-12 once theta is small.
        rng = np.random.default_rng(dim)
        p, q = np.zeros((2, 13, 3, dim))
        for row, k in enumerate(range(2, 15)):
            c, s = np.cos(10.0**-k), np.sin(10.0**-k)
            p[row, :2, 0] = -1.0, 1.0
            p[row, 2, 2] = 1.0
            q[row, :2, :2] = [[-c, -s], [c, s]]
            q[row, 2, 3] = 1.0
            rot = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
            p[row], q[row] = p[row] @ rot.T, q[row] @ rot.T
        assert _tri_tri_distances(p.T, q.T).max() <= 1e-12 * 2.0

    @given(dim=st.sampled_from([4, 6]), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_tri_tri_matches_lstsq_reference(self, dim, data):
        # Values on a coarse grid, so coplanar, parallel and zero-area pairs
        # are common.
        grid = st.integers(-2, 2).map(lambda k: k / 2.0)
        pairs = data.draw(arrays(float, (6, 2, 3, dim), elements=grid, fill=st.nothing()))
        got = _tri_tri_distances(pairs[:, 0].T, pairs[:, 1].T)
        for k, (p, q) in enumerate(pairs):
            assert got[k] == pytest.approx(tri_tri_distance_lstsq(p, q), rel=1e-9, abs=1e-12)

    def test_tri_tri_empty_and_non_finite(self):
        assert _tri_tri_distances(np.empty((4, 3, 0)), np.empty((4, 3, 0))).shape == (0,)
        base = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
        p = np.stack([base] * 3)
        q = p + np.array([0, 0, 2.0, 0])
        q[0, 1, 3] = np.nan
        q[1, 2, 0] = np.inf
        with np.errstate(invalid="ignore"):
            dist = _tri_tri_distances(p.T, q.T)
        assert np.isnan(dist[:2]).all()
        assert dist[2] == pytest.approx(2.0)

    @staticmethod
    def _assert_broadphase(lo, hi, threshold):
        i, j = _box_close_pairs(lo, hi, threshold)
        got = list(zip(i.tolist(), j.tolist()))
        assert got == sorted(set(got))  # sorted, i < j, no duplicates
        assert all(a < b for a, b in got)
        assert set(got) == set(box_close_pairs_brute(lo, hi, threshold))
        return got

    def test_broadphase_matches_brute_force(self):
        rng = np.random.default_rng(10)
        pts = rng.standard_normal((200, 1, 4))
        lo = pts.min(axis=1) - 0.05
        hi = pts.max(axis=1) + 0.05
        for threshold in (0.0, 0.3):
            self._assert_broadphase(lo, hi, threshold)
        # Order independence: permuting the boxes yields the same pair set
        # after relabeling.
        perm = rng.permutation(200)
        i, j = _box_close_pairs(lo[perm], hi[perm], 0.3)
        relabeled = {tuple(sorted((perm[a], perm[b]))) for a, b in zip(i, j)}
        assert relabeled == set(box_close_pairs_brute(lo, hi, 0.3))

    def test_broadphase_zero_extent_boxes(self):
        rng = np.random.default_rng(13)
        # Points on a coarse grid: many coincide exactly.
        pts = rng.integers(0, 3, size=(120, 4)).astype(float)
        for threshold in (0.0, 0.5, 1.0):
            got = self._assert_broadphase(pts, pts, threshold)
            assert got
        # All boxes identical points: every pair touches.
        same = np.ones((6, 4))
        assert len(self._assert_broadphase(same, same, 0.0)) == 15

    @pytest.mark.parametrize("dim", [4, 6])
    def test_broadphase_boxes_straddling_cell_boundaries(self, dim):
        rng = np.random.default_rng(14 + dim)
        threshold = 0.1
        # A unit box fixes the cell edge at 1.2 and puts a cell boundary at
        # 1.1 on every axis; small boxes crowd around that corner.
        centers = 1.1 + rng.uniform(-0.09, 0.09, size=(80, dim))
        half = rng.uniform(0.0, 0.05, size=(80, dim))
        lo = np.vstack([np.zeros(dim), centers - half])
        hi = np.vstack([np.ones(dim), centers + half])
        straddle = ((lo - threshold < 1.1) & (hi + threshold > 1.1)).all(axis=1)
        assert straddle[1:].all()
        got = self._assert_broadphase(lo, hi, threshold)
        assert any(a > 0 for a, _ in got)


def _brute_tri_distance(t1, t2, res=24):
    grid = []
    for i in range(res + 1):
        for j in range(res + 1 - i):
            grid.append((i / res, j / res, (res - i - j) / res))
    lam = np.array(grid)
    p = lam @ t1
    q = lam @ t2
    d = np.linalg.norm(p[:, None, :] - q[None, :, :], axis=-1)
    return float(d.min())


def _pair_codes(vids, i, j):
    """(u, w) incidence codes of triangles i < j that share an id, as
    ``_adjacent_distances`` takes them: the first slots of the smallest
    shared id and of the next one (-1 where they share one)."""
    shared = sorted(set(vids[i].tolist()) & set(vids[j].tolist()))
    at = [[3 * t + vids[t].tolist().index(v) for t in (i, j)] for v in shared]
    return at[0], at[1] if len(shared) > 1 else [-1, -1]


def _star_pairs_of(plm):
    """Every (u, w) column of the map's stars, row 0 in the smaller triangle:
    ``adjacent._star_pairs`` on every star of each kind."""
    stars = plmap._star_codes(plm.chart)
    return np.concatenate([_star_pairs(plm.tri_vertex_ids, c) for c in stars], axis=-1)


def _star_of(plm, u):
    """Kind (0 corner, 1 apex) and row in ``plmap._star_codes`` of the star
    that lists each column of the incidence codes ``u``."""
    v = plm.tri_vertex_ids.ravel()[u[0]]
    apex = (v >= plm.chart.vertex_count).astype(int)
    return apex, v - apex * plm.chart.vertex_count


_SWEEP_BASES = {
    "I": np.eye(2),
    "hex": hex_basis(),
    "skew": np.array([[1.0, 7.0], [0.0, 1.0]]),
    "skew2": np.array([[2.0, 11.3], [0.1, 1.0]]),
    "shear": np.array([[1.0, 0.0], [5.0, 1.0]]),
}
#: The 80 charts of the star sweep: five period bases, the identity and
#: the default rotation, N = 1..8; five keep their earlier names.
_SWEEP_NAMES = {("I", False, 1): "N1", ("I", False, 2): "N2", ("I", False, 3): "N3",
                ("hex", False, 3): "hex3", ("hex", True, 5): "rotated-hex5"}
_SWEEP = [
    pytest.param(
        basis, turned, n,
        id=_SWEEP_NAMES.get((basis, turned, n), f"{basis}-{'rot' if turned else 'id'}-N{n}"),
    )
    for basis in _SWEEP_BASES
    for turned in (False, True)
    for n in range(1, 9)
]


class TestAdjacentPairs:
    @pytest.mark.parametrize("basis, turned, n", _SWEEP)
    def test_vertex_pairs_against_all_pairs(self, basis, turned, n):
        # ``_star_pairs`` on every star lists each pair that shares an id
        # once, with (u, w) at the first slots of the smallest and the next
        # shared id, row 0 in the smaller triangle; at N <= 2 ids repeat
        # within a triangle and across edges.
        if turned:
            chart = rotated_chart(n, _SWEEP_BASES[basis])
        else:
            chart = build_chart(_SWEEP_BASES[basis], np.eye(2), n)
        plm = PLMap(random_trimesh(chart, np.random.default_rng(0)))
        vids = plm.tri_vertex_ids
        want = {}
        for i in range(len(vids)):
            for j in range(i + 1, len(vids)):
                if set(vids[i].tolist()) & set(vids[j].tolist()):
                    want[i, j] = _pair_codes(vids, i, j)
        u, w = _star_pairs_of(plm)
        cols = zip(*u.tolist(), u.T.tolist(), w.T.tolist())
        got = {(a // 3, b // 3): (x, y) for a, b, x, y in cols}
        assert len(got) == u.shape[1]
        assert got == want
        # A random half of the stars (the last always in, row 0 not always)
        # lists exactly the columns of the full list that those stars list.
        picks = np.random.default_rng(n).random((2, plm.chart.vertex_count)) < 0.5
        picks[:, -1] = True
        stars = [c[r] for c, r in zip(plmap._star_codes(plm.chart), picks)]
        sub = np.concatenate([_star_pairs(vids, c) for c in stars], axis=-1).reshape(4, -1)
        full = np.concatenate([u, w])[:, picks[_star_of(plm, u)]]
        assert sorted(map(tuple, sub.T.tolist())) == sorted(map(tuple, full.T.tolist()))


def _sliver_pair(rng, dim, edge, ratio, delta):
    """Values and ids of two triangles that share a vertex (or, with
    ``edge``, an edge), slots shuffled: T1 a sliver whose edge matrix has
    singular values 1 and ``ratio``, T2 with a vertex ``delta`` off T1's
    plane over a point inside T1."""
    frame = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    turn = rng.uniform(0.0, np.pi)
    c, s = np.cos(turn), np.sin(turn)
    x1, x2 = (frame[:, :2] @ np.diag([1.0, ratio]) @ np.array([[c, s], [-s, c]])).T
    lam = rng.dirichlet(np.ones(3))
    near = lam[1] * x1 + lam[2] * x2 + delta * frame[:, 2 + rng.integers(dim - 2)]
    second = x1 if edge else rng.standard_normal(dim)
    tris = np.array([[np.zeros(dim), x1, x2], [np.zeros(dim), second, near]])
    vids = np.array([[0, 1, 2], [0, 1, 3] if edge else [0, 3, 4]])
    for t in range(2):
        order = rng.permutation(3)
        tris[t], vids[t] = tris[t][order], vids[t][order]
    return tris + rng.standard_normal(dim), vids


# The far vertices of a vertex pair whose first triangle is a sliver, each
# triangle relative to the shared vertex.
_SLIVER_FAR = np.array([
    [0.7345590945422051, -0.9679661095446565, -0.3611509241934368, -0.48313442255536915],
    [0.6587005019745127, -0.8680010224618088, -0.3238561633155417, -0.43324402921580285],
    [0.29103850218370997, -0.3835159652527124, -0.1430916272886712, -0.19142310362041529],
    [0.07151509546576287, 1.4986206267404472, -2.0168903729818712, -0.4342181704697933],
])


class TestAdjacentDistances:
    def test_sliver_pair_is_measured_exactly(self):
        # The distance beyond the shared vertex is about 2e-7, below a
        # threshold of 1e-6, though read through T2's plane coordinates it
        # comes out at 1.4e-5.
        vals = np.insert(_SLIVER_FAR.reshape(2, 2, 4), 0, 0.0, axis=1)
        vids = np.array([[0, 1, 2], [0, 3, 4]])
        u, w = np.array([[0], [3]]), np.array([[-1], [-1]])
        got = _adjacent_distances(vals.reshape(-1, 4).T, u, w)[0]
        assert got < 1e-6
        assert got == pytest.approx(adjacent_distance_lstsq(vals, vids, 0, 1), rel=1e-9, abs=1e-13)

    @given(
        dim=st.sampled_from([4, 6]),
        edge=st.booleans(),
        ratio=st.floats(-9.0, -1.0).map(lambda k: 10.0**k),
        delta=st.floats(-6.0, -1.0).map(lambda k: 10.0**k),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_lstsq_reference_on_slivers(self, dim, edge, ratio, delta, seed):
        vals, vids = _sliver_pair(np.random.default_rng(seed), dim, edge, ratio, delta)
        u, w = (np.array(c)[:, None] for c in _pair_codes(vids, 0, 1))
        assert (w[0] >= 0) == edge
        got = _adjacent_distances(vals.reshape(-1, dim).T, u, w)[0]
        want = adjacent_distance_lstsq(vals, vids, 0, 1)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-13)


def test_degenerate_rows_need_only_their_distinct_faces(monkeypatch):
    # A segment against a triangle has 21 face pairs, a point 7 and two
    # segments 9.  On a plane with moved apexes every adjacent pair scores
    # as with all 49 face pairs, to rounding (the skipped pairs repeat a
    # kept face reversed), never below it.
    sizes = [sum(g.shape[1] for g in pairs.values()) for pairs in (
        adjacent._FACE_PAIRS, adjacent._SEGMENT_TRIANGLE, adjacent._POINT_TRIANGLE,
        adjacent._SEGMENT_SEGMENT)]
    assert sizes == [49, 21, 7, 9]
    chart = rotated_chart(16)
    plm = _plane_mesh(chart, 4, np.random.default_rng(3))
    rng = np.random.default_rng(4)
    tri = plm.tri
    apexes = tri.apex_values + 0.3 / chart.N * rng.standard_normal(tri.apex_values.shape)
    plm = build_pl(TriMesh(chart, tri.corner_values, apexes, tri.target_periods))
    u, w = _star_pairs_of(plm)
    assert (w[0] >= 0).any() and (w[0] < 0).any()
    got = _adjacent_distances(incidence_values(plm), u, w)
    for name in ("_SEGMENT_TRIANGLE", "_POINT_TRIANGLE", "_SEGMENT_SEGMENT"):
        monkeypatch.setattr(adjacent, name, adjacent._FACE_PAIRS)
    want = _adjacent_distances(incidence_values(plm), u, w)
    assert np.all(got >= want)
    assert np.abs(got - want).max() <= 8 * np.finfo(float).eps * plm.edge_scale()


def _plane_mesh(chart, dim, rng, moves=(), lift=0.0):
    """An isometric plane in R^dim over ``chart`` (quasi-periodic: its target
    periods are the images of the lattice periods), with the apexes of
    ``moves`` = [(facet, chart point)] moved and every apex lifted off the
    plane by up to ``lift`` grid steps."""
    frame = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    plane, normal = frame[:, :2], frame[:, 2:]
    kc, lc = chart.all_canonical()
    apexes = chart.facet_center(kc, lc)
    for f, point in moves:
        apexes[f] = point
    offsets = lift / chart.N * rng.uniform(-1.0, 1.0, (chart.vertex_count, dim - 2)) @ normal.T
    return build_pl(
        TriMesh(
            chart,
            chart.position(kc, lc) @ plane.T,
            apexes @ plane.T + offsets,
            target_periods=(plane @ chart.gamma_basis).T,
        )
    )


def _wave_spec(plm):
    """The plane under a map of ``_plane_mesh`` (read off its target periods)
    plus a sine wave of amplitude 1e-3, evaluated entry by entry."""
    a0, a1 = np.linalg.solve(plm.chart.gamma_basis.T, plm.tri.target_periods)
    wave = np.eye(plm.dim)[-1]
    k = 2.0 * np.pi

    def evaluate(p):
        s, t = p[..., :1], p[..., 1:]
        return s * a0 + t * a1 + 1e-3 * np.sin(k * s) * np.cos(k * t) * wave

    def jet(p):
        s, t = p[..., :1], p[..., 1:]
        ds = a0 + 1e-3 * k * np.cos(k * s) * np.cos(k * t) * wave
        dt = a1 - 1e-3 * k * np.sin(k * s) * np.sin(k * t) * wave
        return evaluate(p), np.stack([ds, dt], axis=-1)

    return ImmersionSpec(plm.dim // 2, evaluate, jet, plm.chart.gamma_basis)


_BLOCK_CHARTS = {
    "square": lambda n: rotated_chart(n),
    "hex": lambda n: rotated_chart(n, hex_basis()),
}


_BLOCK_PARAMS = [
    (kind, dim, n) for kind, dim in (("square", 4), ("hex", 4), ("square", 6)) for n in (1, 2, 3, 12)
]


def _block_plm(kind, dim, n):
    """A plane in R^dim with one apex on a corner of its facet (two
    degenerate triangles), one moved 0.9 grid steps (a fold) and every apex
    lifted off the plane by up to 1e-8 grid steps."""
    chart = _BLOCK_CHARTS[kind](n)
    kc, lc = chart.all_canonical()
    mid = chart.vertex_count // 2
    moves = [
        (0, chart.position(kc[0], lc[0])),
        (mid, chart.facet_center(kc[mid] - 0.9, lc[mid])),
    ]
    return _plane_mesh(chart, dim, np.random.default_rng(n), moves, lift=1e-8)


class TestBlocks:
    """The per-block producers and their consumers agree with the full
    tables, with blocks of 12 triangles so that several run: the verdicts
    bit for bit, the differentials and distances (formed from the four
    chart shapes, the references from every chart triangle) to 1e-10."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        for module in (plmap, adjacent):
            monkeypatch.setattr(module, "_PAIR_BLOCK", 12)

    @pytest.fixture(params=_BLOCK_PARAMS, ids=lambda p: f"{p[0]}-R{p[1]}-N{p[2]}")
    def plm(self, request):
        return _block_plm(*request.param)

    @pytest.fixture(
        params=[*_BLOCK_PARAMS, ("square", 4, 48)], ids=lambda p: f"{p[0]}-R{p[1]}-N{p[2]}"
    )
    def any_plm(self, request):
        """The maps of ``plm`` and one on a cyclic chart (HNF a = 1), whose
        canonical facets reach about F / N = 48 while its edges are 1/48."""
        kind, dim, n = request.param
        plm = _block_plm(kind, dim, n)
        assert n < 48 or plm.chart.facet_group[0] == (1, plm.chart.vertex_count)
        return plm

    def test_block_rows_match_full_tables(self, any_plm):
        differentials = pl_tables_reference(any_plm)[1]
        blocks = list(any_plm.blocks())
        assert len(blocks) == -(-len(any_plm.tri_values) // 12)
        bound = 1e-10 * np.abs(differentials).max()
        for facets in blocks:
            rows = slice(4 * facets.start, 4 * facets.stop)
            assert np.abs(any_plm.differential(facets) - differentials[rows]).max() <= bound
        assert np.abs(any_plm.differential() - differentials).max() <= bound

    def test_distances_match_full_grid(self, any_plm):
        spec = _wave_spec(any_plm)
        c0, c1 = distances_reference(any_plm, spec)
        assert distance_c0(any_plm, spec) == pytest.approx(c0, rel=1e-10, abs=0.0)
        assert distance_c1(any_plm, spec) == pytest.approx(c1, rel=1e-10, abs=0.0)
        assert c1 > c0 > 0.0

    def test_vertex_pairs_match_whole_steps(self, plm, monkeypatch):
        # The triangle pass and the planar star test in blocks of 12 rows
        # give the same differential norms and stars left as in whole
        # blocks, and the predicate receives the same (u, w) columns.
        def left():
            listed = []

            def recorded(flat, u, w):
                listed.append(np.stack([u, w])[..., np.lexsort(u[::-1])])
                return _adjacent_distances(flat, u, w)

            monkeypatch.setattr(plmap, "_adjacent_distances", recorded)
            fresh = build_pl(plm.tri)
            threshold = 0.05 * fresh.edge_scale()
            slack = _LEN_SLACK * (threshold + fresh.edge_scale())
            with np.errstate(invalid="ignore"):
                check_immersion(fresh, 0.05)
                left = plmap._stars_left(fresh, threshold + slack, slack)
                return (*plmap._differential_norms(fresh), left), listed

        got = left()
        assert len(got[1]) == 1 and got[1][0].shape[-1] > 0
        for module in (plmap, adjacent):
            monkeypatch.setattr(module, "_PAIR_BLOCK", 1 << 14)
        want = left()
        assert np.array_equal(got[1][0], want[1][0])
        for a, b in zip(got[0], want[0]):
            assert np.array_equal(a, b, equal_nan=True)

    @pytest.mark.parametrize("tol", [1e-6, 0.05, 0.3])
    def test_immersion_witnesses_match_whole_blocks(self, plm, tol, monkeypatch):
        got = check_immersion(plm, tol).witnesses
        for module in (plmap, adjacent):
            monkeypatch.setattr(module, "_PAIR_BLOCK", 1 << 14)
        assert got == check_immersion(build_pl(plm.tri), tol).witnesses
        # Degenerate against the largest singular value of all blocks.
        sv = np.linalg.svd(pl_tables_reference(plm)[1], compute_uv=False)
        degenerate = np.nonzero(sv[:, 1] <= tol * sv[:, 0].max())[0].tolist()
        assert [w[1] for w in got if w[0] == "degenerate_triangle"] == degenerate
        assert any(w[0] == "vertex_star" for w in got)
        assert degenerate or plm.chart.vertex_count == 1  # one facet: the fold moves its apex


    @pytest.mark.parametrize("tol", [1e-6, 0.3])
    def test_embedding_witnesses_match_whole_blocks(self, plm, tol, monkeypatch):
        # Far pairs box-tested, bounded and measured 12 at a time give the
        # witnesses of whole blocks, distances bit for bit.
        lo, hi = plmap._triangle_boxes(plm)
        pairs = plmap._far_pairs(plm, lo, hi, tol * plm.edge_scale())
        assert tol < 0.3 or plm.chart.N < 12 or pairs.shape[1] > 12
        got = check_embedding(plm, tol).witnesses
        for module in (plmap, adjacent):
            monkeypatch.setattr(module, "_PAIR_BLOCK", 1 << 14)
        assert got == check_embedding(build_pl(plm.tri), tol).witnesses


def _nan_plm():
    """A random map in R^6 with one NaN and one infinite value."""
    tri = random_trimesh(rotated_chart(5), np.random.default_rng(11), dim=6)
    tri.apex_values[3, 1] = np.nan
    tri.corner_values[7, 4] = np.inf
    return build_pl(tri)


@pytest.mark.parametrize("block", [12, 1 << 14])
@pytest.mark.parametrize(
    "make",
    [
        lambda: solved_plmap(n=12)[1],
        lambda: solved_plmap("product:figure8,figure8", 7)[1],
        lambda: _block_plm("hex", 4, 3),
        lambda: _block_plm("square", 6, 12),
        _nan_plm,
    ],
    ids=["f8c-12", "f8f8-7", "hex-R4-N3", "square-R6-N12", "nan-R6"],
)
def test_coordinate_major_kernels_match_row_major(make, block, monkeypatch):
    # Edge scale and isotropy residuals, formed per block from
    # coordinate-major edges, equal the row-major full-table references bit
    # for bit.
    for module in (plmap, adjacent):
        monkeypatch.setattr(module, "_PAIR_BLOCK", block)
    plm = make()
    with np.errstate(invalid="ignore", over="ignore"):
        assert plm.edge_scale() == edge_scale_reference(plm)
        assert np.array_equal(
            pl_isotropy_residual(plm), pl_isotropy_residual_reference(plm), equal_nan=True
        )


def test_verify_memory_is_bounded_by_the_value_table():
    # The verify keys at N=96 on figure8 x circle (9,245 facets) hold their
    # traced peak, all stages included, within 24 copies of the mesh's
    # value table (F d floats): the Jacobian keeps two diagonal fields, the
    # refinement and the checks work in blocks of facets, and the map keeps
    # its facet tables, 5 F d floats.
    keys = _COMMANDS["verify"][1]
    run_pipeline(PipelineConfig(spec="product:figure8,circle", n=4), keys=keys)
    tracemalloc.start()
    try:
        run = run_pipeline(PipelineConfig(spec="product:figure8,circle", n=96), keys=keys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert run.report["immersion"] == "pass"
    ratio = peak / run.tau.values.nbytes
    assert ratio <= 24.0, f"traced peak {ratio:.2f} value tables"


def _tier_checked(plm, tol):
    """The planar star test's masks (``plmap._stars_left``) at ``tol``, after
    checking that no star it clears holds a pair that the predicate scores
    below the threshold, and that ``check_immersion``'s pair witnesses are
    the predicate's on every pair that shares a vertex."""
    threshold = tol * plm.edge_scale()
    slack = _LEN_SLACK * (threshold + plm.edge_scale())
    with np.errstate(invalid="ignore", over="ignore"):
        left = plmap._stars_left(plm, threshold + slack, slack)
    u, w = _star_pairs_of(plm)
    dist = _adjacent_distances(incidence_values(plm), u, w)
    bad = np.nonzero(~(dist >= threshold))[0]
    v = plm.tri_vertex_ids.ravel()[u[0, bad]]
    assert left[_star_of(plm, u[:, bad])].all()
    i, j = u[:, bad] // 3
    order = np.lexsort((j, i))
    got = [x for x in check_immersion(plm, tol).witnesses if x[0] == "vertex_star"]
    assert [list(x[1:4]) for x in got] == np.stack([v, i, j])[:, order].T.tolist()
    assert np.array_equal([x[4] for x in got], dist[bad[order]], equal_nan=True)
    return left


_TIER_TOLS = (1e-6, 0.05, 0.3)


def _assert_brute_witnesses(plm):
    """``check_immersion``'s pair witnesses at each of ``_TIER_TOLS`` are the
    all-pairs lstsq reference's (one reference run, at the largest tol)."""
    want = immersion_witnesses_brute(plm, max(_TIER_TOLS))
    for tol in _TIER_TOLS:
        got = [x[:4] for x in check_immersion(plm, tol).witnesses if x[0] == "vertex_star"]
        assert got == [x[:4] for x in want if x[4] < tol * plm.edge_scale()]


def _moved_apex_plane(n, step, seed):
    """A plane in R^4 over the rotated chart whose apexes are moved by
    ``step`` / N N(0, 1) in every coordinate."""
    chart = rotated_chart(n)
    tri = _plane_mesh(chart, 4, np.random.default_rng(seed)).tri
    rng = np.random.default_rng(seed + 1)
    apexes = tri.apex_values + step / chart.N * rng.standard_normal(tri.apex_values.shape)
    return build_pl(TriMesh(chart, tri.corner_values, apexes, tri.target_periods))


class TestStarTier:
    """The planar star test in front of the predicate clears no star that
    holds a witness of the predicate, and the witnesses stay the
    predicate's own, on the built-ins, on planes with moved apexes, on
    lifted planes and on folds, slivers and non-finite values."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 12])
    @pytest.mark.parametrize("spec", ALL_BUILTINS)
    def test_sound_on_builtins(self, spec, n):
        # At N <= 2 spoke ids repeat, and every star of that kind is left.
        plm = run_pipeline(PipelineConfig(spec=spec, n=n), keys=["iso_scale"]).plm
        lefts = [_tier_checked(plm, tol) for tol in _TIER_TOLS]
        if n <= 3:
            _assert_brute_witnesses(plm)
        # From N = 6 on, every star of a built-in clears at the default tol.
        assert n < 6 or not lefts[0].any()

    @pytest.mark.parametrize("n", [3, 8, 16])
    @pytest.mark.parametrize("step", [0.3, 0.6])
    def test_sound_on_moved_apexes(self, step, n):
        plm = _moved_apex_plane(n, step, n)
        lefts = [_tier_checked(plm, tol) for tol in _TIER_TOLS]
        if n == 3:
            _assert_brute_witnesses(plm)
        assert lefts[0].any() and not lefts[0].all()  # stars cleared and stars listed

    @pytest.mark.parametrize("n", [3, 16])
    @pytest.mark.parametrize("dim, lift", [(4, 0.5), (6, 1.0)])
    @pytest.mark.parametrize("basis", ["I", "hex", "skew"])
    def test_sound_on_lifted_planes(self, basis, dim, lift, n):
        chart = rotated_chart(n, _SWEEP_BASES[basis])
        plm = _plane_mesh(chart, dim, np.random.default_rng(n), lift=lift)
        lefts = [_tier_checked(plm, tol) for tol in _TIER_TOLS]
        if n == 3 and dim == 4:
            _assert_brute_witnesses(plm)
        assert n < 16 or not lefts[0].any()

    @given(
        n=st.integers(3, 5),
        dim=st.sampled_from([4, 6]),
        noise=st.sampled_from([0.0, 0.01, 0.1, 0.3, 2.0]),
        drift=st.sampled_from([1e-6, 1e-3, 0.05, 0.3]),
        tol=st.sampled_from([0.0, 1e-6, 0.01, 0.03]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    # Found by a random search: stars that wind once, well conditioned, and
    # hold pairs below the threshold, which the vertex and edge bounds keep
    # from clearing (either one alone does here).
    @example(n=5, dim=4, noise=2.0, drift=1e-3, tol=0.03, seed=4516)
    def test_sound_on_noisy_lifted_planes(self, n, dim, noise, drift, tol, seed):
        # A plane with its values moved by ``noise`` grid steps in every
        # coordinate and target periods off the plane's by ``drift`` grid
        # steps (facets across the chart's boundary distort), at thresholds
        # small enough that many stars clear and noisy ones are left.
        chart = rotated_chart(n, hex_basis() if seed % 2 else np.eye(2))
        rng = np.random.default_rng(seed)
        frame = np.linalg.qr(rng.standard_normal((dim, dim)))[0][:, :2]
        kc, lc = chart.all_canonical()
        count = chart.vertex_count
        corners = chart.position(kc, lc) @ frame.T
        apexes = chart.facet_center(kc, lc) @ frame.T
        corners, apexes = (
            v + noise / n * rng.standard_normal((count, dim)) for v in (corners, apexes)
        )
        periods = (frame @ chart.gamma_basis).T + drift / n * rng.standard_normal((2, dim))
        plm = build_pl(TriMesh(chart, corners, apexes, target_periods=periods))
        _tier_checked(plm, tol)

    def test_fan_that_winds_twice_is_left(self):
        # A corner star of a plane whose 8 spokes turn by 720 degrees in all,
        # each sector under 180 degrees: sectors two apart overlap, and only
        # the winding count keeps the star from clearing.
        chart = identity_chart(4)
        tri = sample_tri(make_flat_plane(), chart)
        plm = build_pl(tri)
        v, facets = _corner_star_of(plm, 2, 2)
        turns = np.radians([0, 80, 170, 250, 300, 430, 520, 610])
        radii = np.array([1.0, 0.6, 0.9, 0.7, 1.1, 0.5, 0.8, 0.65]) / chart.N
        plane = tri.target_periods  # the plane's unit axes on the identity chart
        points = tri.corner_values[v] + (radii * np.stack([np.cos(turns), np.sin(turns)])).T @ plane
        for c, (dk, dl) in enumerate([(1, 0), (0, 1), (-1, 0), (0, -1)]):
            tri.corner_values[chart.offset_of_raw(2 + dk, 2 + dl)] = points[2 * c]
            tri.apex_values[facets[c]] = points[2 * c + 1]
        plm = build_pl(tri)
        assert v in _witness_stars(plm, 1e-6)
        assert _tier_checked(plm, 1e-6)[0, v]

    def test_spoke_copies_that_differ_are_left(self):
        # One facet's copy of a grid spoke turned 60 degrees into the next
        # sectors: its triangle at v then overlaps a sector it shares only
        # the vertex with, while the fan of mean spokes still winds once.
        # Only the spread, the distance between the two copies, keeps the
        # star from clearing.
        chart = identity_chart(4)
        plm = build_pl(sample_tri(make_flat_plane(), chart))
        v, facets = _corner_star_of(plm, 2, 2)
        corners = plm.corners[:, :, facets[3]]  # f_3's own copies of A_0 .. A_3, A_3 = v
        own, spoke = corners[:, 3].copy(), corners[:, 2] - corners[:, 3]
        plane = plm.tri.target_periods  # the plane's unit axes on the identity chart
        x, y = plane @ spoke
        turn = np.pi / 3
        corners[:, 2] = own + np.array(
            [np.cos(turn) * x - np.sin(turn) * y, np.sin(turn) * x + np.cos(turn) * y]
        ) @ plane
        assert v in _witness_stars(plm, 1e-6)
        assert _tier_checked(plm, 1e-6)[0, v]


def _assert_cleared_by_reference(plm, tol, references=12):
    """``_tier_checked`` at ``tol``, then the lstsq reference on the pairs of
    the stars it clears that the predicate scores tightest: each is at or
    above the threshold there too."""
    left = _tier_checked(plm, tol)
    u, w = _star_pairs_of(plm)
    rows = np.nonzero(~left[_star_of(plm, u)])[0]
    exact = _adjacent_distances(incidence_values(plm), u[:, rows], w[:, rows])
    threshold = tol * plm.edge_scale()
    for k in rows[np.argsort(exact)[:references]]:
        i, j = (int(c) // 3 for c in u[:, k])
        assert adjacent_distance_lstsq(plm.tri_values, plm.tri_vertex_ids, i, j) >= threshold


def _screened(plm, tol):
    """(u, w, cleared, threshold) over every pair that shares a vertex id:
    the mask of the pairs that ``adjacent._pairs_cleared``, the bounds for
    the stars the planar test leaves, clears when run on every star."""
    threshold = tol * plm.edge_scale()
    slack = _LEN_SLACK * (threshold + plm.edge_scale())
    u, w = _star_pairs_of(plm)
    return u, w, _pairs_cleared(incidence_values(plm), u, w, threshold + slack, slack), threshold


def _assert_screen_sound(plm, tol, references=12):
    """Every pair the pair bounds clear is at or above the threshold by the
    exact predicate; the tightest ones also by the lstsq reference."""
    u, w, cleared, threshold = _screened(plm, tol)
    rows = np.nonzero(cleared)[0]
    exact = _adjacent_distances(incidence_values(plm), u[:, rows], w[:, rows])
    assert (exact >= threshold).all()
    for k in rows[np.argsort(exact)[:references]]:
        i, j = (int(c) // 3 for c in u[:, k])
        assert adjacent_distance_lstsq(plm.tri_values, plm.tri_vertex_ids, i, j) >= threshold
    return u, w, cleared, threshold


class TestScreen:
    """The pair bounds behind the planar star test (``adjacent._pairs_cleared``)
    never clear a pair the predicate would fail, run on every star; with the
    planar test in front, the witnesses stay the predicate's own."""

    def test_sound_when_values_at_w_differ(self):
        # Found by a random search over lifted soups: an edge pair whose
        # values at w differ by a period meets its neighbour, and only the
        # difference, added to the reach, keeps the edge bound from clearing
        # it.  At N = 2 spoke ids repeat, so the planar test leaves every star.
        values = np.array([
            [-1.0, 1.0, -0.5, -0.5], [-1.0, 1.0, -0.5, -0.5], [-0.75, 0.0, 0.75, -0.25],
            [-0.5, 0.0, 0.25, 0.75], [0.25, 1.0, -1.0, 0.75], [-1.0, -0.25, -0.25, 0.75],
            [-0.5, 0.5, -0.25, -1.0], [-0.5, -1.0, 1.0, 0.75], [-1.0, 0.0, 0.5, -0.5],
            [0.5, -0.75, 1.0, 0.5],
        ])
        tri = TriMesh(identity_chart(2), values[:4], values[4:8], target_periods=values[8:])
        plm = build_pl(tri)
        for tol in _TIER_TOLS:
            _tier_checked(plm, tol)
            _assert_screen_sound(plm, tol)
        _assert_brute_witnesses(plm)
        assert not check_immersion(plm, tol=1e-6).passed

    def test_sound_on_apex_fold(self):
        # The fold of test_apex_fold_fails_immersion: the stars of its
        # witnesses are left, and its witnesses stay on the exact path.
        chart = identity_chart(4)
        tri = sample_tri(make_flat_plane(), chart)
        tri.apex_values[chart.offset_of_raw(1, 1), 2] -= 0.14
        plm = build_pl(tri)
        for tol in _TIER_TOLS:
            _tier_checked(plm, tol)
        _assert_brute_witnesses(plm)
        u, _, cleared, _ = _assert_screen_sound(plm, 1e-6)
        witnesses = {w[2:4] for w in check_immersion(plm, tol=1e-6).witnesses}
        assert witnesses
        assert not {(int(a) // 3, int(b) // 3) for a, b in u[:, cleared].T} & witnesses

    def test_sliver_below_threshold_is_measured(self):
        # An apex a quarter threshold from a facet edge: the triangle on that
        # edge is a sliver below the threshold, and the pairs it forms with
        # the opposite triangles of the facet are true witnesses.
        chart = identity_chart(4)
        tri = sample_tri(make_flat_plane(), chart)
        facet = chart.offset_of_raw(1, 1)
        plm = build_pl(tri)
        threshold = 0.05 * plm.edge_scale()
        corner = tri.corner_table()[facet]
        off_edge = 0.25 * threshold * np.array([0.0, 0.0, 1.0, 0.0])
        tri.apex_values[facet] = 0.5 * (corner[0] + corner[1]) + off_edge
        plm = build_pl(tri)
        for tol in _TIER_TOLS:
            _tier_checked(plm, tol)
            _assert_screen_sound(plm, tol)
        _assert_brute_witnesses(plm)
        want = immersion_witnesses_brute(plm, 0.05)
        assert {(4 * facet, 4 * facet + 2)} <= {w[2:4] for w in want}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_never_cleared(self, bad):
        # The stars that hold the non-finite apex, its own and those of its
        # facet's four corners, are left, and the pair bounds clear none of
        # their pairs that hold it; every other star and pair of the plane
        # clears.  (The lstsq reference reads NaN as no witness, so the
        # witnesses are checked against the predicate only.)
        chart = identity_chart(4)
        tri = sample_tri(make_flat_plane(), chart)
        facet = chart.offset_of_raw(2, 1)
        tri.apex_values[facet, 1] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            plm = build_pl(tri)
            left = _tier_checked(plm, 1e-6)
            u, _, cleared, _ = _screened(plm, 1e-6)
        want = np.zeros_like(left)
        want[0, plm.tri_vertex_ids[4 * facet : 4 * facet + 4, 0]] = True
        want[1, facet] = True
        assert np.array_equal(left, want)
        spoiled = np.isin(u // 3, 4 * facet + np.arange(4)).any(axis=0)
        assert spoiled.any() and not (cleared & spoiled).any()
        assert cleared[~spoiled].all()

    @given(
        hex_chart=st.booleans(),
        n=st.integers(2, 3),
        dim=st.sampled_from([4, 6]),
        tol=st.sampled_from([1e-6, 0.02, 0.1, 0.3]),
        lift=st.sampled_from([0.0, 1e-3, 0.3]),
        moves=st.lists(
            st.tuples(
                st.integers(0, 8),
                st.integers(0, 3),
                st.floats(0.0, 1.0),
                st.sampled_from([0.0, 1e-9, 1e-4, 0.3, 1.0]),
            ),
            max_size=3,
        ),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_sound_on_planes(self, hex_chart, n, dim, tol, lift, moves, seed):
        # Coplanar fans (lift 0), near misses off the plane, and apexes moved
        # to a point of a facet edge, then by a fraction of the way to the
        # center towards it (odd sides) or away from it (even sides):
        # slivers with H at or below the threshold, degenerate triangles and
        # folds past the edge.
        chart = build_chart(hex_basis() if hex_chart else np.eye(2), np.eye(2), n)
        kc, lc = chart.all_canonical()
        dk, dl = CORNER_STEPS.T
        corners = chart.position(kc[:, None] + dk, lc[:, None] + dl)
        centers = chart.facet_center(kc, lc)
        placed = []
        for f, s, along, back in moves:
            f %= chart.vertex_count
            point = (1.0 - along) * corners[f, s] + along * corners[f, (s + 1) % 4]
            placed.append((f, point + back * (centers[f] - point) * (1 if s % 2 else -1)))
        plm = _plane_mesh(chart, dim, np.random.default_rng(seed), placed, lift)
        _assert_cleared_by_reference(plm, tol)
        _assert_screen_sound(plm, tol)

    @given(
        dim=st.sampled_from([4, 6]),
        n=st.integers(1, 2),
        tol=st.sampled_from([1e-6, 0.05, 0.2]),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_sound_on_lifted_soups(self, dim, n, tol, data):
        # Grid values and random target periods on tiny charts: ids repeat
        # within a triangle, and the two triangles of a pair often read their
        # shared vertices in different lifts (values at w that differ).
        chart = identity_chart(n)
        grid = st.integers(-4, 4).map(lambda k: k / 4.0)
        shape = (2 * chart.vertex_count + 2, dim)
        values = data.draw(arrays(float, shape, elements=grid, fill=st.nothing()))
        count = chart.vertex_count
        plm = build_pl(
            TriMesh(
                chart,
                values[:count],
                values[count : 2 * count],
                target_periods=values[2 * count :],
            )
        )
        _assert_cleared_by_reference(plm, tol)
        _assert_screen_sound(plm, tol)

    @pytest.mark.parametrize("n", [3, 6, 12])
    @pytest.mark.parametrize("spec", ["clifford:1,0.01", "clifford:1,0.002"])
    def test_sound_on_thin_tori(self, spec, n):
        # Clifford tori with one radius far below the other: no plane shows
        # a corner star as a fan, so the planar test leaves every corner
        # star; at the default tol the pair bounds clear 46% to 75% of the
        # pairs (here from N = 3 to 12).
        plm = run_pipeline(PipelineConfig(spec=spec, n=n), keys=["iso_scale"]).plm
        shares = []
        for tol in _TIER_TOLS:
            assert _tier_checked(plm, tol)[0].all()
            shares.append(_assert_screen_sound(plm, tol)[2].mean())
        assert shares[0] > 0.4

    @pytest.mark.parametrize("spec", ["product:figure8,circle", "flat-plane"])
    def test_few_pairs_reach_the_exact_path(self, spec, monkeypatch):
        # Timing-free: on a curved and on a flat mesh at N = 96, none of the
        # vertex-sharing pairs goes through the exact predicate.
        plm = run_pipeline(PipelineConfig(spec=spec, n=96), keys=["iso_scale"]).plm
        measured = _measured(monkeypatch)
        assert check_immersion(plm, tol=1e-6).passed
        assert measured == []  # every star clears: no predicate call
        pairs = _star_pairs_of(plm)[0].shape[1]
        assert pairs == 28 * plm.chart.vertex_count  # 22 share a vertex, 6 an edge
        assert pairs == 258_860 or spec == "flat-plane"


def _corner_star_of(plm, k, l):
    """Corner v = (k, l) of a chart and its facets f_c = v - step_c."""
    chart = plm.chart
    v = chart.offset_of_raw(k, l)
    return v, [chart.offset_of_raw(k - dk, l - dl) for dk, dl in CORNER_STEPS]


def _witness_stars(plm, tol):
    """The star ids (``tri_vertex_ids`` numbering) of the predicate's
    witnesses over every pair that shares a vertex."""
    u, w = _star_pairs_of(plm)
    dist = _adjacent_distances(incidence_values(plm), u, w)
    return set(plm.tri_vertex_ids.ravel()[u[0, ~(dist >= tol * plm.edge_scale())]].tolist())


def _measured(monkeypatch):
    """The pair counts of the predicate's calls from ``check_immersion``."""
    measured = []

    def counted(flat, u, w):
        measured.append(u.shape[1])
        return _adjacent_distances(flat, u, w)

    monkeypatch.setattr(plmap, "_adjacent_distances", counted)
    return measured


#: What a PL map may cache: its fields, the chart-shape table and the facet
#: pass; not its triangle values or vertex ids.
_MAP_CACHE = {"tri", "corners", "apexes", "_pass", "_immersion", "shapes"}


def _assert_map_cache(plm):
    """The map caches only ``_MAP_CACHE``, and its facet pass holds one entry
    per triangle or per star, so no star or pair table."""
    assert set(vars(plm)) <= _MAP_CACHE
    found = plm._pass
    tables = [found.residual, found.big, found.area, *(t for k in found.fans if k for t in k)]
    assert all(np.size(t) <= 4 * plm.chart.vertex_count for t in tables)


class TestStarTierFastPath:
    @pytest.mark.parametrize("n", [12, 96])
    @pytest.mark.parametrize("spec", ALL_BUILTINS)
    def test_smooth_maps_list_no_pairs(self, spec, n, monkeypatch):
        # Timing-free: the planar star test clears every star of a built-in,
        # so no star is listed and the predicate is not called.
        plm = run_pipeline(PipelineConfig(spec=spec, n=n), keys=["iso_scale"]).plm
        measured = _measured(monkeypatch)
        assert check_immersion(plm).passed
        _assert_map_cache(plm)
        assert measured == []

    def test_moved_apexes_measure_no_more_pairs(self, monkeypatch):
        # On the moved-apex plane at N = 96 the pair bounds alone, run on
        # every star, leave 6,502 pairs to the predicate; behind the planar
        # star test they run on the 82,494 pairs of the stars that test
        # leaves, and no more pairs are measured.
        plm = _moved_apex_plane(96, 0.3, 3)
        passed, listed, measured = _listed_pairs_checked(plm, monkeypatch)
        assert passed and listed == 82_494 and 0 < measured <= 6_502

    def test_thin_torus_measures_few_pairs(self, monkeypatch):
        # A Clifford torus with radii 1 and 0.01 at N = 24: the planar star
        # test leaves every corner star (20 of the 28 pairs per facet), and
        # the pair bounds leave a quarter of all pairs to the predicate.
        plm = run_pipeline(PipelineConfig(spec="clifford:1,0.01", n=24), keys=["iso_scale"]).plm
        passed, listed, measured = _listed_pairs_checked(plm, monkeypatch)
        pairs = 28 * plm.chart.vertex_count
        assert passed and listed >= 20 * pairs // 28 and measured < 0.3 * pairs

    @pytest.mark.parametrize("n, passed", [(3, False), (4, True)])
    def test_builtin_lists_only_the_stars_left(self, n, passed, monkeypatch):
        # figure8 x figure8 is the built-in whose coarse meshes leave stars:
        # the predicate measures exactly their pairs that the pair bounds
        # leave, and its verdict is the
        # one ``isomesh verify`` prints (fail at N = 3, pass at N = 4).
        spec = "product:figure8,figure8"
        plm = run_pipeline(PipelineConfig(spec=spec, n=n), keys=["iso_scale"]).plm
        got, listed, measured = _listed_pairs_checked(plm, monkeypatch)
        assert got == passed and listed >= measured > 0


def _listed_pairs_checked(plm, monkeypatch):
    """``check_immersion``'s verdict at the default tol, the number of pairs
    in the stars that ``plmap._stars_left`` leaves and the number measured,
    after checking that the predicate got one call with exactly those pairs
    that ``adjacent._pairs_cleared`` does not clear, and that the map caches
    no star table."""
    listed = []

    def recorded(flat, u, w):
        listed.append(np.concatenate([u, w]))
        return _adjacent_distances(flat, u, w)

    monkeypatch.setattr(plmap, "_adjacent_distances", recorded)
    passed = check_immersion(plm).passed
    _assert_map_cache(plm)
    threshold = TOPOLOGY_TOL * plm.edge_scale()
    slack = _LEN_SLACK * (threshold + plm.edge_scale())
    left = plmap._stars_left(plm, threshold + slack, slack)
    u, w = _star_pairs_of(plm)
    rows = left[_star_of(plm, u)]
    u, w = u[:, rows], w[:, rows]
    flat = incidence_values(plm)
    want = np.concatenate([u, w])[:, ~_pairs_cleared(flat, u, w, threshold + slack, slack)]
    assert len(listed) == 1 and listed[0].shape[1] == want.shape[1]
    assert sorted(map(tuple, listed[0].T.tolist())) == sorted(map(tuple, want.T.tolist()))
    return passed, u.shape[1], want.shape[1]


class TestChecks:
    def test_constant_map_fails_immersion(self):
        ch = identity_chart(4)
        tri = TriMesh(
            chart=ch,
            corner_values=np.zeros((16, 4)),
            apex_values=np.zeros((16, 4)),
        )
        verdict = check_immersion(build_pl(tri), tol=1e-6)
        assert not verdict.passed
        assert any(w[0] == "degenerate_triangle" for w in verdict.witnesses)

    def test_solved_mesh_immersion(self):
        _, plm = solved_plmap("clifford", n=8)
        assert check_immersion(plm, tol=1e-6).passed

    def test_figure8_immersion(self):
        _, plm = solved_plmap("product:figure8,circle", n=8)
        assert check_immersion(plm, tol=1e-6).passed

    def test_flat_plane_embedded(self):
        spec = make_flat_plane()
        tau = sample_quad(spec, identity_chart(4))
        rho, _ = project_isotropic(tau)
        plm = build_pl(apex_refine(rho))
        immersion = check_immersion(plm, tol=1e-6)
        assert immersion.passed
        assert check_embedding(plm, tol=1e-6).passed

    @pytest.mark.parametrize("dim", [4, 6])
    def test_degenerate_triangles_match_svd(self, dim):
        # The closed-form singular values decide like LAPACK: apexes moved
        # onto a corner (rank one) or an edge midpoint (collinear), among
        # random triangles that fall on both sides of the larger tolerances.
        chart = identity_chart(4)
        tri = random_trimesh(chart, np.random.default_rng(dim), dim)
        corners = tri.corner_table()
        tri.apex_values[0] = corners[0, 0]
        tri.apex_values[5] = 0.5 * (corners[5, 1] + corners[5, 2])
        plm = build_pl(tri)
        sv = np.linalg.svd(plm.differential(), compute_uv=False)
        for tol in (1e-6, 0.05, 0.3):
            want = np.nonzero(sv[:, 1] <= tol * sv[:, 0].max())[0].tolist()
            got = check_immersion(plm, tol=tol).witnesses
            assert [w[1] for w in got if w[0] == "degenerate_triangle"] == want
            assert {0, 3, 21} <= set(want)

    def test_apex_fold_fails_immersion(self):
        # Moving the apex of facet (1, 1) by -0.14 in x2 flips one of its
        # triangles (det -0.12) onto its neighbours.  Every overlapping pair
        # shares a vertex, so the local certificate must see it.
        chart = identity_chart(4)
        tri = sample_tri(make_flat_plane(), chart)
        apex = tri.apex_values.copy()
        apex[chart.offset_of_raw(1, 1), 2] -= 0.14
        plm = build_pl(TriMesh(chart, tri.corner_values, apex, tri.target_periods))
        verdict = check_immersion(plm, tol=1e-6)
        assert not verdict.passed
        want = immersion_witnesses_brute(plm, 1e-6)
        assert want
        assert [w[:4] for w in verdict.witnesses] == [w[:4] for w in want]
        assert not check_embedding(plm, tol=1e-6).passed

    @staticmethod
    def apex_near_corner(offset):
        # Flat-plane N=4 map with the apex of facet (0, 0) moved to ``offset``
        # (in the plane, towards the center) from its corner (0, 0).
        chart = identity_chart(4)
        tri = sample_tri(make_flat_plane(), chart)
        facet = chart.offset_of_raw(0, 0)
        tri.apex_values[facet] = tri.corner_table()[facet, 0] + [offset, 0.0, offset, 0.0]
        return build_pl(tri)

    def test_degenerate_triangle_fails_embedding(self):
        # The apex of facet (0, 0) moved onto its corner (0, 0): two of its
        # triangles degenerate and meet their neighbours, which
        # check_immersion reports.  The other facets at that corner lie a
        # period away in the values, so no pair that shares no vertex id
        # comes close: the embedding check fails on the immersion verdict
        # alone, with no witness of its own.
        plm = self.apex_near_corner(0.0)
        facet = plm.chart.offset_of_raw(0, 0)
        immersion = check_immersion(plm, tol=1e-6)
        degenerate = [w[1] for w in immersion.witnesses if w[0] == "degenerate_triangle"]
        assert degenerate == [4 * facet, 4 * facet + 3]
        embedding = check_embedding(plm, tol=1e-6)
        assert not embedding.passed and embedding.witnesses == []

    def test_embedding_ignores_a_verdict_on_another_map(self):
        good = build_pl(sample_tri(make_flat_plane(), identity_chart(4)))
        bad = self.apex_near_corner(0.0)
        assert check_immersion(good, tol=1e-6).passed
        assert not check_embedding(bad, tol=1e-6).passed
        assert not check_immersion(bad, tol=1e-6).passed

    def test_embedding_uses_the_verdict_at_its_own_tol(self):
        bad = self.apex_near_corner(1e-9)
        assert check_immersion(bad, tol=0.0).passed
        assert not check_embedding(bad, tol=1e-6).passed
        assert check_embedding(bad, tol=0.0).passed

    def test_immersion_verdict_memoized_per_tol(self):
        plm = self.apex_near_corner(1e-9)
        verdict = check_immersion(plm, tol=1e-6)
        assert check_immersion(plm, tol=1e-6) is verdict
        assert check_immersion(plm, tol=0.0) is not verdict
        for check in (check_immersion, check_embedding):
            with pytest.raises(ValueError, match="tol must be finite and non-negative"):
                check(plm, tol=np.nan)

    @given(
        hex_chart=st.booleans(),
        dim=st.sampled_from([4, 6]),
        tol=st.sampled_from([1e-6, 0.02, 0.1]),
        lift=st.sampled_from([0.0, 1e-3, 0.3]),
        moves=st.lists(
            st.tuples(st.integers(0, 8), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
            min_size=1,
            max_size=3,
        ),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=20, deadline=None)
    # Facet 0's apex moved one grid step, to 1e-10 / 3 from the apex of
    # facet (1, 0), which then lies 2.357e-11 outside triangle 0; the
    # reference must not read it as inside.
    @example(hex_chart=False, dim=4, tol=1e-6, lift=0.0, moves=[(0, 1.0, 1e-10)], seed=0)
    def test_immersion_matches_all_pairs_reference(
        self, hex_chart, dim, tol, lift, moves, seed
    ):
        # An isometric plane in R^dim over a 9-facet chart, with a few apexes
        # moved by up to one grid step in the plane (folds) and by ``lift``
        # grid steps out of it (near misses).
        chart = build_chart(hex_basis() if hex_chart else np.eye(2), np.eye(2), 3)
        rng = np.random.default_rng(seed)
        frame = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        plane, normal = frame[:, :2], frame[:, 2:]
        kc, lc = chart.all_canonical()
        centers = chart.facet_center(kc, lc)
        offsets = np.zeros((chart.vertex_count, dim))
        for f, dx, dy in moves:
            out = normal @ rng.uniform(-1.0, 1.0, dim - 2)
            offsets[f] += plane @ chart.position(dx, dy) + lift * out / chart.N
        plm = build_pl(
            TriMesh(
                chart,
                chart.position(kc, lc) @ plane.T,
                centers @ plane.T + offsets,
                target_periods=(plane @ chart.gamma_basis).T,
            )
        )
        got = check_immersion(plm, tol=tol)
        want = immersion_witnesses_brute(plm, tol)
        pairs = [w for w in got.witnesses if w[0] == "vertex_star"]
        assert [w[:4] for w in pairs] == [w[:4] for w in want]
        sv = np.linalg.svd(plm.differential(), compute_uv=False)
        degenerate = np.nonzero(sv[:, 1] <= tol * sv[:, 0].max())[0].tolist()
        assert [w[1] for w in got.witnesses if w[0] == "degenerate_triangle"] == degenerate
        assert got.passed == (not want and not degenerate)
        for w_got, w_want in zip(pairs, want):
            assert w_got[4] == pytest.approx(w_want[4], rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_value_fails_closed(self, bad):
        # A non-finite apex: every adjacent pair touching its four triangles
        # reads NaN and is an immersion witness; check_embedding reports each
        # of the triangles as (t, t, nan).
        chart = identity_chart(4)
        tri = sample_tri(make_flat_plane(), chart)
        facet = chart.offset_of_raw(1, 1)
        tri.apex_values[facet, 2] = bad
        spoiled = {4 * facet + s for s in range(4)}
        with np.errstate(invalid="ignore", over="ignore"):
            plm = build_pl(tri)
            immersion = check_immersion(plm, tol=1e-6)
            embedding = check_embedding(plm, tol=1e-6)
        i, j = _star_pairs_of(plm)[0] // 3
        touching = {(a, b) for a, b in zip(i.tolist(), j.tolist()) if {a, b} & spoiled}
        pairs = [w for w in immersion.witnesses if w[0] == "vertex_star"]
        assert {w[2:4] for w in pairs} == touching
        assert all(np.isnan(w[4]) for w in pairs)
        assert not embedding.passed
        assert [w[:2] for w in embedding.witnesses] == [(t, t) for t in sorted(spoiled)]
        assert all(np.isnan(w[2]) for w in embedding.witnesses)

    @pytest.mark.parametrize(
        "check",
        [check_immersion, check_embedding],
        ids=["check_immersion", "check_embedding"],
    )
    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1.0, -1e-300])
    def test_tol_must_be_finite_and_non_negative(self, check, tol):
        plm = build_pl(sample_tri(make_flat_plane(), identity_chart(4)))
        with pytest.raises(ValueError, match="tol must be finite and non-negative"):
            check(plm, tol=tol)
        assert check(plm, tol=0.0).passed

    def test_folded_mesh_fails(self):
        # Degenerate fold: both triangle fans of one facet collapse onto one
        # point far outside, producing star overlaps.
        rng = np.random.default_rng(11)
        spec = make_flat_plane()
        ch = identity_chart(4)
        tri = sample_tri(spec, ch)
        corner = tri.corner_values.copy()
        # Fold vertex (1,1) onto vertex (2,2)'s value.
        corner[ch.offset_of_raw(1, 1)] = corner[ch.offset_of_raw(2, 2)]
        folded = TriMesh(
            chart=ch,
            corner_values=corner,
            apex_values=tri.apex_values.copy(),
            target_periods=tri.target_periods,
        )
        plm = build_pl(folded)
        verdict = check_embedding(plm, tol=1e-3)
        assert not verdict.passed


#: Witness pairs of ``verify --spec product:figure8,circle --n 12
#: --embedding-check`` (default tolerances), in the order check_embedding
#: reports them.
FIGURE8_N12_WITNESS_PAIRS = [
    (2, 533), (3, 530), (4, 59), (5, 60), (9, 62), (64, 118), (64, 119),
    (65, 118), (120, 175), (122, 179), (125, 178), (180, 235), (181, 236),
    (238, 295), (241, 294), (296, 351), (297, 352), (354, 411), (356, 410),
    (356, 411), (357, 410), (357, 412), (414, 471), (417, 470), (472, 527),
    (473, 528),
]


class TestEmbeddingWitnesses:
    def test_figure8_n12_witness_pairs(self):
        cfg = PipelineConfig(spec="product:figure8,circle", n=12, embedding_check=True)
        verdict = run_pipeline(cfg).embedding_check
        assert not verdict.passed
        assert [(i, j) for i, j, _ in verdict.witnesses] == FIGURE8_N12_WITNESS_PAIRS
        for i, j, dist in verdict.witnesses:
            assert type(i) is int and type(j) is int and type(dist) is float

    def test_clifford_n16_embedded(self, clifford_sweep):
        plm = clifford_sweep[16]["plm"]
        verdict = check_embedding(plm, tol=1e-6)
        assert verdict.passed
        assert verdict.witnesses == []

    @given(
        dim=st.sampled_from([4, 6]),
        n=st.integers(1, 2),
        tol=st.sampled_from([1e-6, 0.05, 0.15, 0.4]),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_all_pairs_reference(self, dim, n, tol, data):
        # Triangle soups: random corner and apex values (on a coarse grid, so
        # coplanar, parallel and zero-area triangles are common) and random
        # target periods on a small chart.
        chart = identity_chart(n)
        grid = st.integers(-8, 8).map(lambda k: k / 8.0)
        shape = (2 * chart.vertex_count + 2, dim)
        values = data.draw(arrays(float, shape, elements=grid, fill=st.nothing()))
        tri = TriMesh(
            chart=chart,
            corner_values=values[: chart.vertex_count],
            apex_values=values[chart.vertex_count : -2],
            target_periods=values[-2:],
        )
        plm = build_pl(tri)
        immersion = check_immersion(plm, tol=tol)
        got = check_embedding(plm, tol=tol)
        want = embedding_witnesses_brute(plm, tol)
        assert [w[:2] for w in got.witnesses] == [w[:2] for w in want]
        assert got.passed == (not want and immersion.passed)
        for (_, _, d_got), (_, _, d_want) in zip(got.witnesses, want):
            assert d_got == pytest.approx(d_want, rel=1e-9, abs=1e-12)


def test_checks_form_no_triangle_table(monkeypatch):
    # The certificates read coordinate-major values gathered from the facet
    # tables.  With ``tri_values`` and ``triangles`` raising, the thin torus
    # at N = 12 (whose corner stars the planar test all leaves) still passes
    # immersion through the pair bounds and the predicate, and figure8 x
    # circle still fails embedding with its 26 witness pairs.
    thin = Pipeline(PipelineConfig(spec="clifford:1,0.01", n=12)).plm
    f8c = Pipeline(PipelineConfig(spec="product:figure8,circle", n=12)).plm

    def forbidden(*args):
        raise AssertionError("a triangle table was formed")

    monkeypatch.setattr(PLMap, "tri_values", property(forbidden))
    monkeypatch.setattr(PLMap, "triangles", forbidden)
    measured = _measured(monkeypatch)
    assert check_immersion(thin).passed
    assert len(measured) == 1 and measured[0] > 0
    verdict = check_embedding(f8c)
    assert not verdict.passed
    assert [(i, j) for i, j, _ in verdict.witnesses] == FIGURE8_N12_WITNESS_PAIRS


#: Built-in maps on which the far pairs are checked against all pairs:
#: ids repeat at N <= 2, and flat-plane's target has lattice shifts.
_FAR_PAIR_MAPS = [
    *(("product:figure8,circle", n) for n in (1, 2, 3, 12, 32)),
    *(("product:figure8,figure8", n) for n in (3, 16)),
    *(("clifford", n) for n in (2, 16)),
    *(("flat-plane", n) for n in (1, 4)),
]


class TestFarPairs:
    @pytest.mark.parametrize("spec, n", _FAR_PAIR_MAPS)
    def test_far_pairs_match_all_pairs(self, spec, n):
        # Far facet pairs and chart-neighbour pairs, box-tested, are the
        # triangle pairs that share no id and whose boxes come within the
        # threshold, each once.
        plm = Pipeline(PipelineConfig(spec=spec, n=n)).plm
        lo, hi = plmap._triangle_boxes(plm)
        for tol in (1e-6, 0.1, 0.3):
            threshold = tol * plm.edge_scale()
            got = plmap._far_pairs(plm, lo, hi, threshold).T.tolist()
            assert all(i < j for i, j in got)
            assert len(set(map(tuple, got))) == len(got)
            assert set(map(tuple, got)) == set(far_pairs_brute(plm, threshold))

    @given(
        dim=st.sampled_from([4, 6]),
        threshold=st.sampled_from([0.0, 0.125, 0.25, 0.5]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_separating_axis_bound_is_sound(self, dim, threshold, data):
        # Triangle soups on a coarse grid, so that coplanar, parallel and
        # zero-area triangles and gaps of exactly the threshold are common:
        # every pair the bound clears is at least the threshold apart by the
        # kernel.
        grid = st.integers(-4, 4).map(lambda k: k / 4.0)
        vals = data.draw(arrays(float, (8, 3, dim), elements=grid, fill=st.nothing()))
        i, j = np.triu_indices(len(vals), 1)
        edges = vals - vals[:, [1, 2, 0]]
        scale = float(np.sqrt((edges * edges).sum(axis=-1).max()))
        reach = threshold + _LEN_SLACK * (threshold + scale)
        p, q = (vals[k].transpose(2, 1, 0).copy() for k in (i, j))
        cleared = _pairs_separated(p, q, reach)
        assert (_tri_tri_distances(p, q)[cleared] >= threshold).all()

    def test_separating_axis_bound_clears_beyond_the_reach(self):
        # A triangle and its translate by g along a normal are g apart; the
        # bound clears them only when g exceeds the reach.
        p = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        gaps = np.array([0.25, 0.25 * (1 + 2.0**-40), 0.25 * (1 + 2.0**-30), 0.5])
        q = p + gaps[:, None, None] * np.array([0.0, 0.0, 1.0, 0.0])
        reach = 0.25 + _LEN_SLACK * (0.25 + np.sqrt(2.0))
        p = np.broadcast_to(p.T[:, :, None], (4, 3, len(gaps)))
        cleared = _pairs_separated(p, q.transpose(2, 1, 0).copy(), reach)
        assert cleared.tolist() == [False, False, True, True]


class TestExport:
    def test_flat_plane_round_trip(self, tmp_path):
        spec = make_flat_plane()
        ch = identity_chart(2)
        plm = build_pl(sample_tri(spec, ch))
        path = tmp_path / "mesh.symmesh"
        export_mesh(plm, path)
        dim, verts, faces = load_mesh(path)
        assert dim == 4
        assert verts.shape == (8, 4)  # |det M| corners + |det M| apexes
        assert faces.shape == (16, 3)
        expected = np.vstack([plm.tri.corner_values, plm.tri.apex_values])
        assert np.array_equal(verts, expected)  # bit-exact round trip

    def test_clifford_counts(self, tmp_path):
        spec = make_clifford(1.0, 1.0)
        ch = identity_chart(8)
        plm = build_pl(sample_tri(spec, ch))
        path = tmp_path / "clifford.symmesh"
        export_mesh(plm, path, projection=(0, 1, 2))
        dim, verts, faces = load_mesh(path)
        assert (dim, verts.shape[0], faces.shape[0]) == (4, 128, 256)
        # Projection file parses as a valid 3-coordinate triangle mesh.
        pdim, pverts, pfaces = load_mesh(f"{path}.obj")
        assert pdim == 3
        assert pverts.shape == (128, 3)
        assert pfaces.shape == (256, 3)
        assert pfaces.min() >= 0 and pfaces.max() < 128
        assert np.array_equal(pverts, verts[:, (0, 1, 2)])

    def test_bad_projection(self, tmp_path):
        plm = build_pl(sample_tri(make_flat_plane(), identity_chart(2)))
        with pytest.raises(ValueError):
            export_mesh(plm, tmp_path / "m.symmesh", projection=(0, 1, 9))
