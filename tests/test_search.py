"""Fundamental domains, ordering checks, monotonicity, and grid search."""

import math
import tracemalloc

import numpy as np
import pytest

from mheight import (
    PHI,
    Family,
    GeneratorMatrix,
    InvalidParameterError,
    TriangleDomain,
    dodecahedral_candidates,
    dodecahedral_domain,
    dodecahedral_height,
    dodecahedral_rank_check,
    domain_search,
    dual_dodecahedral,
    dual_icosahedral,
    dual_polygonal,
    encode,
    exact_mheight,
    exact_profile,
    icosahedral_chain_check,
    icosahedral_domain,
    monotonicity_check,
    polygonal_domain,
    polygonal_height,
    polygonal_order_indices,
    polygonal_rank_index,
)
from mheight import search
from mheight.codes import DUAL_DODECAHEDRAL, DUAL_ICOSAHEDRAL, DUAL_POLYGONAL, from_columns

import search_oracle

SQRT5 = math.sqrt(5.0)


def sample_triangle(rng):
    while True:
        u, v = float(rng.random()), float(rng.random())
        if u + v <= 1.0:
            return u, v


class TestDomains:
    def test_polygonal_endpoint(self):
        assert polygonal_domain(3).upper == pytest.approx(math.pi / 6)

    def test_icosahedral_vertices(self):
        dom = icosahedral_domain()
        g = dual_icosahedral()
        np.testing.assert_allclose(dom.v1, g.column(0))
        np.testing.assert_allclose(dom.v2, [(0 + 1) / 2, (1 + PHI) / 2, (PHI + 0) / 2])
        np.testing.assert_allclose(
            dom.v3, (g.column(0) + g.column(2) + g.column(4)) / 3.0)

    def test_dodecahedral_vertices(self):
        dom = dodecahedral_domain()
        np.testing.assert_allclose(
            dom.v2, [(1 + 0) / 2, (1 + PHI) / 2, (1 + 1 / PHI) / 2])

    def test_barycentric_corners(self):
        dom = icosahedral_domain()
        np.testing.assert_allclose(dom.point(1.0, 0.0), dom.v1)
        np.testing.assert_allclose(dom.point(0.0, 1.0), dom.v2)
        np.testing.assert_allclose(dom.point(0.0, 0.0), dom.v3)

    def test_degenerate_triangle_rejected(self):
        with pytest.raises(InvalidParameterError):
            TriangleDomain((0.0, 0.0, 1.0), (0.0, 0.0, 2.0), (0.0, 0.0, 3.0))


class TestPolygonalOrder:
    def test_rank_index_formula(self):
        assert [polygonal_rank_index(5, k) for k in range(5)] == [0, 1, 4, 2, 3]
        assert [polygonal_rank_index(6, k) for k in range(6)] == [0, 1, 5, 2, 4, 3]

    def test_example_permutation(self):
        report = polygonal_order_indices(5, 0.1)
        assert report.perm == (0, 1, 4, 2, 3)
        assert report.ok

    def test_boundary_ties_excused(self):
        assert polygonal_order_indices(4, 0.0).ok
        for n in (3, 5, 8):
            assert polygonal_order_indices(n, math.pi / (2 * n)).ok

    def test_alpha_outside_domain(self):
        with pytest.raises(InvalidParameterError):
            polygonal_order_indices(5, 1.0)
        with pytest.raises(InvalidParameterError):
            polygonal_order_indices(5, -0.2)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_randomized_no_violations(self, n):
        rng = np.random.default_rng(n)
        for _ in range(300):
            alpha = float(rng.random()) * math.pi / (2 * n)
            assert polygonal_order_indices(n, alpha).ok


class TestIcosahedralChain:
    def test_vertex_point(self):
        report = icosahedral_chain_check(1.0, 0.0)
        assert report.ok
        assert report.perm[0] == 1
        x = icosahedral_domain().point(1.0, 0.0)
        assert abs(x @ dual_icosahedral().column(0)) == pytest.approx(2 + PHI)

    def test_center_point_has_leading_ties(self):
        report = icosahedral_chain_check(0.0, 0.0)
        assert report.ok
        x = icosahedral_domain().point(0.0, 0.0)
        mags = np.abs(x @ dual_icosahedral().matrix)
        assert mags[0] == pytest.approx(mags[2], rel=1e-12)
        assert mags[0] == pytest.approx(mags[4], rel=1e-12)

    def test_interior_point(self):
        assert icosahedral_chain_check(0.2, 0.3).ok

    def test_outside_domain(self):
        with pytest.raises(InvalidParameterError):
            icosahedral_chain_check(0.7, 0.7)
        with pytest.raises(InvalidParameterError):
            icosahedral_chain_check(-0.1, 0.2)

    def test_randomized_no_violations(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            u, v = sample_triangle(rng)
            assert icosahedral_chain_check(u, v).ok


class TestDodecahedralRanks:
    def test_vertex_point(self):
        report = dodecahedral_rank_check(1.0, 0.0)
        assert report.ok
        assert report.perm[0] == 1
        x = dodecahedral_domain().point(1.0, 0.0)
        assert abs(x @ dual_dodecahedral().column(0)) == pytest.approx(3.0)

    def test_edge_midpoint_tie(self):
        report = dodecahedral_rank_check(0.0, 1.0)
        assert report.ok
        x = dodecahedral_domain().point(0.0, 1.0)
        mags = np.abs(x @ dual_dodecahedral().matrix)
        assert mags[0] == pytest.approx(mags[4], rel=1e-12)

    def test_interior_point(self):
        assert dodecahedral_rank_check(0.25, 0.25).ok

    def test_outside_domain(self):
        with pytest.raises(InvalidParameterError):
            dodecahedral_rank_check(0.6, 0.6)

    def test_randomized_no_violations(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            u, v = sample_triangle(rng)
            assert dodecahedral_rank_check(u, v).ok


def reference_polygonal(n, alpha):
    """Scalar loop form of the arc ordering rule: violations at one angle."""
    mags = np.abs(np.cos(np.pi * np.arange(n) / n - alpha))
    attained = np.sort(mags)[::-1]
    out = []
    for k in range(n):
        expected = search.polygonal_rank_index(n, k)
        gap = float(attained[k]) - float(mags[expected])
        if gap > search.TIE_TOL * max(1.0, float(attained[k])):
            out.append((f"rank {k} expected index {expected}", gap))
    return out


def _reference_pairs(mags, pairs):
    out = []
    for hi_axis, lo_axis in pairs:
        gap = float(mags[lo_axis - 1] - mags[hi_axis - 1])
        if gap > search.TIE_TOL * max(1.0, float(mags[lo_axis - 1])):
            out.append((f"g{hi_axis} >= g{lo_axis}", gap))
    return out


def reference_icosa(u, v):
    """Scalar loop form of the icosahedral chain rule."""
    mags = np.abs(icosahedral_domain().point(u, v) @ dual_icosahedral().matrix)
    chain = search._ICOSA_CHAIN
    return _reference_pairs(mags, tuple(zip(chain, chain[1:])))


def reference_dode(u, v):
    """Scalar loop form of the dodecahedral pair and rank-set rules."""
    mags = np.abs(dodecahedral_domain().point(u, v) @ dual_dodecahedral().matrix)
    out = _reference_pairs(mags, search._DODE_PAIRS)
    order = np.sort(mags)[::-1]
    for rank, allowed in search._DODE_RANK_SETS.items():
        value = float(order[rank - 1])
        diffs = [abs(float(mags[axis - 1]) - value) for axis in allowed]
        if not any(d <= search.TIE_TOL * max(1.0, float(mags[axis - 1]), value)
                   for d, axis in zip(diffs, allowed)):
            out.append((f"rank {rank} outside axes {allowed}", min(diffs)))
    return out


def triangle_points():
    """Seeded interior points plus vertices, edge points and tie points."""
    rng = np.random.default_rng(5)
    pts = [sample_triangle(rng) for _ in range(400)]
    pts += [(1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (0.5, 0.5), (0.5, 0.0),
            (0.0, 0.5), (0.25, 0.75), (1.0 / 3.0, 1.0 / 3.0)]
    pts += list(dodecahedral_candidates())
    cut = 2.0 * SQRT5 - 4.0                  # where the eighth projection vanishes
    pts += [(u, cut * (1.0 - u)) for u in (0.1, 0.4, 0.8)]
    return np.array(pts)


def arc_angles(n):
    rng = np.random.default_rng(n)
    upper = math.pi / (2 * n)
    return np.concatenate([[0.0, upper / 2, upper], rng.random(200) * upper])


def _labelled(report):
    return [(v.label, v.magnitude) for v in report.violations]


class TestBatchedRules:
    """The array rules count exactly the violations of the scalar loop form,
    and the single-point reports list them."""

    def check_polygonal(self):
        total = 0
        for n in range(2, 14):
            alphas = arc_angles(n)
            counts = search.polygonal_order_violations(n, alphas)
            expected = [reference_polygonal(n, a) for a in alphas]
            assert counts.tolist() == [len(e) for e in expected]
            for a, e in zip(alphas, expected):
                assert _labelled(polygonal_order_indices(n, float(a))) == e
            total += int(counts.sum())
        return total

    def check_triangle(self, batch, single, reference):
        pts = triangle_points()
        counts = batch(pts[:, 0], pts[:, 1])
        expected = [reference(u, v) for u, v in pts]
        assert counts.tolist() == [len(e) for e in expected]
        for (u, v), e in zip(pts, expected):
            assert _labelled(single(float(u), float(v))) == e
        return int(counts.sum())

    def test_polygonal(self):
        assert self.check_polygonal() == 0

    def test_icosahedral(self):
        assert self.check_triangle(search.icosahedral_chain_violations,
                                   icosahedral_chain_check, reference_icosa) == 0

    def test_dodecahedral(self):
        assert self.check_triangle(search.dodecahedral_rank_violations,
                                   dodecahedral_rank_check, reference_dode) == 0

    def test_wrong_polygonal_table_is_counted(self, monkeypatch):
        monkeypatch.setattr(search, "polygonal_rank_index", lambda n, k: k)
        assert self.check_polygonal() > 0

    def test_wrong_icosahedral_table_is_counted(self, monkeypatch):
        monkeypatch.setattr(search, "_ICOSA_CHAIN", (1, 5, 3, 4, 6, 2))
        assert self.check_triangle(search.icosahedral_chain_violations,
                                   icosahedral_chain_check, reference_icosa) > 0

    def test_wrong_dodecahedral_tables_are_counted(self, monkeypatch):
        monkeypatch.setattr(search, "_DODE_PAIRS", ((5, 1), (9, 5), (2, 6)))
        total = self.check_triangle(search.dodecahedral_rank_violations,
                                    dodecahedral_rank_check, reference_dode)
        assert total > 0
        monkeypatch.setattr(search, "_DODE_PAIRS", ())
        monkeypatch.setattr(search, "_DODE_RANK_SETS", {1: (5,), 4: (2, 3), 9: (1,)})
        assert self.check_triangle(search.dodecahedral_rank_violations,
                                   dodecahedral_rank_check, reference_dode) > 0

    def test_batch_domain_validation(self):
        with pytest.raises(InvalidParameterError):
            search.polygonal_order_violations(5, np.array([0.1, 1.0]))
        with pytest.raises(InvalidParameterError):
            search.icosahedral_chain_violations(np.array([0.2, 0.7]),
                                                np.array([0.2, 0.7]))
        with pytest.raises(InvalidParameterError):
            search.dodecahedral_rank_violations(np.array([-0.1]), np.array([0.2]))


class TestCandidates:
    def test_exact_values(self):
        cands = dodecahedral_candidates()
        assert (1.0, 0.0) in cands and (0.0, 0.0) in cands and (0.0, 1.0) in cands
        assert any(u == pytest.approx(PHI / 3) and v == 0.0 for u, v in cands)
        assert any(u == 0.0 and v == pytest.approx((1 + 3 * SQRT5) / 11)
                   for u, v in cands)
        assert any(u == 0.0 and v == pytest.approx(2 * SQRT5 - 4) for u, v in cands)
        assert len(cands) == 6

    @pytest.mark.parametrize("m", range(3, 8))
    def test_candidate_max_reproduces_profile_value(self, m):
        g = dual_dodecahedral()
        dom = dodecahedral_domain()
        best = max(encode(g, dom.point(u, v)).height(m)
                   for u, v in dodecahedral_candidates())
        assert best == pytest.approx(dodecahedral_height(m).value, rel=1e-9)


class TestMonotonicity:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_polygonal_signs(self, n):
        fam = Family(DUAL_POLYGONAL, n)
        for m in range(1, n - 1):
            report = monotonicity_check(fam, m, 30)
            assert report.asserted > 0
            assert report.ok, report.violations[:3]

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_icosahedral_signs(self, j):
        report = monotonicity_check(Family(DUAL_ICOSAHEDRAL), j, 30)
        assert report.asserted > 0 and report.ok

    @pytest.mark.parametrize("j", [2, 4, 5, 6, 7, 8, 9, 10])
    def test_dodecahedral_signs(self, j):
        report = monotonicity_check(Family(DUAL_DODECAHEDRAL), j, 30)
        assert report.asserted > 0 and report.ok

    def test_expected_sign_tables(self):
        assert monotonicity_check(Family(DUAL_DODECAHEDRAL), 7, 10).expected == (-1, -1)
        assert monotonicity_check(Family(DUAL_DODECAHEDRAL), 5, 10).expected == (1, -1)
        assert monotonicity_check(Family(DUAL_POLYGONAL, 6), 2, 10).expected == (1,)

    @pytest.mark.parametrize("flip", [False, True])
    def test_chunked_grid_matches_one_pass(self, monkeypatch, flip):
        # Flipped sign tables, and arc ratios one rank further down (whose
        # sign is the opposite), make every ratio report violations, so the
        # chunked report must keep their labels and their order.
        if flip:
            for table in ("_ICOSA_SIGNS", "_DODE_SIGNS"):
                monkeypatch.setattr(search, table, {
                    j: tuple(None if s is None else -s for s in signs)
                    for j, signs in getattr(search, table).items()})
            monkeypatch.setattr(search, "polygonal_rank_index",
                                lambda n, k: polygonal_rank_index(n, k + 1))
        cases = [(Family(DUAL_POLYGONAL, n), m) for n in (3, 8, 12) for m in range(1, n - 1)]
        cases += [(Family(DUAL_ICOSAHEDRAL), j) for j in (1, 2, 3)]
        cases += [(Family(DUAL_DODECAHEDRAL), j) for j in (2, 4, 5, 6, 7, 8, 9, 10)]
        monkeypatch.setattr(search, "_GRID_CHUNK", 10**9)
        whole = [monotonicity_check(fam, j, 40) for fam, j in cases]
        monkeypatch.setattr(search, "_GRID_CHUNK", 7)
        chunked = [monotonicity_check(fam, j, 40) for fam, j in cases]
        assert chunked == whole
        assert all(r.asserted > 0 for r in whole)
        assert all(bool(r.violations) == flip for r in whole)

    def test_arc_memory_is_bounded_by_the_chunk(self):
        # The whole 200,000-angle grid, sorted as an (N, n) array, takes
        # tens of MB.
        tracemalloc.start()
        try:
            report = monotonicity_check(Family(DUAL_POLYGONAL, 12), 5, 200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.asserted > 0 and report.ok
        assert peak < 8 * 2**20

    def test_invalid_ratio_index(self):
        with pytest.raises(InvalidParameterError):
            monotonicity_check(Family(DUAL_DODECAHEDRAL), 1, 10)
        with pytest.raises(InvalidParameterError):
            monotonicity_check(Family(DUAL_ICOSAHEDRAL), 4, 10)
        with pytest.raises(InvalidParameterError):
            monotonicity_check(Family(DUAL_POLYGONAL, 5), 4, 10)


def _fifteen_axis_code():
    """The 15 two-fold axes of the icosahedral group, in the frame of
    dual_icosahedral: the cyclic shifts of (phi, 0, 0), and the even
    permutations of (1/2, phi^2/2, phi/2) with every sign, one axis per
    +- pair."""
    axes = [np.roll((PHI, 0.0, 0.0), s) for s in range(3)]
    half = np.array((0.5, PHI * PHI / 2.0, PHI / 2.0))
    axes += [np.roll(half * (1.0, sy, sz), s)
             for s in range(3) for sy in (1.0, -1.0) for sz in (1.0, -1.0)]
    return from_columns(axes)


class TestDomainSearch:
    def test_polygonal_matches_closed_form(self):
        g = dual_polygonal(8)
        dom = polygonal_domain(8)
        h = domain_search(g, 1, dom, 10_000)
        target = polygonal_height(8, 1).value
        assert h.value == pytest.approx(target, rel=1e-6)
        assert h.value <= target + 1e-9

    def test_icosahedral_m3(self):
        h = domain_search(dual_icosahedral(), 3, icosahedral_domain(), 500)
        assert h.value == pytest.approx(2 + SQRT5, rel=1e-4)
        assert h.value <= 2 + SQRT5 + 1e-9

    def test_coarse_grid_is_still_a_lower_bound(self):
        g = dual_dodecahedral()
        h = domain_search(g, 3, dodecahedral_domain(), 2)
        exact = exact_mheight(g, 3)
        assert 1.0 - 1e-12 <= h.value <= exact.value + 1e-9

    @pytest.mark.parametrize("scale", [1e300, 1e308])
    @pytest.mark.parametrize("make,m,domain", [
        (dual_dodecahedral, 5, dodecahedral_domain),
        (lambda: dual_polygonal(16), 4, lambda: polygonal_domain(16))])
    def test_extreme_scale_changes_nothing(self, make, m, domain, scale):
        # The search runs on G rescaled by a power of two, so entries near
        # the float64 limit overflow nothing (RuntimeWarning is an error).
        g = make()
        want = domain_search(g, m, domain())
        got = domain_search(GeneratorMatrix(g.matrix * scale, g.family), m, domain())
        assert (got.value, got.witness) == (want.value, want.witness)

    def test_search_witness_reproduces_value(self):
        g = dual_dodecahedral()
        h = domain_search(g, 5, dodecahedral_domain(), 200)
        assert encode(g, h.witness).height(5) == pytest.approx(h.value, rel=1e-9)

    @pytest.mark.parametrize("resolution", [5, 20, 50, None])
    def test_polyhedral_maxima_are_switching_vertices(self, resolution):
        # The refine finds every finite height exactly, even on a coarse
        # grid, also with every other column's sign flipped: that swaps
        # the lines e_i = e_j and e_i = -e_j of the arrangement.  On the
        # 15-axis code the maxima at m = 7, 8 sit where two magnitudes cross
        # along a ridge that no coordinate axis follows.
        for g, dom in ((dual_icosahedral(), icosahedral_domain()),
                       (dual_dodecahedral(), dodecahedral_domain()),
                       (_fifteen_axis_code(), icosahedral_domain())):
            exact = exact_profile(g)
            signs = (-1.0) ** np.arange(g.n)
            for code in (g, from_columns(g.columns * signs[:, None])):
                for m in range(1, g.n):
                    if not exact.height(m).infinite:
                        h = domain_search(code, m, dom, resolution)
                        assert h.value == pytest.approx(exact.height(m).value, rel=1e-12), m

    def test_refine_is_exact_over_a_whole_domain(self):
        # At resolution 2 one grid cell spans the whole arc or triangle, so
        # the switching vertices must beat a dense sampling of it.
        rng = np.random.default_rng(3)
        alphas = np.linspace(0.0, 1.0, 20_001)
        line = np.linspace(0.0, 1.0, 201)
        us, vs = (x.ravel() for x in np.meshgrid(line, line))
        us, vs = us[us + vs <= 1.0], vs[us + vs <= 1.0]
        for k in (2, 3):
            for _ in range(4):
                n = int(rng.integers(k + 1, 9))
                g = from_columns(rng.normal(size=(n, k)))
                if k == 2:
                    dom = polygonal_domain(n)
                    dirs = np.column_stack([np.cos(alphas * dom.upper),
                                            np.sin(alphas * dom.upper)])
                else:
                    dom = dodecahedral_domain()
                    dirs = dom.points(us, vs)
                mags = np.sort(np.abs(dirs @ g.matrix), axis=1)
                for m in range(1, n - k + 1):     # the finite heights
                    dense = float(np.max(mags[:, -1] / mags[:, -1 - m]))
                    h = domain_search(g, m, dom, 2)
                    assert h.value >= dense * (1.0 - 1e-12), (k, n, m)

    def test_refine_lands_on_a_pole_inside_the_domain(self):
        # Column 2 vanishes along a line through the domain's interior, so
        # at m = n - 1 the ratio is unbounded there.  On a fine enough grid
        # the maximum is a point within a cell of that line, and the
        # refine's e_i = 0 vertices lie on it.
        rng = np.random.default_rng(0)
        for k in (2, 3):
            for _ in range(3):
                cols = rng.normal(size=(6, k))
                if k == 2:
                    dom = polygonal_domain(6)
                    a = 0.37 * dom.upper
                    cols[2] = (-math.sin(a), math.cos(a))
                else:
                    dom = dodecahedral_domain()
                    cols[2] = np.cross(dom.point(0.31, 0.23), rng.normal(size=3))
                for res in (61, 300):
                    assert domain_search(from_columns(cols), 5, dom, res).value > 1e12

    def test_exact_zero_denominator_reports_infinity(self):
        # The arc endpoint alpha=0 zeroes no entry, but alpha=pi/2 would; use
        # a custom domain point instead: the identity code at m=1 samples a
        # zero second coordinate at alpha=0.
        from mheight import from_columns
        g = from_columns([(1.0, 0.0), (0.0, 1.0)])
        h = domain_search(g, 1, polygonal_domain(2), 11)
        assert h.infinite

    def test_resolution_validation(self):
        g, dom = dual_polygonal(4), polygonal_domain(4)
        for m, resolution in ((1, 1), (2.5, 10), (True, 10), (np.float64(1.0), 10),
                              (1, 300.0), (1, True), (1, np.float64(300.0))):
            with pytest.raises(InvalidParameterError):
                domain_search(g, m, dom, resolution)
        assert (domain_search(g, np.int64(1), dom, np.int32(10))
                == domain_search(g, 1, dom, 10))
        with pytest.raises(InvalidParameterError):
            exact_mheight(g, True)

    def test_resolution_has_no_effect_on_an_arc(self):
        # The arc search evaluates every switching angle, so there is no
        # grid for ``resolution`` to size; it is still validated.
        rng = np.random.default_rng(7)
        for n, g in ((5, dual_polygonal(5)), (64, dual_polygonal(64)),
                     (6, from_columns(rng.normal(size=(6, 2))))):
            dom = polygonal_domain(n)
            for m in range(1, n):
                first = domain_search(g, m, dom)
                for resolution in (2, 7, 10_000):
                    h = domain_search(g, m, dom, resolution)
                    assert (h.value, h.witness) == (first.value, first.witness), (n, m)
            for bad in (2.5, True, 1):
                with pytest.raises(InvalidParameterError):
                    domain_search(g, 1, dom, bad)
        assert not hasattr(search, "_DEFAULT_ARC_RESOLUTION")

    def test_domain_type_validation(self):
        with pytest.raises(InvalidParameterError):
            domain_search(dual_icosahedral(), 1, polygonal_domain(4), 10)
        with pytest.raises(InvalidParameterError):
            domain_search(dual_polygonal(4), 1, icosahedral_domain(), 10)

    def test_full_sphere_sampling_never_beats_fundamental_domain(self):
        rng = np.random.default_rng(0)
        cases = [
            (dual_polygonal(7), polygonal_domain(7)),
            (dual_icosahedral(), icosahedral_domain()),
            (dual_dodecahedral(), dodecahedral_domain()),
        ]
        for g, dom in cases:
            dirs = rng.normal(size=(100_000, g.k))
            mags = np.abs(dirs @ g.matrix)
            mags.sort(axis=1)
            for m in range(1, g.n - g.k + 1):   # the finite part of the profile
                h = domain_search(g, m, dom)
                assert not h.infinite
                den = mags[:, -1 - m]
                ok = den > 0
                sampled = float(np.max(mags[ok, -1] / den[ok]))
                assert sampled <= h.value + 1e-6 * max(1.0, h.value)


def _random_k3_codes(rng):
    """Gaussian, small-integer and duplicated-column codes of full rank."""
    codes = []
    for trial in range(6):
        n = int(rng.integers(4, 9))
        if trial % 3 == 0:
            cols = rng.normal(size=(n, 3))
        elif trial % 3 == 1:
            cols = rng.integers(-3, 4, size=(n, 3)).astype(float)
        else:
            cols = rng.normal(size=(n, 3))
            cols[1] = cols[0]
        if np.linalg.matrix_rank(cols) == 3:
            codes.append(from_columns(cols))
    return codes


@pytest.fixture(params=[None, 7], ids=["default-chunk", "chunk-7"])
def grid_chunk(request, monkeypatch):
    """Runs a test at the shipped ``_GRID_CHUNK`` and at 7 points per block,
    where ties and exact zeros fall across many block seams and some
    blocks hold a single point."""
    if request.param is not None:
        monkeypatch.setattr(search, "_GRID_CHUNK", request.param)
    return request.param


class TestGridPassMatchesOracle:
    """The chunked triangle grid pass reproduces the one-pass grid bit for
    bit: its ``(ratio, params, point)`` is compared with ``==``.  The
    switching-vertex refine that follows may only raise the value, never
    past the exact height, and its witness re-encodes to the value.  An arc
    search is one pass over the switching angles, held to the exact height
    and to a dense sampling of the arc."""

    @pytest.fixture(autouse=True)
    def grid_stage(self, monkeypatch):
        """Records what each ``_grid_max`` call of a search returns: on a
        triangle the first is the grid stage, a second the refine; an arc
        search makes one call."""
        self.stages, grid_max = [], search._grid_max

        def recorded(blocks, matrix, m):
            self.stages.append(grid_max(blocks, matrix, m))
            return self.stages[-1]
        monkeypatch.setattr(search, "_grid_max", recorded)

    @staticmethod
    def exact(g):
        return [h.value for h in exact_profile(g).heights]

    def assert_same(self, g, m, dom, resolution, exact=None):
        self.stages.clear()
        new = domain_search(g, m, dom, resolution)
        grid = self.stages[0]
        assert grid == search_oracle.triangle_grid(g, m, dom, resolution), \
            (g.family, m, resolution)
        value, params, point = grid
        if params is None:                        # exact infinity on the grid
            assert new.infinite and new.witness == point and len(self.stages) == 1
            return new
        assert new.value >= value
        self.assert_bounded(g, m, new, exact)
        return new

    @staticmethod
    def assert_bounded(g, m, found, exact):
        """``found`` is at most the exact height, where that is finite, and
        its witness re-encodes to its value."""
        if exact is not None and math.isfinite(exact[m - 1]):
            assert found.value <= exact[m - 1] * (1.0 + 1e-9), (g.family, m)
        again = encode(g, found.witness)
        if found.value < 1e12:
            assert again.height(m) == pytest.approx(found.value, rel=1e-9, abs=0.0)
        else:                                     # ratio at a vanishing denominator
            assert again.height(m) > 1e9

    def test_polyhedral_codes(self, grid_chunk):
        # At 7 points per block the two large grids take about 0.3 s per
        # search, so that run keeps them to one m per code.
        for g, dom, big_ms in ((dual_icosahedral(), icosahedral_domain(), (3,)),
                               (dual_dodecahedral(), dodecahedral_domain(), (5,))):
            exact = self.exact(g)
            for m in range(1, g.n):
                for res in (2, 3, 50, 300, 400):
                    if res < 300 or grid_chunk is None or m in big_ms:
                        self.assert_same(g, m, dom, res, exact)

    def test_random_k3_codes_on_both_triangles(self, grid_chunk):
        rng = np.random.default_rng(14)
        for g in _random_k3_codes(rng):
            exact = self.exact(g)
            for dom in (icosahedral_domain(), dodecahedral_domain()):
                for m in range(1, g.n):
                    for res in (2, 7, 61):
                        self.assert_same(g, m, dom, res, exact)

    def test_exact_infinity_in_a_later_block(self, grid_chunk):
        # Two copies of e1 vanish exactly where w = 1 - u - v is exactly 0,
        # first at the last point (u, v) = (1, 0) of grid row 0; the random
        # columns never vanish on the grid.
        rng = np.random.default_rng(5)
        dom = TriangleDomain((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
        cols = np.vstack([rng.normal(size=(5, 3)), [(1.0, 0.0, 0.0)] * 2])
        g = from_columns(cols)
        for res in (3, 50, 61):
            h = self.assert_same(g, g.n - 2, dom, res)
            assert h.infinite and h.witness == (0.0, 1.0, 0.0)
            assert not self.assert_same(g, g.n - 3, dom, res).infinite

    def test_ties_keep_the_first_grid_point(self, grid_chunk):
        # Four equal columns dominate every point of this triangle, so for
        # m <= 3 every grid ratio is exactly 1 and the refinement cannot
        # beat it: the first grid point, (u, v) = (0, 0), is the witness.
        dom = TriangleDomain((1.0, 0.2, 0.2), (0.2, 1.0, 0.2), (0.2, 0.2, 1.0))
        g = from_columns([(1.0, 1.0, 1.0)] * 4 + [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                                  (0.0, 0.0, 1.0)])
        for m in (1, 3):
            for res in (3, 50):
                h = self.assert_same(g, m, dom, res)
                assert h.value == 1.0 and h.witness == dom.v3

    def test_polygonal_and_random_k2_codes_on_arcs(self, grid_chunk):
        # One kernel pass over the arc's switching angles, never above the
        # exact height and never below a dense sampling of the arc.
        rng = np.random.default_rng(2)
        codes = [(n, dual_polygonal(n), sorted({1, 2, n // 2, n - 2, n - 1} - {0}))
                 for n in (range(3, 65) if grid_chunk is None else (3, 4, 5, 8, 13, 64))]
        for trial in range(8):
            n = int(rng.integers(3, 9))
            codes.append((n, from_columns(rng.normal(size=(n, 2)) if trial % 2 else
                                          rng.integers(-2, 3, size=(n, 2)).astype(float)),
                          range(1, n)))
        for n, g, ms in codes:
            dom, exact = polygonal_domain(n), self.exact(g)
            alphas = np.linspace(0.0, dom.upper, 20_001)
            mags = np.sort(np.abs(np.column_stack([np.cos(alphas), np.sin(alphas)])
                                  @ g.matrix), axis=1)
            for m in ms:
                self.stages.clear()
                h = domain_search(g, m, dom)
                assert len(self.stages) == 1
                num, den = mags[:, -1], mags[:, -1 - m]
                with np.errstate(divide="ignore"):
                    dense = float(np.max(np.where(num > 0.0, num / den, 0.0)))
                assert h.value >= dense * (1.0 - 1e-12), (g.family, m)
                self.assert_bounded(g, m, h, exact)


def test_search_memory_is_bounded_by_the_chunk():
    # A 3000 x 3000 grid keeps 4.5 M points; building its arrays whole
    # takes hundreds of MB.
    g, dom = dual_dodecahedral(), dodecahedral_domain()
    tracemalloc.start()
    try:
        domain_search(g, 5, dom, 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
