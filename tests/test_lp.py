"""LP engine: solver contract, configuration family, exact heights.

The general-LP API (``solve_lp``, ``LPProblem``, the configuration family)
lives in ``lp_oracle``; the library's private array solver and reference
engine are checked against it.
"""

import math

import numpy as np
import pytest

from mheight import (
    CapacityError,
    GeneratorMatrix,
    InvalidParameterError,
    MHeightError,
    closed_profile,
    dual_dodecahedral,
    dual_icosahedral,
    dual_polygonal,
    exact_mheight,
    exact_profile,
    from_columns,
    polygonal_height,
)
import mheight.codes as codes_module
import mheight.lp as lp_module
import lp_oracle
import pool_oracle
from lp_oracle import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    Configuration,
    LPProblem,
    configuration_lp,
    iter_configurations,
    lp_family_size,
    solve_lp,
)
from mheight import encode, is_mds
from mheight.codes import Family
from mheight.lp import FEAS_TOL

SQRT5 = math.sqrt(5.0)


def lp(objective, eq=(), ge=()):
    return LPProblem(tuple(objective),
                     tuple((tuple(a), r) for a, r in eq),
                     tuple((tuple(a), r) for a, r in ge))


class TestSolveLp:
    def test_bounded_segment(self):
        res = solve_lp(lp([1.0], ge=[([-1.0], -1.0)]))
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.point == pytest.approx((1.0,))

    def test_half_line_unbounded(self):
        res = solve_lp(lp([1.0], ge=[([1.0], 0.0)]))
        assert res.status == UNBOUNDED
        assert res.ray == pytest.approx((1.0,))

    def test_box_corner(self):
        res = solve_lp(lp([1.0, 1.0], ge=[
            ([-1.0, 0.0], -1.0), ([0.0, -1.0], -1.0),
            ([1.0, 0.0], 0.0), ([0.0, 1.0], 0.0)]))
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(2.0, abs=1e-12)
        assert res.point == pytest.approx((1.0, 1.0))

    def test_zero_equality_row_is_infeasible(self):
        res = solve_lp(lp([1.0, 0.0], eq=[([0.0, 0.0], 1.0)]))
        assert res.status == INFEASIBLE

    def test_contradictory_rows_infeasible(self):
        res = solve_lp(lp([1.0], ge=[([1.0], 1.0), ([-1.0], 0.0)]))
        assert res.status == INFEASIBLE

    def test_free_direction_makes_unbounded(self):
        # Constraint only pins the first coordinate; objective uses the second.
        res = solve_lp(lp([0.0, 1.0], eq=[([1.0, 0.0], 1.0)]))
        assert res.status == UNBOUNDED
        assert abs(res.ray[1]) > 0.9

    def test_lineality_with_bounded_objective(self):
        # Feasible set is a full line; the objective is constant along it.
        res = solve_lp(lp([1.0, 0.0], eq=[([1.0, 0.0], 2.0)]))
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_dim_capacity(self):
        with pytest.raises(CapacityError):
            solve_lp(lp([1.0] * 9))

    def test_row_capacity(self):
        rows = [([1.0], float(i)) for i in range(10_001)]
        with pytest.raises(CapacityError):
            solve_lp(lp([1.0], ge=rows))

    def test_deterministic(self):
        problem = lp([1.0, 2.0], ge=[
            ([-1.0, -1.0], -3.0), ([1.0, 0.0], 0.0), ([0.0, 1.0], 0.0)])
        assert solve_lp(problem) == solve_lp(problem)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidParameterError):
            lp([math.inf, 1.0])


class TestSolveLpRandomized:
    """Status and value agreement with an independent solver, plus the
    feasibility invariants of reported points and rays."""

    def _random_problems(self, count):
        rng = np.random.default_rng(20240817)
        for _ in range(count):
            dim = int(rng.integers(1, 4))
            n_eq = int(rng.integers(0, 2))
            n_ge = int(rng.integers(1, 7))
            yield lp(rng.normal(size=dim),
                     eq=[(rng.normal(size=dim), float(rng.normal())) for _ in range(n_eq)],
                     ge=[(rng.normal(size=dim), float(rng.normal())) for _ in range(n_ge)])

    def test_against_scipy(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        for problem in self._random_problems(250):
            ours = solve_lp(problem)
            obj = np.array(problem.objective)
            ge = problem.ineq_constraints
            eq = problem.eq_constraints
            ref = linprog(
                -obj,
                A_ub=-np.array([a for a, _ in ge]) if ge else None,
                b_ub=-np.array([r for _, r in ge]) if ge else None,
                A_eq=np.array([a for a, _ in eq]) if eq else None,
                b_eq=np.array([r for _, r in eq]) if eq else None,
                bounds=[(None, None)] * problem.dim, method="highs")
            status = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}[ref.status]
            assert ours.status == status
            if status == OPTIMAL:
                assert ours.value == pytest.approx(-ref.fun, abs=1e-7, rel=1e-7)

    def test_array_solver_matches_oracle(self):
        seen = set()
        for problem in self._random_problems(250):
            want = solve_lp(problem)
            eq, ge = problem.eq_constraints, problem.ineq_constraints
            rows = np.array([a for a, _ in (*eq, *ge)])
            rhs = np.array([r for _, r in (*eq, *ge)])
            got = lp_module._solve_lp(rows, rhs, len(eq), np.array(problem.objective))
            seen.add(want.status)
            if want.status == INFEASIBLE:
                assert got is None
            elif want.status == UNBOUNDED:
                assert got[0] == math.inf and tuple(got[1]) == want.ray
            else:
                assert got[0] == want.value and tuple(got[1]) == want.point
        assert seen == {OPTIMAL, UNBOUNDED, INFEASIBLE}

    def test_result_invariants(self):
        for problem in self._random_problems(250):
            res = solve_lp(problem)
            rows = [(np.array(a), r, True) for a, r in problem.eq_constraints]
            rows += [(np.array(a), r, False) for a, r in problem.ineq_constraints]
            if res.status == OPTIMAL:
                z = np.array(res.point)
                for a, r, is_eq in rows:
                    nrm = np.linalg.norm(a)
                    gap = (a @ z - r) / nrm
                    assert abs(gap) <= 2 * FEAS_TOL if is_eq else gap >= -2 * FEAS_TOL
            elif res.status == UNBOUNDED:
                d = np.array(res.ray)
                assert np.array(problem.objective) @ d > 0
                for a, r, is_eq in rows:
                    nrm = np.linalg.norm(a)
                    recess = (a @ d) / nrm
                    assert abs(recess) <= 2 * FEAS_TOL if is_eq else recess >= -2 * FEAS_TOL


class TestConfigurationFamily:
    def test_family_size_formula(self):
        assert lp_family_size(5, 2) == math.comb(5, 2) * 2 * 4
        assert lp_family_size(10, 7) == math.comb(10, 7) * 7 * 128

    @pytest.mark.parametrize("n,m", [(4, 1), (4, 2), (5, 3)])
    def test_iteration_matches_size(self, n, m):
        configs = list(iter_configurations(n, m))
        assert len(configs) == lp_family_size(n, m) * (n - m)
        assert len(set(configs)) == len(configs)

    @pytest.mark.parametrize("n,m", [(4, 1), (4, 2), (5, 3)])
    def test_reference_solves_whole_family(self, n, m, monkeypatch):
        calls = []
        solve = lp_module._solve_lp

        def spy(*args):
            calls.append(args)
            return solve(*args)
        monkeypatch.setattr(lp_module, "_solve_lp", spy)
        assert not lp_module._mheight_reference(dual_polygonal(n), m).infinite
        assert len(calls) == math.comb(n, m) * m * 2 ** m * (n - m)

    def test_configuration_validation(self):
        with pytest.raises(InvalidParameterError):
            Configuration((0, 1), 2, 3, (1.0, 1.0))      # max outside top
        with pytest.raises(InvalidParameterError):
            Configuration((0, 1), 0, 1, (1.0, 1.0))      # next inside top
        with pytest.raises(InvalidParameterError):
            Configuration((0, 1), 0, 2, (1.0,))          # signs wrong length
        with pytest.raises(InvalidParameterError):
            Configuration((0, 1), 0, 2, (1.0, 0.5))      # signs not +-1

    def test_configuration_lp_shape(self):
        g = dual_polygonal(5)
        config = Configuration((1, 3), 1, 0, (1.0, -1.0))
        problem = configuration_lp(g, config)
        assert problem.dim == 2
        assert len(problem.eq_constraints) == 1
        # two top rows plus box rows for the 5 - 2 - 1 remaining coordinates
        assert len(problem.ineq_constraints) == 2 + 2 * 2
        assert problem.eq_constraints[0][1] == 1.0


class TestExactMHeight:
    def test_icosahedral_m1(self):
        h = exact_mheight(dual_icosahedral(), 1)
        assert h.value == pytest.approx(SQRT5, rel=1e-6)

    def test_dodecahedral_m7(self):
        h = exact_mheight(dual_dodecahedral(), 7)
        assert h.value == pytest.approx(5.0 + 2.0 * SQRT5, rel=1e-6)

    def test_polygonal_top_m_infinite(self):
        assert exact_mheight(dual_polygonal(4), 3).infinite

    def test_m_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            exact_mheight(dual_polygonal(4), 4)
        with pytest.raises(InvalidParameterError):
            exact_mheight(dual_polygonal(4), 0)

    def test_witness_reproduces_value(self):
        from mheight import encode
        g = dual_dodecahedral()
        for m in (1, 3, 5, 7):
            h = exact_mheight(g, m)
            ratio = encode(g, h.witness).height(m)
            assert ratio == pytest.approx(h.value, rel=1e-9)

    def test_infinite_witness_zeroes_denominator(self):
        from mheight import encode
        g = dual_dodecahedral()
        h = exact_mheight(g, 8)
        assert h.infinite
        c = encode(g, h.witness)
        assert c.order_stats[8] == pytest.approx(0.0, abs=1e-9)
        assert c.order_stats[0] > 0.1

    def test_pool_engine_solves_no_lp(self, monkeypatch):
        def no_reference(*args):
            raise AssertionError("full-rank code reached the reference engine")
        monkeypatch.setattr(lp_module, "_mheight_reference", no_reference)
        for g, m in ((dual_polygonal(5), 2), (dual_polygonal(6), 3),
                     (dual_icosahedral(), 2)):
            assert exact_mheight(g, m).value >= 1.0
            assert len(exact_profile(g).heights) == g.n - 1

    @pytest.mark.parametrize("n,m", [(3, 1), (4, 1), (4, 2), (5, 2), (5, 3)])
    def test_engines_agree_polygonal(self, n, m):
        g = dual_polygonal(n)
        a = exact_mheight(g, m)
        b = lp_module._mheight_reference(g, m)
        assert a.infinite == b.infinite
        if not a.infinite:
            assert a.value == pytest.approx(b.value, rel=1e-9)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_engines_agree_icosahedral(self, m):
        g = dual_icosahedral()
        a = exact_mheight(g, m)
        b = lp_module._mheight_reference(g, m)
        assert a.value == pytest.approx(b.value, rel=1e-9)

    def test_engines_agree_dodecahedral_m1(self):
        g = dual_dodecahedral()
        a = exact_mheight(g, 1)
        b = lp_module._mheight_reference(g, 1)
        assert a.value == pytest.approx(b.value, rel=1e-9)

    def test_dimension_capacity_guard(self):
        g = from_columns([tuple(float(i == j) for i in range(9)) for j in range(9)]
                         + [tuple(1.0 for _ in range(9))])
        with pytest.raises(CapacityError):
            exact_mheight(g, 1)

    def test_subset_capacity_guard(self):
        with pytest.raises(CapacityError):
            lp_module._mheight_reference(dual_polygonal(60), 30)
        rng = np.random.default_rng(0)
        g = from_columns(rng.normal(size=(40, 8)))      # C(40, 8) k-subsets
        with pytest.raises(CapacityError, match="vertex pool"):
            exact_mheight(g, 1)
        with pytest.raises(CapacityError, match="vertex pool"):
            exact_profile(g)

    def test_auto_engine_reaches_long_polygonal_codes(self):
        h = exact_mheight(dual_polygonal(60), 30)
        assert h.value == pytest.approx(polygonal_height(60, 30).value, rel=1e-9)

    def test_polygonal_100_profile_matches_closed_form(self):
        prof = exact_profile(dual_polygonal(100))
        for m in range(1, 100):
            h, want = prof.height(m), polygonal_height(100, m)
            assert h.infinite == want.infinite, m
            if not want.infinite:
                assert h.value == pytest.approx(want.value, rel=1e-12, abs=0.0), m


class TestExactProfile:
    def test_polygonal_3(self):
        prof = exact_profile(dual_polygonal(3))
        assert prof.height(1).value == pytest.approx(2.0, rel=1e-9)
        assert prof.height(2).infinite

    def test_icosahedral_matches_expected(self):
        prof = exact_profile(dual_icosahedral())
        expected = [SQRT5, SQRT5, 2.0 + SQRT5]
        for m, val in enumerate(expected, start=1):
            assert prof.height(m).value == pytest.approx(val, rel=1e-6)
        assert prof.height(4).infinite and prof.height(5).infinite

    def test_identity_generator(self):
        prof = exact_profile(from_columns([(1.0, 0.0), (0.0, 1.0)]))
        assert prof.max_m == 1 and prof.height(1).infinite

    def test_rank_deficient_generator_uses_reference_path(self, monkeypatch):
        calls = []
        reference = lp_module._mheight_reference

        def spy(generator, m):
            calls.append(m)
            return reference(generator, m)
        monkeypatch.setattr(lp_module, "_mheight_reference", spy)
        prof = exact_profile(from_columns([(1.0, 0.0), (1.0, 0.0)]))
        assert calls == [1]
        assert prof.height(1).value == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("columns", [
        [(1.0, 0.0), (0.0, 1.0), (0.0, 0.0)],
        [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.0, 0.0)],
        [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 1.0, 1.0),
         (0.0, 0.0, 0.0)],
        [(1.0, 0.0), (2.0, 0.0), (0.0, 0.0)],
        [(0.0, 0.0), (1.0, 2.0), (0.0, 0.0), (-2.0, -4.0)],
    ])
    def test_zero_column_engines_agree(self, columns):
        from mheight import encode
        g = from_columns(columns)
        auto = exact_profile(g)
        for m in range(1, g.n):
            ref = lp_module._mheight_reference(g, m)
            assert ref.infinite == auto.height(m).infinite, m
            if ref.infinite:
                stats = encode(g, ref.witness).order_stats
                assert stats[0] > 0.1 and stats[m] == pytest.approx(0.0, abs=1e-9)
            else:
                assert ref.value == pytest.approx(auto.height(m).value, rel=1e-9)

    def test_rank_deficient_zero_column_profile(self):
        prof = exact_profile(from_columns([(1.0, 0.0), (2.0, 0.0), (0.0, 0.0)]))
        assert prof.height(1).value == pytest.approx(2.0, rel=1e-9)
        assert prof.height(2).infinite

    def test_all_zero_generator_has_no_height(self):
        g = from_columns([(0.0, 0.0)] * 3)
        with pytest.raises(InvalidParameterError, match="no nonzero codeword"):
            exact_mheight(g, 1)

    def test_closed_form_oracle_agreement(self):
        for family in (Family("dual-polygonal", 8), Family("dual-icosahedral")):
            g = (dual_polygonal(8) if family.n else dual_icosahedral())
            closed = closed_profile(family)
            exact = exact_profile(g)
            for m in range(1, g.n):
                c, e = closed.height(m), exact.height(m)
                assert c.infinite == e.infinite
                if not c.infinite:
                    assert e.value == pytest.approx(c.value, rel=1e-6)


class TestVertexPool:
    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    @pytest.mark.parametrize("make", [dual_icosahedral, dual_dodecahedral,
                                      lambda: dual_polygonal(9)])
    def test_builtins_scaled_by_ten_to_150(self, make, scale):
        g = make()
        scaled = from_columns((g.matrix * scale).T)
        assert is_mds(scaled)
        base, other = exact_profile(g), exact_profile(scaled)
        for m in range(1, g.n):
            hb, ho = base.height(m), other.height(m)
            assert hb.infinite == ho.infinite, m
            if not hb.infinite:
                assert ho.value == pytest.approx(hb.value, rel=1e-12)
                # The witness is a vertex of the scaled code itself: its
                # codeword's (m+1)-th magnitude is 1.
                word = encode(scaled, ho.witness)
                assert word.height(m) == pytest.approx(ho.value, rel=1e-12)
                assert word.order_stats[m] == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("scale", [1e-150, 1e-6, 1.0, 1e150])
    def test_duplicated_column_is_not_mds(self, scale):
        cols = np.vstack([dual_dodecahedral().columns, dual_dodecahedral().columns[:1]])
        assert not is_mds(from_columns(cols * scale))

    def test_chunked_pass_matches_one_pass(self, monkeypatch):
        rng = np.random.default_rng(3)
        g = from_columns(rng.normal(size=(12, 3)))
        whole = exact_profile(g)
        monkeypatch.setattr(lp_module, "CHUNK_ENTRIES", 100)    # 1 subset per chunk
        chunked = exact_profile(g)
        for a, b in zip(whole.heights, chunked.heights):
            assert a.infinite == b.infinite
            if not a.infinite:
                assert b.value == pytest.approx(a.value, rel=1e-12)
                assert b.witness == pytest.approx(a.witness, rel=1e-12)

    @pytest.mark.parametrize("make", [
        dual_dodecahedral, lambda: dual_polygonal(20),
        lambda: from_columns(np.random.default_rng(4).integers(-2, 3, size=(9, 3)))])
    def test_chunk_boundaries_change_nothing(self, make, monkeypatch):
        g = make()
        whole = exact_profile(g)
        monkeypatch.setattr(lp_module, "CHUNK_ENTRIES", 100)
        chunked = exact_profile(g)
        assert [h.value for h in chunked.heights] == [h.value for h in whole.heights]
        assert [tuple(h.witness) for h in chunked.heights] == [
            tuple(h.witness) for h in whole.heights]

    def test_non_mds_infinite_heights_start_at_most_zeros(self):
        # Columns 0, 3 and 5 lie in one plane, so a codeword vanishes on
        # them: the height is infinite from m = n - 3, one below an MDS code.
        rng = np.random.default_rng(9)
        cols = rng.normal(size=(6, 3))
        cols[3] = 2.0 * cols[0] - cols[5]
        g = from_columns(cols)
        prof = exact_profile(g)
        assert [h.infinite for h in prof.heights] == [False, False, True, True, True]
        for m in range(3, 6):
            stats = encode(g, prof.height(m).witness).order_stats
            assert stats[0] > 0.1 and stats[m] == pytest.approx(0.0, abs=1e-12)
        for m in (1, 2):
            ref = lp_module._mheight_reference(g, m)
            assert prof.height(m).value == pytest.approx(ref.value, rel=1e-9)


class TestInvarianceProperties:
    def _transformed(self, g, rng):
        perm = rng.permutation(g.n)
        signs = rng.choice([-1.0, 1.0], size=g.n)
        return GeneratorMatrix(g.matrix[:, perm] * signs, Family("custom"))

    @pytest.mark.parametrize("builder", [lambda: dual_polygonal(6), dual_icosahedral])
    def test_permutation_and_sign_invariance(self, builder):
        g = builder()
        base = exact_profile(g)
        rng = np.random.default_rng(7)
        for _ in range(5):
            other = exact_profile(self._transformed(g, rng))
            for m in range(1, g.n):
                hb, ho = base.height(m), other.height(m)
                assert hb.infinite == ho.infinite
                if not hb.infinite:
                    assert ho.value == pytest.approx(hb.value, rel=1e-9)

    def test_global_column_scaling_invariance(self):
        g = dual_icosahedral()
        scaled = GeneratorMatrix(3.7 * g.matrix, Family("custom"))
        a, b = exact_profile(g), exact_profile(scaled)
        for m in range(1, g.n):
            assert a.height(m).infinite == b.height(m).infinite
            if not a.height(m).infinite:
                assert b.height(m).value == pytest.approx(a.height(m).value, rel=1e-9)

    def test_sampled_ratios_never_exceed_exact(self):
        rng = np.random.default_rng(11)
        for g in (dual_polygonal(7), dual_icosahedral()):
            prof = exact_profile(g)
            dirs = rng.normal(size=(100_000, g.k))
            mags = np.abs(dirs @ g.matrix)
            mags.sort(axis=1)
            for m in range(1, g.n):
                h = prof.height(m)
                if h.infinite:
                    continue
                den = mags[:, -1 - m]
                ok = den > 0
                assert float(np.max(mags[ok, -1] / den[ok])) <= h.value + 1e-9

    def test_engines_agree_on_random_matrices(self):
        rng = np.random.default_rng(123)
        for _ in range(12):
            k = int(rng.integers(2, 4))
            n = int(rng.integers(k, 7))
            mat = rng.normal(size=(k, n))
            if rng.random() < 0.3:
                # plant a parallel column to force some infinite rows
                j, i = (int(x) for x in rng.integers(0, n, size=2))
                mat[:, j] = mat[:, i] * (2.0 if i != j else 1.0)
            g = GeneratorMatrix(mat, Family("custom"))
            for m in range(1, n):
                a = exact_mheight(g, m)
                b = lp_module._mheight_reference(g, m)
                assert a.infinite == b.infinite, (mat, m)
                if not a.infinite:
                    assert abs(a.value - b.value) <= 1e-7 * max(1.0, b.value), (mat, m)


def _reference_codes(kind):
    """Codes for the differential test against ``lp_oracle``."""
    if kind == "special":
        return [from_columns(cols) for cols in (
            [(1.0, 0.0), (0.0, 1.0), (0.0, 0.0)],
            [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.0, 0.0)],
            [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 1.0, 1.0),
             (0.0, 0.0, 0.0)],
            [(1.0, 0.0), (2.0, 0.0), (0.0, 0.0)],
            [(0.0, 0.0), (1.0, 2.0), (0.0, 0.0), (-2.0, -4.0)],
            [(0.0, 0.0)] * 3,
        )] + [dual_icosahedral(), dual_polygonal(5), dual_polygonal(6)]
    rng = np.random.default_rng({"rank-deficient": 21, "full-rank": 22}[kind])
    if kind == "rank-deficient":
        # G = B H with B k x r and H r x n, so G has rank r < k.
        shapes = {(2, 1, 3): 8, (2, 1, 4): 6, (2, 1, 5): 1, (3, 1, 4): 6, (3, 1, 5): 1,
                  (3, 2, 4): 12, (3, 2, 5): 3, (4, 1, 5): 3, (4, 2, 5): 3, (4, 3, 5): 5}
        return [from_columns((rng.normal(size=(k, r)) @ rng.normal(size=(r, n))).T)
                for (k, r, n), count in shapes.items() for _ in range(count)]
    # Half Gaussian, half small-integer columns.
    shapes = {(2, 3): 5, (2, 4): 5, (2, 5): 3, (3, 4): 12, (3, 5): 3, (4, 5): 5}
    return [from_columns(cols) for (k, n), count in shapes.items() for _ in range(count)
            for cols in (rng.normal(size=(n, k)), rng.integers(-2, 3, size=(n, k)).astype(float))]


def _reference_outcome(reference, generator, m):
    try:
        h = reference(generator, m)
    except MHeightError as exc:
        return type(exc), str(exc)
    return h.value, h.witness


class TestReferenceMatchesOracle:
    """The array reference engine answers exactly as the configuration LPs
    built and solved through ``lp_oracle``: equal values and witnesses, and
    equal errors."""

    @pytest.mark.parametrize("kind", ["rank-deficient", "full-rank", "special"])
    def test_heights_equal(self, kind):
        outcomes = set()
        for g in _reference_codes(kind):
            for m in range(1, g.n):
                got = _reference_outcome(lp_module._mheight_reference, g, m)
                assert got == _reference_outcome(lp_oracle._mheight_reference, g, m), (g.matrix, m)
                outcomes.add("error" if isinstance(got[0], type) else math.isinf(got[0]))
        assert outcomes == ({"error", False, True} if kind == "special" else {False, True})

    def test_corpus_size(self):
        assert sum(g.n - 1 for kind in ("rank-deficient", "full-rank", "special")
                   for g in _reference_codes(kind)) >= 370

    def test_no_feasible_configuration_witness(self, monkeypatch):
        # Every codeword (u1, 2 u1, 0) has at most two nonzero entries, so
        # no m = 2 configuration is feasible.
        g = from_columns([(1.0, 0.0), (2.0, 0.0), (0.0, 0.0)])
        solved = []
        solve = lp_module._solve_lp

        def spy(*args):
            solved.append(solve(*args))
            return solved[-1]
        monkeypatch.setattr(lp_module, "_solve_lp", spy)
        h = lp_module._mheight_reference(g, 2)
        assert solved and not any(solved)
        assert (h.value, h.witness) == _reference_outcome(lp_oracle._mheight_reference, g, 2)

    @pytest.mark.parametrize("columns,m", [
        (np.eye(2, 60), 30),                                        # family size
        (np.random.default_rng(1).normal(size=(2, 5002)), 1),      # row count
    ])
    def test_capacity_errors_equal(self, columns, m):
        g = GeneratorMatrix(columns, Family("custom"))
        got = _reference_outcome(lp_module._mheight_reference, g, m)
        assert got[0] is CapacityError
        assert got == _reference_outcome(lp_oracle._mheight_reference, g, m)


def _oracle_codes(kind):
    """Codes for the differential test against ``pool_oracle``."""
    if kind == "builtin":
        return [dual_icosahedral(), dual_dodecahedral()]
    if kind == "polygonal":
        return [dual_polygonal(n) for n in range(3, 41)]
    rng = np.random.default_rng({"gaussian": 1, "integer": 2, "duplicated": 3}[kind])
    codes = []
    for k in range(2, 6):
        for n in range(k + 1, 14):
            for _ in range(3):
                if kind == "integer":
                    cols = rng.integers(-2, 3, size=(n, k)).astype(float)
                else:
                    cols = rng.normal(size=(n, k))
                if kind == "duplicated":
                    i, j = rng.choice(n, size=2, replace=False)
                    cols[j] = cols[i]
                codes.append(from_columns(cols))
    return codes


class TestPoolOracle:
    """The half-sign pool and its witness sweeps answer exactly as the
    full pool with a per-m rescan did: equal values, and witnesses equal
    up to the sign of a zero."""

    def _compare(self, monkeypatch, codes):
        compared = []
        pool = lp_module._pool_heights

        def both(mat, subsets, ms):
            new = pool(mat, subsets, ms)
            old = pool_oracle._pool_heights(mat, subsets, ms)
            for m, (value, u), (want, w) in zip(ms, new, old):
                assert value == want, m
                assert tuple(u) == tuple(w), m
            compared.extend(ms)
            return new
        monkeypatch.setattr(lp_module, "_pool_heights", both)
        for g in codes:
            exact_profile(g)
        return compared

    @pytest.mark.parametrize("chunk", [None, 100])
    @pytest.mark.parametrize("kind", ["builtin", "polygonal", "gaussian", "integer",
                                      "duplicated"])
    def test_matches_full_pool_oracle(self, kind, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(lp_module, "CHUNK_ENTRIES", chunk)
        assert self._compare(monkeypatch, _oracle_codes(kind))

    def test_matches_oracle_when_tolerance_tests_fail(self, monkeypatch):
        # With a zero tolerance few rows pass the configuration tests, so
        # some m fall back to the first tied row.
        monkeypatch.setattr(lp_module, "FEAS_TOL", 0.0)
        monkeypatch.setattr(pool_oracle, "FEAS_TOL", 0.0)
        fallbacks = []
        first_top_set = pool_oracle._first_top_set

        def spy(code, tol, m):
            top = first_top_set(code, tol, m)
            fallbacks.append(top is None)
            return top
        monkeypatch.setattr(pool_oracle, "_first_top_set", spy)
        rng = np.random.default_rng(5)
        codes = [dual_icosahedral(), dual_dodecahedral(), dual_polygonal(9)]
        codes += [from_columns(rng.normal(size=(n, 3))) for n in range(4, 12)]
        assert self._compare(monkeypatch, codes)
        assert any(fallbacks) and not all(fallbacks)


def _kernel_codes():
    """Every ``_oracle_codes`` kind, random codes at k = 1 and 6..8, a zero
    column, and the near-parallel columns (1, 0), (1, eps), (0, 1)."""
    codes = [g for kind in ("builtin", "polygonal", "gaussian", "integer", "duplicated")
             for g in _oracle_codes(kind)]
    rng = np.random.default_rng(11)
    for k in (1, 6, 7, 8):
        for n in range(k, k + 5):
            codes.append(from_columns(rng.normal(size=(n, k))))
            codes.append(from_columns(rng.integers(-1, 2, size=(n, k)).astype(float)))
    codes.append(from_columns([[1.0, 2.0, 0.5], [0.0, 0.0, 0.0], [3.0, -1.0, 2.0],
                               [0.0, 1.0, 1.0]]))
    codes += [from_columns([[s, 0.0], [s, s * eps], [0.0, s]])
              for eps in (1e-6, 1e-8, 2e-9, 5e-10, 1e-12) for s in (1.0, 1e150, 1e-150)]
    return codes


class TestIndependenceKernel:
    """The wedge-product minors of ``codes._prefix_minors`` pick the
    independent ``k``-subsets exactly as LAPACK determinants would."""

    def test_subsets_match_lapack_determinants(self):
        for g in _kernel_codes():
            unit = codes_module.unit_columns(g.matrix)
            subsets = codes_module.column_subsets(g.n, g.k)
            oracle = np.abs(np.linalg.det(unit.T[subsets])) > lp_module.RANK_TOL
            good, _, _ = lp_module._flat_direction(unit)
            assert np.array_equal(good, subsets[oracle]), g
            assert is_mds(g) is bool(oracle.all()), g

    @pytest.mark.parametrize("k", range(2, 9))
    def test_cross_products_match_signed_minors(self, k):
        n = k + 4
        unit = codes_module.unit_columns(np.random.default_rng(k).normal(size=(k, n)))
        blocks = unit.T[codes_module.column_subsets(n, k - 1)]
        want = np.stack([(-1) ** i * np.linalg.det(np.delete(blocks, i, axis=2))
                         for i in range(k)], axis=1)
        got = np.concatenate([cross.T for _, _, cross, _ in
                              codes_module._prefix_minors(unit)])
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_chunk_boundaries_change_nothing(self, monkeypatch):
        codes = _kernel_codes()
        whole = [lp_module._flat_direction(codes_module.unit_columns(g.matrix))
                 for g in codes]
        monkeypatch.setattr(codes_module, "CHUNK_ENTRIES", 100)
        flats = 0
        for g, (good, most, flat) in zip(codes, whole):
            chunked = lp_module._flat_direction(codes_module.unit_columns(g.matrix))
            assert np.array_equal(chunked[0], good), g
            assert chunked[1] == most, g
            if flat is not None:
                assert np.array_equal(chunked[2], flat), g
                flats += len(good) < math.comb(g.n, g.k)
        assert flats > 50
