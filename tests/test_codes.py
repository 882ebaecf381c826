"""Construction, encoding, and structural checks of the generator families."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mheight
from mheight import (
    PHI,
    GeneratorMatrix,
    InvalidParameterError,
    dual_dodecahedral,
    dual_icosahedral,
    dual_polygonal,
    encode,
    from_columns,
    is_mds,
)

SQRT5 = math.sqrt(5.0)


def test_phi_satisfies_quadratic():
    assert PHI**2 == pytest.approx(PHI + 1.0, abs=1e-14)


class TestDualPolygonal:
    def test_n2_columns(self):
        g = dual_polygonal(2)
        assert g.k == 2 and g.n == 2
        np.testing.assert_allclose(g.column(0), [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(g.column(1), [0.0, 1.0], atol=1e-15)

    def test_n3_columns_are_at_0_60_120_degrees(self):
        g = dual_polygonal(3)
        np.testing.assert_allclose(g.column(0), [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(g.column(1), [0.5, math.sqrt(3) / 2], atol=1e-15)
        np.testing.assert_allclose(g.column(2), [-0.5, math.sqrt(3) / 2], atol=1e-15)

    def test_n4_third_column(self):
        g = dual_polygonal(4)
        np.testing.assert_allclose(
            g.column(3), [-math.sqrt(2) / 2, math.sqrt(2) / 2], atol=1e-15)

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_rejects_small_n(self, n):
        with pytest.raises(InvalidParameterError):
            dual_polygonal(n)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_unit_columns(self, n):
        norms = dual_polygonal(n).column_norms()
        np.testing.assert_allclose(norms, 1.0, rtol=1e-12)


class TestPolyhedralMatrices:
    def test_icosahedral_shape_and_named_columns(self):
        g = dual_icosahedral()
        assert (g.k, g.n) == (3, 6)
        np.testing.assert_allclose(g.column(0), [0.0, 1.0, PHI])
        np.testing.assert_allclose(g.column(5), [PHI, 0.0, -1.0])

    def test_icosahedral_column_norms(self):
        norms2 = dual_icosahedral().column_norms() ** 2
        np.testing.assert_allclose(norms2, 2.0 + PHI, rtol=1e-14)

    def test_dodecahedral_shape_and_named_columns(self):
        g = dual_dodecahedral()
        assert (g.k, g.n) == (3, 10)
        np.testing.assert_allclose(g.column(0), [1.0, 1.0, 1.0])
        np.testing.assert_allclose(g.column(8), [PHI, 1.0 / PHI, 0.0])

    def test_dodecahedral_column_norms(self):
        norms2 = dual_dodecahedral().column_norms() ** 2
        np.testing.assert_allclose(norms2, 3.0, rtol=1e-14)

    def test_column_norm_uniformity(self):
        for g in (dual_icosahedral(), dual_dodecahedral(), dual_polygonal(9)):
            norms = g.column_norms()
            assert norms.max() / norms.min() == pytest.approx(1.0, abs=1e-12)


class TestFromColumns:
    def test_identity(self):
        g = from_columns([(1.0, 0.0), (0.0, 1.0)])
        np.testing.assert_allclose(g.matrix, np.eye(2))
        assert g.family.label == "custom"

    def test_round_trip_of_icosahedral_columns(self):
        ref = dual_icosahedral()
        again = from_columns([tuple(ref.column(j)) for j in range(ref.n)])
        np.testing.assert_array_equal(again.matrix, ref.matrix)

    def test_degenerate_columns_accepted(self):
        g = from_columns([(1.0, 0.0), (1.0, 0.0)])
        assert g.n == 2 and not is_mds(g)

    def test_ragged_rejected(self):
        with pytest.raises(InvalidParameterError):
            from_columns([(1.0, 0.0), (1.0, 0.0, 0.0)])

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            from_columns([])

    def test_too_few_columns_rejected(self):
        with pytest.raises(InvalidParameterError):
            from_columns([(1.0, 0.0)])

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidParameterError):
            from_columns([(1.0, 0.0), (math.nan, 1.0)])

    @pytest.mark.parametrize("entry", [1 + 2j, "1", "a", object()])
    def test_non_real_entries_rejected(self, entry):
        with pytest.raises(InvalidParameterError, match="real numbers"):
            from_columns([[entry, 0], [0, 1]])


class TestEncode:
    def test_half_circle_example(self):
        c = encode(dual_polygonal(3), (1.0, 0.0))
        np.testing.assert_allclose(c.entries, [1.0, 0.5, -0.5], atol=1e-15)
        np.testing.assert_allclose(c.order_stats, [1.0, 0.5, 0.5], atol=1e-15)

    def test_zero_vector(self):
        c = encode(dual_polygonal(5), (0.0, 0.0))
        assert np.all(c.entries == 0.0) and np.all(c.order_stats == 0.0)

    def test_self_projection(self):
        g = dual_icosahedral()
        c = encode(g, g.column(0))
        assert c.entries[0] == pytest.approx(2.0 + PHI, rel=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidParameterError):
            encode(dual_polygonal(3), (1.0, 0.0, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_information_vector_rejected(self, bad):
        with pytest.raises(InvalidParameterError, match="finite"):
            encode(dual_icosahedral(), [bad, 0.0, 0.0])

    def test_order_perm_recovers_stats(self):
        g = dual_dodecahedral()
        c = encode(g, (0.3, -1.2, 0.7))
        np.testing.assert_array_equal(np.abs(c.entries)[c.order_perm], c.order_stats)
        assert np.all(np.diff(c.order_stats) <= 0)

    def test_sort_ties_break_by_ascending_index(self):
        # At alpha=0 for n=4 the magnitudes at indices 1 and 3 coincide.
        c = encode(dual_polygonal(4), (1.0, 0.0))
        assert c.order_stats[1] == pytest.approx(c.order_stats[2], abs=1e-15)
        tied = [int(c.order_perm[1]), int(c.order_perm[2])]
        assert tied == [1, 3]

    @given(st.floats(0.0, 2.0 * math.pi), st.integers(2, 12))
    @settings(max_examples=60, deadline=None)
    def test_projection_identity(self, alpha, n):
        c = encode(dual_polygonal(n), (math.cos(alpha), math.sin(alpha)))
        expected = np.cos(np.pi * np.arange(n) / n - alpha)
        np.testing.assert_allclose(c.entries, expected, atol=1e-12)

    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
           st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_linearity(self, a, b, u1, u2):
        g = dual_icosahedral()
        u = np.array([u1, u2, 0.4])
        v = np.array([-0.3, u1, u2])
        lhs = encode(g, a * u + b * v).entries
        rhs = a * encode(g, u).entries + b * encode(g, v).entries
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestIsMds:
    @pytest.mark.parametrize("n", range(2, 17))
    def test_polygonal_is_mds(self, n):
        assert is_mds(dual_polygonal(n))

    def test_polyhedral_are_mds(self):
        assert is_mds(dual_icosahedral())
        assert is_mds(dual_dodecahedral())

    def test_parallel_columns_fail(self):
        assert not is_mds(from_columns([(1.0, 0.0), (2.0, 0.0), (0.0, 1.0)]))

    def test_memory_is_one_chunk(self):
        # C(200, 3) subsets are decided a chunk of 2-column prefixes at a
        # time, without building the subset array.
        g = from_columns(np.random.default_rng(0).normal(size=(200, 3)))
        tracemalloc.start()
        try:
            mds = is_mds(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mds
        assert peak < 16 * 2**20


class TestColumnSubsets:
    @pytest.mark.parametrize("n", range(13))
    def test_matches_combinations(self, n):
        for r in range(n + 2):
            want = list(itertools.combinations(range(n), r))
            got = mheight.codes.column_subsets(n, r)
            assert got.shape == (len(want), r) and got.dtype == np.intp
            assert [tuple(row) for row in got.tolist()] == want, (n, r)


class TestUnitColumns:
    @pytest.mark.parametrize("e", [162, 170, 300])
    def test_column_far_below_the_peak(self, e):
        mat = np.array([[1.0, 0.0, 1.0], [0.0, 10.0 ** -e, 1.0]])
        unit = mheight.codes.unit_columns(mat)
        np.testing.assert_array_equal(unit[:, 1], [0.0, 1.0])
        assert np.linalg.norm(unit, axis=0) == pytest.approx(1.0, abs=1e-15)


class TestGeneratorMatrix:
    def test_rejects_more_rows_than_columns(self):
        with pytest.raises(InvalidParameterError):
            from_columns([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)])

    @pytest.mark.parametrize("matrix", [
        np.array([[1 + 1j, 2], [0, 1]]),                    # complex: no part dropped
        [["1", "2"], ["0", "1"]],                           # strings: not parsed
        np.array([[None, 2.0], [0.0, 1.0]], dtype=object),  # object entries
    ])
    def test_non_real_entries_rejected(self, matrix):
        with pytest.raises(InvalidParameterError, match="real numbers"):
            GeneratorMatrix(matrix, mheight.Family("custom"))

    def test_matrix_is_read_only(self):
        g = dual_polygonal(3)
        with pytest.raises(ValueError):
            g.matrix[0, 0] = 5.0

    def test_json_round_trip(self):
        for g in (dual_polygonal(5), dual_icosahedral(), dual_dodecahedral()):
            doc = g.to_json_dict()
            assert set(doc) == {"k", "n", "family", "columns"}
            back = GeneratorMatrix.from_json_dict(doc)
            np.testing.assert_array_equal(back.matrix, g.matrix)
            assert back.family == g.family

    @pytest.mark.parametrize("doc", [
        {"family": "custom", "columns": [["a", 1], [0, 1]]},
        {"family": "custom", "columns": [[1, 0], [0, 1, 2]]},
        {"family": "custom", "columns": [[1, None], [0, 1]]},
        {"family": "custom", "columns": [["1.5", "2"], ["0", "1"]]},
        {"family": "custom", "columns": [[1.5, 2], [0, "1"]]},
        {"family": "custom", "columns": [[True, 0], [0, 1]]},
        {"family": "custom", "columns": [[1, 0], [False, 1]]},
        {"family": "custom", "columns": [[None, None], [None, None]]},
        {"family": "custom", "columns": [1, 0]},
        {"family": "custom", "columns": [[[1, 0]], [[0, 1]]]},
        {"columns": [[1, 0], [0, 1]]},
        {"family": "custom", "k": 3, "columns": [[1, 0], [0, 1]]},
        {"family": "custom", "n": 3, "columns": [[1, 0], [0, 1]]},
        {"family": "dual-polygonal", "n": 5, "columns": [[1, 0], [0, 1]]},
        {"family": "dual-polygonal", "columns": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
        {"family": "dual-icosahedral", "columns": dual_dodecahedral().columns.tolist()},
        {"family": "dual-dodecahedral", "columns": dual_icosahedral().columns.tolist()},
        {"family": "dual-icosahedral", "columns": [[1, 0], [0, 1], [1, 1], [1, -1],
                                                   [2, 1], [1, 2]]},
    ])
    def test_json_bad_document_is_invalid_parameter(self, doc):
        with pytest.raises(InvalidParameterError):
            GeneratorMatrix.from_json_dict(doc)


class TestFamily:
    @pytest.mark.parametrize("kind", [mheight.DUAL_ICOSAHEDRAL, mheight.DUAL_DODECAHEDRAL,
                                      "custom"])
    @pytest.mark.parametrize("n", [8.5, 8, 0])
    def test_stray_n_rejected(self, kind, n):
        # Only the polygonal family has a length parameter; a stray one
        # would make two tags of the same code compare unequal.
        with pytest.raises(InvalidParameterError):
            mheight.Family(kind, n)

    def test_non_polygonal_n_defaults_to_none(self):
        fam = mheight.Family(mheight.DUAL_ICOSAHEDRAL)
        assert fam.n is None and fam == mheight.Family(mheight.DUAL_ICOSAHEDRAL, None)


_ICOSA = mheight.Family(mheight.DUAL_ICOSAHEDRAL)
_POLY8 = mheight.Family(mheight.DUAL_POLYGONAL, 8)
_POLY5 = dual_polygonal(5)

#: (call, arguments, position, name) for every public integer parameter.
_INTEGER_PARAMETERS = [
    (lambda n: dual_polygonal(n).matrix.tolist(), (8,), 0, "n"),
    (lambda j: dual_icosahedral().column(j).tolist(), (2,), 0, "j"),
    (mheight.Family, (mheight.DUAL_POLYGONAL, 8), 1, "n"),
    (mheight.ArcDomain, (8,), 0, "n"),
    (mheight.polygonal_domain, (8,), 0, "n"),
    (mheight.polygonal_height, (8, 2), 0, "n"),
    (mheight.polygonal_height, (8, 2), 1, "m"),
    (mheight.icosahedral_height, (2,), 0, "m"),
    (mheight.dodecahedral_height, (2,), 0, "m"),
    (mheight.polygonal_rank_index, (8, 2), 0, "n"),
    (mheight.polygonal_rank_index, (8, 2), 1, "rank"),
    (mheight.polygonal_order_indices, (8, 0.1), 0, "n"),
    (mheight.monotonicity_check, (_POLY8, 2, 20), 1, "ratio index"),
    (mheight.monotonicity_check, (_ICOSA, 2, 20), 1, "ratio index"),
    (mheight.monotonicity_check, (_ICOSA, 2, 20), 2, "grid_resolution"),
    (mheight.CapabilitySpec, (1, 0, 1.0, 9.0), 0, "tau"),
    (mheight.CapabilitySpec, (1, 0, 1.0, 9.0), 1, "sigma"),
    (mheight.closed_profile(_ICOSA).height, (2,), 0, "m"),
    (encode(dual_icosahedral(), (1.0, 0.5, 0.25)).height, (2,), 0, "m"),
    (mheight.exact_mheight, (_POLY5, 2), 1, "m"),
    (mheight.domain_search, (_POLY5, 2, mheight.polygonal_domain(5), 10), 1, "m"),
    (mheight.domain_search, (_POLY5, 2, mheight.polygonal_domain(5), 10), 3, "resolution"),
]


@pytest.mark.parametrize("call,args,position,name", _INTEGER_PARAMETERS,
                         ids=[f"{getattr(c, '__name__', 'lambda')}-{name}"
                              for c, _, _, name in _INTEGER_PARAMETERS])
def test_integer_parameters_are_typed(call, args, position, name):
    """Floats, bools and strings are rejected with one message format;
    numpy integers answer as Python ints do."""
    def with_value(value):
        return (*args[:position], value, *args[position + 1:])

    good = args[position]
    assert call(*with_value(np.int64(good))) == call(*args)
    for bad in (good + 0.5, float(good), True, str(good)):
        with pytest.raises(InvalidParameterError, match=f"^{name} must be an integer "):
            call(*with_value(bad))
    with pytest.raises(InvalidParameterError, match=f"^{name} must be (in|>=) .*, got -7$"):
        call(*with_value(-7))
