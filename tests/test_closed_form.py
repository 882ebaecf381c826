"""Closed-form heights: frozen values, sweep oracles, witness consistency."""

import math

import numpy as np
import pytest

from mheight import (
    PHI,
    ExtendedHeight,
    Family,
    InvalidParameterError,
    MHeightProfile,
    UnsupportedFamilyError,
    closed_profile,
    dodecahedral_height,
    dual_dodecahedral,
    dual_icosahedral,
    dual_polygonal,
    encode,
    icosahedral_height,
    polygonal_height,
)
from mheight import closed_form, codes
from mheight.codes import CUSTOM, DUAL_DODECAHEDRAL, DUAL_ICOSAHEDRAL, DUAL_POLYGONAL
from mheight.search import dodecahedral_candidates, dodecahedral_domain

SQRT5 = math.sqrt(5.0)

ICOSA_VALUES = [SQRT5, SQRT5, 2.0 + SQRT5, math.inf, math.inf]
DODE_VALUES = [3.0 / SQRT5, PHI, 4.0 - SQRT5, 3.0, 2.0 + SQRT5, 2.0 + SQRT5,
               5.0 + 2.0 * SQRT5, math.inf, math.inf]


def arc_sweep_max(n: int, m: int, points: int = 1_000_000) -> float:
    """Independent oracle: dense maximum of the ratio over the arc."""
    alphas = np.linspace(0.0, math.pi / (2 * n), points)
    mags = np.abs(np.cos(np.pi * np.arange(n)[None, :] / n - alphas[:, None]))
    mags.sort(axis=1)
    return float(np.max(mags[:, -1] / mags[:, -1 - m]))


def witness_ratio(generator, height: ExtendedHeight, m: int) -> float:
    assert height.witness is not None
    return encode(generator, height.witness).height(m)


class TestPolygonalHeight:
    def test_n3_m1(self):
        h = polygonal_height(3, 1)
        assert h.value == pytest.approx(2.0, rel=1e-12)
        assert h.witness == (1.0, 0.0)

    def test_n4_m2_hits_silver_ratio(self):
        h = polygonal_height(4, 2)
        assert h.value == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-12)
        alpha = math.pi / 8
        assert h.witness == pytest.approx((math.cos(alpha), math.sin(alpha)))

    def test_top_m_is_infinite(self):
        assert polygonal_height(5, 4).infinite
        assert polygonal_height(2, 1).infinite

    @pytest.mark.parametrize("m", [0, 5, -1])
    def test_m_out_of_range(self, m):
        with pytest.raises(InvalidParameterError):
            polygonal_height(5, m)

    def test_bad_n(self):
        with pytest.raises(InvalidParameterError):
            polygonal_height(1, 1)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_against_dense_sweep(self, n):
        for m in range(1, n - 1):
            value = polygonal_height(n, m).value
            sweep = arc_sweep_max(n, m)
            assert sweep <= value * (1 + 1e-9)
            assert value == pytest.approx(sweep, rel=1e-6)


class TestIcosahedralHeight:
    def test_values(self):
        for m, expected in enumerate(ICOSA_VALUES, start=1):
            h = icosahedral_height(m)
            if math.isinf(expected):
                assert h.infinite
            else:
                assert h.value == pytest.approx(expected, rel=1e-14)

    def test_witnesses(self):
        g = dual_icosahedral()
        assert icosahedral_height(1).witness == tuple(g.column(0))
        v3 = tuple((g.column(0) + g.column(2) + g.column(4)) / 3.0)
        assert icosahedral_height(3).witness == pytest.approx(v3)

    @pytest.mark.parametrize("m", [0, 6])
    def test_m_out_of_range(self, m):
        with pytest.raises(InvalidParameterError):
            icosahedral_height(m)


class TestDodecahedralHeight:
    def test_values(self):
        for m, expected in enumerate(DODE_VALUES, start=1):
            h = dodecahedral_height(m)
            if math.isinf(expected):
                assert h.infinite
            else:
                assert h.value == pytest.approx(expected, rel=1e-14)

    def test_m1_witness_is_first_axis(self):
        g = dual_dodecahedral()
        assert dodecahedral_height(1).witness == tuple(g.column(0))

    def test_m2_witness_is_edge_midpoint(self):
        g = dual_dodecahedral()
        mid = tuple((g.column(0) + g.column(4)) / 2.0)
        assert dodecahedral_height(2).witness == pytest.approx(mid)

    @pytest.mark.parametrize("m", [0, 10])
    def test_m_out_of_range(self, m):
        with pytest.raises(InvalidParameterError):
            dodecahedral_height(m)


class TestWitnessConsistency:
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 12])
    def test_polygonal(self, n):
        g = dual_polygonal(n)
        for m in range(1, n):
            h = polygonal_height(n, m)
            ratio = witness_ratio(g, h, m)
            if h.infinite:
                assert math.isinf(ratio)
            else:
                assert ratio == pytest.approx(h.value, rel=1e-9)

    def test_icosahedral(self):
        g = dual_icosahedral()
        for m in range(1, 6):
            h = icosahedral_height(m)
            ratio = witness_ratio(g, h, m)
            if h.infinite:
                assert math.isinf(ratio)
            else:
                assert ratio == pytest.approx(h.value, rel=1e-9)

    def test_dodecahedral(self):
        g = dual_dodecahedral()
        for m in range(1, 10):
            h = dodecahedral_height(m)
            ratio = witness_ratio(g, h, m)
            if h.infinite:
                assert math.isinf(ratio)
            else:
                assert ratio == pytest.approx(h.value, rel=1e-9)


class TestStatedTables:
    """The polyhedral profiles are stated tables; these tests check them."""

    @pytest.mark.parametrize("m", range(1, 8))
    def test_dodecahedral_witness_is_unique_candidate_maximizer(self, m):
        g = dual_dodecahedral()
        domain = dodecahedral_domain()
        points = [tuple(domain.point(u, v)) for u, v in dodecahedral_candidates()]
        ratios = [encode(g, x).height(m) for x in points]
        h = dodecahedral_height(m)
        best = points.index(h.witness)
        assert all(r < ratios[best] * (1.0 - 1e-6)
                   for i, r in enumerate(ratios) if i != best)
        assert witness_ratio(g, h, m) == pytest.approx(h.value, rel=1e-9)

    def test_answers_without_building_or_encoding(self, monkeypatch):
        families = [Family(DUAL_ICOSAHEDRAL), Family(DUAL_DODECAHEDRAL)]
        before = ([icosahedral_height(m) for m in range(1, 6)],
                  [dodecahedral_height(m) for m in range(1, 10)],
                  [closed_profile(f) for f in families])

        def boom(*args, **kwargs):
            raise AssertionError("the closed route built or encoded a code")

        for name in ("dual_dodecahedral", "dual_icosahedral", "dodecahedral_domain"):
            monkeypatch.setattr(closed_form, name, boom)
        monkeypatch.setattr(closed_form, "encode", boom, raising=False)
        monkeypatch.setattr(codes, "encode", boom)
        after = ([icosahedral_height(m) for m in range(1, 6)],
                 [dodecahedral_height(m) for m in range(1, 10)],
                 [closed_profile(f) for f in families])
        assert after == before


class TestClosedProfile:
    def test_icosahedral_profile(self):
        prof = closed_profile(Family(DUAL_ICOSAHEDRAL))
        assert prof.max_m == 5
        for m, expected in enumerate(ICOSA_VALUES, start=1):
            assert prof.height(m).value == expected or \
                prof.height(m).value == pytest.approx(expected, rel=1e-14)

    def test_dodecahedral_profile(self):
        prof = closed_profile(Family(DUAL_DODECAHEDRAL))
        finite = [h.value for h in prof.heights if not h.infinite]
        assert len(finite) == 7
        np.testing.assert_allclose(finite, DODE_VALUES[:7], rtol=1e-14)
        assert prof.height(8).infinite and prof.height(9).infinite

    def test_polygonal_2_is_immediately_infinite(self):
        prof = closed_profile(Family(DUAL_POLYGONAL, 2))
        assert prof.max_m == 1 and prof.height(1).infinite

    def test_custom_rejected(self):
        with pytest.raises(UnsupportedFamilyError):
            closed_profile(Family(CUSTOM))

    @pytest.mark.parametrize("family", [
        Family(DUAL_POLYGONAL, 7), Family(DUAL_ICOSAHEDRAL), Family(DUAL_DODECAHEDRAL)])
    def test_profiles_nondecreasing(self, family):
        prof = closed_profile(family)
        prev = 0.0
        for h in prof.heights:
            if h.infinite:
                prev = math.inf
                continue
            assert not math.isinf(prev)
            assert h.value >= prev - 1e-12
            prev = h.value


class TestExtendedHeightType:
    def test_rejects_subunit_values(self):
        with pytest.raises(InvalidParameterError):
            ExtendedHeight(0.5)

    def test_rejects_nan(self):
        with pytest.raises(InvalidParameterError):
            ExtendedHeight(math.nan)

    def test_witness_coerced_to_tuple(self):
        h = ExtendedHeight(2.0, witness=np.array([1.0, 0.0]))
        assert h.witness == (1.0, 0.0)

    def test_json_of_infinite(self):
        assert ExtendedHeight(math.inf).to_json_dict() == {"value": "inf"}


class TestProfileType:
    def test_decreasing_rejected(self):
        with pytest.raises(InvalidParameterError):
            MHeightProfile(Family(CUSTOM), (ExtendedHeight(3.0), ExtendedHeight(2.0)))

    def test_finite_after_infinite_rejected(self):
        with pytest.raises(InvalidParameterError):
            MHeightProfile(Family(CUSTOM), (ExtendedHeight(math.inf), ExtendedHeight(2.0)))

    def test_json_shape(self):
        doc = closed_profile(Family(DUAL_ICOSAHEDRAL)).to_json_dict()
        assert doc["family"] == "dual-icosahedral"
        assert [row["m"] for row in doc["heights"]] == [1, 2, 3, 4, 5]
        assert doc["heights"][3]["value"] == "inf"
