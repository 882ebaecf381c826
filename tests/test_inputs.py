"""Every public real parameter is read by ``codes.real_array``: malformed
input raises ``InvalidParameterError`` with one message format."""

import math
import re

import numpy as np
import pytest

import mheight
from mheight import (
    CapabilitySpec,
    ExtendedHeight,
    GeneratorMatrix,
    InvalidParameterError,
    TriangleDomain,
    closed_profile,
    dual_dodecahedral,
    dual_icosahedral,
    dual_polygonal,
    encode,
    feasible_pairs,
    from_columns,
    required_ratio,
)
from mheight.codes import real_array

_ICOSA = closed_profile(mheight.Family(mheight.DUAL_ICOSAHEDRAL))
_CUSTOM = mheight.Family("custom")

#: (call, good value, name in the message, number of axes) per public
#: real parameter; ``call(value)`` must accept the good value.
_REAL_PARAMETERS = [
    (lambda x: GeneratorMatrix(x, _CUSTOM), [[1.0, 0.0], [0.0, 1.0]], "generator matrix", 2),
    (from_columns, [[1.0, 0.0], [0.0, 1.0]], "generator columns", 2),
    (lambda x: GeneratorMatrix.from_json_dict({"family": "custom", "columns": x}),
     [[1.0, 0.0], [0.0, 1.0]], "generator columns", 2),
    (lambda x: encode(dual_icosahedral(), x), [1.0, 0.5, 0.25], "information vector", 1),
    (lambda x: TriangleDomain(x, [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]), [1.0, 0.0, 0.0],
     "triangle vertices", 2),
    (lambda x: mheight.polygonal_order_indices(5, x), 0.1, "alpha", 0),
    (lambda x: mheight.search.polygonal_order_violations(5, x), [0.1, 0.2], "alphas", 1),
    (lambda x: mheight.icosahedral_chain_check(x, 0.1), 0.2, "(u, v)", 1),
    (lambda x: mheight.icosahedral_chain_check(0.2, x), 0.1, "(u, v)", 1),
    (lambda x: mheight.search.icosahedral_chain_violations(x, [0.1]), [0.2], "(us, vs)", 2),
    (lambda x: mheight.search.icosahedral_chain_violations([0.2], x), [0.1], "(us, vs)", 2),
    (lambda x: mheight.dodecahedral_rank_check(x, 0.1), 0.2, "(u, v)", 1),
    (lambda x: mheight.dodecahedral_rank_check(0.2, x), 0.1, "(u, v)", 1),
    (lambda x: mheight.search.dodecahedral_rank_violations(x, [0.1]), [0.2], "(us, vs)", 2),
    (lambda x: mheight.search.dodecahedral_rank_violations([0.2], x), [0.1], "(us, vs)", 2),
    (lambda x: CapabilitySpec(1, 0, x, 9.0), 1.0, "delta", 0),
    (lambda x: CapabilitySpec(1, 0, 1.0, x), 9.0, "Delta", 0),
    (lambda x: feasible_pairs(_ICOSA, x), 6.5, "ratio", 0),
]


def _with_first(value, change):
    """``value`` with its first scalar entry replaced by ``change(entry)``."""
    if isinstance(value, list):
        return [_with_first(value[0], change), *value[1:]]
    return change(value)


_MALFORMED = {
    "ragged": lambda good: (_with_first(good, lambda x: [x]) if isinstance(good, list)
                            else [good, [good]]),
    "complex": lambda good: _with_first(good, lambda x: x + 1j),
    "string": lambda good: _with_first(good, str),
    "nan": lambda good: _with_first(good, lambda x: math.nan),
    "inf": lambda good: _with_first(good, lambda x: math.inf),
    "-inf": lambda good: _with_first(good, lambda x: -math.inf),
    "extra axis": lambda good: [good],
}


@pytest.mark.parametrize("kind", _MALFORMED)
@pytest.mark.parametrize("call,good,name,ndim", _REAL_PARAMETERS,
                         ids=[f"{name}-{i}" for i, (_, _, name, _) in
                              enumerate(_REAL_PARAMETERS)])
def test_malformed_real_parameter_is_typed(call, good, name, ndim, kind):
    call(good)
    what = (f"a {ndim}-D array of finite real numbers" if ndim
            else "a finite real number")
    with pytest.raises(InvalidParameterError,
                       match=f"^{re.escape(name)} must be {what}, got "):
        call(_MALFORMED[kind](good))


def test_real_array_returns_a_new_float_array():
    source = np.arange(6).reshape(2, 3).T
    arr = real_array("x", source, 2)
    assert arr.dtype == np.float64 and arr.flags.c_contiguous
    assert not np.shares_memory(arr, source)
    assert arr.tolist() == source.tolist()
    assert real_array("x", 2, 0).shape == ()


class TestHeightValues:
    """``ExtendedHeight`` keeps its own ``float()`` conversion (its value may
    be infinite); what that conversion rejects is typed too."""

    @pytest.mark.parametrize("value,witness", [("x", None), (1 + 2j, None),
                                               (2.0, [1, [2]]), (2.0, ["a", 0])])
    def test_non_real_height_rejected(self, value, witness):
        with pytest.raises(InvalidParameterError, match="must be real numbers"):
            ExtendedHeight(value, witness=witness)

    @pytest.mark.parametrize("height", ["x", None, [2.0]])
    def test_non_real_required_ratio_rejected(self, height):
        with pytest.raises(InvalidParameterError, match="^height must be a real number"):
            required_ratio(height)


_BUILTINS = [dual_polygonal(n) for n in range(3, 13)] + [dual_icosahedral(),
                                                           dual_dodecahedral()]


class TestBuiltinTags:
    @pytest.mark.parametrize("generator", _BUILTINS, ids=str)
    def test_json_round_trip_is_exact(self, generator):
        back = GeneratorMatrix.from_json_dict(generator.to_json_dict())
        assert back.family == generator.family
        assert np.array_equal(back.matrix, generator.matrix)
        assert back.matrix.tolist() == mheight.builtin_generator(back.family).matrix.tolist()

    @pytest.mark.parametrize("generator", [dual_polygonal(5), dual_icosahedral(),
                                           dual_dodecahedral()], ids=str)
    def test_wrong_columns_of_the_right_shape_rejected(self, generator):
        doc = generator.to_json_dict()
        doc["columns"] = [[1.0] + [0.0] * (generator.k - 1)] * generator.n
        with pytest.raises(InvalidParameterError, match="not those of the built-in"):
            GeneratorMatrix.from_json_dict(doc)

    def test_custom_family_has_no_builtin_generator(self):
        with pytest.raises(mheight.UnsupportedFamilyError):
            mheight.builtin_generator(_CUSTOM)
