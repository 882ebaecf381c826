"""Symmetries of the m-height profile, as property tests.

A code's m-heights depend only on its row space, up to signed column
permutations and a global scale.  So ``exact_profile`` and ``is_mds`` must
not change under ``G -> A G`` for invertible ``A``, column permutations,
column sign flips, or scaling the whole matrix by 10^(+-150).  Scaling a
single column is not a symmetry (it changes the entry ratios), so it is not
tested here.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from mheight import exact_profile, from_columns, is_mds

_PROPERTY = settings(max_examples=100, deadline=None)


@st.composite
def generators(draw, kinds=("gaussian", "integer", "duplicated")):
    """A full-row-rank ``k x n`` matrix, ``k = 2..4`` and ``n <= 10``."""
    kind = draw(st.sampled_from(kinds))
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k + 1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "integer":
        cols = rng.integers(-3, 4, size=(n, k)).astype(float)
    else:
        cols = rng.normal(size=(n, k))
    if kind == "duplicated":
        i, j = rng.choice(n, size=2, replace=False)
        cols[j] = cols[i]
    assume(np.linalg.matrix_rank(cols) == k)
    return cols.T


def _assert_same_code(matrix, variant):
    """Equal profiles (values to 1e-9 relative, same infinite positions) and
    the same MDS answer."""
    want = np.array(exact_profile(from_columns(matrix.T)).values())
    got = np.array(exact_profile(from_columns(variant.T)).values())
    infinite = np.isinf(want)
    np.testing.assert_array_equal(np.isinf(got), infinite)
    np.testing.assert_allclose(got[~infinite], want[~infinite], rtol=1e-9)
    assert is_mds(from_columns(variant.T)) == is_mds(from_columns(matrix.T))


@given(generators(), st.integers(0, 2**32 - 1))
@_PROPERTY
def test_row_operations(matrix, seed):
    # A = Q D: Q orthogonal, D diagonal with entries in [0.5, 2].
    rng = np.random.default_rng(seed)
    k = matrix.shape[0]
    q, _ = np.linalg.qr(rng.normal(size=(k, k)))
    _assert_same_code(matrix, q @ np.diag(rng.uniform(0.5, 2.0, size=k)) @ matrix)


@given(generators(), st.randoms(use_true_random=False))
@_PROPERTY
def test_column_permutation(matrix, random):
    perm = list(range(matrix.shape[1]))
    random.shuffle(perm)
    _assert_same_code(matrix, matrix[:, perm])


@given(generators(), st.data())
@_PROPERTY
def test_column_sign_flips(matrix, data):
    n = matrix.shape[1]
    signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    _assert_same_code(matrix, matrix * np.array(signs))


@given(generators(), st.sampled_from([-150, 150]))
@_PROPERTY
def test_global_scale(matrix, exponent):
    _assert_same_code(matrix, matrix * 10.0 ** exponent)


@given(generators(kinds=("gaussian",)), st.data())
@_PROPERTY
def test_duplicated_column_infinite_from_n_minus_k(matrix, data):
    # A codeword can zero k - 1 generic columns; one of them duplicated
    # gives k zeros, so the height is infinite exactly from m = n - k.
    k, n = matrix.shape
    j = data.draw(st.integers(0, n - 1))
    doubled = np.insert(matrix, data.draw(st.integers(0, n)), matrix[:, j], axis=1)
    for scale in (1e-150, 1.0, 1e150):
        values = exact_profile(from_columns((doubled * scale).T)).values()
        infinite = [m for m, v in enumerate(values, start=1) if np.isinf(v)]
        assert infinite == list(range(n + 1 - k, n + 1))
