"""Generator matrices for the geometric analog code families.

A code here is the row space of a real ``k x n`` generator matrix ``G``:
codewords are ``c = u @ G`` for information vectors ``u``.  Three built-in
families are provided:

* ``dual_polygonal(n)`` -- k=2, columns are unit vectors at angles
  ``pi*j/n`` spread evenly over a half circle;
* ``dual_icosahedral()`` -- k=3, columns are the six vertex axes of the
  regular icosahedron;
* ``dual_dodecahedral()`` -- k=3, columns are the ten vertex axes of the
  regular dodecahedron.

Polyhedral columns are kept at their natural (uniform) norms rather than
being rescaled to unit length; m-height ratios are invariant to a global
column scaling, so nothing downstream depends on the choice.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from .errors import InvalidParameterError, UnsupportedFamilyError
from .tolerances import RANK_TOL, ROUNDOFF_SLACK

#: Golden ratio, evaluated at full working precision.
PHI = (1.0 + math.sqrt(5.0)) / 2.0

DUAL_POLYGONAL = "dual-polygonal"
DUAL_ICOSAHEDRAL = "dual-icosahedral"
DUAL_DODECAHEDRAL = "dual-dodecahedral"
CUSTOM = "custom"

_KNOWN_KINDS = (DUAL_POLYGONAL, DUAL_ICOSAHEDRAL, DUAL_DODECAHEDRAL, CUSTOM)

#: Array entries per batch of a bounded-memory pass (8 MB of float64).
CHUNK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class Family:
    """Tag identifying which construction produced a generator matrix.

    ``n`` is the code length for the polygonal family and ``None`` for the
    other kinds.
    """

    kind: str
    n: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KNOWN_KINDS:
            raise InvalidParameterError(f"unknown family kind {self.kind!r}")
        if self.kind == DUAL_POLYGONAL:
            check_integer("n", self.n, 2)
        elif self.n is not None:
            raise InvalidParameterError(
                f"n is only set for the {DUAL_POLYGONAL} family, got n={self.n!r}")

    @property
    def label(self) -> str:
        return self.kind

    def __str__(self) -> str:
        if self.kind == DUAL_POLYGONAL:
            return f"{self.kind}(n={self.n})"
        return self.kind


class GeneratorMatrix:
    """Immutable real ``k x n`` generator matrix with tagged origin.

    Columns are the per-coordinate weight vectors ``g_j``; encoding an
    information vector ``u`` produces the codeword with entries ``u . g_j``.
    """

    __slots__ = ("_matrix", "_family")

    def __init__(self, matrix: np.ndarray | Sequence[Sequence[float]],
                 family: Family) -> None:
        mat = real_array("generator matrix", matrix, 2)
        k, n = mat.shape
        if k < 1 or n < k:
            raise InvalidParameterError(
                f"generator matrix needs n >= k >= 1, got k={k}, n={n}")
        mat.setflags(write=False)
        self._matrix = mat
        self._family = family

    @property
    def matrix(self) -> np.ndarray:
        """Read-only ``(k, n)`` array."""
        return self._matrix

    @property
    def family(self) -> Family:
        return self._family

    @property
    def k(self) -> int:
        return self._matrix.shape[0]

    @property
    def n(self) -> int:
        return self._matrix.shape[1]

    def column(self, j: int) -> np.ndarray:
        check_integer("j", j, 0, self.n - 1)
        return self._matrix[:, j]

    @property
    def columns(self) -> np.ndarray:
        """Read-only ``(n, k)`` view: row ``j`` is the column vector ``g_j``."""
        return self._matrix.T

    def column_norms(self) -> np.ndarray:
        return np.linalg.norm(self._matrix, axis=0)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "family": self._family.label,
            "columns": [[float(x) for x in self._matrix[:, j]]
                        for j in range(self.n)],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "GeneratorMatrix":
        """Inverse of :meth:`to_json_dict`.  Entries must be JSON numbers
        (not strings, booleans or null); ``k`` and ``n``, when present, must
        match the columns, and a built-in family tag names its built-in
        generator, column for column."""
        try:
            kind, columns = doc["family"], doc["columns"]
        except (KeyError, TypeError) as exc:
            raise InvalidParameterError(f"malformed matrix document: {exc}")
        mat = real_array("generator columns", columns, 2).T
        if any(isinstance(x, bool) for column in columns for x in column):
            raise InvalidParameterError("generator columns must be JSON numbers, not booleans")
        k, n = mat.shape
        for key, size in (("k", k), ("n", n)):
            if key in doc and doc[key] != size:
                raise InvalidParameterError(
                    f"{key}={doc[key]!r} disagrees with the {k} x {n} columns")
        generator = cls(mat, Family(kind, n if kind == DUAL_POLYGONAL else None))
        if kind != CUSTOM and not np.array_equal(
                generator.matrix, builtin_generator(generator.family).matrix):
            raise InvalidParameterError(
                f"the columns are not those of the built-in {generator.family} generator")
        return generator

    def __repr__(self) -> str:
        return f"GeneratorMatrix(k={self.k}, n={self.n}, family={self._family})"


@dataclass(frozen=True)
class Codeword:
    """A codeword together with its sorted absolute-value order statistics.

    ``order_stats[0] >= order_stats[1] >= ...`` are the magnitudes of the
    entries in nonincreasing order, and ``order_perm`` gives the producing
    indices (sort ties broken by ascending index).
    """

    entries: np.ndarray
    order_stats: np.ndarray
    order_perm: np.ndarray

    def __post_init__(self) -> None:
        for name in ("entries", "order_stats", "order_perm"):
            getattr(self, name).setflags(write=False)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def height(self, m: int) -> float:
        """Ratio of the largest magnitude to the (m+1)-th largest.

        Returns ``inf`` when the denominator is zero and the codeword is
        nonzero; a zero codeword has no defined height.
        """
        check_integer("m", m, 1, self.n - 1)
        num = float(self.order_stats[0])
        den = float(self.order_stats[m])
        if den == 0.0:
            if num == 0.0:
                raise InvalidParameterError("zero codeword has no height")
            return math.inf
        return num / den


def check_integer(name: str, value: object, lo: int, hi: int | None = None) -> None:
    """Raise unless ``value`` is an int or numpy integer, not a bool, in
    ``[lo, hi]`` (``hi=None``: no upper bound).

    Every public integer parameter is checked here, so the messages share
    one format: ``m must be in [1, 5], got 6`` for a value out of range, and
    ``m must be an integer in [1, 5], got 2.5`` for one of another type.
    """
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not integer or value < lo or (hi is not None and value > hi):
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        kind, got = ("", int(value)) if integer else ("an integer ", repr(value))
        raise InvalidParameterError(f"{name} must be {kind}{bounds}, got {got}")


def real_array(name: str, values: object, ndim: int) -> np.ndarray:
    """``values`` as a new C-ordered float64 array of ``ndim`` axes (0: a
    scalar) and finite entries.  Every public real parameter is read here,
    so ragged nesting, complex, string or object entries, another number of
    axes and NaN or infinite entries raise in one format, such as ``alphas
    must be a 1-D array of finite real numbers, got entry nan``."""
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError):
        got = "ragged nesting"
    else:
        if arr.dtype.kind not in "biuf":
            got = f"{arr.dtype.name.rstrip('0123456789')} entries"
        elif arr.ndim != ndim:
            got = f"shape {arr.shape}"
        else:
            arr = arr.astype(float, order="C")
            finite = np.isfinite(arr)
            if finite.all():
                return arr
            got = f"entry {arr[~finite][0]}"
    what = f"a {ndim}-D array of finite real numbers" if ndim else "a finite real number"
    raise InvalidParameterError(f"{name} must be {what}, got {got}")


def encode(generator: GeneratorMatrix, u: Sequence[float] | np.ndarray) -> Codeword:
    """Encode the information vector ``u`` and compute its order statistics."""
    vec = real_array("information vector", u, 1)
    if vec.shape != (generator.k,):
        raise InvalidParameterError(
            f"information vector must have shape ({generator.k},), got {vec.shape}")
    entries = vec @ generator.matrix
    mags = np.abs(entries)
    # stable sort on the negated magnitudes -> ties broken by ascending index
    perm = np.argsort(-mags, kind="stable")
    return Codeword(entries=entries, order_stats=mags[perm], order_perm=perm)


def dual_polygonal(n: int) -> GeneratorMatrix:
    """k=2 generator whose columns are unit vectors at angles ``pi*j/n``."""
    check_integer("n", n, 2)
    theta = np.pi * np.arange(n) / n
    mat = np.vstack([np.cos(theta), np.sin(theta)])
    return GeneratorMatrix(mat, Family(DUAL_POLYGONAL, int(n)))


def dual_icosahedral() -> GeneratorMatrix:
    """k=3 generator whose columns are the six icosahedron vertex axes."""
    p = PHI
    mat = np.array([
        [0.0, 0.0, 1.0, 1.0, p, p],
        [1.0, 1.0, p, -p, 0.0, 0.0],
        [p, -p, 0.0, 0.0, 1.0, -1.0],
    ])
    return GeneratorMatrix(mat, Family(DUAL_ICOSAHEDRAL))


def dual_dodecahedral() -> GeneratorMatrix:
    """k=3 generator whose columns are the ten dodecahedron vertex axes."""
    p = PHI
    q = 1.0 / PHI
    mat = np.array([
        [1.0, 1.0, 1.0, 1.0, 0.0, 0.0, q, q, p, p],
        [1.0, 1.0, -1.0, -1.0, p, p, 0.0, 0.0, q, -q],
        [1.0, -1.0, 1.0, -1.0, q, -q, p, -p, 0.0, 0.0],
    ])
    return GeneratorMatrix(mat, Family(DUAL_DODECAHEDRAL))


def builtin_generator(family: Family) -> GeneratorMatrix:
    """The built-in generator that the tag ``family`` names."""
    if family.kind == CUSTOM:
        raise UnsupportedFamilyError("the custom family has no built-in generator")
    return (dual_polygonal(family.n) if family.kind == DUAL_POLYGONAL else
            dual_icosahedral() if family.kind == DUAL_ICOSAHEDRAL else dual_dodecahedral())


def from_columns(columns: Sequence[Sequence[float]] | np.ndarray) -> GeneratorMatrix:
    """Build a custom-tagged generator from explicit column vectors.

    All columns must share one dimension ``k >= 1`` and there must be at
    least ``k`` of them.  No rank condition is imposed here; use
    :func:`is_mds` for that.
    """
    return GeneratorMatrix(real_array("generator columns", columns, 2).T, Family(CUSTOM))


def power_of_two_scaled(matrix: np.ndarray) -> tuple[np.ndarray, int]:
    """``(matrix * 2**-e, e)`` with the largest magnitude in ``[1, 2)``.

    Scaling by a power of two is exact in binary floating point, so it
    changes no ratio and is a no-op for the built-in families.
    """
    peak = float(np.abs(matrix).max())
    exponent = math.frexp(peak)[1] - 1 if peak else 0
    return (np.ldexp(matrix, -exponent) if exponent else matrix), exponent


def unit_columns(matrix: np.ndarray) -> np.ndarray:
    """Unit-length columns (zero ones stay zero), each first scaled by its own power of two."""
    mat = np.ldexp(matrix, 1 - np.frexp(np.abs(matrix).max(axis=0))[1])
    norms = np.sqrt(np.add.reduce(mat * mat))
    return mat / np.where(norms > 0.0, norms, 1.0)


def canonical_direction(vec: np.ndarray) -> np.ndarray:
    """Unit vector along ``vec`` whose first entry above round-off is positive."""
    v = vec / np.linalg.norm(vec)
    lead = v[np.abs(v) > ROUNDOFF_SLACK]
    return -v if lead.size and lead[0] < 0 else v


def column_subsets(n: int, r: int) -> np.ndarray:
    """All ``r``-subsets of ``range(n)`` in ``combinations`` order, ``(C(n, r), r)``."""
    rows = np.arange(n - r + 1)[:, None] if r else np.zeros((1, 0), np.intp)
    for t in range(1, r):
        s, j = (rows[:, -1:] < np.arange(n - r + t + 1)).nonzero()
        rows = np.concatenate((rows[s], j[:, None]), axis=1)
    return rows


@functools.cache
def _wedge_tables(k: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """``(lower, axis)`` per step of the wedge ``p_0 ^ ... ^ p_(k-2)`` in R^k.

    Step ``r``'s coordinate ``T``, an ``(r+1)``-subset of axes, is the sum
    of ``+-w[lower[i]] * p_r[axis[i]]`` over the axes of ``T``, the signs
    alternating from ``+`` last.  The last step lists ``T = all axes but i``
    by ``i``: negating its odd rows gives ``c . v = det[v, p_0 .. p_(k-2)]``.
    """
    steps = []
    for r in range(k - 1):
        lower = {s: i for i, s in enumerate(combinations(range(k), r))}
        upper = list(combinations(range(k), r + 1))[::-1 if r == k - 2 else 1]
        steps.append((np.array([[lower[T[:i] + T[i + 1:]] for i in range(r + 1)]
                                for T in upper]).T, np.array(upper).T))
    return tuple(steps)


def _prefix_minors(unit: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
    """``(chunk, after, cross, dets)`` per chunk of ``(k-1)``-column prefixes.

    The rows of ``chunk`` are prefixes ``P`` from ``column_subsets(n, k-1)``.
    ``cross[:, s]`` is the wedge-product cross product of the unit columns
    in ``P_s``, so by Laplace expansion ``dets = |cross.T @ unit|`` holds the
    |det| of each ``P_s + {j}``; ``after`` (which broadcasts against ``dets``)
    marks ``j > max P_s``, which in ``combinations`` order are the
    ``k``-subsets, each once.  The next chunk overwrites ``dets``.
    """
    k, n = unit.shape
    prefixes = column_subsets(n, k - 1)
    first = unit[_wedge_tables(k)[0][1][0]] if k > 1 else np.ones((1, 1))  # step 0: p_0
    step = max(1, CHUNK_ENTRIES // (n + math.comb(k, k // 2)))
    buffer = np.empty((min(step, len(prefixes)), n))
    for chunk in (prefixes[i:i + step] for i in range(0, len(prefixes), step)):
        cross = first[:, chunk[:, 0]] if k > 1 else first
        for r, (lower, axis) in enumerate(_wedge_tables(k)[1:], start=1):
            col, wedge = unit[:, chunk[:, r]], 0.0
            for below, t in zip(lower, axis):
                wedge = cross[below] * col[t] - wedge
            cross = wedge
        cross[1::2] *= -1.0
        dets = np.matmul(cross.T, unit, out=buffer[:len(chunk)])
        yield (chunk, np.arange(n) > (chunk[:, -1:] if k > 1 else -1), cross,
               np.abs(dets, out=dets))


def is_mds(generator: GeneratorMatrix) -> bool:
    """True iff every ``k``-subset of columns is linearly independent: its
    |det| on unit columns exceeds ``RANK_TOL``, at any column scaling."""
    return all(np.all((dets > RANK_TOL) | ~after)
               for _, after, _, dets in _prefix_minors(unit_columns(generator.matrix)))
