"""Fundamental-domain search and structural checks for the built-in families.

Each family's symmetry group folds the sphere of information directions onto
a small fundamental domain -- an arc ``[0, pi/(2n)]`` for the polygonal
codes, a sub-triangle of a face for the polyhedral ones -- on which the
m-height supremum is already attained.  This module parametrizes those
domains, verifies the fixed magnitude orderings that hold on them, checks
the sign patterns of the height-ratio partial derivatives, and runs direct
searches that lower-bound (and in practice reproduce) the exact heights.
The paper's maximizers sit where codeword magnitudes switch rank or sign:
on an arc the search evaluates every such switching angle and is exact; on
a triangle it runs a grid, then an exact local step at the vertices of that
switching arrangement near the grid maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .codes import (
    DUAL_DODECAHEDRAL,
    DUAL_ICOSAHEDRAL,
    DUAL_POLYGONAL,
    PHI,
    Family,
    GeneratorMatrix,
    check_integer,
    dual_dodecahedral,
    dual_icosahedral,
    power_of_two_scaled,
    real_array,
)
from .errors import InvalidParameterError
from .heights import ExtendedHeight
from .tolerances import ROUNDOFF_SLACK, TIE_TOL

_DEFAULT_TRIANGLE_RESOLUTION = 300


@dataclass(frozen=True)
class ArcDomain:
    """Angles ``alpha in [0, pi/(2n)]``; directions ``(cos a, sin a)``."""

    n: int

    def __post_init__(self) -> None:
        check_integer("n", self.n, 2)

    @property
    def upper(self) -> float:
        return math.pi / (2 * self.n)


@dataclass(frozen=True)
class TriangleDomain:
    """Barycentric triangle ``x(u, v) = u*v1 + v*v2 + (1-u-v)*v3``.

    The parameter domain is ``D = {u >= 0, v >= 0, u + v <= 1}``.
    """

    v1: tuple[float, ...]
    v2: tuple[float, ...]
    v3: tuple[float, ...]

    def __post_init__(self) -> None:
        vertices = real_array("triangle vertices", (self.v1, self.v2, self.v3), 2)
        for name, vertex in zip(("v1", "v2", "v3"), vertices.tolist()):
            object.__setattr__(self, name, tuple(vertex))
        object.__setattr__(self, "_vertex_arrays", tuple(vertices))
        if np.linalg.matrix_rank(vertices[:2] - vertices[2]) < 2:
            raise InvalidParameterError("triangle vertices are affinely dependent")

    def point(self, u: float, v: float) -> np.ndarray:
        a, b, c = self._vertex_arrays
        return u * a + v * b + (1.0 - u - v) * c

    def points(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """``(N, k)`` points, a transposed view of a ``(k, N)`` array: numpy
        then loops over the long axis, not over rows of length ``k``."""
        a, b, c = (x[:, None] for x in self._vertex_arrays)
        return (a * us + b * vs + c * (1.0 - us - vs)).T


FundamentalDomain = ArcDomain | TriangleDomain


def polygonal_domain(n: int) -> ArcDomain:
    check_integer("n", n, 2)
    return ArcDomain(int(n))


def icosahedral_domain() -> TriangleDomain:
    """Sub-triangle of an icosahedron face closest to the first axis."""
    g = dual_icosahedral().columns
    return TriangleDomain(tuple(g[0]), tuple((g[0] + g[2]) / 2.0),
                          tuple((g[0] + g[2] + g[4]) / 3.0))


def dodecahedral_domain() -> TriangleDomain:
    """Sub-triangle of a dodecahedron face: vertex, edge midpoint, face center."""
    g = dual_dodecahedral().columns
    center = (g[0] + g[1] + g[4] + g[5] + g[8]) / 5.0
    return TriangleDomain(tuple(g[0]), tuple((g[0] + g[4]) / 2.0), tuple(center))


@dataclass(frozen=True)
class Violation:
    """A single failed ordering assertion with its severity."""

    label: str
    magnitude: float


@dataclass(frozen=True)
class RankReport:
    """Observed magnitude ranking at one domain point.

    ``perm`` lists coordinate indices by descending projection magnitude --
    0-based for the polygonal family, 1-based for the polyhedral axes.
    ``violations`` lists asserted-order failures beyond the tie tolerance.
    """

    point: tuple[float, ...]
    perm: tuple[int, ...]
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def polygonal_rank_index(n: int, k: int) -> int:
    """Index whose magnitude attains rank ``k`` (0-based) on the arc.

    On ``alpha in [0, pi/(2n)]`` the sorted magnitudes interleave around the
    reduced angles ``alpha, pi/n - alpha, pi/n + alpha, 2*pi/n - alpha, ...``
    giving the fixed index sequence ``0, 1, n-1, 2, n-2, ...``.
    """
    check_integer("n", n, 2)
    check_integer("rank", k, 0, n - 1)
    if k == 0:
        return 0
    if k % 2 == 1:
        return (k + 1) // 2
    return n - k // 2


_ICOSA_CHAIN = (1, 3, 5, 4, 2, 6)   # axis numbers by nonincreasing magnitude

# Allowed axis numbers per magnitude rank (1-based) on the dodecahedral
# fundamental triangle, plus the pairwise dominances they follow from.
_DODE_RANK_SETS = {
    1: (1,), 2: (5,), 3: (9,), 4: (6, 7), 5: (2, 6, 7),
    6: (2, 4, 7), 7: (2, 4), 8: (8, 10), 9: (3, 8, 10), 10: (3, 8),
}
_DODE_PAIRS = (
    (1, 5), (5, 9), (9, 6), (9, 7),
    (6, 2), (6, 4), (7, 4),
    (4, 3), (4, 8), (4, 10), (2, 3), (2, 8), (2, 10),
    (10, 3),
)


@dataclass(frozen=True)
class _RuleCheck:
    """One ordering rule evaluated at ``N`` points.

    ``mags`` holds the ``(N, n)`` projection magnitudes; column ``r`` of
    ``gaps`` and ``failed`` is the assertion named ``labels[r]``.
    """

    mags: np.ndarray
    labels: tuple[str, ...]
    gaps: np.ndarray
    failed: np.ndarray

    def counts(self) -> np.ndarray:
        return self.failed.sum(axis=1)

    def report(self, point: tuple[float, ...], base: int) -> RankReport:
        """The single-point report for point 0; ``base`` offsets ``perm``."""
        perm = np.argsort(-self.mags[0], kind="stable") + base
        violations = tuple(Violation(self.labels[r], float(self.gaps[0, r]))
                           for r in np.flatnonzero(self.failed[0]))
        return RankReport(point, tuple(int(j) for j in perm), violations)


def _arc_order(n: int, alphas: Sequence[float] | np.ndarray) -> _RuleCheck:
    """Rank ``k`` of ``|cos(pi*j/n - alpha)|`` is attained at index
    :func:`polygonal_rank_index` ``(n, k)``, up to ties."""
    check_integer("n", n, 2)
    alphas, upper = real_array("alphas", alphas, 1), math.pi / (2 * n)
    bad = (alphas < -ROUNDOFF_SLACK) | (alphas > upper + ROUNDOFF_SLACK)
    if bad.any():
        raise InvalidParameterError(
            f"alpha must lie in [0, {upper:.6g}], got {alphas[bad][0]}")
    mags = np.abs(np.cos(np.pi * np.arange(n) / n - alphas[:, None]))
    attained = np.sort(mags, axis=1)[:, ::-1]
    expected = [polygonal_rank_index(n, k) for k in range(n)]
    gaps = attained - mags[:, expected]
    return _RuleCheck(mags, tuple(f"rank {k} expected index {e}"
                                  for k, e in enumerate(expected)),
                      gaps, gaps > TIE_TOL * np.maximum(1.0, attained))


def _dominance(mags: np.ndarray, pairs: tuple[tuple[int, int], ...]) -> _RuleCheck:
    """``|x.g_hi| >= |x.g_lo|`` for each 1-based axis pair, up to ties."""
    lo = mags[:, [b - 1 for _, b in pairs]]
    gaps = lo - mags[:, [a - 1 for a, _ in pairs]]
    return _RuleCheck(mags, tuple(f"g{a} >= g{b}" for a, b in pairs),
                      gaps, gaps > TIE_TOL * np.maximum(1.0, lo))


def _rank_sets(mags: np.ndarray) -> _RuleCheck:
    """Each rank's magnitude ties some axis of its ``_DODE_RANK_SETS`` entry."""
    order = np.sort(mags, axis=1)[:, ::-1]
    gaps, failed = [], []
    for rank, allowed in _DODE_RANK_SETS.items():
        value = order[:, rank - 1:rank]
        cand = mags[:, [axis - 1 for axis in allowed]]
        diff = np.abs(cand - value)
        tied = diff <= TIE_TOL * np.maximum(1.0, np.maximum(cand, value))
        gaps.append(diff.min(axis=1))
        failed.append(~tied.any(axis=1))
    return _RuleCheck(mags, tuple(f"rank {rank} outside axes {allowed}"
                                  for rank, allowed in _DODE_RANK_SETS.items()),
                      np.column_stack(gaps), np.column_stack(failed))


def _triangle_params(us: object, vs: object) -> np.ndarray:
    """``(us, vs)`` as one ``(2, N)`` array of points in the triangle."""
    us, vs = params = real_array("(us, vs)", (us, vs), 2)
    bad = (us < -ROUNDOFF_SLACK) | (vs < -ROUNDOFF_SLACK) | (us + vs > 1.0 + ROUNDOFF_SLACK)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise InvalidParameterError(
            "(u, v) must satisfy u, v >= 0 and u + v <= 1, "
            f"got ({us[i]}, {vs[i]})")
    return params


def _icosa_chain(us: np.ndarray, vs: np.ndarray) -> _RuleCheck:
    us, vs = _triangle_params(us, vs)
    mags = np.abs(icosahedral_domain().points(us, vs) @ dual_icosahedral().matrix)
    return _dominance(mags, tuple(zip(_ICOSA_CHAIN, _ICOSA_CHAIN[1:])))


def _dode_ranks(us: np.ndarray, vs: np.ndarray) -> _RuleCheck:
    us, vs = _triangle_params(us, vs)
    mags = np.abs(dodecahedral_domain().points(us, vs) @ dual_dodecahedral().matrix)
    pairs, ranks = _dominance(mags, _DODE_PAIRS), _rank_sets(mags)
    return _RuleCheck(mags, pairs.labels + ranks.labels,
                      np.hstack([pairs.gaps, ranks.gaps]),
                      np.hstack([pairs.failed, ranks.failed]))


def polygonal_order_indices(n: int, alpha: float) -> RankReport:
    """Check the fixed arc ordering of ``|cos(pi*j/n - alpha)|`` at ``alpha``."""
    return _arc_order(n, [real_array("alpha", alpha, 0)]).report((float(alpha),), 0)


def polygonal_order_violations(n: int, alphas: np.ndarray) -> np.ndarray:
    """Per-angle violation counts of :func:`polygonal_order_indices`."""
    return _arc_order(n, alphas).counts()


def icosahedral_chain_check(u: float, v: float) -> RankReport:
    """Verify the fixed magnitude chain of the six axis projections."""
    return _icosa_chain(*real_array("(u, v)", (u, v), 1)[:, None]).report((float(u), float(v)), 1)


def icosahedral_chain_violations(us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Per-point violation counts of :func:`icosahedral_chain_check`."""
    return _icosa_chain(us, vs).counts()


def dodecahedral_rank_check(u: float, v: float) -> RankReport:
    """Verify rank supports and pairwise dominances of the ten projections."""
    return _dode_ranks(*real_array("(u, v)", (u, v), 1)[:, None]).report((float(u), float(v)), 1)


def dodecahedral_rank_violations(us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Per-point violation counts of :func:`dodecahedral_rank_check`."""
    return _dode_ranks(us, vs).counts()


def dodecahedral_candidates() -> tuple[tuple[float, float], ...]:
    """The six ``(u, v)`` points that can maximize the mid-range heights.

    The ratio objectives have no interior stationary points, so maximizers
    sit on triangle vertices or on intersections of denominator-switching
    lines with the boundary.
    """
    s5 = math.sqrt(5.0)
    return (
        (1.0, 0.0),
        (0.0, 0.0),
        (0.0, 1.0),
        (0.0, (1.0 + 3.0 * s5) / 11.0),
        (PHI / 3.0, 0.0),
        (0.0, 2.0 * s5 - 4.0),
    )


# ---------------------------------------------------------------------------
# Monotonicity checks

_FD_STEP = 1e-6         # centred finite-difference step
_FD_ASSERT = 1e-8       # smallest |derivative| whose sign is asserted
_EDGE_MARGIN = 1e-5     # grid margin from the edges, relative to the extent
_CUT_MARGIN = 1e-4      # dodecahedral j=8 region's offset from its cut line
#: Points per array pass of a monotonicity check, a search or a sampled
#: verify suite.
_GRID_CHUNK = 1 << 12

# Expected signs (d/du, d/dv) of the ratio |x.g1| / |x.g_j| on the
# fundamental triangle; None leaves that partial unasserted.
#
# Icosahedral ratios are indexed by the target m, with the denominators the
# magnitude chain dictates: g3 for m=1, g5 for m=2, g4 for m=3.  The signs
# follow from the linear forms: d/dv of the g3 ratio is -24u / (6 x.g3)^2,
# so it is only nonpositive, while the g5 ratio increases in both
# parameters.
_ICOSA_SIGNS = {1: (1, -1), 2: (1, 1), 3: (-1, -1)}
_ICOSA_DENOM = {1: 3, 2: 5, 3: 4}     # ratio index -> denominator axis
_DODE_SIGNS = {
    2: (1, 1), 4: (None, -1), 5: (1, -1), 6: (1, 1),
    7: (-1, -1), 8: (-1, -1), 9: (1, 1), 10: (-1, 1),
}


@dataclass(frozen=True)
class MonotonicityReport:
    """Finite-difference sign check of a height ratio over an interior grid."""

    family: Family
    ratio_index: int
    expected: tuple[int | None, ...]
    asserted: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _triangle_grid(line: np.ndarray, limit: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Grid points ``(u, v) = (line[c], line[r])`` with ``u + v <= limit``,
    row-major -- v, then u -- in blocks of at most ``_GRID_CHUNK`` points.

    ``line`` increases, so row ``r`` keeps a prefix of it no longer than row
    ``r - 1``'s, and a block spans only the columns its previous row kept.
    """
    width, r = len(line), 0
    while width and r < len(line):
        vs = line[r:r + max(1, _GRID_CHUNK // width), None]
        kept = 0
        for c in range(0, width, _GRID_CHUNK):
            us = line[c:min(width, c + _GRID_CHUNK)]
            keep = us + vs <= limit
            kept += int(np.count_nonzero(keep[-1]))
            if keep.any():
                yield (np.broadcast_to(us, keep.shape)[keep],
                       np.broadcast_to(vs, keep.shape)[keep])
        width, r = kept, r + len(vs)


def monotonicity_check(family: Family, j: int, grid_resolution: int) -> MonotonicityReport:
    """Assert the sign pattern of a height ratio's partial derivatives.

    ``j`` names the ratio: the target ``m`` for the polygonal family, the
    ratio index (1..3) for the icosahedral one, and the denominator axis for
    the dodecahedral one.  The ratio is ``|x.g_0| / |x.g_c|``, with ``c`` the
    column the domain's fixed ordering puts at that rank (on the open arc,
    :func:`polygonal_rank_index`).  Its interior grid -- ``alpha``, or
    ``(u, v)`` row-major -- is evaluated in blocks of at most ``_GRID_CHUNK``
    points, so memory beyond the parameter line is bounded.  Signs are
    asserted only where the centered finite difference (step 1e-6) exceeds
    1e-8 in magnitude; violations are listed by axis, then in grid order.
    """
    check_integer("grid_resolution", grid_resolution, 2)
    if family.kind == DUAL_POLYGONAL:
        n = family.n
        check_integer("ratio index", j, 1, n - 2)
        signs: tuple[int | None, ...] = (1 if j % 2 == 0 else -1,)
        upper = math.pi / (2 * n)
        margin = max(10 * _FD_STEP, _EDGE_MARGIN * upper)
        line = np.linspace(margin, upper - margin, grid_resolution)
        blocks: Iterator[tuple[np.ndarray, ...]] = (
            (line[i:i + _GRID_CHUNK],) for i in range(0, len(line), _GRID_CHUNK))
        # Directions, and the columns 0 and c of dual_polygonal(n), are unit
        # vectors at angles alpha and pi*c/n.
        unit = lambda a: np.array([np.cos(a), np.sin(a)])
        points = lambda a: unit(a).T
        num, den = unit(np.pi * np.array([0, polygonal_rank_index(n, j)]) / n).T
        names, where = ("alpha",), "alpha={}"
    elif family.kind in (DUAL_ICOSAHEDRAL, DUAL_DODECAHEDRAL):
        icosa = family.kind == DUAL_ICOSAHEDRAL
        table = _ICOSA_SIGNS if icosa else _DODE_SIGNS
        check_integer("ratio index", j, 1)
        if j not in table:
            raise InvalidParameterError(
                f"ratio index {j} is not checkable for {family.label}")
        signs = table[j]
        domain = icosahedral_domain() if icosa else dodecahedral_domain()
        matrix = (dual_icosahedral() if icosa else dual_dodecahedral()).matrix
        num, den = matrix[:, 0], matrix[:, (_ICOSA_DENOM[j] if icosa else j) - 1]
        margin = max(10 * _FD_STEP, _EDGE_MARGIN)
        blocks = _triangle_grid(np.linspace(margin, 1.0 - margin, grid_resolution),
                                1.0 - margin)
        if not icosa and j == 8:
            # The eighth projection vanishes along a line inside the
            # triangle; its ratio is only asserted on the far side of the
            # switching boundary, where that projection is bounded away
            # from zero.
            cut = 2.0 * math.sqrt(5.0) - 4.0
            blocks = ((uu[keep], vv[keep]) for uu, vv in blocks
                      for keep in [vv >= cut * (1.0 - uu) + _CUT_MARGIN])
        points, names, where = domain.points, ("u", "v"), "(u,v)=({},{})"
    else:
        raise InvalidParameterError(f"no monotonicity facts for family {family.label}")

    # Row-wise products, not a matrix product, so that a point's value does
    # not depend on which block it falls in.
    def ratio(*params: np.ndarray) -> np.ndarray:
        pts = points(*params)
        return np.abs((pts * num).sum(axis=1)) / np.abs((pts * den).sum(axis=1))

    violations: list[list[Violation]] = [[] for _ in signs]
    asserted = 0
    for params in blocks:
        for axis, sign in enumerate(signs):
            if sign is None:
                continue
            shifted = lambda d: ratio(*(p + d if i == axis else p
                                        for i, p in enumerate(params)))
            deriv = (shifted(_FD_STEP) - shifted(-_FD_STEP)) / (2 * _FD_STEP)
            check = np.abs(deriv) > _FD_ASSERT
            asserted += int(check.sum())
            for i in np.flatnonzero(check & (sign * deriv < 0)):
                at = where.format(*(f"{p[i]:.9g}" for p in params))
                violations[axis].append(Violation(f"sign(d/d{names[axis]}) at {at}",
                                                  float(abs(deriv[i]))))
    return MonotonicityReport(family, j, signs, asserted,
                              tuple(v for axis in violations for v in axis))


# ---------------------------------------------------------------------------
# Direct search

def _grid_max(blocks: Iterator[tuple[tuple[np.ndarray, ...], np.ndarray]], matrix: np.ndarray,
              m: int) -> tuple[float, tuple[float, ...] | None, tuple[float, ...]] | None:
    """``(ratio, params, point)`` at the first maximum of the height ratio over
    ``(params, points)`` blocks, or ``(inf, None, point)`` at the first point
    whose denominator is exactly zero while its numerator is not; ``None``
    when the blocks hold no point."""
    best, buf = None, np.empty((_GRID_CHUNK + 1, matrix.shape[1]))
    for params, pts in blocks:
        # numpy sends a one-row product to gemv, which rounds differently
        # from the gemm of longer blocks; a doubled row stays on gemm.
        rows = len(pts)
        mags = np.matmul(pts if rows > 1 else pts[[0, 0]], matrix,
                         out=buf[:max(rows, 2)])[:rows]
        np.abs(mags, out=mags)
        mags.sort(axis=1)
        num, den = mags[:, -1], mags[:, -1 - m]
        exact_inf = (den == 0.0) & (num > 0.0)
        if exact_inf.any():
            return math.inf, None, tuple(pts[int(np.argmax(exact_inf))])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(den > 0.0, num / den, -np.inf)
        i = int(np.argmax(ratios))
        if best is None or ratios[i] > best[0]:
            best = float(ratios[i]), tuple(float(p[i]) for p in params), tuple(pts[i])
    return best


def _switching_lines(coef: np.ndarray) -> np.ndarray:
    """Rows of ``coef`` (one affine or linear form per codeword entry) and
    their pairwise differences and sums: the loci ``e_i = 0`` and
    ``e_i = -+e_j`` where a sign or a magnitude rank can switch."""
    i, j = np.triu_indices(len(coef), 1)
    return np.vstack([coef[i] - coef[j], coef[i] + coef[j], coef])


def _arc_vertices(matrix: np.ndarray, domain: ArcDomain
                  ) -> Iterator[tuple[tuple[np.ndarray, ...], np.ndarray]]:
    """The arc's ends and the switching angles inside it, ``x``
    perpendicular to ``g_i -+ g_j`` or ``g_i``, in blocks of at most
    ``_GRID_CHUNK``.

    Between two switching angles the ratio of two fixed signed entries is
    monotone (its derivative has the sign of ``sin(theta_a - theta_b)``),
    so its maximum over the arc is at one of these angles.
    """
    normals = _switching_lines(matrix.T)
    thetas = np.mod(np.arctan2(normals[:, 1], normals[:, 0]) + 0.5 * math.pi, math.pi)
    alphas = np.concatenate([[0.0, domain.upper],
                             thetas[(thetas >= 0.0) & (thetas <= domain.upper)]])
    for a in np.split(alphas, range(_GRID_CHUNK, len(alphas), _GRID_CHUNK)):
        yield (a,), np.column_stack([np.cos(a), np.sin(a)])


def _triangle_vertices(matrix: np.ndarray, domain: TriangleDomain, bu: float, bv: float,
                       h: float) -> Iterator[tuple[tuple[np.ndarray, ...], np.ndarray]]:
    """Vertices of the switching arrangement in the box ``|u - bu|, |v - bv|
    <= h``, cut by the triangle, in blocks of at most ``_GRID_CHUNK``.

    Entries are affine in the parameters, ``e = c + u a + v b``.  Where no
    rank or sign switches the ratio is linear-fractional, so its maximum over
    the box is at a pairwise intersection of the lines that cross the box:
    ``e_i = 0``, ``e_i = -+e_j``, the box edges and the triangle edges.
    Intersections are kept within ``2 h`` of the box centre, a margin for
    the rounding of those on the box edges.
    """
    v1, v2, v3 = domain._vertex_arrays
    coef = np.column_stack([(v1 - v3) @ matrix, (v2 - v3) @ matrix, v3 @ matrix])
    edges = [(1.0, 0.0, -bu + h), (1.0, 0.0, -bu - h), (0.0, 1.0, -bv + h),
             (0.0, 1.0, -bv - h), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, -1.0)]
    lines = np.vstack([_switching_lines(coef), edges])
    corners = np.array([[bu - h, bu + h, bu - h, bu + h],
                        [bv - h, bv - h, bv + h, bv + h], [1.0] * 4])
    at = lines @ corners
    lines = lines[(at.min(axis=1) <= 0.0) & (at.max(axis=1) >= 0.0)]
    count, rows = len(lines), max(1, _GRID_CHUNK // len(lines))
    for r in range(0, count, rows):
        first = lines[r:r + rows]
        later = np.arange(count) > np.arange(r, r + len(first))[:, None]
        x, y, w = np.cross(first[:, None], lines[None]).transpose(2, 0, 1)[:, later]
        with np.errstate(divide="ignore", invalid="ignore"):
            us, vs = x / w, y / w
            keep = ((np.abs(us - bu) <= 2.0 * h) & (np.abs(vs - bv) <= 2.0 * h)
                    & (us >= 0.0) & (vs >= 0.0) & (us + vs <= 1.0 + ROUNDOFF_SLACK))
        us, vs = us[keep], vs[keep]
        for i in range(0, len(us), _GRID_CHUNK):
            u, v = us[i:i + _GRID_CHUNK], vs[i:i + _GRID_CHUNK]
            yield (u, v), domain.points(u, v)


def domain_search(generator: GeneratorMatrix, m: int, domain: FundamentalDomain,
                  resolution: int | None = None) -> ExtendedHeight:
    """Direct search for the m-height over a fundamental domain.

    Returns a certified lower bound on the m-height (every evaluation is a
    genuine codeword ratio).  On an arc it is exact: the first maximum over
    the arc's ends and every switching angle inside it.  ``resolution`` sets
    only the triangle grid, visited row-major -- ``v``, then ``u`` -- whose
    first maximum is refined within one grid cell of it: the ratio is
    linear-fractional wherever no magnitude rank or sign switches, so the
    refine evaluates the vertices of the switching arrangement there and
    keeps the first maximum, if it is strictly greater.  Infinity is
    reported at the first point, grid or refine, whose denominator order
    statistic is exactly zero while the top one is not; otherwise
    unboundedness is left to the exact engine.  The search runs on ``G``
    rescaled by a power of two (exact), so no scale overflows; its witnesses
    are domain points, which no scale changes.  Every point goes through one
    blocked evaluation kernel, and working memory beyond the
    ``resolution``-long parameter line is ``O(_GRID_CHUNK)`` points,
    whatever the resolution.
    """
    check_integer("m", m, 1, generator.n - 1)
    if resolution is not None:
        check_integer("resolution", resolution, 2)

    matrix = power_of_two_scaled(generator.matrix)[0]
    if isinstance(domain, ArcDomain):
        if generator.k != 2:
            raise InvalidParameterError("arc domains require a k=2 generator")
        value, _, witness = _grid_max(_arc_vertices(matrix, domain), matrix, m)
    elif isinstance(domain, TriangleDomain):
        if len(domain.v1) != generator.k:
            raise InvalidParameterError(
                "triangle vertices must match the generator dimension")
        resolution = resolution or _DEFAULT_TRIANGLE_RESOLUTION
        cell = 1.0 / (resolution - 1)
        grid = (((uu, vv), domain.points(uu, vv)) for uu, vv in
                _triangle_grid(np.linspace(0.0, 1.0, resolution), 1.0 + ROUNDOFF_SLACK))
        value, params, witness = _grid_max(grid, matrix, m)
        if params is not None:
            refined = _grid_max(_triangle_vertices(matrix, domain, *params, cell), matrix, m)
            if refined is not None and (refined[1] is None or refined[0] > value):
                value, _, witness = refined
    else:
        raise InvalidParameterError(f"unknown domain type {type(domain).__name__}")

    # abs: -inf (every sampled codeword vanished) reads as infinite.
    return ExtendedHeight(abs(value), witness=witness)
