"""Exact m-heights: the configuration-LP family and the vertex-pool engine.

For a generator matrix ``G`` and target ``m``, the code's m-height is the
maximum over *configurations* of a small LP.  A configuration claims which
coordinate set ``X`` (``|X| = m``) holds the top-m magnitudes, which index
``a`` in ``X`` attains the maximum, which index ``b`` outside ``X`` attains
the (m+1)-th magnitude, and the signs of the top-m entries.  Normalizing the
(m+1)-th magnitude to one turns the height ratio into the linear objective

    maximize  signs[a] * (u . g_a)
    s.t.      u . g_b = 1
              signs[j] * (u . g_j) >= 1   for j in X
              -1 <= u . g_j <= 1          for j outside X and b

with the sign of coordinate ``b`` fixed to +1 (codewords come in +-c pairs,
so this loses nothing); an unbounded configuration certifies an infinite
height.

Each bounded optimum is a vertex ``u`` with ``u . g_j = +-1`` on ``k``
independent columns (Roth's configuration-LP view), and each such vertex
gives a genuine codeword ratio.  So for a full-row-rank ``G`` every finite
m-height is the largest ``c_(0) / c_(m)`` over one *vertex pool*, in time
polynomial in ``n`` for fixed ``k``.  Its independent ``k``-subsets and
the first infinite ``m`` come from one pass over the cross products of the
``(k-1)``-column subsets.  Pool rows come in ``+-u`` pairs, so
:func:`exact_profile` solves and sorts only the half with first sign
``+1``; two sweeps over the rows near the maximum and their partners find
every witness.  Each pass goes a bounded chunk at a time.  Only a
rank-deficient generator (no independent ``k``-subset) has no pool and
takes the reference engine, one configuration LP at a time, each by
basic-solution enumeration in :func:`_solve_lp`.
"""

from __future__ import annotations

import math
from itertools import combinations, product
from typing import Sequence

import numpy as np

from .codes import (CHUNK_ENTRIES, GeneratorMatrix, _prefix_minors,
                    canonical_direction, check_integer, column_subsets,
                    power_of_two_scaled, unit_columns)
from .errors import CapacityError, InvalidParameterError
from .heights import ExtendedHeight, MHeightProfile
from .tolerances import FEAS_TOL, NEAR_TOL, RANK_TOL, TIE_TOL

_MAX_DIM = 8
_MAX_ROWS = 10_000
#: Capacity guards.  The reference engine solves one LP per configuration;
#: the pool engine solves one ``k x k`` system per ``k``-subset of columns.
_MAX_REFERENCE_LPS = 100_000_000
_MAX_SUBSETS = 2_000_000

# Reference-solver floors, on unit-norm rows.
_ZERO_ROW = 1e-12       # a shorter row is zero
_DET_FLOOR = 1e-13      # |det| at or below it: a singular active subsystem
_POINT_CAP = 1e14       # a vertex candidate this large is discarded
_RAY_FLOOR = 1e-9       # null-direction norm, or relative singular value
_SVD_FLOOR = 1e-10      # relative singular value counted in the rank


def _vertex_candidates(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solutions of every nonsingular ``r x r`` active subsystem, stacked."""
    m_rows, r = A.shape
    if m_rows < r:
        return np.empty((0, r))
    idx = column_subsets(m_rows, r)
    blocks = A[idx]                               # (C, r, r)
    dets = np.abs(np.linalg.det(blocks))
    ok = dets > _DET_FLOOR
    if not ok.any():
        return np.empty((0, r))
    points = np.linalg.solve(blocks[ok], rhs[idx[ok]][..., None])[..., 0]
    finite = (np.all(np.isfinite(points), axis=1)
              & (np.max(np.abs(points), axis=1) < _POINT_CAP))
    return points[finite]


def _ray_candidates(A: np.ndarray, obj: np.ndarray) -> np.ndarray:
    """Null directions of every independent ``(r-1)``-row subsystem, stacked.

    Rank-deficient subsystems are skipped: an extreme ray always has some
    *independent* set of ``r - 1`` active rows, so it appears elsewhere.
    The (normalized) objective is appended as an extra candidate; every
    candidate is verified before use, so extras are harmless.
    """
    m_rows, r = A.shape
    if r == 1:
        return np.array([[1.0], [-1.0]])
    dirs: list[np.ndarray] = []
    if m_rows >= r - 1:
        idx = column_subsets(m_rows, r - 1)
        if r == 2:
            rows = A[idx[:, 0]]
            perp = np.column_stack([-rows[:, 1], rows[:, 0]])
            keep = np.linalg.norm(perp, axis=1) > _RAY_FLOOR
            dirs.append(perp[keep])
        elif r == 3:
            cross = np.cross(A[idx[:, 0]], A[idx[:, 1]])
            keep = np.linalg.norm(cross, axis=1) > _RAY_FLOOR
            dirs.append(cross[keep] / np.linalg.norm(cross[keep], axis=1, keepdims=True))
        else:
            for rows_idx in idx:
                block = A[rows_idx]
                _, s, vt = np.linalg.svd(block)
                if s[-1] <= _RAY_FLOOR * max(1.0, float(s[0])):
                    continue
                dirs.append(vt[r - 1][None, :])
    nrm = float(np.linalg.norm(obj))
    if nrm > _ZERO_ROW:
        dirs.append((obj / nrm)[None, :])
    if not dirs:
        return np.empty((0, r))
    stacked = np.vstack(dirs)
    return np.vstack([stacked, -stacked])


def _satisfied(residuals: np.ndarray, is_eq: np.ndarray) -> np.ndarray:
    """Rows whose residuals meet every constraint to within ``FEAS_TOL``."""
    return (np.all(np.abs(residuals[:, is_eq]) <= FEAS_TOL, axis=1)
            & np.all(residuals[:, ~is_eq] >= -FEAS_TOL, axis=1))


def _enumerate_core(A: np.ndarray, rhs: np.ndarray, is_eq: np.ndarray,
                    obj: np.ndarray) -> tuple[float, np.ndarray] | None:
    """Solve a full-row-rank-reduced LP by basic-solution enumeration.

    Preconditions: rows span the whole (reduced) space, so the feasible set
    is pointed and -- when nonempty -- has a vertex; every unbounded problem
    has an improving extreme ray with ``dim - 1`` active rows.
    """
    points = _vertex_candidates(A, rhs)
    if points.shape[0] == 0:
        return None

    feasible = _satisfied(points @ A.T - rhs, is_eq)
    if not feasible.any():
        return None

    vals = points[feasible] @ obj
    best = int(np.argmax(vals))
    best_val = float(vals[best])
    best_point = points[feasible][best]

    rays = _ray_candidates(A, obj)
    if rays.shape[0]:
        improving = (rays @ obj > FEAS_TOL) & _satisfied(rays @ A.T, is_eq)
        if improving.any():
            return math.inf, rays[int(np.flatnonzero(improving)[0])]

    return best_val, best_point


def _solve_lp(rows: np.ndarray, rhs: np.ndarray, n_eq: int,
              objective: np.ndarray) -> tuple[float, np.ndarray] | None:
    """Maximize ``objective . u`` over ``rows[i] . u = rhs[i]`` for the first
    ``n_eq`` rows and ``rows[i] . u >= rhs[i]`` for the rest.

    Returns ``(value, point)`` at an optimum, ``(inf, ray)`` along an
    improving feasible ray, or None if infeasible.  Rows are scaled to unit
    norm; a zero row is dropped, or makes the LP infeasible if its
    right-hand side cannot be met (``0 . u = 1``, say).
    """
    is_eq = np.arange(len(rows)) < n_eq
    norms = np.array([np.linalg.norm(row) for row in rows])
    keep = norms > _ZERO_ROW
    if (np.where(is_eq, np.abs(rhs), rhs)[~keep] > FEAS_TOL).any():
        return None
    A, rhs, is_eq = rows[keep] / norms[keep, None], rhs[keep] / norms[keep], is_eq[keep]

    if A.shape[0] == 0:
        nrm = float(np.linalg.norm(objective))
        if nrm > _ZERO_ROW:
            return math.inf, objective / nrm
        return 0.0, np.zeros(len(objective))

    # Reduce to the span of the constraint rows.  Directions orthogonal to
    # every row are free: if the objective has such a component the problem
    # is unbounded as soon as it is feasible, otherwise the optimization
    # lives entirely inside the row space and becomes pointed there.
    _, svals, vt = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(svals > _SVD_FLOOR * max(1.0, float(svals[0]))))
    basis = vt[:rank].T                      # (dim, rank)
    obj_in = basis.T @ objective
    obj_out = objective - basis @ obj_in

    A_red = A @ basis                        # row norms are preserved
    if float(np.linalg.norm(obj_out)) > FEAS_TOL:
        if _enumerate_core(A_red, rhs, is_eq, np.zeros(rank)) is None:
            return None
        return math.inf, obj_out / np.linalg.norm(obj_out)

    result = _enumerate_core(A_red, rhs, is_eq, obj_in)
    return None if result is None else (result[0], basis @ result[1])


# ---------------------------------------------------------------------------
# Vertex-pool engine


def _flat_direction(unit: np.ndarray) -> tuple[np.ndarray, int, np.ndarray | None]:
    """Independent ``k``-subsets in ``combinations`` order (|det| above
    ``RANK_TOL``), and the most zeros of a nonzero codeword with its ``u``.

    Such a ``u`` is the cross product of ``k - 1`` independent columns (norm
    above ``RANK_TOL``); its zeros are the ``j`` with |det| at most ``RANK_TOL``.
    """
    good, most, flat = [], -1, None
    for chunk, after, cross, dets in _prefix_minors(unit):
        independent = dets > RANK_TOL
        s, j = np.nonzero(independent & after)
        good.append(np.column_stack([chunk[s], j]))
        zeros = np.where(np.linalg.norm(cross, axis=0) > RANK_TOL,
                         unit.shape[1] - independent.sum(axis=1), -1)
        best = int(np.argmax(zeros))
        if zeros[best] > most:
            most, flat = int(zeros[best]), cross[:, best]
    return np.concatenate(good), most, flat


def _group_firsts(*keys: np.ndarray) -> np.ndarray:
    """In ``np.lexsort(keys)`` order, the first row of each last-key value."""
    order = np.lexsort(keys)
    group = keys[-1][order]
    return np.concatenate([order[:1], order[1:][group[1:] != group[:-1]]])


def _pool_heights(mat: np.ndarray, subsets: np.ndarray,
                  ms: Sequence[int]) -> list[tuple[float, np.ndarray]]:
    """``(height, witness)`` at each finite ``m`` in ``ms``, by one sorted pass.

    The half pool is every ``u`` with first sign ``+1`` and ``u . g_j = +-1``
    on the ``k``-subsets ``subsets``, solved a chunk of subsets at a time;
    rows within ``NEAR_TOL`` of the running maximum ratio are kept.  The
    witness is the configuration-LP optimum over the kept rows and their
    partners ``0.0 - u`` in full-pool order: the lexicographically
    first top set ``X`` feasible for a row tied with the maximum, then the
    first row feasible for ``X`` whose largest magnitude on ``X`` is
    greatest, which is the value.  Each sweep makes a row's magnitude tests
    once, not once per ``m``.
    """
    k, n = mat.shape
    h = 1 << (k - 1)
    signs = np.array(list(product((-1.0, 1.0), repeat=k)))[h:]
    ms = np.asarray(ms)
    best = np.full(len(ms), -np.inf)
    kept = []
    step = max(1, CHUNK_ENTRIES // (2 * h * n))
    for start in range(0, len(subsets), step):
        blocks = mat.T[subsets[start:start + step]]
        sols = np.linalg.solve(blocks, np.broadcast_to(signs.T, (len(blocks), k, h)))
        cands = sols.transpose(0, 2, 1).reshape(-1, k)
        code = cands @ mat
        mags = np.sort(np.abs(code), axis=1)
        with np.errstate(divide="ignore"):
            ratios = mags[:, n - 1:] / mags[:, n - 1 - ms]
        best = np.maximum(best, ratios.max(axis=0))
        near = np.flatnonzero((ratios >= best * (1.0 - NEAR_TOL)).any(axis=1))
        if near.size:
            # Row b * h + j is sign vector h + j of subset b; its partner,
            # sign vector h - 1 - j, comes before it in the full pool.
            place = near + h * (near // h + 1)
            order = np.argsort(np.concatenate([place + 2 * h - 1 - 2 * (place % (2 * h)),
                                               place]))
            kept.append((order, np.hstack([cands[near], code[near]]), ratios[near]))
    tol = FEAS_TOL * np.linalg.norm(mat, axis=0)

    def chunks():
        """Rows in full-pool order, with magnitude tests: above ``1 + tol``,
        within ``tol`` of 1, and within ``tol`` of ``+1``."""
        for order, rows, ratios in kept:
            rows = np.concatenate([0.0 - rows, rows])[order]
            mags = np.abs(rows[:, k:])
            big = mags > 1.0 + tol
            yield (rows[:, :k], ratios[order % len(ratios)], mags, big,
                   (mags >= 1.0 - tol) & ~big, np.abs(rows[:, k:] - 1.0) <= tol)

    pairs = max(1, CHUNK_ENTRIES // n)          # (row, m) pairs per batch
    first_tied = np.full((len(ms), k), np.nan)
    has, packed = np.empty(0, np.intp), np.empty((0, (n + 7) // 8), np.uint8)
    for cands, ratios, mags, big, mid, one in chunks():
        tied = ratios >= best * (1.0 - TIE_TOL)
        new = tied.any(axis=0) & np.isnan(first_tied[:, 0])
        first_tied[new] = cands[tied.argmax(axis=0)[new]]
        # A row's first X holds its magnitudes above 1 + tol and its first
        # near-unit ones; if those take every +1 entry, the last of them
        # gives way to the next near-unit index.
        r, i = np.nonzero(tied & np.isfinite(best))
        room = ms[i] - big.sum(axis=1)[r]
        ok = one.any(axis=1)[r] & (room >= 0) & (room < mid.sum(axis=1)[r])
        r, i, room = r[ok], i[ok], room[ok, None]
        rank = np.cumsum(mid, axis=1)
        last = n - 1 - np.argmax(one[:, ::-1], axis=1)
        for s in range(0, len(r), pairs):
            rs, ro = r[s:s + pairs], room[s:s + pairs]
            top = big[rs] | (mid[rs] & (rank[rs] <= ro))
            full = ~(one[rs] & ~top).any(axis=1)
            top[np.flatnonzero(full), last[rs[full]]] = False
            top |= full[:, None] & mid[rs] & (rank[rs] == ro + 1)
            # A set is lexicographically first when its complement mask is.
            has = np.concatenate([has, i[s:s + pairs]])
            packed = np.concatenate([packed, np.packbits(~top, axis=1)])
            first = _group_firsts(*packed.T[::-1], has)
            has, packed = has[first], packed[first]
    tops = ~np.unpackbits(packed, axis=1, count=n).astype(bool)
    on_top = tops.T.astype(float)

    # Where no tied row passes the tolerance tests, the first one answers.
    heights = [(float(best[c]), first_tied[c]) for c in range(len(ms))]
    value = np.full(len(has), -np.inf)
    for cands, ratios, mags, big, mid, one in chunks():
        # Feasible for X: near, magnitudes >= 1 - tol on X and <= 1 + tol
        # off it, and a +1 off it.  Off X, ``score`` sums to >= 1 iff there
        # is a +1 and nothing above 1 + tol.
        score = one - (n + 1.0) * big
        feasible = ((ratios[:, has] >= best[has] * (1.0 - NEAR_TOL))
                    & (~(big | mid) @ on_top == 0)
                    & (score.sum(axis=1)[:, None] - score @ on_top >= 1))
        c, r = np.nonzero(feasible.T)
        for s in range(0, len(r), pairs):
            cs, rs = c[s:s + pairs], r[s:s + pairs]
            local = np.where(tops[cs], mags[rs], 0.0).max(axis=1)
            first = _group_firsts(rs, -local, cs)       # per X, first greatest
            first = first[local[first] > value[cs[first]]]
            value[cs[first]] = local[first]
            for j in first:
                heights[has[cs[j]]] = (float(local[j]), cands[rs[j]].copy())
    return heights


def _mheight_pool(generator: GeneratorMatrix,
                  ms: Sequence[int]) -> list[ExtendedHeight] | None:
    """Heights at ``ms`` from the vertex pool, or None for a rank-deficient
    ``G`` (no independent ``k``-subset).

    ``G`` is rescaled by a power of two (exact) and independence is decided
    on unit columns, so no decision depends on scale.  Infinite heights
    start at ``m = n - z``, ``z`` being the most zeros of a nonzero
    codeword; an MDS code has ``z = k - 1``.
    """
    k, n = generator.k, generator.n
    mat, exponent = power_of_two_scaled(generator.matrix)
    subsets, zeros, flat = _flat_direction(unit_columns(mat))
    if not len(subsets):
        return None
    mds = len(subsets) == math.comb(n, k)
    finite = [m for m in ms if m < n - (k - 1 if mds else zeros)]
    found = dict(zip(finite, _pool_heights(mat, subsets, finite) if finite else ()))
    heights = []
    for m in ms:
        if m in found:
            value, u = found[m]
            heights.append(ExtendedHeight(value, witness=np.ldexp(u, -exponent)))
            continue
        # Columns m .. n-1, fewer than k of them, share a null direction.
        ray = canonical_direction(np.linalg.svd(mat[:, m:])[0][:, -1]
                                  if m >= n - k + 1 else flat)
        heights.append(ExtendedHeight(math.inf, witness=tuple(ray)))
    return heights


def _mheight_reference(generator: GeneratorMatrix, m: int) -> ExtendedHeight:
    """Literal per-configuration solve through :func:`_solve_lp`.

    Configurations run over the top set, its signs, ``a`` and then ``b``.
    Each LP's rows are ``g_b`` (the equality), the signed top columns, and
    ``+g_j``, ``-g_j`` for every other ``j``.
    """
    n, k = generator.n, generator.k
    if math.comb(n, m) * m * 2**m * (n - m) > _MAX_REFERENCE_LPS:
        raise CapacityError(
            f"configuration family for n={n}, m={m} is too large "
            "to solve one LP at a time")
    if 2 * n - m - 1 > _MAX_ROWS:
        raise CapacityError(f"{2 * n - m - 1} constraints exceed limit {_MAX_ROWS}")
    cols = generator.columns
    rhs = np.repeat([1.0, -1.0], [1 + m, 2 * (n - m - 1)])
    best_val, best_point = -math.inf, None
    for top in combinations(range(n), m):
        rest = [j for j in range(n) if j not in top]
        others = [cols[rest[:i] + rest[i + 1:]] for i in range(len(rest))]
        boxes = [np.stack([g, -g], axis=1).reshape(-1, k) for g in others]
        for signs in product((1.0, -1.0), repeat=m):
            signed = np.array(signs)[:, None] * cols[list(top)]
            for i in range(m):
                for b, box in zip(rest, boxes):
                    rows = np.vstack([cols[b], signed, box])
                    # An infeasible configuration reads as -inf.
                    value, u = _solve_lp(rows, rhs, 1, signed[i]) or (-math.inf, None)
                    if value == math.inf:
                        return ExtendedHeight(value, witness=tuple(canonical_direction(u)))
                    if value > best_val + TIE_TOL:
                        best_val, best_point = value, u
    if best_point is None:
        # Any codeword with m+1 nonzero entries scales into some feasible
        # configuration, so every nonzero codeword has at most m of them:
        # its (m+1)-th order statistic is zero.
        j = int(np.argmax(np.linalg.norm(cols, axis=1)))
        if not cols[j].any():
            raise InvalidParameterError(
                "no configuration is feasible; the generator has no nonzero codeword")
        return ExtendedHeight(math.inf, witness=tuple(canonical_direction(cols[j])))
    return ExtendedHeight(best_val, witness=best_point)


def _heights(generator: GeneratorMatrix, ms: Sequence[int]) -> list[ExtendedHeight]:
    k, n = generator.k, generator.n
    if k > _MAX_DIM:
        raise CapacityError(f"LP dimension {k} exceeds limit {_MAX_DIM}")
    if math.comb(n, k) > _MAX_SUBSETS:
        raise CapacityError(
            f"vertex pool over the {k}-subsets of n={n} columns is too large")
    heights = _mheight_pool(generator, ms)
    if heights is None:
        heights = [_mheight_reference(generator, m) for m in ms]
    return heights


def exact_mheight(generator: GeneratorMatrix, m: int) -> ExtendedHeight:
    """Exact m-height of the code, as the max over all configuration LPs.

    It is read from the vertex pool; only a rank-deficient ``G`` (no
    independent ``k``-subset) takes the reference engine, which solves each
    configuration LP.  The witness is a maximizing information vector, or a
    direction whose codeword has a zero (m+1)-th order statistic.
    """
    check_integer("m", m, 1, generator.n - 1)
    return _heights(generator, [m])[0]


def exact_profile(generator: GeneratorMatrix) -> MHeightProfile:
    """m-heights for every ``m`` in ``[1, n-1]``, from one pass over the pool."""
    heights = _heights(generator, range(1, generator.n))
    return MHeightProfile(generator.family, tuple(heights))
