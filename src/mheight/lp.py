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
``+1``; the rows near the maximum and their partners are kept as entry
classes, and two sweeps over them find every witness.  Each pass goes a
bounded chunk at a time.  Only a rank-deficient generator has no pool and
takes the reference engine, one configuration LP at a time, each by
basic-solution enumeration in :func:`_solve_lp`.  Both engines run on ``G``
rescaled by one power of two in :func:`_heights`, so neither sees its scale.
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

_KEY_BITS = 52          # columns per float64 word of a top set's key
#: Witness weights per entry class (small, near-unit, big, +1) off the top set,
#: then on it (at ``_SIDE``).  A feasible row (nothing small on the set, nothing
#: big off it) sums to its count of +1 entries off the set, any other below 0.
_CLASS_WEIGHTS = np.array([0.0, 0.0, -2.0**40, 1.0, -2.0**40, 0.0, 0.0, 0.0])
_SIDE = np.array([0, 4], np.int8)[:, None, None]
#: Per ``k``, the sign vectors with first sign +1, in ``product`` order.
_HALF_SIGNS = [np.array(list(product((-1.0, 1.0), repeat=k)))[(1 << k) // 2:]
               for k in range(_MAX_DIM + 1)]


def _vertex_candidates(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solutions of every nonsingular ``r x r`` active subsystem, stacked."""
    m_rows, r = A.shape
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
    if r == 2:
        perp = np.column_stack([-A[:, 1], A[:, 0]])
        keep = np.linalg.norm(perp, axis=1) > _RAY_FLOOR
        dirs.append(perp[keep])
    elif r == 3:
        idx = column_subsets(m_rows, 2)
        cross = np.cross(A[idx[:, 0]], A[idx[:, 1]])
        keep = np.linalg.norm(cross, axis=1) > _RAY_FLOOR
        dirs.append(cross[keep] / np.linalg.norm(cross[keep], axis=1, keepdims=True))
    else:
        for rows_idx in column_subsets(m_rows, r - 1):
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
    right-hand side cannot be met (``0 . u = 1``, say).  A configuration LP's
    objective is one of its rows, so it lies in their span, which is all
    this solver handles.
    """
    is_eq = np.arange(len(rows)) < n_eq
    norms = np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])
    keep = norms > _ZERO_ROW
    if not keep.all() and (np.where(is_eq, np.abs(rhs), rhs)[~keep] > FEAS_TOL).any():
        return None
    A, rhs, is_eq = rows[keep] / norms[keep, None], rhs[keep] / norms[keep], is_eq[keep]

    # Reduce to the span of the rows, where the feasible set is pointed.
    _, svals, vt = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(svals > _SVD_FLOOR * max(1.0, float(svals[0]))))
    basis = vt[:rank].T                      # (dim, rank)
    result = _enumerate_core(A @ basis, rhs, is_eq, basis.T @ objective)
    return None if result is None else (result[0], basis @ result[1])


# ---------------------------------------------------------------------------
# Vertex-pool engine


def _flat_direction(unit: np.ndarray) -> tuple[np.ndarray, int, np.ndarray | None]:
    """Independent ``k``-subsets in ``combinations`` order (|det| above
    ``RANK_TOL``), and for a non-MDS code the most zeros of a nonzero codeword
    with its ``u`` (-1 and None for an MDS code, which has ``k - 1``).

    Such a ``u`` is the cross product of ``k - 1`` independent columns (norm
    above ``RANK_TOL``); its zeros, counted from the first chunk with a dependent
    ``k``-subset on, are the ``j`` with |det| at most ``RANK_TOL``.
    """
    good, most, flat, dependent = [], -1, None, False
    for chunk, after, cross, dets in _prefix_minors(unit):
        independent = dets > RANK_TOL
        s, j = (independent & after).nonzero()
        good.append(np.concatenate([chunk[s], j[:, None]], axis=1))
        dependent = dependent or len(s) < np.count_nonzero(after)
        if dependent:
            zeros = np.where(np.sqrt(np.add.reduce(cross * cross)) > RANK_TOL,
                             unit.shape[1] - np.add.reduce(independent, axis=1), -1)
            best = int(np.argmax(zeros))
            if zeros[best] > most:
                most, flat = int(zeros[best]), cross[:, best]
    return np.concatenate(good), most, flat


def _pool_heights(mat: np.ndarray, subsets: np.ndarray,
                  ms: Sequence[int]) -> list[tuple[float, np.ndarray]]:
    """``(height, witness)`` at each finite ``m`` in ``ms``, by one sorted pass.

    The half pool is every ``u`` with first sign ``+1`` and ``u . g_j = +-1``
    on the ``k``-subsets ``subsets``, solved a chunk of subsets at a time.
    Rows within ``NEAR_TOL`` of the running maximum ratio are kept with their
    partners ``0.0 - u`` as entry classes, a column per row, and magnitudes, a
    column per pair: class 0 below ``1 - tol``, 1 near-unit, 2 above ``1 +
    tol``, 3 within ``tol`` of ``+1``.  The witness is the configuration-LP
    optimum, ties going to the row first in full-pool order (``place``): the
    lexicographically first top set ``X`` feasible for a tied row, then the
    first feasible row whose largest magnitude on ``X``, the value, is greatest.
    """
    k, n = mat.shape
    h = 1 << (k - 1)
    ms = np.asarray(ms)
    tol = FEAS_TOL * np.sqrt(np.add.reduce(mat * mat))[:, None]
    best, kept = np.full(len(ms), -np.inf), []
    step = max(1, CHUNK_ENTRIES // (2 * h * n))
    for start in range(0, len(subsets), step):
        blocks = mat.T[subsets[start:start + step]]
        sols = np.linalg.solve(blocks, np.broadcast_to(_HALF_SIGNS[k].T, (len(blocks), k, h)))
        cands = sols.transpose(0, 2, 1).reshape(-1, k)
        code = cands @ mat
        mags = np.sort(np.abs(code), axis=1)
        with np.errstate(divide="ignore"):
            ratios = mags[:, n - 1].copy() / mags.T[n - 1 - ms]
        best = np.maximum(best, ratios.max(axis=1))
        near = (ratios >= best[:, None] * (1.0 - NEAR_TOL)).any(axis=0).nonzero()[0]
        if near.size:
            # Row b * h + j is sign vector h + j of subset b; its partner,
            # sign vector h - 1 - j, comes before it in the full pool.
            b, j = np.divmod(near, h)
            place, u, code = 2 * h * (b + start) + h, cands[near], code[near].T.copy()
            mags = np.abs(code)                 # a partner's magnitudes are its row's
            cls = np.add(mags >= 1.0 - tol, mags > 1.0 + tol, dtype=np.int8)
            one = np.abs(np.concatenate([code, 0.0 - code], axis=1) - 1.0) <= tol
            cls = np.concatenate([cls, cls], axis=1) + one.view(np.int8) * 2
            kept.append((np.concatenate([u, 0.0 - u]), np.concatenate([place + j, place - 1 - j]),
                         ratios[:, near], mags, cls))

    # Sweep 1: a row's first X is its big entries and first ``room`` near-unit
    # ones, the last +1 among them giving way to the next if they hold every
    # +1: the first ``room + 1`` but one.  Its key (bit j at 2**-j) is largest.
    col = np.arange(n)
    word, power = col // _KEY_BITS, 2.0 ** (_KEY_BITS - 1 - col % _KEY_BITS)
    weight = np.where(word == np.arange(word[-1] + 1)[:, None], power, 0.0)
    key = np.full((len(weight), len(ms)), -1.0)
    live = np.where(np.isfinite(best), best * (1.0 - TIE_TOL), np.nan)[:, None]  # none for inf
    pairs = max(1, CHUNK_ENTRIES // n)          # (row, m) pairs per batch
    for u, place, ratios, mags, cls in kept:
        mid = cls & 1
        count = mid.astype(float)               # near-unit entries up to each,
        for j in range(1, n):                   # summed row by row: np.cumsum on
            count[j] += count[j - 1]            # axis 0 strides down the columns
        last = count.max(axis=0, where=cls == 3, initial=0.0)
        rank = np.where(cls == 0, n + 1.0, count * mid)
        room = ms[:, None] + 1 - np.add.reduce(cls == 2, axis=0)
        i, r = (np.concatenate([ratios >= live] * 2, axis=1) & (last > 0.0)
                & (room > 0) & (room <= count[-1])).nonzero()
        room, last = room[i, r], np.minimum(last[r], room[i, r])
        for s in range(0, len(r), pairs):
            at = rank[:, r[s:s + pairs]]
            top = (at <= room[s:s + pairs]) & (at != last[s:s + pairs])
            words = np.concatenate([key, weight @ top], axis=1)
            group = np.concatenate([np.arange(len(ms)), i[s:s + pairs]])
            for w in range(len(key)):           # the largest key per m, word by word
                keep = words[w - 1] == key[w - 1, group] if w else slice(None)
                words, group, key[w] = words[:, keep], group[keep], -1.0
                np.maximum.at(key[w], group, words[w])
    has = (key[0] >= 0.0).nonzero()[0]
    tops = key[word][:, has] % (2.0 * power[:, None]) >= power[:, None]

    # Sweep 2: each X's first greatest near feasible row, as value, place, row.
    sides, sets = np.concatenate([~tops, tops]).astype(float), np.arange(len(has))
    value, front = np.full(len(has), -np.inf), np.full(len(has), np.inf)
    row = np.empty((len(has), k))
    for u, place, ratios, mags, cls in kept:
        near = ratios[has] >= best[has, None] * (1.0 - NEAR_TOL)
        sums = sides.T @ _CLASS_WEIGHTS.take(cls + _SIDE).reshape(2 * n, -1)
        c, r = (np.concatenate([near, near], axis=1) & (sums >= 1.0)).nonzero()
        for s in range(0, len(r), pairs):
            cs, rs = c[s:s + pairs], r[s:s + pairs]
            local = np.where(tops[:, cs], mags[:, rs % mags.shape[1]], 0.0).max(axis=0)
            value = np.concatenate([value, local])
            front, row = np.concatenate([front, place[rs]]), np.concatenate([row, u[rs]])
            order = np.lexsort((front, -value, np.concatenate([sets, cs])))
            first = order[np.searchsorted(np.concatenate([sets, cs])[order], sets)]
            value, front, row = value[first], front[first], row[first]
    values, witness, done = best.copy(), np.full((len(ms), k), np.nan), front < np.inf
    values[has[done]], witness[has[done]] = value[done], row[done]

    # Where no tied row passes the tolerance tests, the first tied one answers.
    lost = np.isnan(witness[:, 0])
    for u, place, ratios, _, _ in kept if lost.any() else ():
        tied = ratios >= best[:, None] * (1.0 - TIE_TOL)
        first = np.where(np.concatenate([tied, tied], axis=1), place, np.inf).argmin(axis=1)
        new = lost & tied.any(axis=1)
        witness[new], lost = u[first[new]], lost & ~new
    return list(zip(values.tolist(), witness))


def _mheight_pool(mat: np.ndarray,
                  ms: Sequence[int]) -> list[tuple[float, Sequence[float]]] | None:
    """``(height, witness)`` at ``ms`` from the vertex pool, or None for a
    rank-deficient ``G`` (no independent ``k``-subset).

    Independence is decided on unit columns, so no decision depends on
    scale.  Infinite heights start at ``m = n - z``, ``z`` being the most
    zeros of a nonzero codeword; an MDS code has ``z = k - 1``.
    """
    k, n = mat.shape
    subsets, zeros, flat = _flat_direction(unit_columns(mat))
    if not len(subsets):
        return None
    mds = len(subsets) == math.comb(n, k)
    finite = [m for m in ms if m < n - (k - 1 if mds else zeros)]
    found = dict(zip(finite, _pool_heights(mat, subsets, finite) if finite else ()))
    # Columns m .. n-1, fewer than k of them, share a null direction.
    return [found.get(m) or (math.inf, canonical_direction(
        np.linalg.svd(mat[:, m:])[0][:, -1] if m >= n - k + 1 else flat).tolist()) for m in ms]


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
    """Heights at ``ms``, each engine run on ``G`` rescaled by a power of two."""
    k, n = generator.k, generator.n
    if k > _MAX_DIM:
        raise CapacityError(f"LP dimension {k} exceeds limit {_MAX_DIM}")
    if math.comb(n, k) > _MAX_SUBSETS:
        raise CapacityError(
            f"vertex pool over the {k}-subsets of n={n} columns is too large")
    mat, exponent = power_of_two_scaled(generator.matrix)
    pairs = _mheight_pool(mat, ms)
    if pairs is None:
        scaled = GeneratorMatrix(mat, generator.family)
        pairs = [(h.value, h.witness) for h in (_mheight_reference(scaled, m) for m in ms)]
    # Undo the scaling, by a smaller power of two where it would overflow.
    rows = np.array([u for v, u in pairs if v < math.inf]).reshape(-1, k)
    room = 1024 - np.frexp(np.abs(rows).max(axis=1, initial=0.0))[1]
    rows = iter(np.ldexp(rows, np.minimum(-exponent, room)[:, None]).tolist())
    return [ExtendedHeight(v, witness=next(rows) if v < math.inf else u) for v, u in pairs]


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
