"""The vertex-pool witness loop as it stood before the half-sign pool.

It solves every sign vector of every ``k``-subset and re-scans the kept
rows once per ``m``; the tests compare :func:`mheight.lp._pool_heights`
with it.  The two functions below are kept verbatim.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Sequence

import numpy as np

from mheight.codes import CHUNK_ENTRIES
from mheight.lp import FEAS_TOL, NEAR_TOL as _NEAR_TOL, TIE_TOL as _TIE_TOL


def _first_top_set(code: np.ndarray, tol: np.ndarray, m: int) -> tuple[int, ...] | None:
    """Lexicographically first ``X`` (``|X| = m``) for which a row is feasible.

    Feasible means the configuration LPs' tests: magnitudes ``>= 1 - tol``
    on ``X`` and ``<= 1 + tol`` off it, with some entry off ``X`` equal to
    ``+1``.  A row's first ``X`` holds its magnitudes above ``1 + tol`` and
    its first near-unit ones; if those take every ``+1`` entry, the last of
    them gives way to the next near-unit index.
    """
    mags = np.abs(code)
    big = mags > 1.0 + tol
    mid = (mags >= 1.0 - tol) & ~big
    one = np.abs(code - 1.0) <= tol
    room = m - big.sum(axis=1)
    ok = one.any(axis=1) & (room >= 0) & (room < mid.sum(axis=1))
    if not ok.any():
        return None
    big, mid, one, room = big[ok], mid[ok], one[ok], room[ok, None]
    rank = np.cumsum(mid, axis=1)
    top = big | (mid & (rank <= room))
    full = ~(one & ~top).any(axis=1)
    rows = np.flatnonzero(full)
    top[rows, code.shape[1] - 1 - np.argmax(one[rows, ::-1], axis=1)] = False
    top |= full[:, None] & mid & (rank == room + 1)
    sets = np.nonzero(top)[1].reshape(-1, m)
    return tuple(int(j) for j in sets[np.lexsort(sets.T[::-1])[0]])


def _pool_heights(mat: np.ndarray, subsets: np.ndarray,
                  ms: Sequence[int]) -> list[tuple[float, np.ndarray]]:
    """``(height, witness)`` at each finite ``m`` in ``ms``, by one sorted pass.

    The pool is every ``u`` with ``u . g_j = +-1`` on the ``k``-subsets
    ``subsets``, in ``combinations`` x ``product`` order, formed and sorted a
    bounded chunk at a time; rows within ``_NEAR_TOL`` of the running
    maximum ratio are kept.  The witness is the configuration-LP optimum:
    the lexicographically first top set ``X`` feasible for a row tied with
    the maximum, then the first kept row feasible for ``X`` whose largest
    magnitude on ``X`` is greatest, which is the value.
    """
    k, n = mat.shape
    signs = np.array(list(product((-1.0, 1.0), repeat=k)))
    den = n - 1 - np.asarray(ms)
    best = np.full(len(ms), -np.inf)
    kept = []
    step = max(1, CHUNK_ENTRIES // (len(signs) * n))
    for start in range(0, len(subsets), step):
        blocks = mat.T[subsets[start:start + step]]
        sols = np.linalg.solve(blocks, np.broadcast_to(
            signs.T, (len(blocks), k, len(signs))))
        cands = sols.transpose(0, 2, 1).reshape(-1, k)
        code = cands @ mat
        mags = np.sort(np.abs(code), axis=1)
        with np.errstate(divide="ignore"):
            ratios = mags[:, n - 1:] / mags[:, den]
        best = np.maximum(best, ratios.max(axis=0))
        near = (ratios >= best * (1.0 - _NEAR_TOL)).any(axis=1)
        kept.append((cands[near], code[near], ratios[near]))
    cands, code, ratios = (np.concatenate(parts) for parts in zip(*kept))

    tol = FEAS_TOL * np.linalg.norm(mat, axis=0)
    heights = []
    for i, m in enumerate(ms):
        rmax = float(best[i])
        near = np.flatnonzero(ratios[:, i] >= rmax * (1.0 - _NEAR_TOL))
        tied = near[ratios[near, i] >= rmax * (1.0 - _TIE_TOL)]
        top = None if math.isinf(rmax) else _first_top_set(code[tied], tol, m)
        if top is None:             # no tied row passes the tolerance tests
            heights.append((rmax, cands[tied[0]]))
            continue
        x, rest = list(top), [j for j in range(n) if j not in top]
        mags = np.abs(code[near])
        feasible = near[(mags[:, x] >= 1.0 - tol[x]).all(axis=1)
                        & (mags[:, rest] <= 1.0 + tol[rest]).all(axis=1)
                        & (np.abs(code[near][:, rest] - 1.0) <= tol[rest]).any(axis=1)]
        local = np.abs(code[np.ix_(feasible, x)]).max(axis=1)
        heights.append((float(local.max()), cands[feasible[int(np.argmax(local))]]))
    return heights

