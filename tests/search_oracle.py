"""The domain-search grid stage as it stood before the chunked grid pass.

It builds the whole grid at once (the triangle by meshgrid and mask, its
points by outer products), evaluates every point in one array pass and
refines with a fresh array per objective call; the tests compare
:func:`mheight.search.domain_search` with it bit for bit.  The functions
below are kept verbatim, apart from ``TriangleDomain.points``, which is a
plain function here.
"""

from __future__ import annotations

import math

import numpy as np

from mheight.codes import GeneratorMatrix
from mheight.heights import ExtendedHeight
from mheight.search import (_REFINE_SWEEPS, ArcDomain, TriangleDomain,
                            _golden_max)
from mheight.tolerances import ROUNDOFF_SLACK


def _points(domain: TriangleDomain, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    a, b, c = np.array(domain.v1), np.array(domain.v2), np.array(domain.v3)
    w = 1.0 - us - vs
    return np.outer(us, a) + np.outer(vs, b) + np.outer(w, c)


def _ratio_batch(points: np.ndarray, matrix: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-point ``(ratio, numerator, denominator)`` of the height objective."""
    mags = np.abs(points @ matrix)
    mags.sort(axis=1)
    num = mags[:, -1]
    den = mags[:, -1 - m]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(den > 0.0, num / den, np.where(num > 0.0, np.inf, -np.inf))
    return ratios, num, den


def _ratio_at(point: np.ndarray, matrix: np.ndarray, m: int) -> float:
    """:func:`_ratio_batch`'s ratio for one ``(1, k)`` point row, with the
    same arithmetic but without the array bookkeeping of a batch."""
    mags = np.abs(point @ matrix)[0]
    mags.sort()
    num, den = mags[-1], mags[-1 - m]
    if den > 0.0:
        return float(num / den)
    return math.inf if num > 0.0 else -math.inf


def _search_arc(generator: GeneratorMatrix, m: int, domain: ArcDomain,
                resolution: int) -> ExtendedHeight:
    matrix = generator.matrix
    alphas = np.linspace(0.0, domain.upper, resolution)
    dirs = np.column_stack([np.cos(alphas), np.sin(alphas)])
    ratios, num, den = _ratio_batch(dirs, matrix, m)

    exact_inf = (den == 0.0) & (num > 0.0)
    if exact_inf.any():
        i = int(np.flatnonzero(exact_inf)[0])
        return ExtendedHeight(math.inf, witness=tuple(dirs[i]))

    best = int(np.argmax(ratios))
    best_alpha = float(alphas[best])
    best_val = float(ratios[best])

    def f(alpha: float) -> float:
        return _ratio_at(np.array([[math.cos(alpha), math.sin(alpha)]]), matrix, m)

    step = domain.upper / (resolution - 1)
    lo = max(0.0, best_alpha - step)
    hi = min(domain.upper, best_alpha + step)
    x, fx = _golden_max(f, lo, hi)
    if fx > best_val:
        best_val, best_alpha = fx, x
    # abs: -inf (every sampled codeword vanished) reads as infinite.
    return ExtendedHeight(abs(best_val),
                          witness=(math.cos(best_alpha), math.sin(best_alpha)))


def _search_triangle(generator: GeneratorMatrix, m: int, domain: TriangleDomain,
                     resolution: int) -> ExtendedHeight:
    matrix = generator.matrix
    line = np.linspace(0.0, 1.0, resolution)
    uu, vv = np.meshgrid(line, line)
    uu, vv = uu.ravel(), vv.ravel()
    keep = uu + vv <= 1.0 + ROUNDOFF_SLACK
    uu, vv = uu[keep], vv[keep]
    pts = _points(domain, uu, vv)
    ratios, num, den = _ratio_batch(pts, matrix, m)

    exact_inf = (den == 0.0) & (num > 0.0)
    if exact_inf.any():
        i = int(np.flatnonzero(exact_inf)[0])
        return ExtendedHeight(math.inf, witness=tuple(pts[i]))

    best = int(np.argmax(ratios))
    bu, bv = float(uu[best]), float(vv[best])
    best_val = float(ratios[best])

    def f(u: float, v: float) -> float:
        return _ratio_at(domain.point(u, v)[None, :], matrix, m)

    cell = 1.0 / (resolution - 1)
    for _ in range(_REFINE_SWEEPS):
        lo = max(0.0, bu - cell)
        hi = min(1.0 - bv, bu + cell)
        if hi > lo:
            bu, _ = _golden_max(lambda t: f(t, bv), lo, hi)
        lo = max(0.0, bv - cell)
        hi = min(1.0 - bu, bv + cell)
        if hi > lo:
            bv, _ = _golden_max(lambda t: f(bu, t), lo, hi)
    refined = f(bu, bv)
    if refined > best_val:
        best_val = refined
        witness = domain.point(bu, bv)
    else:
        witness = pts[best]
    return ExtendedHeight(abs(best_val), witness=tuple(witness))   # as in _search_arc
