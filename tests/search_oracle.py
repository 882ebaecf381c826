"""The domain-search triangle grid stage as it stood before the chunked
grid pass.

It builds the whole grid at once (by meshgrid and mask, its points by outer
products) and evaluates every point in one array pass; the tests compare
the grid stage of :func:`mheight.search.domain_search` with it bit for bit.
:func:`triangle_grid` returns ``(ratio, params, point)`` at the first grid
maximum, or ``(inf, None, point)`` at the first point whose denominator is
exactly zero while its numerator is not.  The arithmetic is kept verbatim,
apart from ``TriangleDomain.points``, which is a plain function here.
"""

from __future__ import annotations

import math

import numpy as np

from mheight.codes import GeneratorMatrix
from mheight.search import TriangleDomain
from mheight.tolerances import ROUNDOFF_SLACK


def _points(domain: TriangleDomain, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    a, b, c = np.array(domain.v1), np.array(domain.v2), np.array(domain.v3)
    w = 1.0 - us - vs
    return np.outer(us, a) + np.outer(vs, b) + np.outer(w, c)


def _first_max(params: tuple[np.ndarray, ...], points: np.ndarray, matrix: np.ndarray,
               m: int) -> tuple[float, tuple[float, ...] | None, tuple[float, ...]]:
    mags = np.abs(points @ matrix)
    mags.sort(axis=1)
    num = mags[:, -1]
    den = mags[:, -1 - m]
    exact_inf = (den == 0.0) & (num > 0.0)
    if exact_inf.any():
        i = int(np.flatnonzero(exact_inf)[0])
        return math.inf, None, tuple(points[i])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(den > 0.0, num / den, -np.inf)
    best = int(np.argmax(ratios))
    return (float(ratios[best]), tuple(float(p[best]) for p in params),
            tuple(points[best]))


def triangle_grid(generator: GeneratorMatrix, m: int, domain: TriangleDomain,
                  resolution: int):
    line = np.linspace(0.0, 1.0, resolution)
    uu, vv = np.meshgrid(line, line)
    uu, vv = uu.ravel(), vv.ravel()
    keep = uu + vv <= 1.0 + ROUNDOFF_SLACK
    uu, vv = uu[keep], vv[keep]
    return _first_max((uu, vv), _points(domain, uu, vv), generator.matrix, m)
