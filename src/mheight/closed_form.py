"""Closed-form m-height profiles for the built-in code families.

The polygonal heights follow from the fixed ordering of the projections on
the arc ``[0, pi/(2n)]`` (the ratio is monotone there, so the maximum sits
at an endpoint); the polyhedral values are the known exact profiles of the
icosahedral and dodecahedral axis codes, with maximizing directions taken
from the small candidate sets that boundary analysis of the ratio
objectives leaves possible.  Everything here is cross-checked against the
LP engine by the test suite.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .codes import (
    DUAL_DODECAHEDRAL,
    DUAL_ICOSAHEDRAL,
    DUAL_POLYGONAL,
    PHI,
    Family,
    canonical_direction,
    check_integer,
    dual_dodecahedral,
    dual_icosahedral,
)
from .errors import UnsupportedFamilyError
from .heights import ExtendedHeight, MHeightProfile
from .search import dodecahedral_candidates, dodecahedral_domain
from .tolerances import TIE_TOL

_SQRT5 = math.sqrt(5.0)


def polygonal_height(n: int, m: int) -> ExtendedHeight:
    """Exact m-height of the k=2 half-circle code of length ``n``.

    For ``m <= n-2`` the arc maximizer is the endpoint ``pi/(2n)`` when
    ``m`` is even and ``0`` when ``m`` is odd, giving

        cos(pi/(2n)) / cos((m+1) pi/(2n))   (m even)
        1 / cos((m+1) pi/(2n))              (m odd)

    For ``m = n-1`` the height is infinite: a direction orthogonal to one
    column zeroes the smallest order statistic.
    """
    check_integer("n", n, 2)
    check_integer("m", m, 1, n - 1)
    if m == n - 1:
        return ExtendedHeight(math.inf, witness=(0.0, 1.0))
    half = math.pi / (2 * n)
    if m % 2 == 0:
        alpha = half
        value = math.cos(half) / math.cos((m + 1) * half)
    else:
        alpha = 0.0
        value = 1.0 / math.cos((m + 1) * half)
    return ExtendedHeight(value, witness=(math.cos(alpha), math.sin(alpha)))


def icosahedral_height(m: int) -> ExtendedHeight:
    """Exact m-height of the icosahedral axis code (n=6, k=3)."""
    check_integer("m", m, 1, 5)
    g = dual_icosahedral().columns
    if m in (1, 2):
        return ExtendedHeight(_SQRT5, witness=tuple(g[0]))
    if m == 3:
        center = (g[0] + g[2] + g[4]) / 3.0
        return ExtendedHeight(2.0 + _SQRT5, witness=tuple(center))
    # Two axes can be zeroed simultaneously, so the 5th order statistic
    # vanishes for a nonzero codeword.
    return ExtendedHeight(math.inf, witness=(1.0, 0.0, 0.0))


_DODE_VALUES = {
    1: 3.0 / _SQRT5,
    2: PHI,
    3: 4.0 - _SQRT5,
    4: 3.0,
    5: 2.0 + _SQRT5,
    6: 2.0 + _SQRT5,
    7: 5.0 + 2.0 * _SQRT5,
}


def _dode_candidate_argmax(ms: Sequence[int]) -> dict[int, tuple[float, ...]]:
    """Maximizing direction among the six candidate points for each rank in ``ms``.

    The candidates are encoded once; of two tied ratios the earlier wins.
    """
    domain = dodecahedral_domain()
    points = np.array([domain.point(u, v) for (u, v) in dodecahedral_candidates()])
    mags = np.sort(np.abs(points @ dual_dodecahedral().matrix), axis=1)[:, ::-1]
    argmax = {}
    for m in ms:
        best_ratio = -math.inf
        for x, top, den in zip(points, mags[:, 0], mags[:, m]):
            ratio = math.inf if den == 0.0 else top / den
            if ratio > best_ratio + TIE_TOL:
                best_ratio = ratio
                argmax[m] = tuple(float(c) for c in x)
    return argmax


def _dodecahedral_heights(ms: Sequence[int]) -> list[ExtendedHeight]:
    """Dodecahedral heights at each ``m`` in ``ms`` (all in ``[1, 9]``)."""
    g = dual_dodecahedral().columns
    argmax = _dode_candidate_argmax([m for m in ms if 3 <= m <= 7])
    heights = []
    for m in ms:
        if m == 1:
            heights.append(ExtendedHeight(_DODE_VALUES[1], witness=tuple(g[0])))
        elif m == 2:
            heights.append(ExtendedHeight(_DODE_VALUES[2], witness=tuple((g[0] + g[4]) / 2.0)))
        elif m <= 7:
            heights.append(ExtendedHeight(_DODE_VALUES[m], witness=argmax[m]))
        else:
            ray = canonical_direction(np.cross(g[0], g[1]))
            heights.append(ExtendedHeight(math.inf, witness=tuple(ray)))
    return heights


def dodecahedral_height(m: int) -> ExtendedHeight:
    """Exact m-height of the dodecahedral axis code (n=10, k=3).

    Finite for ``m <= 7``; for ``m = 8, 9`` a direction orthogonal to two
    axes yields a nonzero codeword with two zero entries, hence infinity.
    Witnesses for ``m = 3..7`` are resolved by evaluating the six candidate
    maximizer points.
    """
    check_integer("m", m, 1, 9)
    return _dodecahedral_heights([m])[0]


def closed_profile(family: Family) -> MHeightProfile:
    """Assemble the full closed-form profile for a built-in family."""
    if family.kind == DUAL_POLYGONAL:
        n = family.n
        heights = tuple(polygonal_height(n, m) for m in range(1, n))
    elif family.kind == DUAL_ICOSAHEDRAL:
        heights = tuple(icosahedral_height(m) for m in range(1, 6))
    elif family.kind == DUAL_DODECAHEDRAL:
        heights = tuple(_dodecahedral_heights(range(1, 10)))
    else:
        raise UnsupportedFamilyError(
            f"no closed-form profile for family {family.label!r}")
    return MHeightProfile(family, heights)
