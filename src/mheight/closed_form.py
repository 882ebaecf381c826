"""Closed-form m-height profiles for the built-in code families.

The polygonal heights follow from the fixed ordering of the projections on
the arc ``[0, pi/(2n)]`` (the ratio is monotone there, so the maximum sits
at an endpoint).  The polyhedral profiles are the known exact profiles of
the icosahedral and dodecahedral axis codes, stated as tables of values and
maximizing directions and built once at import: no codeword is evaluated
here.  The dodecahedral maximizers are entries of
:func:`search.dodecahedral_candidates`, the points that boundary analysis
of the ratio objectives leaves possible.  Everything here is cross-checked
against the LP engine by the test suite.
"""

from __future__ import annotations

import math

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


def _icosahedral_profile() -> tuple[ExtendedHeight, ...]:
    """Heights for ``m = 1..5``: the first axis attains ``sqrt(5)`` for
    ``m = 1, 2`` and the face centre ``2 + sqrt(5)`` for ``m = 3``.  For
    ``m = 4, 5`` two axes can be zeroed at once, so the 5th order statistic
    vanishes for a nonzero codeword."""
    g = dual_icosahedral().columns
    axis = ExtendedHeight(_SQRT5, witness=tuple(g[0]))
    center = (g[0] + g[2] + g[4]) / 3.0
    inf = ExtendedHeight(math.inf, witness=(1.0, 0.0, 0.0))
    return (axis, axis, ExtendedHeight(2.0 + _SQRT5, witness=tuple(center)), inf, inf)


#: ``(value, index into dodecahedral_candidates())`` for ``m = 1..7``; the
#: indexed point is the unique maximizer among the six candidates.
_DODECAHEDRAL_TABLE = ((3.0 / _SQRT5, 0), (PHI, 2), (4.0 - _SQRT5, 4), (3.0, 0),
                       (2.0 + _SQRT5, 1), (2.0 + _SQRT5, 1), (5.0 + 2.0 * _SQRT5, 5))


def _dodecahedral_profile() -> tuple[ExtendedHeight, ...]:
    """Heights for ``m = 1..9``: the stated table, then for ``m = 8, 9`` a
    direction orthogonal to two axes, which zeroes two codeword entries."""
    domain = dodecahedral_domain()
    candidates = dodecahedral_candidates()
    finite = tuple(ExtendedHeight(value, witness=tuple(domain.point(*candidates[i])))
                   for value, i in _DODECAHEDRAL_TABLE)
    g = dual_dodecahedral().columns
    ray = ExtendedHeight(math.inf, witness=tuple(canonical_direction(np.cross(g[0], g[1]))))
    return finite + (ray, ray)


_ICOSAHEDRAL = _icosahedral_profile()
_DODECAHEDRAL = _dodecahedral_profile()


def icosahedral_height(m: int) -> ExtendedHeight:
    """Exact m-height of the icosahedral axis code (n=6, k=3), from the
    stated table: finite for ``m <= 3``, infinite for ``m = 4, 5``."""
    check_integer("m", m, 1, 5)
    return _ICOSAHEDRAL[m - 1]


def dodecahedral_height(m: int) -> ExtendedHeight:
    """Exact m-height of the dodecahedral axis code (n=10, k=3), from the
    stated table: finite for ``m <= 7``, with a candidate point as witness;
    infinite for ``m = 8, 9``."""
    check_integer("m", m, 1, 9)
    return _DODECAHEDRAL[m - 1]


def closed_profile(family: Family) -> MHeightProfile:
    """The full closed-form profile of a built-in family; the polyhedral
    ones are the stated tables."""
    if family.kind == DUAL_POLYGONAL:
        n = family.n
        heights = tuple(polygonal_height(n, m) for m in range(1, n))
    elif family.kind == DUAL_ICOSAHEDRAL:
        heights = _ICOSAHEDRAL
    elif family.kind == DUAL_DODECAHEDRAL:
        heights = _DODECAHEDRAL
    else:
        raise UnsupportedFamilyError(
            f"no closed-form profile for family {family.label!r}")
    return MHeightProfile(family, heights)
