"""Outlier-handling capability derived from an m-height profile.

A code transmitting through a channel with small bounded perturbations
(every entry within ``[-delta, delta]``) plus a few large outliers (entries
beyond ``Delta``) can locate ``tau`` outliers and detect ``tau + sigma``
exactly when

    Delta / delta >= 2 * (h_{2*tau + sigma} + 1),

so smaller heights buy stronger guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .codes import check_integer, real_array
from .errors import InvalidParameterError, NoFiniteRatioError
from .heights import ExtendedHeight, MHeightProfile


@dataclass(frozen=True)
class CapabilitySpec:
    """A claimed capability: locate ``tau``, detect ``tau + sigma`` outliers
    under perturbation bound ``delta`` and outlier threshold ``Delta``."""

    tau: int
    sigma: int
    delta: float
    Delta: float

    def __post_init__(self) -> None:
        check_integer("tau", self.tau, 0)
        check_integer("sigma", self.sigma, 0)
        for name in ("delta", "Delta"):
            object.__setattr__(self, name, float(real_array(name, getattr(self, name), 0)))
        if not self.delta > 0:
            raise InvalidParameterError("delta must be positive")
        if not self.Delta > self.delta:
            raise InvalidParameterError("Delta must exceed delta")
        if not math.isfinite(self.ratio):
            raise InvalidParameterError("Delta/delta must be finite")

    @property
    def ratio(self) -> float:
        return self.Delta / self.delta

    @property
    def order(self) -> int:
        """The profile index ``2*tau + sigma`` this claim depends on."""
        return 2 * self.tau + self.sigma


def required_ratio(height: ExtendedHeight | float) -> float:
    """Minimum ``Delta/delta`` supporting a claim at the given height."""
    try:
        value = height.value if isinstance(height, ExtendedHeight) else float(height)
    except (TypeError, ValueError):
        raise InvalidParameterError(f"height must be a real number, got {height!r}") from None
    if math.isnan(value) or math.isinf(value):
        raise NoFiniteRatioError("no finite ratio supports an infinite height")
    return 2.0 * (value + 1.0)


def feasible_pairs(profile: MHeightProfile, ratio: float) -> list[tuple[int, int]]:
    """All capability pairs ``(tau, sigma)`` supported at ``Delta/delta = ratio``.

    Pairs satisfy ``2*tau + sigma <= n-1`` with a finite height at that
    order and ``2*(h+1) <= ratio`` (boundary equality counts).  The empty
    claim ``(0, 0)`` is excluded.  Sorted by ``tau`` then ``sigma``,
    both descending.
    """
    ratio = float(real_array("ratio", ratio, 0))
    pairs = []
    top = profile.max_m
    for tau in range(top // 2, -1, -1):
        for sigma in range(top - 2 * tau, -1, -1):
            if tau == 0 and sigma == 0:
                continue
            height = profile.height(2 * tau + sigma)
            if height.infinite:
                continue
            if required_ratio(height) <= ratio:
                pairs.append((tau, sigma))
    return pairs


def check_spec(profile: MHeightProfile, spec: CapabilitySpec) -> bool:
    """True iff the profile supports the claimed capability."""
    check_integer("2*tau + sigma", spec.order, 1, profile.max_m)
    height = profile.height(spec.order)
    if height.infinite:
        return False
    return spec.ratio >= required_ratio(height)
