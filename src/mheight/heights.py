"""Height values and per-code m-height profiles."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .codes import Family, check_integer
from .errors import InvalidParameterError
from .tolerances import HEIGHT_SLACK


@dataclass(frozen=True)
class ExtendedHeight:
    """A nonnegative height value, possibly infinite, with optional witness.

    The witness is an information direction attaining the value: encoding it
    and forming the order-statistic ratio reproduces ``value`` (exactly so
    for infinite heights, where the denominator entry is zero).
    """

    value: float
    witness: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        try:
            val = float(self.value)
            if self.witness is not None:
                object.__setattr__(self, "witness", tuple(map(float, self.witness)))
        except (TypeError, ValueError) as exc:
            raise InvalidParameterError(
                f"height value and witness must be real numbers: {exc}") from None
        if math.isnan(val):
            raise InvalidParameterError("height value cannot be NaN")
        if not math.isinf(val) and val < 1.0 - HEIGHT_SLACK:
            raise InvalidParameterError(f"finite height must be >= 1, got {val}")
        object.__setattr__(self, "value", val)

    @property
    def infinite(self) -> bool:
        return math.isinf(self.value)

    def to_json_dict(self) -> dict:
        doc: dict = {"value": "inf" if self.infinite else self.value}
        if self.witness is not None:
            doc["witness"] = list(self.witness)
        return doc

    def __str__(self) -> str:
        return "inf" if self.infinite else f"{self.value:.12g}"


@dataclass(frozen=True)
class MHeightProfile:
    """Map ``m -> ExtendedHeight`` for ``m = 1 .. n-1`` of one code.

    Profiles are nondecreasing in ``m`` (larger ``m`` divides by a smaller
    order statistic) and stay infinite once they become infinite; both are
    validated at construction.
    """

    family: Family
    heights: tuple[ExtendedHeight, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.heights:
            raise InvalidParameterError("profile needs at least one height")
        object.__setattr__(self, "heights", tuple(self.heights))
        prev = None
        for m, h in enumerate(self.heights, start=1):
            if prev is not None:
                if prev.infinite and not h.infinite:
                    raise InvalidParameterError(
                        f"profile drops back to finite at m={m}")
                if not prev.infinite and not h.infinite:
                    slack = HEIGHT_SLACK * max(1.0, prev.value)
                    if h.value < prev.value - slack:
                        raise InvalidParameterError(
                            f"profile decreases at m={m}: {prev.value} -> {h.value}")
            prev = h

    @property
    def max_m(self) -> int:
        return len(self.heights)

    def height(self, m: int) -> ExtendedHeight:
        check_integer("m", m, 1, len(self.heights))
        return self.heights[m - 1]

    def values(self) -> tuple[float, ...]:
        return tuple(h.value for h in self.heights)

    def to_json_dict(self) -> dict:
        return {
            "family": self.family.label,
            "heights": [{"m": m, **h.to_json_dict()}
                        for m, h in enumerate(self.heights, start=1)],
        }
