"""Layer map of ``mheight`` and the per-layer metrics of a traced run.

A layer is a module of ``src/mheight``.  Its spans come from wrapping the
module's public functions (see :mod:`tracing`); counts that describe the
work (subsets, vertex-pool candidates, grid points) are computed here from
the recorded inputs, after the timed interval.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations
from typing import Iterable

import numpy as np

from tracing import Span, Tracer

#: Instrumented functions and methods, as dotted paths in ``mheight``.  A
#: span is named ``<module>.<function>``; ``True`` keeps the call's inputs
#: and result for the computed counts.
TARGETS = (
    ("lp.exact_profile", True),
    ("lp.exact_mheight", True),
    ("search.domain_search", True),
    ("search.polygonal_order_indices", False),
    ("search.icosahedral_chain_check", False),
    ("search.dodecahedral_rank_check", False),
    ("search.monotonicity_check", False),
    ("closed_form.closed_profile", False),
    ("closed_form.polygonal_height", False),
    ("closed_form.icosahedral_height", False),
    ("closed_form.dodecahedral_height", False),
    ("capability.feasible_pairs", False),
    ("capability.check_spec", False),
    ("capability.required_ratio", False),
    ("codes.encode", False),
    ("codes.is_mds", False),
    ("codes.dual_polygonal", False),
    ("codes.dual_icosahedral", False),
    ("codes.dual_dodecahedral", False),
    ("codes.from_columns", False),
    ("heights.ExtendedHeight.to_json_dict", False),
    ("heights.MHeightProfile.to_json_dict", False),
    ("cli.run", False),
)

#: Reported ``{calls, self_ms}`` groups -> the span names they sum.
GROUPS = {
    "lp.exact_profile": ("lp.exact_profile",),
    "lp.exact_mheight": ("lp.exact_mheight",),
    "search.domain_search": ("search.domain_search",),
    "search.order_checks": ("search.polygonal_order_indices",
                            "search.icosahedral_chain_check",
                            "search.dodecahedral_rank_check"),
    "search.monotonicity_check": ("search.monotonicity_check",),
    "closed_form.closed_profile": ("closed_form.closed_profile",),
    "closed_form.family_height": ("closed_form.polygonal_height",
                                  "closed_form.icosahedral_height",
                                  "closed_form.dodecahedral_height"),
    "capability.feasible_pairs": ("capability.feasible_pairs",),
    "capability.check_spec": ("capability.check_spec",),
    "codes.encode": ("codes.encode",),
    "codes.matrix": ("codes.is_mds", "codes.dual_polygonal",
                     "codes.dual_icosahedral", "codes.dual_dodecahedral",
                     "codes.from_columns"),
    "heights.to_json_dict": ("heights.to_json_dict",),
    "cli.run": ("cli.run",),
}

MODULES = ("lp", "search", "closed_form", "capability", "codes", "heights", "cli")

COUNTERS = ("lp.subsets", "lp.pool_candidates", "lp.capacity_errors",
            "lp.rank_deficient_calls", "lp.non_mds_calls", "search.grid_points")

STARTUP = ("startup.interpreter_ms", "startup.import_numpy_ms",
           "startup.import_mheight_self_ms")

#: Root spans the harness opens around each op (``op:<kind>``) and around
#: each argv of the in-process CLI replay (``replay:<subcommand>``).
OP_PREFIX = "op:"
REPLAY_PREFIX = "replay:"


def metric_catalogue() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out: list[tuple[str, str]] = []
    for group in GROUPS:
        out.append((f"{group}.calls", "count/pass"))
        out.append((f"{group}.self_ms", "ms/pass"))
    out += [(name, "count/pass") for name in COUNTERS]
    out.append(("search.max_rel_gap", "ratio"))
    out += [(name, "ms") for name in STARTUP]
    out += [(f"share.{mod}", "%") for mod in (*MODULES, "startup", "other")]
    out.append(("share.search_and_verify", "%"))
    out.append(("trace.overhead_pct", "%"))
    return out


def _ancestors(spans: list[Span], idx: int) -> Iterable[Span]:
    parent = spans[idx].parent
    while parent >= 0:
        yield spans[parent]
        parent = spans[parent].parent


def _rank_and_mds(matrix: np.ndarray) -> tuple[int, bool]:
    """Rank and the MDS property, decided on unit-normalized columns so the
    answer does not depend on the code's global scale."""
    k, n = matrix.shape
    cols = matrix / np.linalg.norm(matrix, axis=0)
    rank = int(np.linalg.matrix_rank(cols))
    subsets = np.array(list(combinations(range(n), k)))
    dets = np.abs(np.linalg.det(cols.T[subsets]))
    return rank, bool(np.all(dets > 1e-9))


def _grid_points(domain, resolution, mheight) -> int:
    """Grid size of one ``domain_search``: ``res`` arc points, or the
    ``res (res + 1) / 2`` points of the triangle grid.  The defaults are the
    library's at the time this benchmark was written."""
    if isinstance(domain, mheight.ArcDomain):
        return resolution or getattr(mheight.search, "_DEFAULT_ARC_RESOLUTION", 10_000)
    res = resolution or getattr(mheight.search, "_DEFAULT_TRIANGLE_RESOLUTION", 300)
    return res * (res + 1) // 2


def _call_arg(span: Span, pos: int, name: str, default=None):
    args, kwargs = span.call
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def computed_counts(spans: list[Span], mheight) -> tuple[dict[str, float], float]:
    """Work counts from the recorded inputs, and the largest search gap.

    Only the outermost ``lp`` call of a nest is counted: the
    rank-deficient fallback calls ``exact_mheight`` inside
    ``exact_profile`` over the same subsets.
    """
    counts = dict.fromkeys(COUNTERS, 0.0)
    max_gap = -math.inf
    for idx, span in enumerate(spans):
        if span.call is None:
            continue
        generator = span.call[0][0]
        k, n = generator.k, generator.n
        if span.name.startswith("lp."):
            if any(a.name.startswith("lp.") for a in _ancestors(spans, idx)):
                continue
            if isinstance(span.outcome, mheight.CapacityError):
                counts["lp.capacity_errors"] += 1
                continue
            rank, mds = _rank_and_mds(generator.matrix)
            counts["lp.rank_deficient_calls"] += rank < k
            counts["lp.non_mds_calls"] += not mds
            if span.name == "lp.exact_profile":
                counts["lp.subsets"] += 2 ** n - 2
            else:
                counts["lp.subsets"] += math.comb(n, _call_arg(span, 1, "m"))
            counts["lp.pool_candidates"] += math.comb(n, k) * 2 ** k
        elif span.name == "search.domain_search":
            domain = _call_arg(span, 2, "domain")
            resolution = _call_arg(span, 3, "resolution")
            counts["search.grid_points"] += _grid_points(domain, resolution, mheight)
            gap = _search_gap(generator, _call_arg(span, 1, "m"), span.outcome, mheight)
            if gap is not None:
                max_gap = max(max_gap, gap)
    return counts, max_gap


def _search_gap(generator, m: int, found, mheight) -> float | None:
    """(exact - found) / exact for a finite built-in height, else None."""
    if not isinstance(found, mheight.ExtendedHeight):
        return None
    family = generator.family
    try:
        exact = mheight.closed_profile(family).height(m)
    except mheight.UnsupportedFamilyError:
        return None
    if exact.infinite:
        return None
    return (exact.value - found.value) / exact.value


def group_totals(tracer: Tracer, own: list[int]) -> dict[str, tuple[int, int]]:
    """``group -> (calls, self ns)`` over every recorded span."""
    calls: Counter[str] = Counter()
    self_ns: Counter[str] = Counter()
    for span, ns in zip(tracer.spans, own):
        calls[span.name] += 1
        self_ns[span.name] += ns
    return {group: (sum(calls[n] for n in names), sum(self_ns[n] for n in names))
            for group, names in GROUPS.items()}


def module_self_ns(spans: list[Span], own: list[int],
                   roots: Iterable[int]) -> dict[str, int]:
    """Self time per module (and ``other`` for the harness) under ``roots``."""
    roots = set(roots)
    totals = dict.fromkeys((*MODULES, "other"), 0)
    for idx, span in enumerate(spans):
        if idx in roots:
            totals["other"] += own[idx]
            continue
        top = idx
        while spans[top].parent >= 0:
            top = spans[top].parent
        if top in roots:
            totals[span.name.split(".", 1)[0]] += own[idx]
    return totals
