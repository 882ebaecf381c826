"""Exact m-height computation through a family of small linear programs.

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
so this loses nothing).  Any unbounded configuration certifies an infinite
height.

:func:`solve_lp` is a basic-solution enumerator: with all constraint rows of
the form ``(vector, rhs)``, every vertex of the feasible region solves a
square subsystem of ``dim`` active rows, and every extreme recession ray is
the null direction of ``dim - 1`` active rows.  Dimensions here are tiny
(k <= 3 for the built-in families), so full enumeration is robust and needs
no pivoting machinery.

:func:`exact_mheight` exploits that all configuration LPs share one global
vertex pool: any vertex solves ``u . g_j = +-1`` on some ``k`` independent
columns.  The pool is computed once and each configuration group is reduced
to feasibility masks over it, which keeps the full enumeration exact while
making whole profiles cheap.  ``engine="reference"`` instead solves every
configuration LP one by one through :func:`solve_lp`; both engines agree and
the test suite cross-checks them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator, Sequence

import numpy as np

from .codes import GeneratorMatrix, RANK_TOL
from .errors import CapacityError, InvalidParameterError
from .heights import ExtendedHeight, MHeightProfile

#: Feasibility tolerance, applied after normalizing each constraint row to
#: unit coefficient norm.
FEAS_TOL = 1e-9

_TIE_TOL = 1e-12
_ZERO_ROW = 1e-12
_MAX_DIM = 8
_MAX_ROWS = 10_000
#: Capacity guards: the engines are for small dense problems by design.
#: The reference engine solves one LP per configuration; the shared engine
#: walks one candidate mask per coordinate subset.
_MAX_REFERENCE_LPS = 100_000_000
_MAX_SUBSETS = 2_000_000

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LPProblem:
    """Maximize ``objective . u`` over ``a . u = r`` and ``a . u >= r`` rows."""

    objective: tuple[float, ...]
    eq_constraints: tuple[tuple[tuple[float, ...], float], ...] = ()
    ineq_constraints: tuple[tuple[tuple[float, ...], float], ...] = ()

    def __post_init__(self) -> None:
        obj = tuple(float(x) for x in self.objective)
        if not obj:
            raise InvalidParameterError("objective must have dimension >= 1")
        object.__setattr__(self, "objective", obj)
        for name in ("eq_constraints", "ineq_constraints"):
            rows = []
            for a, r in getattr(self, name):
                vec = tuple(float(x) for x in a)
                if len(vec) != len(obj):
                    raise InvalidParameterError(
                        f"constraint dimension {len(vec)} != objective dimension {len(obj)}")
                rows.append((vec, float(r)))
            object.__setattr__(self, name, tuple(rows))
        values = [*obj]
        for a, r in (*self.eq_constraints, *self.ineq_constraints):
            values.extend(a)
            values.append(r)
        if not all(math.isfinite(v) for v in values):
            raise InvalidParameterError("LP coefficients must be finite")

    @property
    def dim(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class LPResult:
    """Outcome of :func:`solve_lp`.

    ``optimal``: ``value`` and a maximizing ``point``.
    ``unbounded``: an improving feasible recession ``ray``.
    ``infeasible``: nothing else set.
    """

    status: str
    value: float | None = None
    point: tuple[float, ...] | None = None
    ray: tuple[float, ...] | None = None

    @classmethod
    def optimal(cls, value: float, point: np.ndarray) -> "LPResult":
        return cls(OPTIMAL, value=float(value), point=tuple(float(x) for x in point))

    @classmethod
    def unbounded(cls, ray: np.ndarray) -> "LPResult":
        return cls(UNBOUNDED, ray=tuple(float(x) for x in ray))

    @classmethod
    def infeasible(cls) -> "LPResult":
        return cls(INFEASIBLE)


def _collect_rows(problem: LPProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Normalize rows to unit coefficient norm; screen zero rows.

    Returns ``(A, rhs, is_eq, feasible_so_far)``; a zero row with an
    unsatisfiable right-hand side makes the whole problem infeasible (this
    covers the degenerate equality ``0 . u = 1`` by plain semantics).
    """
    rows, rhs, eq_flags = [], [], []
    for is_eq, group in ((True, problem.eq_constraints), (False, problem.ineq_constraints)):
        for a, r in group:
            vec = np.array(a, dtype=float)
            nrm = float(np.linalg.norm(vec))
            if nrm <= _ZERO_ROW:
                if is_eq and abs(r) > FEAS_TOL:
                    return np.empty((0, problem.dim)), np.empty(0), np.empty(0, bool), False
                if not is_eq and r > FEAS_TOL:
                    return np.empty((0, problem.dim)), np.empty(0), np.empty(0, bool), False
                continue
            rows.append(vec / nrm)
            rhs.append(r / nrm)
            eq_flags.append(is_eq)
    if rows:
        return np.array(rows), np.array(rhs), np.array(eq_flags, dtype=bool), True
    return np.empty((0, problem.dim)), np.empty(0), np.empty(0, bool), True


def _vertex_candidates(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solutions of every nonsingular ``r x r`` active subsystem, stacked."""
    m_rows, r = A.shape
    if m_rows < r:
        return np.empty((0, r))
    idx = np.array(list(combinations(range(m_rows), r)))
    blocks = A[idx]                               # (C, r, r)
    dets = np.abs(np.linalg.det(blocks))
    ok = dets > 1e-13
    if not ok.any():
        return np.empty((0, r))
    points = np.linalg.solve(blocks[ok], rhs[idx[ok]][..., None])[..., 0]
    finite = np.all(np.isfinite(points), axis=1) & (np.max(np.abs(points), axis=1) < 1e14)
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
        idx = np.array(list(combinations(range(m_rows), r - 1)))
        if r == 2:
            rows = A[idx[:, 0]]
            perp = np.column_stack([-rows[:, 1], rows[:, 0]])
            keep = np.linalg.norm(perp, axis=1) > 1e-9
            dirs.append(perp[keep])
        elif r == 3:
            cross = np.cross(A[idx[:, 0]], A[idx[:, 1]])
            keep = np.linalg.norm(cross, axis=1) > 1e-9
            dirs.append(cross[keep] / np.linalg.norm(cross[keep], axis=1, keepdims=True))
        else:
            for rows_idx in idx:
                block = A[rows_idx]
                _, s, vt = np.linalg.svd(block)
                if s[-1] <= 1e-9 * max(1.0, float(s[0])):
                    continue
                dirs.append(vt[r - 1][None, :])
    nrm = float(np.linalg.norm(obj))
    if nrm > _ZERO_ROW:
        dirs.append((obj / nrm)[None, :])
    if not dirs:
        return np.empty((0, r))
    stacked = np.vstack(dirs)
    return np.vstack([stacked, -stacked])


def _enumerate_core(A: np.ndarray, rhs: np.ndarray, is_eq: np.ndarray,
                    obj: np.ndarray) -> LPResult:
    """Solve a full-row-rank-reduced LP by basic-solution enumeration.

    Preconditions: rows span the whole (reduced) space, so the feasible set
    is pointed and -- when nonempty -- has a vertex; every unbounded problem
    has an improving extreme ray with ``dim - 1`` active rows.
    """
    points = _vertex_candidates(A, rhs)
    if points.shape[0] == 0:
        return LPResult.infeasible()

    residuals = points @ A.T - rhs
    feasible = np.ones(points.shape[0], dtype=bool)
    if is_eq.any():
        feasible &= np.max(np.abs(residuals[:, is_eq]), axis=1) <= FEAS_TOL
    ge = ~is_eq
    if ge.any():
        feasible &= np.min(residuals[:, ge], axis=1) >= -FEAS_TOL
    if not feasible.any():
        return LPResult.infeasible()

    vals = points[feasible] @ obj
    best = int(np.argmax(vals))
    best_val = float(vals[best])
    best_point = points[feasible][best]

    rays = _ray_candidates(A, obj)
    if rays.shape[0]:
        improving = rays @ obj > FEAS_TOL
        res = rays @ A.T
        if is_eq.any():
            improving &= np.max(np.abs(res[:, is_eq]), axis=1) <= FEAS_TOL
        if ge.any():
            improving &= np.min(res[:, ge], axis=1) >= -FEAS_TOL
        if improving.any():
            return LPResult.unbounded(rays[int(np.flatnonzero(improving)[0])])

    return LPResult.optimal(best_val, best_point)


def solve_lp(problem: LPProblem) -> LPResult:
    """Exact optimum of a small dense LP by basic-solution enumeration.

    Raises :class:`CapacityError` beyond ``dim = 8`` or 10^4 constraints;
    the enumerative approach is intended for small problems only.
    Deterministic: identical problems yield identical results, and of two
    optima within ``1e-9`` either may be reported.
    """
    dim = problem.dim
    if dim > _MAX_DIM:
        raise CapacityError(f"LP dimension {dim} exceeds limit {_MAX_DIM}")
    n_rows = len(problem.eq_constraints) + len(problem.ineq_constraints)
    if n_rows > _MAX_ROWS:
        raise CapacityError(f"{n_rows} constraints exceed limit {_MAX_ROWS}")

    A, rhs, is_eq, ok = _collect_rows(problem)
    if not ok:
        return LPResult.infeasible()
    obj = np.array(problem.objective, dtype=float)

    if A.shape[0] == 0:
        nrm = float(np.linalg.norm(obj))
        if nrm > _ZERO_ROW:
            return LPResult.unbounded(obj / nrm)
        return LPResult.optimal(0.0, np.zeros(dim))

    # Reduce to the span of the constraint rows.  Directions orthogonal to
    # every row are free: if the objective has such a component the problem
    # is unbounded as soon as it is feasible, otherwise the optimization
    # lives entirely inside the row space and becomes pointed there.
    _, svals, vt = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(svals > 1e-10 * max(1.0, float(svals[0]))))
    basis = vt[:rank].T                      # (dim, rank)
    obj_in = basis.T @ obj
    obj_out = obj - basis @ obj_in

    A_red = A @ basis                        # row norms are preserved
    if float(np.linalg.norm(obj_out)) > FEAS_TOL:
        probe = _enumerate_core(A_red, rhs, is_eq, np.zeros(rank))
        if probe.status == INFEASIBLE:
            return LPResult.infeasible()
        return LPResult.unbounded(obj_out / np.linalg.norm(obj_out))

    result = _enumerate_core(A_red, rhs, is_eq, obj_in)
    if result.status == OPTIMAL:
        return LPResult.optimal(result.value, basis @ np.array(result.point))
    if result.status == UNBOUNDED:
        return LPResult.unbounded(basis @ np.array(result.ray))
    return result


# ---------------------------------------------------------------------------
# Configuration family


@dataclass(frozen=True)
class Configuration:
    """One member of the LP family for ``exact_mheight``.

    ``top`` is the claimed top-m coordinate set, ``max_index`` the claimed
    largest-magnitude coordinate (in ``top``), ``next_index`` the claimed
    (m+1)-th coordinate (outside ``top``; its sign is fixed positive), and
    ``signs`` the claimed signs of the ``top`` entries.
    """

    top: tuple[int, ...]
    max_index: int
    next_index: int
    signs: tuple[float, ...]

    def __post_init__(self) -> None:
        top = tuple(int(j) for j in self.top)
        if len(set(top)) != len(top):
            raise InvalidParameterError("top coordinate set has repeats")
        if self.max_index not in top:
            raise InvalidParameterError("max_index must lie in the top set")
        if self.next_index in top:
            raise InvalidParameterError("next_index must lie outside the top set")
        if len(self.signs) != len(top) or any(s not in (-1.0, 1.0) for s in self.signs):
            raise InvalidParameterError("signs must map each top coordinate to +-1")
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "signs", tuple(float(s) for s in self.signs))


def lp_family_size(n: int, m: int) -> int:
    """Number of LPs in the family: ``C(n, m) * m * 2^m``.

    Counted per ``(top, max_index, signs)`` triple; the choice of the
    (m+1)-th coordinate is folded into each LP via its equality row.
    """
    return math.comb(n, m) * m * (1 << m)


def iter_configurations(n: int, m: int) -> Iterator[Configuration]:
    """Yield the full configuration family in deterministic order."""
    indices = range(n)
    for top in combinations(indices, m):
        rest = [j for j in indices if j not in top]
        for signs in product((1.0, -1.0), repeat=m):
            for a in top:
                for b in rest:
                    yield Configuration(top, a, b, signs)


def configuration_lp(generator: GeneratorMatrix, config: Configuration) -> LPProblem:
    """Build the LP whose optimum is the configuration's best height ratio."""
    cols = generator.columns
    sign_of = dict(zip(config.top, config.signs))
    objective = tuple(sign_of[config.max_index] * cols[config.max_index])
    eq = ((tuple(cols[config.next_index]), 1.0),)
    ineq: list[tuple[tuple[float, ...], float]] = []
    for j in config.top:
        ineq.append((tuple(sign_of[j] * cols[j]), 1.0))
    for j in range(generator.n):
        if j in sign_of or j == config.next_index:
            continue
        ineq.append((tuple(cols[j]), -1.0))
        ineq.append((tuple(-cols[j]), -1.0))
    return LPProblem(objective, eq, tuple(ineq))


@dataclass
class MHeightStats:
    """Counters exposed for test assertions.

    ``lp_count`` counts configuration LPs per ``(top, max_index, signs)``
    triple, matching :func:`lp_family_size` when no infinite short-circuit
    fires.
    """

    lp_count: int = 0
    engine: str = ""
    unbounded_shortcut: bool = False


# ---------------------------------------------------------------------------
# Shared-vertex engine


@dataclass
class _SharedTables:
    candidates: np.ndarray    # (N, k) candidate information vectors
    abs_code: np.ndarray      # (N, n) magnitudes of their codewords
    hi: np.ndarray            # (n, N) |c_j| >= 1 - tol_j
    lo: np.ndarray            # (n, N) |c_j| <= 1 + tol_j
    one: np.ndarray           # (n, N) |c_j - 1| <= tol_j
    mds: bool
    rank: int


def _build_tables(generator: GeneratorMatrix) -> _SharedTables:
    mat = generator.matrix
    k, n = mat.shape
    norms = generator.column_norms()

    subsets = np.array(list(combinations(range(n), k)))
    blocks = mat.T[subsets]                       # (S, k, k)
    dets = np.abs(np.linalg.det(blocks))
    scale = np.prod(norms[subsets], axis=1)
    good = dets > RANK_TOL * scale
    mds = bool(np.all(good))

    signs = np.array(list(product((-1.0, 1.0), repeat=k)))   # (2^k, k)
    if good.any():
        sols = np.linalg.solve(blocks[good], np.broadcast_to(
            signs.T, (int(good.sum()), k, signs.shape[0])))
        cands = sols.transpose(0, 2, 1).reshape(-1, k)
    else:
        cands = np.empty((0, k))

    code = cands @ mat                            # (N, n)
    abs_code = np.abs(code)
    tol = FEAS_TOL * norms                        # row-normalized tolerances
    hi = (abs_code >= 1.0 - tol).T
    lo = (abs_code <= 1.0 + tol).T
    one = (np.abs(code - 1.0) <= tol).T

    rank = int(np.linalg.matrix_rank(mat))
    return _SharedTables(cands, abs_code, hi, lo, one, mds, rank)


def _complement_null_direction(mat: np.ndarray, comp: Sequence[int]) -> np.ndarray | None:
    """Unit vector orthogonal to the given columns, or None at full rank."""
    k = mat.shape[0]
    sub = mat[:, list(comp)]
    u_svd, svals, _ = np.linalg.svd(sub)
    smax = float(svals[0]) if svals.size else 0.0
    rank = int(np.sum(svals > 1e-9 * max(1.0, smax)))
    if rank >= k:
        return None
    direction = u_svd[:, -1]
    return _canonical_direction(direction)


def _canonical_direction(vec: np.ndarray) -> np.ndarray:
    v = np.asarray(vec, dtype=float)
    v = v / np.linalg.norm(v)
    for comp in v:
        if abs(comp) > 1e-12:
            if comp < 0:
                v = -v
            break
    return v


def _mheight_shared(generator: GeneratorMatrix, m: int, tables: _SharedTables,
                    stats: MHeightStats) -> ExtendedHeight:
    mat = generator.matrix
    k, n = mat.shape
    per_group = m * (1 << m)

    # Infinite heights come exactly from rank-deficient complements: a
    # nonzero codeword supported on m coordinates zeroes the (m+1)-th order
    # statistic, and it exists iff some n-m columns fail to span.
    if tables.mds:
        if n - m < k:
            stats.unbounded_shortcut = True
            comp = tuple(range(m, n))
            ray = _complement_null_direction(mat, comp)
            return ExtendedHeight(math.inf,
                                  witness=None if ray is None else tuple(ray))
    else:
        for top in combinations(range(n), m):
            comp = [j for j in range(n) if j not in top]
            ray = _complement_null_direction(mat, comp)
            if ray is not None:
                stats.unbounded_shortcut = True
                return ExtendedHeight(math.inf, witness=tuple(ray))

    hi, lo, one, abs_code = tables.hi, tables.lo, tables.one, tables.abs_code
    best_val = -math.inf
    best_cand = -1
    for top in combinations(range(n), m):
        top_list = list(top)
        comp = [j for j in range(n) if j not in top]
        stats.lp_count += per_group
        feasible = hi[top_list].all(axis=0) & lo[comp].all(axis=0) & one[comp].any(axis=0)
        if not feasible.any():
            continue
        idx = np.flatnonzero(feasible)
        local = abs_code[np.ix_(idx, top_list)].max(axis=1)
        pos = int(np.argmax(local))
        if float(local[pos]) > best_val + _TIE_TOL:
            best_val = float(local[pos])
            best_cand = int(idx[pos])

    if best_cand < 0:
        # Cannot happen for full-row-rank matrices (every codeword scales
        # into some configuration); fall back to the reference engine.
        return _mheight_reference(generator, m, MHeightStats())

    witness = tuple(float(x) for x in tables.candidates[best_cand])
    return ExtendedHeight(best_val, witness=witness)


def _mheight_reference(generator: GeneratorMatrix, m: int,
                       stats: MHeightStats) -> ExtendedHeight:
    """Literal per-configuration solve through :func:`solve_lp`."""
    n = generator.n
    best_val = -math.inf
    best_point: tuple[float, ...] | None = None
    indices = range(n)
    for top in combinations(indices, m):
        rest = [j for j in indices if j not in top]
        for signs in product((1.0, -1.0), repeat=m):
            for a in top:
                stats.lp_count += 1
                for b in rest:
                    result = solve_lp(configuration_lp(
                        generator, Configuration(top, a, b, signs)))
                    if result.status == UNBOUNDED:
                        stats.unbounded_shortcut = True
                        ray = _canonical_direction(np.array(result.ray))
                        return ExtendedHeight(math.inf, witness=tuple(ray))
                    if result.status == OPTIMAL and result.value > best_val + _TIE_TOL:
                        best_val = result.value
                        best_point = result.point
    if best_point is None:
        # Any codeword with m+1 nonzero entries scales into some feasible
        # configuration, so every nonzero codeword has at most m of them:
        # its (m+1)-th order statistic is zero.
        cols = generator.columns
        j = int(np.argmax(np.linalg.norm(cols, axis=1)))
        if not cols[j].any():
            raise InvalidParameterError(
                "no configuration is feasible; the generator has no nonzero codeword")
        return ExtendedHeight(math.inf, witness=tuple(_canonical_direction(cols[j])))
    return ExtendedHeight(best_val, witness=best_point)


def _validate_m(generator: GeneratorMatrix, m: int) -> None:
    if not isinstance(m, (int, np.integer)) or not 1 <= m <= generator.n - 1:
        raise InvalidParameterError(
            f"m must be an integer in [1, {generator.n - 1}], got {m!r}")


def _check_capacity(generator: GeneratorMatrix, m: int, engine: str) -> None:
    if generator.k > _MAX_DIM:
        raise CapacityError(
            f"LP dimension {generator.k} exceeds limit {_MAX_DIM}")
    n = generator.n
    if engine == "reference":
        if lp_family_size(n, m) * (n - m) > _MAX_REFERENCE_LPS:
            raise CapacityError(
                f"configuration family for n={n}, m={m} is too large "
                "to solve one LP at a time")
    elif math.comb(n, m) > _MAX_SUBSETS or math.comb(n, generator.k) > _MAX_SUBSETS:
        raise CapacityError(
            f"coordinate-subset enumeration for n={n}, m={m} is too large")


def exact_mheight(generator: GeneratorMatrix, m: int, *, engine: str = "auto",
                  stats: MHeightStats | None = None) -> ExtendedHeight:
    """Exact m-height of the code, as the max over all configuration LPs.

    ``engine="auto"`` uses the shared-vertex enumeration (falling back to
    per-configuration solves for row-rank-deficient matrices, where the
    shared vertex pool is not exhaustive); ``engine="reference"`` always
    solves each configuration LP separately.  The witness is a maximizing
    information vector, or a ray direction (a codeword with a zero (m+1)-th
    order statistic) when the height is infinite.
    """
    _validate_m(generator, m)
    if stats is None:
        stats = MHeightStats()
    if engine not in ("auto", "shared", "reference"):
        raise InvalidParameterError(f"unknown engine {engine!r}")
    if engine == "reference":
        _check_capacity(generator, m, "reference")
        stats.engine = "reference"
        return _mheight_reference(generator, m, stats)
    _check_capacity(generator, m, "shared")
    tables = _build_tables(generator)
    if tables.rank < generator.k:
        if engine == "shared":
            raise InvalidParameterError(
                "shared engine requires a full-row-rank generator")
        _check_capacity(generator, m, "reference")
        stats.engine = "reference"
        return _mheight_reference(generator, m, stats)
    stats.engine = "shared"
    return _mheight_shared(generator, m, tables, stats)


def exact_profile(generator: GeneratorMatrix, *, engine: str = "auto",
                  stats: MHeightStats | None = None) -> MHeightProfile:
    """m-heights for every ``m`` in ``[1, n-1]``."""
    if engine not in ("auto", "shared", "reference"):
        raise InvalidParameterError(f"unknown engine {engine!r}")
    if stats is None:
        stats = MHeightStats()
    heights = []
    if engine in ("auto", "shared"):
        for m in range(1, generator.n):
            _check_capacity(generator, m, "shared")
        tables = _build_tables(generator)
        if tables.rank == generator.k:
            stats.engine = "shared"
            for m in range(1, generator.n):
                heights.append(_mheight_shared(generator, m, tables, stats))
            return MHeightProfile(generator.family, tuple(heights))
        if engine == "shared":
            raise InvalidParameterError(
                "shared engine requires a full-row-rank generator")
    stats.engine = "reference"
    for m in range(1, generator.n):
        heights.append(exact_mheight(generator, m, engine="reference", stats=stats))
    return MHeightProfile(generator.family, tuple(heights))
