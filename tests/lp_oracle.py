"""The configuration-LP engine as a public general-LP library, kept verbatim.

``solve_lp`` solves a small dense LP given as dataclass rows, and
``_mheight_reference`` builds one :class:`LPProblem` per configuration and
solves it.  The library now keeps one private array solver,
:func:`mheight.lp._solve_lp`, behind its own ``_mheight_reference``; the
tests pin that solver and that reference against the code below, and pin
the code below against ``scipy.optimize.linprog``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator

import numpy as np

from mheight.codes import GeneratorMatrix, canonical_direction
from mheight.errors import CapacityError, InvalidParameterError
from mheight.heights import ExtendedHeight
from mheight.tolerances import FEAS_TOL, TIE_TOL

_MAX_DIM = 8
_MAX_ROWS = 10_000
#: Capacity guards.  The reference engine solves one LP per configuration;
#: the pool engine solves one ``k x k`` system per ``k``-subset of columns.
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


# Reference-solver floors, on unit-norm rows.
_ZERO_ROW = 1e-12       # a shorter row is zero
_DET_FLOOR = 1e-13      # |det| at or below it: a singular active subsystem
_POINT_CAP = 1e14       # a vertex candidate this large is discarded
_RAY_FLOOR = 1e-9       # null-direction norm, or relative singular value
_SVD_FLOOR = 1e-10      # relative singular value counted in the rank


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
                if (abs(r) if is_eq else r) > FEAS_TOL:
                    return np.empty((0, problem.dim)), np.empty(0), np.empty(0, bool), False
                continue
            rows.append(vec / nrm)
            rhs.append(r / nrm)
            eq_flags.append(is_eq)
    return (np.array(rows).reshape(-1, problem.dim), np.array(rhs, dtype=float),
            np.array(eq_flags, dtype=bool), True)


def _vertex_candidates(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solutions of every nonsingular ``r x r`` active subsystem, stacked."""
    m_rows, r = A.shape
    if m_rows < r:
        return np.empty((0, r))
    idx = np.array(list(combinations(range(m_rows), r)))
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
    if m_rows >= r - 1:
        idx = np.array(list(combinations(range(m_rows), r - 1)))
        if r == 2:
            rows = A[idx[:, 0]]
            perp = np.column_stack([-rows[:, 1], rows[:, 0]])
            keep = np.linalg.norm(perp, axis=1) > _RAY_FLOOR
            dirs.append(perp[keep])
        elif r == 3:
            cross = np.cross(A[idx[:, 0]], A[idx[:, 1]])
            keep = np.linalg.norm(cross, axis=1) > _RAY_FLOOR
            dirs.append(cross[keep] / np.linalg.norm(cross[keep], axis=1, keepdims=True))
        else:
            for rows_idx in idx:
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
                    obj: np.ndarray) -> LPResult:
    """Solve a full-row-rank-reduced LP by basic-solution enumeration.

    Preconditions: rows span the whole (reduced) space, so the feasible set
    is pointed and -- when nonempty -- has a vertex; every unbounded problem
    has an improving extreme ray with ``dim - 1`` active rows.
    """
    points = _vertex_candidates(A, rhs)
    if points.shape[0] == 0:
        return LPResult.infeasible()

    feasible = _satisfied(points @ A.T - rhs, is_eq)
    if not feasible.any():
        return LPResult.infeasible()

    vals = points[feasible] @ obj
    best = int(np.argmax(vals))
    best_val = float(vals[best])
    best_point = points[feasible][best]

    rays = _ray_candidates(A, obj)
    if rays.shape[0]:
        improving = (rays @ obj > FEAS_TOL) & _satisfied(rays @ A.T, is_eq)
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
    rank = int(np.sum(svals > _SVD_FLOOR * max(1.0, float(svals[0]))))
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


def _mheight_reference(generator: GeneratorMatrix, m: int) -> ExtendedHeight:
    """Literal per-configuration solve through :func:`solve_lp`."""
    n = generator.n
    if lp_family_size(n, m) * (n - m) > _MAX_REFERENCE_LPS:
        raise CapacityError(
            f"configuration family for n={n}, m={m} is too large "
            "to solve one LP at a time")
    best_val = -math.inf
    best_point: tuple[float, ...] | None = None
    for config in iter_configurations(n, m):
        result = solve_lp(configuration_lp(generator, config))
        if result.status == UNBOUNDED:
            ray = canonical_direction(np.array(result.ray))
            return ExtendedHeight(math.inf, witness=tuple(ray))
        if result.status == OPTIMAL and result.value > best_val + TIE_TOL:
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
        return ExtendedHeight(math.inf, witness=tuple(canonical_direction(cols[j])))
    return ExtendedHeight(best_val, witness=best_point)
