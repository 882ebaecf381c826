"""The benchmark's three workloads: their seeded inputs, ops and output checks.

Each workload is a closed loop with one client: one op at a time in one
process (``cli`` starts one ``python -m mheight.cli`` child per op).  The
seed only changes random matrix entries, never the shapes in a mix.

An op's check runs after its pass, outside the timed interval, and raises
:class:`CheckError` when the output is wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import mheight as mh
import mheight.cli  # noqa: F401  (binds mh.cli for the verify ops)

SQRT5 = math.sqrt(5.0)
PHI = (1.0 + SQRT5) / 2.0
INF = math.inf

#: The m-height table of PAPER.md for the two polyhedral codes.
ICOSA_TABLE = (SQRT5, SQRT5, 2.0 + SQRT5, INF, INF)
DODE_TABLE = (3.0 / SQRT5, PHI, 4.0 - SQRT5, 3.0, 2.0 + SQRT5, 2.0 + SQRT5,
              5.0 + 2.0 * SQRT5, INF, INF)

VALUE_REL = 1e-6        # agreement with the table or a closed form
WITNESS_REL = 1e-9      # witness re-encoding and codeword sampling
SEARCH_REL = 1e-4       # how far below exact a search may land
SEARCH_HUGE = 1e12      # a finite search value this large signals +inf
CODEWORD_SAMPLES = 4096


def polygonal_table(n: int) -> tuple[float, ...]:
    """PAPER.md's dual-polygonal profile, written out independently."""
    half = math.pi / (2 * n)
    out = []
    for m in range(1, n):
        if m == n - 1:
            out.append(INF)
        elif m % 2 == 0:
            out.append(math.cos(half) / math.cos((m + 1) * half))
        else:
            out.append(1.0 / math.cos((m + 1) * half))
    return tuple(out)


class CheckError(Exception):
    """An op's output is wrong."""


@dataclass
class Op:
    name: str
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    #: Why this op is expected to fail at this commit, or None.
    known_defect: str | None = None


@dataclass
class Workload:
    ops: list[Op]
    #: Fewest passes in a run.  It keeps the sample count above the point
    #: where the tail percentile steps up (100 or 1000 samples), so runs of
    #: one commit report the same percentile however slow the host is.
    min_passes: int = 8
    subprocess_ops: bool = False
    #: Peak resident set of each child, in KiB (``cli`` only).
    child_maxrss_kib: list[int] = field(default_factory=list)

    @property
    def warmup(self) -> list[Op]:
        """The first op of each kind, run once before timing starts."""
        kinds: dict[str, Op] = {}
        for op in self.ops:
            kinds.setdefault(op.kind, op)
        return list(kinds.values())


# ---------------------------------------------------------------------------
# Checks


def _close(found: float, want: float, rel: float) -> bool:
    if math.isinf(want) or math.isinf(found):
        return found == want
    return abs(found - want) <= rel * abs(want)


def expect_values(values, want, what: str) -> None:
    values = tuple(float(v) for v in values)
    if len(values) != len(want):
        raise CheckError(f"{what}: {len(values)} heights, expected {len(want)}")
    for m, (got, ref) in enumerate(zip(values, want), start=1):
        if not _close(got, ref, VALUE_REL):
            raise CheckError(f"{what}: m={m} gives {got!r}, expected {ref!r}")


def expect_height(generator: mh.GeneratorMatrix, m: int, height: mh.ExtendedHeight,
                  finite: bool, mags: np.ndarray, what: str) -> None:
    """Check one exact height of a code with no closed form.

    ``finite`` is the predicted finiteness.  A finite value must be
    reproduced by its witness and dominate every sampled codeword ratio
    (``mags`` holds sampled codeword magnitudes sorted descending).  An
    infinite value's witness must zero the (m+1)-th order statistic.
    """
    if height.infinite == finite:
        raise CheckError(f"{what}: m={m} is {height}, predicted "
                         f"{'finite' if finite else 'inf'}")
    if height.witness is None:
        raise CheckError(f"{what}: m={m} has no witness")
    word = mh.encode(generator, height.witness)
    if not finite:
        if word.order_stats[m] > WITNESS_REL * word.order_stats[0]:
            raise CheckError(f"{what}: m={m} infinite witness has "
                             f"order statistic {word.order_stats[m]!r}")
        return
    again = word.height(m)
    if abs(again - height.value) > WITNESS_REL * height.value:
        raise CheckError(f"{what}: m={m} witness gives {again!r}, "
                         f"value {height.value!r}")
    den = mags[:, m]
    ratios = mags[den > 0, 0] / den[den > 0]
    if ratios.size and float(ratios.max()) > height.value * (1.0 + WITNESS_REL):
        raise CheckError(f"{what}: m={m} sampled codeword ratio "
                         f"{float(ratios.max())!r} exceeds {height.value!r}")


def sampled_magnitudes(generator: mh.GeneratorMatrix,
                       rng: np.random.Generator) -> np.ndarray:
    mags = np.abs(rng.normal(size=(CODEWORD_SAMPLES, generator.k)) @ generator.matrix)
    return -np.sort(-mags, axis=1)


def expect_search(found: mh.ExtendedHeight, exact: float, what: str) -> None:
    """A search result is a lower bound within ``SEARCH_REL`` of exact.

    For an infinite height the search reports ``inf`` or a value beyond
    ``SEARCH_HUGE`` (an order statistic at round-off level).
    """
    if math.isinf(exact):
        if not (found.infinite or found.value >= SEARCH_HUGE):
            raise CheckError(f"{what}: {found} where the height is infinite")
        return
    if found.infinite:
        raise CheckError(f"{what}: inf where the height is {exact!r}")
    gap = (exact - found.value) / exact
    if not -WITNESS_REL <= gap <= SEARCH_REL:
        raise CheckError(f"{what}: {found.value!r} vs exact {exact!r} "
                         f"(relative gap {gap:.3g})")


def expect_pairs(pairs, table, ratio: float, what: str) -> None:
    """``feasible_pairs`` against a direct reading of the capability rule."""
    top = len(table)
    want = [(t, s) for t in range(top // 2, -1, -1)
            for s in range(top - 2 * t, -1, -1)
            if (t, s) != (0, 0) and not math.isinf(table[2 * t + s - 1])
            and 2.0 * (table[2 * t + s - 1] + 1.0) <= ratio]
    if [tuple(p) for p in pairs] != want:
        raise CheckError(f"{what}: pairs {pairs} != expected {want}")


# ---------------------------------------------------------------------------
# profile


def _profile_case(name: str, generator: mh.GeneratorMatrix, check, defect=None) -> Op:
    return Op(f"profile/{name}", "exact_profile",
              lambda: mh.exact_profile(generator), check, defect)


def _custom_check(generator, first_inf: int, rng, name: str):
    mags = sampled_magnitudes(generator, rng)

    def check(profile: mh.MHeightProfile) -> None:
        if profile.max_m != generator.n - 1:
            raise CheckError(f"{name}: profile has {profile.max_m} heights")
        for m, h in enumerate(profile.heights, start=1):
            expect_height(generator, m, h, m < first_inf, mags, name)
    return check


def _table_check(want, name: str):
    return lambda profile: expect_values(profile.values(), want, name)


def profile_workload(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 1])
    check_rng = np.random.default_rng([seed, 2])
    ops: list[Op] = [
        _profile_case("icosahedral", mh.dual_icosahedral(),
                      _table_check(ICOSA_TABLE, "icosahedral")),
        _profile_case("dodecahedral", mh.dual_dodecahedral(),
                      _table_check(DODE_TABLE, "dodecahedral")),
    ]
    for n in (8, 10, 12, 14):
        want = tuple(mh.polygonal_height(n, m).value for m in range(1, n))
        ops.append(_profile_case(f"polygonal-n{n}", mh.dual_polygonal(n),
                                 _table_check(want, f"polygonal-n{n}")))
    # A generic Gaussian code is MDS: its first infinite height is at
    # m = n - k + 1, where n - m < k columns cannot span.
    for k, n in ((3, 10), (3, 12), (3, 14), (4, 10), (4, 12), (5, 10)):
        g = mh.from_columns(rng.normal(size=(n, k)))
        name = f"gaussian-k{k}-n{n}"
        ops.append(_profile_case(name, g, _custom_check(g, n - k + 1, check_rng, name)))
    # Column n//2 is a multiple of column 0, so a codeword orthogonal to
    # both and to one more column is zero on three coordinates: the first
    # infinite height moves down to m = n - k.
    for n in (10, 12):
        cols = rng.normal(size=(n, 3))
        cols[n // 2] = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0)) * cols[0]
        g = mh.from_columns(cols)
        name = f"non-mds-k3-n{n}"
        ops.append(_profile_case(name, g, _custom_check(g, n - 3, check_rng, name)))
    # Rank 2 in k = 3: codewords vanish on one coordinate, so the height is
    # infinite from m = n - 1.  This input takes the reference engine.
    cols = rng.normal(size=(5, 2)) @ rng.normal(size=(2, 3))
    g = mh.from_columns(cols)
    ops.append(_profile_case("rank2-k3-n5", g, _custom_check(g, 4, check_rng, "rank2-k3-n5")))
    dode = mh.dual_dodecahedral().matrix
    for scale in (1e-6, 1e-120):
        name = f"dodecahedral-x{scale:g}"
        ops.append(_profile_case(
            name, mh.from_columns((dode * scale).T), _table_check(DODE_TABLE, name),
            "scale-induced false infinities (ROADMAP.md, scale-invariant numerics)" if scale < 1e-100 else None))
    return Workload(ops)


# ---------------------------------------------------------------------------
# query


def _verify_op(suite: str, seed: int) -> Op:
    argv = ["verify", "--suite", suite, "--seed", str(seed)]

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = mh.cli.run(argv)
        return code, buf.getvalue()

    def check(out) -> None:
        code, text = out
        if code != 0:
            raise CheckError(f"verify {suite}: exit {code}")
        doc = json.loads(text)
        if doc.get("passed") is not True:
            raise CheckError(f"verify {suite}: not passed")
    return Op(f"query/verify-{suite}", "verify", call, check)


def query_workload(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 3])
    check_rng = np.random.default_rng([seed, 4])
    ops: list[Op] = []

    def search(name, generator, domain, m, exact):
        ops.append(Op(f"query/search-{name}-m{m}", "domain_search",
                      lambda: mh.domain_search(generator, m, domain),
                      lambda h: expect_search(h, exact, f"search {name} m={m}")))

    icos, dode = mh.dual_icosahedral(), mh.dual_dodecahedral()
    icos_domain, dode_domain = mh.icosahedral_domain(), mh.dodecahedral_domain()
    for m in range(1, 6):
        search("icosahedral", icos, icos_domain, m, ICOSA_TABLE[m - 1])
    for m in range(1, 10):
        search("dodecahedral", dode, dode_domain, m, DODE_TABLE[m - 1])
    for n in (8, 16, 32, 64):
        g, domain, table = mh.dual_polygonal(n), mh.polygonal_domain(n), polygonal_table(n)
        for m in (1, 2, n // 2):
            search(f"polygonal-n{n}", g, domain, m, table[m - 1])

    # Single heights on codes whose whole profile is too slow today: m = 1,
    # 2 and the first infinite m.
    for k, n in ((3, 18), (3, 24)):
        g = mh.from_columns(rng.normal(size=(n, k)))
        mags = sampled_magnitudes(g, check_rng)
        name = f"gaussian-k{k}-n{n}"
        for m in (1, 2, n - k + 1):
            ops.append(Op(
                f"query/exact-{name}-m{m}", "exact_mheight",
                lambda g=g, m=m: mh.exact_mheight(g, m),
                lambda h, g=g, m=m, mags=mags, name=name, inf_from=n - k + 1:
                    expect_height(g, m, h, m < inf_from, mags, name)))
        ops.append(Op(f"query/is-mds-{name}", "is_mds", lambda g=g: mh.is_mds(g),
                      lambda ok, name=name: _expect(ok is True, f"{name} is MDS")))
    poly32, table32 = mh.dual_polygonal(32), polygonal_table(32)
    for m in (1, 2, 31):
        ops.append(Op(f"query/exact-polygonal-n32-m{m}", "exact_mheight",
                      lambda m=m: mh.exact_mheight(poly32, m),
                      lambda h, m=m: expect_values([h.value], [table32[m - 1]],
                                                   f"exact polygonal-n32 m={m}")))

    families = (("icosahedral", icos.family, ICOSA_TABLE),
                ("dodecahedral", dode.family, DODE_TABLE),
                ("polygonal-n32", poly32.family, table32))
    for name, family, table in families:
        ops.append(Op(f"query/closed-profile-{name}", "closed_profile",
                      lambda family=family: mh.closed_profile(family),
                      lambda p, table=table, name=name: expect_values(p.values(), table, name)))
    singles = (("polygonal-n32-m5", lambda: mh.polygonal_height(32, 5), table32[4]),
               ("icosahedral-m3", lambda: mh.icosahedral_height(3), ICOSA_TABLE[2]),
               ("dodecahedral-m5", lambda: mh.dodecahedral_height(5), DODE_TABLE[4]))
    for name, call, want in singles:
        ops.append(Op(f"query/closed-{name}", "family_height", call,
                      lambda h, want=want, name=name: expect_values([h.value], [want], name)))

    dode_profile = mh.closed_profile(dode.family)
    poly_profile = mh.closed_profile(poly32.family)
    for name, profile, table, ratio in (("dodecahedral", dode_profile, DODE_TABLE, 10.0),
                                        ("polygonal-n32", poly_profile, table32, 5.0)):
        ops.append(Op(f"query/feasible-pairs-{name}", "feasible_pairs",
                      lambda profile=profile, ratio=ratio: mh.feasible_pairs(profile, ratio),
                      lambda pairs, table=table, ratio=ratio, name=name:
                          expect_pairs(pairs, table, ratio, name)))
    spec = mh.CapabilitySpec(tau=1, sigma=1, delta=1.0, Delta=2.0 * (DODE_TABLE[2] + 1.0) + 0.5)
    ops.append(Op("query/check-spec-dodecahedral", "check_spec",
                  lambda: mh.check_spec(dode_profile, spec),
                  lambda ok: _expect(ok is True, "check_spec tau=1 sigma=1")))

    for suite in ("polygonal-order", "icos-chain", "dode-ranks", "monotonicity", "candidates"):
        ops.append(_verify_op(suite, seed))

    return Workload(ops, min_passes=30)


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(f"{what}: failed")


# ---------------------------------------------------------------------------
# cli


def cli_argv(seed: int) -> list[list[str]]:
    """Every subcommand on the built-ins, as the ``cli`` workload runs it."""
    return [
        ["gen", "--family", "dual-dodecahedral"],
        ["height", "--family", "dual-dodecahedral", "--m", "5", "--method", "closed"],
        ["height", "--family", "dual-icosahedral", "--m", "3", "--method", "lp"],
        ["height", "--family", "dual-polygonal", "--n", "16", "--m", "4", "--method", "search"],
        ["profile", "--family", "dual-icosahedral", "--method", "closed"],
        ["profile", "--family", "dual-polygonal", "--n", "12", "--method", "closed",
         "--format", "csv"],
        ["profile", "--family", "dual-dodecahedral", "--method", "lp"],
        ["capability", "--family", "dual-dodecahedral", "--ratio", "10"],
        ["capability", "--family", "dual-icosahedral", "--tau", "1", "--sigma", "0",
         "--delta", "1", "--Delta", "8"],
        ["verify", "--suite", "candidates"],
        ["verify", "--suite", "monotonicity"],
        ["verify", "--suite", "icos-chain", "--samples", "200", "--seed", str(seed)],
    ]


def _table_for(family: str, n: int | None) -> tuple[float, ...]:
    if family == "dual-icosahedral":
        return ICOSA_TABLE
    if family == "dual-dodecahedral":
        return DODE_TABLE
    return polygonal_table(n)


def _arg(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _check_cli_doc(argv: list[str], text: str) -> None:
    """Content check of one CLI document against the paper's values."""
    command, family = argv[0], _arg(argv, "--family")
    n = _arg(argv, "--n")
    table = _table_for(family, int(n) if n else None) if family else ()
    if _arg(argv, "--format") == "csv":
        lines = text.splitlines()
        if lines[0] != "m,value":
            raise CheckError(f"csv header {lines[0]!r}")
        expect_values([float(line.split(",")[1]) for line in lines[1:]], table, "csv profile")
        return
    doc = json.loads(text)

    def value(v) -> float:
        return INF if v == "inf" else float(v)

    if command == "gen":
        want = getattr(mh, family.replace("-", "_"))().matrix
        if not np.array_equal(np.array(doc["columns"]).T, want):
            raise CheckError("gen: matrix differs from the constructor")
    elif command == "height":
        m = int(_arg(argv, "--m"))
        if _arg(argv, "--method") == "search":
            expect_search(mh.ExtendedHeight(value(doc["value"])), table[m - 1], "cli search")
        else:
            expect_values([value(doc["value"])], [table[m - 1]], "cli height")
    elif command == "profile":
        expect_values([value(h["value"]) for h in doc["heights"]], table, "cli profile")
    elif command == "capability":
        if "pairs" in doc:
            expect_pairs(doc["pairs"], table, float(_arg(argv, "--ratio")), "cli capability")
        else:
            order = 2 * int(_arg(argv, "--tau")) + int(_arg(argv, "--sigma"))
            ratio = float(_arg(argv, "--Delta")) / float(_arg(argv, "--delta"))
            _expect(doc["feasible"] == (ratio >= 2.0 * (table[order - 1] + 1.0)),
                    "cli capability spec")
    elif doc.get("passed") is not True:
        raise CheckError("verify: not passed")


def child_env(src: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd: list[str], env: dict[str, str]) -> tuple[int, bytes, bytes, int]:
    """Run one child to completion: ``(exit code, stdout, stderr, maxrss KiB)``.

    The child is reaped with ``wait4`` so its own peak RSS is known.
    Stderr is read after stdout; the children write at most a short error
    message there, which fits the pipe buffer.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    with proc:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, usage.ru_maxrss


def cli_workload(seed: int, src: str) -> Workload:
    env = child_env(src)
    workload = Workload([], min_passes=9, subprocess_ops=True)
    first_stdout: dict[tuple[str, ...], bytes] = {}

    def make(argv: list[str]) -> Op:
        key = tuple(argv)

        def call():
            code, out, err, rss = run_child([sys.executable, "-m", "mheight.cli", *argv], env)
            workload.child_maxrss_kib.append(rss)
            return code, out, err

        def check(result) -> None:
            code, out, err = result
            if code != 0:
                raise CheckError(f"exit {code}: {err.decode(errors='replace')[-200:]}")
            if first_stdout.setdefault(key, out) != out:
                raise CheckError("stdout differs from an earlier run of the same argv")
            _check_cli_doc(argv, out.decode())
        return Op("cli/" + " ".join(argv), argv[0], call, check)

    workload.ops = [make(argv) for argv in cli_argv(seed)]
    return workload


def build(name: str, seed: int, src: str) -> Workload:
    if name == "profile":
        return profile_workload(seed)
    if name == "query":
        return query_workload(seed)
    if name == "cli":
        return cli_workload(seed, src)
    raise ValueError(f"unknown workload {name!r}")
