"""Command-line front end: construction, heights, verification, capability.

All commands write a single machine-readable document to stdout (JSON by
default, CSV for profiles on request) with fixed key order and 17
significant digit float formatting, so identical invocations are
byte-identical.  Exit codes: 0 success, 1 domain error (JSON error object on
stdout), 2 usage error (argparse message on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Any, Iterator, Sequence

import numpy as np

from . import closed_form, search
from .capability import CapabilitySpec, check_spec, feasible_pairs, required_ratio
from .codes import (
    DUAL_DODECAHEDRAL,
    DUAL_ICOSAHEDRAL,
    DUAL_POLYGONAL,
    Family,
    GeneratorMatrix,
    dual_dodecahedral,
    dual_icosahedral,
    dual_polygonal,
    encode,
)
from .errors import MHeightError
from .lp import exact_mheight, exact_profile

_FAMILIES = (DUAL_POLYGONAL, DUAL_ICOSAHEDRAL, DUAL_DODECAHEDRAL)
_SAMPLED_SUITES = ("polygonal-order", "icos-chain", "dode-ranks")
_SUITES = (*_SAMPLED_SUITES, "monotonicity", "candidates", "cross-check")
#: The smallest ``--samples`` each suite accepts; ``candidates`` takes none.
_MIN_SAMPLES = {**dict.fromkeys(_SAMPLED_SUITES, 1), "monotonicity": 2, "cross-check": 0}
_POLYGONAL_NS = range(3, 13)
_MONOTONICITY_GRID = 50
_MATCH_TOL = 1e-9       # verify contract: candidate and sampled heights
_AGREE_TOL = 1e-6       # verify contract: closed vs exact profiles, relative


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float reached the JSON emitter")
    return format(x, ".17g")


def _dumps(value: Any) -> str:
    """Minimal JSON emitter with deterministic float formatting."""
    out: list[str] = []
    _emit(value, out)
    return "".join(out)


def _emit(value: Any, out: list[str]) -> None:
    if isinstance(value, dict):
        out.append("{")
        for i, (key, item) in enumerate(value.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _emit(item, out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(", ")
            _emit(item, out)
        out.append("]")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(_fmt_float(float(value)))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif value is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def _build_generator(args: argparse.Namespace) -> GeneratorMatrix:
    if args.family == DUAL_POLYGONAL:
        if args.n is None:
            raise MHeightError("--n is required for the dual-polygonal family")
        return dual_polygonal(args.n)
    if args.n is not None:
        raise MHeightError(f"--n is only accepted for the {DUAL_POLYGONAL} family")
    if args.family == DUAL_ICOSAHEDRAL:
        return dual_icosahedral()
    return dual_dodecahedral()


def cmd_gen(args: argparse.Namespace) -> int:
    print(_dumps(_build_generator(args).to_json_dict()))
    return 0


def cmd_height(args: argparse.Namespace) -> int:
    generator = _build_generator(args)
    if args.method == "closed":
        height = closed_form.closed_profile(generator.family).height(args.m)
    elif args.method == "lp":
        height = exact_mheight(generator, args.m)
    else:
        if generator.family.kind == DUAL_POLYGONAL:
            domain: search.FundamentalDomain = search.polygonal_domain(generator.family.n)
        elif generator.family.kind == DUAL_ICOSAHEDRAL:
            domain = search.icosahedral_domain()
        else:
            domain = search.dodecahedral_domain()
        height = search.domain_search(generator, args.m, domain, args.resolution)
    doc = {"family": generator.family.label, "m": args.m,
           "method": args.method, **height.to_json_dict()}
    print(_dumps(doc))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    generator = _build_generator(args)
    if args.method == "closed":
        profile = closed_form.closed_profile(generator.family)
    else:
        profile = exact_profile(generator)
    if args.format == "csv":
        lines = ["m,value"]
        for m, h in enumerate(profile.heights, start=1):
            lines.append(f"{m},{'inf' if h.infinite else _fmt_float(h.value)}")
        print("\n".join(lines))
    else:
        print(_dumps(profile.to_json_dict()))
    return 0


def cmd_capability(args: argparse.Namespace) -> int:
    generator = _build_generator(args)
    profile = closed_form.closed_profile(generator.family)
    have_spec = any(x is not None for x in (args.tau, args.sigma, args.delta, args.Delta))
    if args.ratio is not None and have_spec:
        raise MHeightError("give either --ratio or the full --tau/--sigma/--delta/--Delta spec")
    if args.ratio is not None:
        pairs = feasible_pairs(profile, args.ratio)
        doc = {"family": generator.family.label, "ratio": args.ratio,
               "pairs": [[t, s] for t, s in pairs]}
    elif have_spec:
        if None in (args.tau, args.sigma, args.delta, args.Delta):
            raise MHeightError("--tau, --sigma, --delta and --Delta must be given together")
        spec = CapabilitySpec(args.tau, args.sigma, args.delta, args.Delta)
        feasible = check_spec(profile, spec)
        height = profile.height(spec.order)
        doc = {
            "family": generator.family.label,
            "tau": spec.tau, "sigma": spec.sigma,
            "delta": spec.delta, "Delta": spec.Delta,
            "ratio": spec.ratio,
            "required_ratio": "inf" if height.infinite else required_ratio(height),
            "feasible": feasible,
        }
    else:
        raise MHeightError("need --ratio or a full capability spec")
    print(_dumps(doc))
    return 0


# ---------------------------------------------------------------------------
# Verification suites


def _chunk_sizes(samples: int) -> Iterator[int]:
    """``samples`` split into passes of at most ``search._GRID_CHUNK`` points;
    memory stays bounded for any ``--samples``."""
    for start in range(0, samples, search._GRID_CHUNK):
        yield min(search._GRID_CHUNK, samples - start)


def _arc_chunks(rng: np.random.Generator, n: int, samples: int) -> Iterator[np.ndarray]:
    """``samples`` angles ``rng.random() * pi / (2n)``, in order, in chunks."""
    for size in _chunk_sizes(samples):
        yield rng.random(size) * math.pi / (2 * n)


def _triangle_chunks(rng: np.random.Generator,
                     samples: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The first ``samples`` pairs ``(u, v)`` with ``u + v <= 1`` among
    successive pairs of ``rng.random()`` draws, in chunks."""
    while samples > 0:
        uv = rng.random((search._GRID_CHUNK, 2))
        uv = uv[uv[:, 0] + uv[:, 1] <= 1.0][:samples]
        samples -= len(uv)
        yield uv[:, 0], uv[:, 1]


def _suite_polygonal_order(samples: int, rng: np.random.Generator) -> list[dict]:
    checks = []
    for n in _POLYGONAL_NS:
        bad = sum(int(search.polygonal_order_violations(n, alphas).sum())
                  for alphas in _arc_chunks(rng, n, samples))
        checks.append({"name": f"polygonal-order-n{n}", "samples": samples,
                       "violations": bad, "passed": bad == 0})
    return checks


def _suite_triangle_ranks(suite: str, samples: int, rng: np.random.Generator) -> list[dict]:
    icos = suite == "icos-chain"
    count = search.icosahedral_chain_violations if icos else search.dodecahedral_rank_violations
    bad = sum(int(count(us, vs).sum()) for us, vs in _triangle_chunks(rng, samples))
    name = "icosahedral-chain" if icos else "dodecahedral-ranks"
    return [{"name": name, "samples": samples, "violations": bad,
             "passed": bad == 0}]


def _suite_monotonicity(resolution: int) -> list[dict]:
    cases = [(Family(DUAL_POLYGONAL, n), f"polygonal-n{n}-m{m}", m)
             for n in _POLYGONAL_NS for m in range(1, n - 1)]
    cases += [(Family(DUAL_ICOSAHEDRAL), f"icosahedral-f{j}", j) for j in (1, 2, 3)]
    cases += [(Family(DUAL_DODECAHEDRAL), f"dodecahedral-f{j}", j)
              for j in (2, 4, 5, 6, 7, 8, 9, 10)]
    checks = []
    for family, name, j in cases:
        report = search.monotonicity_check(family, j, resolution)
        checks.append({"name": f"monotonic-{name}", "asserted": report.asserted,
                       "violations": len(report.violations), "passed": report.ok})
    return checks


def _suite_candidates() -> list[dict]:
    generator = dual_dodecahedral()
    domain = search.dodecahedral_domain()
    points = [domain.point(u, v) for u, v in search.dodecahedral_candidates()]
    checks = []
    for m in range(3, 8):
        best = max(encode(generator, x).height(m) for x in points)
        closed = closed_form.dodecahedral_height(m)
        err = abs(best - closed.value) / closed.value
        checks.append({"name": f"candidate-max-m{m}", "relative_error": err,
                       "passed": err <= _MATCH_TOL})
    return checks


def _suite_cross_check(samples: int, rng: np.random.Generator) -> list[dict]:
    checks = []
    cases = [(f"dual-polygonal-n{n}", dual_polygonal(n)) for n in _POLYGONAL_NS]
    cases += [(DUAL_ICOSAHEDRAL, dual_icosahedral()),
              (DUAL_DODECAHEDRAL, dual_dodecahedral())]
    for name, generator in cases:
        closed = closed_form.closed_profile(generator.family)
        exact = exact_profile(generator)
        worst = 0.0
        agree = True
        for m in range(1, generator.n):
            c, e = closed.height(m), exact.height(m)
            if c.infinite != e.infinite:
                agree = False
                break
            if not c.infinite:
                worst = max(worst, abs(c.value - e.value) / c.value)
        agree = agree and worst <= _AGREE_TOL
        entry = {"name": f"cross-check-{name}", "max_relative_error": worst,
                 "passed": agree}
        if samples > 0:
            dominated = True
            # Row-by-row normal draws, so chunking keeps the random stream.
            for size in _chunk_sizes(samples):
                mags = np.abs(rng.normal(size=(size, generator.k)) @ generator.matrix)
                mags.sort(axis=1)
                for m in range(1, generator.n):
                    e = exact.height(m)
                    if e.infinite:
                        continue
                    den = mags[:, -1 - m]
                    ok = den > 0
                    ratios = mags[ok, -1] / den[ok]
                    if ratios.size and float(ratios.max()) > e.value + _MATCH_TOL:
                        dominated = False
            entry["sample_dominated"] = dominated
            entry["passed"] = agree and dominated
        checks.append(entry)
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    samples = args.samples
    if args.suite == "polygonal-order":
        checks = _suite_polygonal_order(1000 if samples is None else samples, rng)
    elif args.suite in ("icos-chain", "dode-ranks"):
        checks = _suite_triangle_ranks(args.suite, 1000 if samples is None else samples, rng)
    elif args.suite == "monotonicity":
        checks = _suite_monotonicity(_MONOTONICITY_GRID if samples is None else samples)
    elif args.suite == "candidates":
        checks = _suite_candidates()
    else:
        checks = _suite_cross_check(0 if samples is None else samples, rng)
    passed = all(c["passed"] for c in checks)
    doc = {"suite": args.suite, "seed": args.seed,
           "checks": checks, "passed": passed}
    print(_dumps(doc))
    return 0 if passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and building it costs about a millisecond."""
    parser = argparse.ArgumentParser(
        prog="mheight",
        description="Geometric analog codes: generators, m-height profiles, "
                    "verification suites, and capability queries.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(p: argparse.ArgumentParser) -> None:
        p.add_argument("--family", required=True, choices=_FAMILIES)
        p.add_argument("--n", type=int, default=None,
                       help="code length (dual-polygonal only)")

    p_gen = sub.add_parser("gen", help="emit a generator matrix as JSON")
    add_family(p_gen)
    p_gen.set_defaults(func=cmd_gen)

    p_height = sub.add_parser("height", help="compute one m-height")
    add_family(p_height)
    p_height.add_argument("--m", type=int, required=True)
    p_height.add_argument("--method", required=True,
                          choices=("closed", "lp", "search"))
    p_height.add_argument("--resolution", type=int, default=None,
                          help="triangle grid resolution for --method search "
                               "(the polygonal arc search is exact and ignores it)")
    p_height.set_defaults(func=cmd_height)

    p_profile = sub.add_parser("profile", help="compute a full profile")
    add_family(p_profile)
    p_profile.add_argument("--method", required=True, choices=("closed", "lp"))
    p_profile.add_argument("--format", default="json", choices=("json", "csv"))
    p_profile.set_defaults(func=cmd_profile)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=_SUITES)
    p_verify.add_argument("--samples", type=int, default=None,
                          help="sample count (randomized suites) or grid "
                               "resolution (monotonicity); not for candidates")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_cap = sub.add_parser("capability", help="outlier-handling queries")
    add_family(p_cap)
    p_cap.add_argument("--ratio", type=float, default=None)
    p_cap.add_argument("--tau", type=int, default=None)
    p_cap.add_argument("--sigma", type=int, default=None)
    p_cap.add_argument("--delta", type=float, default=None)
    p_cap.add_argument("--Delta", dest="Delta", type=float, default=None)
    p_cap.set_defaults(func=cmd_capability)

    return parser


def run(argv: Sequence[str]) -> int:
    """Parse and execute one invocation; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
        if args.command == "verify" and args.seed < 0:
            parser.error("--seed must be >= 0")
        if args.command == "verify" and args.samples is not None:
            floor = _MIN_SAMPLES.get(args.suite)
            if floor is None:
                parser.error(f"--samples does not apply to suite {args.suite}")
            if args.samples < floor:
                parser.error(f"--samples must be >= {floor} for suite {args.suite}")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return code
    try:
        return args.func(args)
    except MHeightError as exc:
        print(_dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 1


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
