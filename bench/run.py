#!/usr/bin/env python3
"""Benchmark of the mheight package: seeded workloads, checked outputs.

    python3 bench/run.py                      # every workload, summary table
    python3 bench/run.py --workload profile --seed 1 --seconds 45 --trace 0

Each run sets up, then runs whole passes over the workload's fixed op list
until ``--seconds`` of op time has accumulated and the workload's minimum
pass count is reached, and checks every op's output after its pass.  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``; the per-layer metrics with ``--trace 1``).
The report and the run record go to stderr.  See ``bench/README.md`` for
why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy

import layers
from stats import percentile, tail_percentile
from tracing import Tracer, parse_importtime

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("profile", "query", "cli")
SETUP_REPEATS = 5


@dataclass
class Pass:
    traced: bool
    latencies_ns: list[int]
    #: Start-up probe taken after a traced pass (see ``startup_probe``).
    startup: dict[str, float] | None = None


def op_rate(passes: list[Pass]) -> float:
    """Ops completed per second of op time."""
    return (sum(len(p.latencies_ns) for p in passes)
            / (sum(sum(p.latencies_ns) for p in passes) / 1e9))


@dataclass
class Failure:
    op: str
    reason: str
    known_defect: str | None


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="op time to accumulate before the last pass ends")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def locate_package() -> None:
    """Put ``src`` first on the path, or exit non-zero without a result.

    The harness modules that import ``mheight`` (``workloads``) are imported
    inside the functions that need them, after this has run.
    """
    if not (SRC / "mheight" / "__init__.py").is_file():
        sys.exit(f"bench: {SRC / 'mheight'} not found; run from a checkout "
                 "of the repository")
    sys.path.insert(0, str(SRC))
    import mheight
    if Path(mheight.__file__).resolve().parent != SRC / "mheight":
        sys.exit(f"bench: imported mheight from {mheight.__file__}, not {SRC}")


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Set-up


def warm_up(workload) -> None:
    for op in workload.warmup:
        op.call()
    workload.child_maxrss_kib.clear()


def measure_setup(args: argparse.Namespace) -> list[float]:
    """Seconds from spawning a fresh workload process to its first timed op,
    measured on ``SETUP_REPEATS`` separate processes."""
    from workloads import run_child
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic_ns()
        code, out, err, _ = run_child(cmd, dict(os.environ))
        if code != 0:
            raise RuntimeError(f"set-up process failed: {err.decode(errors='replace')}")
        samples.append((int(out.split()[-1]) - start) / 1e9)
    return samples


# ---------------------------------------------------------------------------
# Timed loop


def run_passes(workload, seconds: float, tracer: Tracer | None, seed: int):
    """Whole passes until ``seconds`` of op time and the workload's minimum
    pass count; checks after each pass.

    With a tracer, passes alternate untraced and traced; each traced pass
    ends with an in-process replay of the ``cli`` argv list and is followed
    by one start-up probe, so the probes see the same host load as the ops.
    """
    passes: list[Pass] = []
    failures: list[Failure] = []
    timed = 0
    while (timed < seconds * 1e9 or len(passes) < workload.min_passes
           or (tracer is not None and len(passes) < 2)):
        pass_tracer = tracer if len(passes) % 2 == 1 else None
        latencies, outcomes = timed_pass(workload, pass_tracer, seed)
        for op, (result, error) in zip(workload.ops, outcomes):
            reason = None
            if error is not None:
                reason = f"raised {type(error).__name__}: {error}"
            else:
                try:
                    op.check(result)
                except Exception as exc:  # wrong output, or output the check cannot read
                    reason = f"{type(exc).__name__}: {exc}"
            if reason is not None:
                failures.append(Failure(op.name, reason, op.known_defect))
        passes.append(Pass(pass_tracer is not None, latencies,
                           startup_probe() if pass_tracer is not None else None))
        timed += sum(latencies)
    return passes, failures


def timed_pass(workload, tracer: Tracer | None, seed: int):
    """One pass over the op list: ``(latencies in ns, (result, error) per op)``."""
    import mheight as mh
    from workloads import cli_argv

    latencies, outcomes = [], []
    if tracer is not None:
        tracer.install("mheight", layers.TARGETS)
    try:
        for op in workload.ops:
            span = (tracer.span(layers.OP_PREFIX + op.kind) if tracer is not None
                    else contextlib.nullcontext())
            with span:
                start = time.perf_counter_ns()
                try:
                    outcome = (op.call(), None)
                except Exception as exc:  # a raising op is a failed op
                    outcome = (None, exc)
                latencies.append(time.perf_counter_ns() - start)
            outcomes.append(outcome)
        if tracer is not None:
            for argv in cli_argv(seed):
                with tracer.span(layers.REPLAY_PREFIX + argv[0]), \
                        contextlib.redirect_stdout(io.StringIO()):
                    code = mh.cli.run(argv)
                if code != 0:
                    raise RuntimeError(f"in-process replay of {argv} exited {code}")
    finally:
        if tracer is not None:
            tracer.uninstall()
    return latencies, outcomes


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(workload, passes: list[Pass], setup: list[float],
               failures: list[Failure]) -> tuple[dict, dict]:
    latencies = [ns / 1e6 for p in passes for ns in p.latencies_ns]
    tail_pct = tail_percentile(len(latencies))
    if workload.subprocess_ops:
        rss_kib = max(workload.child_maxrss_kib)
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (op_rate(passes), "1/s"),
        "op_p50_ms": (percentile(latencies, 50.0), "ms"),
        "op_tail_ms": (percentile(latencies, tail_pct), "ms"),
        "success_rate": (1.0 - len(failures) / len(latencies), "ratio"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
    }
    detail = {"tail_percentile": tail_pct, "tail_samples": len(latencies),
              "setup_samples_s": setup, "passes": len(passes),
              "ops_per_pass": len(workload.ops)}
    return metrics, detail


def startup_probe() -> dict[str, float]:
    """Start-up of fresh processes, in ms.

    ``interpreter``: ``python -c pass``.  ``import_cli``: ``python -c
    "import mheight.cli"``, the part of every ``cli`` op before its command
    runs.  ``numpy`` and ``mheight_self``: cumulative numpy import and the
    summed self time of the ``mheight`` modules, from ``-X importtime``.
    """
    from workloads import child_env, run_child
    env = child_env(str(SRC))

    def wall_ms(cmd: list[str]) -> tuple[float, bytes]:
        start = time.perf_counter_ns()
        code, _, err, _ = run_child([sys.executable, *cmd], env)
        if code != 0:
            raise RuntimeError(f"start-up probe {cmd} failed: {err.decode(errors='replace')}")
        return (time.perf_counter_ns() - start) / 1e6, err

    interpreter, _ = wall_ms(["-c", "pass"])
    import_cli, _ = wall_ms(["-c", "import mheight.cli"])
    _, err = wall_ms(["-X", "importtime", "-c", "import mheight.cli"])
    rows = parse_importtime(err.decode())
    return {"interpreter": interpreter, "import_cli": import_cli,
            "numpy": rows["numpy"][1] / 1e3,
            "mheight_self": sum(own for name, (own, _) in rows.items()
                                if name == "mheight" or name.startswith("mheight.")) / 1e3}


def per_layer(workload, passes: list[Pass], tracer) -> tuple[dict, dict]:
    import mheight as mh
    traced = [p for p in passes if p.traced]
    n_traced = len(traced)
    own = tracer.self_times()
    spans = tracer.spans
    metrics: dict[str, float] = {}
    for group, (calls, ns) in layers.group_totals(tracer, own).items():
        metrics[f"{group}.calls"] = calls / n_traced
        metrics[f"{group}.self_ms"] = ns / 1e6 / n_traced
    counts, gap = layers.computed_counts(spans, mh)
    metrics.update({name: value / n_traced for name, value in counts.items()})
    metrics["search.max_rel_gap"] = gap
    probes = [p.startup for p in traced]
    probe = {key: statistics.median(pr[key] for pr in probes) for key in probes[0]}
    metrics["startup.interpreter_ms"] = probe["interpreter"]
    metrics["startup.import_numpy_ms"] = probe["numpy"]
    metrics["startup.import_mheight_self_ms"] = probe["mheight_self"]

    prefix = layers.REPLAY_PREFIX if workload.subprocess_ops else layers.OP_PREFIX
    roots = [i for i, s in enumerate(spans) if s.name.startswith(prefix)]
    verify_roots = [i for i in roots if spans[i].name.endswith(":verify")]
    other_roots = sorted(set(roots) - set(verify_roots))
    by_module = layers.module_self_ns(spans, own, roots)
    verify_ns = sum(spans[i].end - spans[i].start for i in verify_roots)
    search_outside_ns = layers.module_self_ns(spans, own, other_roots)["search"]
    if workload.subprocess_ops:
        # Ops run in children; the replay gives their in-process part and
        # the ``import mheight.cli`` probe their start-up, both against the
        # child op time.
        total_ns = sum(sum(p.latencies_ns) for p in traced)
        n_ops = sum(len(p.latencies_ns) for p in traced)
        startup_ns = n_ops * probe["import_cli"] * 1e6
        by_module["other"] = total_ns - startup_ns - sum(
            by_module[m] for m in layers.MODULES)
    else:
        total_ns = sum(spans[i].end - spans[i].start for i in roots)
        startup_ns = 0.0
    for module, ns in by_module.items():
        metrics[f"share.{module}"] = 100.0 * ns / total_ns
    metrics["share.startup"] = 100.0 * startup_ns / total_ns
    metrics["share.search_and_verify"] = 100.0 * (verify_ns + search_outside_ns) / total_ns
    untraced_rate = op_rate([p for p in passes if not p.traced])
    metrics["trace.overhead_pct"] = 100.0 * (untraced_rate / op_rate(traced) - 1.0)
    units = dict(layers.metric_catalogue())
    return ({name: (metrics[name], units[name]) for name in units},
            {"traced_passes": n_traced, "spans": len(spans)})


# ---------------------------------------------------------------------------
# Run record and output


def run_record(args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "commit": _git_commit(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def report(workload: str, metrics: dict, failures: list[Failure], record: dict) -> None:
    log(f"== {workload} ==")
    for name, (value, unit) in metrics.items():
        log(f"  {name:40s} {value:14.6g} {unit}")
    log(f"  {'error_rate':40s} {record['error_rate']:14.6g} ratio")
    for (op, reason), count in Counter((f.op, f.reason) for f in failures).items():
        known = next(f.known_defect for f in failures if f.op == op)
        log(f"  FAILED x{count} {op}: {reason}" + (f"  [known: {known}]" if known else ""))
    log("run record: " + json.dumps(record, sort_keys=True))


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def run_one(args: argparse.Namespace) -> int:
    import workloads
    workload = workloads.build(args.workload, args.seed, str(SRC))
    if args.setup_only:
        warm_up(workload)
        print(time.monotonic_ns())
        return 0
    setup = [] if args.trace else measure_setup(args)
    warm_up(workload)
    tracer = Tracer() if args.trace else None
    passes, failures = run_passes(workload, args.seconds, tracer, args.seed)
    attempted = sum(len(p.latencies_ns) for p in passes)
    record = run_record(args)
    record["error_rate"] = len(failures) / attempted
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is None:
        metrics, detail = end_to_end(workload, passes, setup, failures)
    else:
        metrics, detail = per_layer(workload, passes, tracer)
        tracer.dump(str(out_dir / f"{stem}-spans.json"))
    record.update(detail)
    report(args.workload, metrics, failures, record)
    with open(out_dir / f"{stem}-record.json", "w", encoding="utf-8") as fh:
        json.dump({"record": record,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   "failures": [vars(f) for f in failures],
                   "ops": [op.name for op in workload.ops],
                   "passes": [{"traced": p.traced, "latencies_ns": p.latencies_ns}
                              for p in passes]}, fh)
    # Failures of ops with a known, documented defect are counted in
    # ``failed`` and ``success_rate``; any other failure makes the run
    # incorrect.
    correct = all(f.known_defect for f in failures)
    print(result_line(correct, attempted, len(failures), metrics))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, then one table of every metric."""
    combined, attempted, failed, correct = {}, 0, 0, True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            log(f"bench: workload {name} exited {proc.returncode}")
            return proc.returncode
        doc = json.loads(proc.stdout.splitlines()[-1])
        correct &= doc["correct"]
        attempted += doc["attempted"]
        failed += doc["failed"]
        for metric, entry in doc["metrics"].items():
            combined[f"{name}.{metric}"] = (entry["value"], entry["unit"])
        combined[f"{name}.error_rate"] = (doc["failed"] / doc["attempted"], "ratio")
    print(f"{'metric':48s} {'value':>14s}  unit")
    for metric, (value, unit) in combined.items():
        print(f"{metric:48s} {value:14.6g}  {unit}")
    print(result_line(correct, attempted, failed, combined))
    return 0


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    locate_package()
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
