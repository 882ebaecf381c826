"""Self-tests of the benchmark harness: ``python3 -m pytest bench -q``."""

from __future__ import annotations

import contextlib
import io
import json

import pytest

import run

run.locate_package()

import mheight  # noqa: E402
import mheight.cli  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, parse_importtime  # noqa: E402


@pytest.mark.parametrize("count, pct", [
    (5, 50.0), (19, 50.0), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9), (10**6, 99.9),
])
def test_tail_percentile_leaves_ten_samples_beyond(count, pct):
    assert stats.tail_percentile(count) == pct
    if count >= 20:
        assert count * (100.0 - pct) / 100.0 >= 10 - 1e-9


def test_percentile_interpolates():
    values = [float(v) for v in range(1, 101)]
    assert stats.percentile(values, 50.0) == pytest.approx(50.5)
    assert stats.percentile(values, 90.0) == pytest.approx(90.1)
    assert stats.percentile([3.0], 99.0) == 3.0


def _fake_workload() -> workloads.Workload:
    def check_equals_one(value):
        if value != 1:
            raise workloads.CheckError(f"got {value}")

    def boom():
        raise ValueError("boom")

    ops = [
        workloads.Op("good", "k", lambda: 1, check_equals_one),
        workloads.Op("wrong", "k", lambda: 2, check_equals_one),
        workloads.Op("raises", "k", boom, check_equals_one),
    ]
    return workloads.Workload(ops, min_passes=2)


def test_wrong_output_and_exception_count_as_failed():
    workload = _fake_workload()
    passes, failures = run.run_passes(workload, 1e-9, None, seed=0)
    assert len(passes) == 2
    assert [f.op for f in failures] == ["wrong", "raises"] * 2
    assert "CheckError" in failures[0].reason
    assert "ValueError" in failures[1].reason
    metrics, detail = run.end_to_end(workload, passes, [0.1], failures)
    assert metrics["success_rate"][0] == pytest.approx(1.0 / 3.0)
    assert detail["tail_samples"] == 6       # failed ops keep their latency


def test_benchmark_json_names_every_reported_metric():
    import layers
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert per_layer == dict(layers.metric_catalogue())
    workload = _fake_workload()
    passes, failures = run.run_passes(workload, 1e-9, None, seed=0)
    metrics, _ = run.end_to_end(workload, passes, [0.1], failures)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == {
        name: unit for name, (_, unit) in metrics.items()}


def _in_process_stdout(argv: list[str]) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert mheight.cli.run(argv) == 0
    return buf.getvalue().encode()


def test_byte_identity_check_catches_changed_stdout():
    op = workloads.cli_workload(0, str(run.SRC)).ops[0]
    out = _in_process_stdout(workloads.cli_argv(0)[0])
    op.check((0, out, b""))
    op.check((0, out, b""))
    changed = out.replace(b"1", b"2", 1)
    with pytest.raises(workloads.CheckError, match="differs"):
        op.check((0, changed, b""))


def test_cli_check_rejects_nonzero_exit():
    op = workloads.cli_workload(0, str(run.SRC)).ops[0]
    with pytest.raises(workloads.CheckError, match="exit 1"):
        op.check((1, b"", b"error"))


def test_tracer_wraps_every_attribute_and_computes_self_time():
    import layers
    tracer = Tracer()
    original = mheight.lp.exact_profile
    tracer.install("mheight", layers.TARGETS)
    try:
        assert mheight.cli.exact_profile is mheight.lp.exact_profile
        assert mheight.exact_profile is mheight.lp.exact_profile
        assert mheight.lp.exact_profile is not original
        with tracer.span("op:outer"):
            mheight.exact_profile(mheight.dual_icosahedral())
    finally:
        tracer.uninstall()
    assert mheight.lp.exact_profile is original
    assert mheight.cli.exact_profile is original
    names = [s.name for s in tracer.spans]
    assert names == ["op:outer", "codes.dual_icosahedral", "lp.exact_profile"]
    own = tracer.self_times()
    outer = tracer.spans[0]
    children = sum(s.end - s.start for s in tracer.spans[1:])
    assert own[0] == outer.end - outer.start - children


def test_parse_importtime_rows():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       120 |        120 |   numpy.core\n"
            "import time:       300 |        420 | numpy\n"
            "import time:        50 |        470 | mheight\n")
    rows = parse_importtime(text)
    assert rows == {"numpy.core": (120, 120), "numpy": (300, 420), "mheight": (50, 470)}
