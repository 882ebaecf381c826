"""CLI contract: documents, formats, determinism, exit codes."""

import importlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mheight import PHI, cli, search
from mheight.cli import run

SQRT5 = math.sqrt(5.0)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestGen:
    def test_polygonal_matrix_document(self, capsys):
        code, out = invoke(capsys, "gen", "--family", "dual-polygonal", "--n", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["k"] == 2 and doc["n"] == 4
        assert doc["family"] == "dual-polygonal"
        col3 = doc["columns"][3]
        assert col3[0] == pytest.approx(-math.sqrt(2) / 2)
        assert col3[1] == pytest.approx(math.sqrt(2) / 2)

    def test_icosahedral_matrix_document(self, capsys):
        code, out = invoke(capsys, "gen", "--family", "dual-icosahedral")
        doc = json.loads(out)
        assert code == 0 and doc["k"] == 3 and doc["n"] == 6
        assert doc["columns"][0] == pytest.approx([0.0, 1.0, PHI])


class TestHeight:
    def test_lp_infinite_rendered_as_string(self, capsys):
        code, out = invoke(capsys, "height", "--family", "dual-polygonal",
                           "--n", "3", "--m", "2", "--method", "lp")
        assert code == 0
        assert json.loads(out)["value"] == "inf"

    @pytest.mark.parametrize("method", ["closed", "lp", "search"])
    def test_methods_agree_on_icosahedral_m1(self, capsys, method):
        code, out = invoke(capsys, "height", "--family", "dual-icosahedral",
                           "--m", "1", "--method", method)
        assert code == 0
        value = json.loads(out)["value"]
        assert value == pytest.approx(SQRT5, rel=1e-4)

    def test_search_resolution_flag(self, capsys):
        code, out = invoke(capsys, "height", "--family", "dual-icosahedral",
                           "--m", "3", "--method", "search", "--resolution", "500")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(2 + SQRT5, rel=1e-4)


class TestProfile:
    def test_lp_profile_matches_expected_rows(self, capsys):
        code, out = invoke(capsys, "profile", "--family", "dual-icosahedral",
                           "--method", "lp")
        assert code == 0
        doc = json.loads(out)
        values = [row["value"] for row in doc["heights"]]
        assert values[0] == pytest.approx(SQRT5, rel=1e-9)
        assert values[1] == pytest.approx(SQRT5, rel=1e-9)
        assert values[2] == pytest.approx(2 + SQRT5, rel=1e-9)
        assert values[3] == "inf" and values[4] == "inf"

    def test_csv_profile(self, capsys):
        code, out = invoke(capsys, "profile", "--family", "dual-dodecahedral",
                           "--method", "closed", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "m,value"
        assert len(lines) == 10
        assert lines[1] == f"1,{format(3.0 / SQRT5, '.17g')}"
        assert lines[8] == "8,inf" and lines[9] == "9,inf"
        assert all("," in line and " " not in line for line in lines)

    def test_polygonal_profile_lengths(self, capsys):
        code, out = invoke(capsys, "profile", "--family", "dual-polygonal",
                           "--n", "6", "--method", "closed")
        doc = json.loads(out)
        assert len(doc["heights"]) == 5


class TestCapability:
    def test_ratio_mode(self, capsys):
        code, out = invoke(capsys, "capability", "--family", "dual-icosahedral",
                           "--ratio", "6.5")
        assert code == 0
        doc = json.loads(out)
        assert doc["pairs"] == [[1, 0], [0, 2], [0, 1]]

    def test_spec_mode(self, capsys):
        code, out = invoke(capsys, "capability", "--family", "dual-dodecahedral",
                           "--tau", "1", "--sigma", "0", "--delta", "1",
                           "--Delta", "7")
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible"] is True
        assert doc["required_ratio"] == pytest.approx(2 * (PHI + 1), rel=1e-12)

    def test_missing_mode_is_domain_error(self, capsys):
        code, out = invoke(capsys, "capability", "--family", "dual-icosahedral")
        assert code == 1
        assert "error" in json.loads(out)

    @pytest.mark.parametrize("args", [
        ("--ratio", "nan"), ("--ratio", "inf"), ("--ratio=-inf",),
        ("--tau", "1", "--sigma", "0", "--delta", "1", "--Delta", "inf"),
        ("--tau", "1", "--sigma", "0", "--delta", "1e-320", "--Delta", "1"),
    ])
    def test_non_finite_ratio_is_domain_error(self, capsys, args):
        code, out = invoke(capsys, "capability", "--family", "dual-dodecahedral", *args)
        assert code == 1
        assert json.loads(out)["error"]["type"] == "InvalidParameterError"


class TestVerify:
    def test_cross_check_suite_passes(self, capsys):
        code, out = invoke(capsys, "verify", "--suite", "cross-check",
                           "--samples", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert len(doc["checks"]) == 12

    def test_candidates_suite_passes(self, capsys):
        code, out = invoke(capsys, "verify", "--suite", "candidates")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_randomized_suite_with_seed(self, capsys):
        code, out = invoke(capsys, "verify", "--suite", "icos-chain",
                           "--samples", "50", "--seed", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == 3 and doc["passed"] is True


class TestParserReuse:
    CALLS = (
        ("verify", "--suite", "icos-chain", "--samples", "0"),
        ("verify", "--suite", "candidates"),
        ("gen", "--family", "dual-polygonal", "--n", "4"),
        ("height", "--family", "dual-icosahedral", "--m", "1"),
        ("verify", "--suite", "cross-check", "--samples", "0"),
        ("gen", "--family", "dual-icosahedral"),
    )

    def test_alternating_runs_match_first_calls(self, capsys):
        # The parser is built once per process; a usage error (exit 2), a
        # verify suite and gen must each see it as a freshly built one.
        first = {}
        for argv in self.CALLS:
            cli.build_parser.cache_clear()
            first[argv] = run(list(argv)), capsys.readouterr()
        assert first[self.CALLS[0]][0] == 2 and first[self.CALLS[3]][0] == 2
        for argv in self.CALLS * 2:
            assert (run(list(argv)), capsys.readouterr()) == first[argv], argv
        assert cli.build_parser() is cli.build_parser()


def scalar_triangle_draws(rng, samples):
    """Rejection sampling one ``rng.random()`` draw at a time."""
    pairs = []
    while len(pairs) < samples:
        u, v = float(rng.random()), float(rng.random())
        if u + v <= 1.0:
            pairs.append((u, v))
    return pairs


class TestSampledSuites:
    @pytest.mark.parametrize("suite", ["polygonal-order", "icos-chain", "dode-ranks"])
    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_samples_below_one_is_usage_error(self, capsys, suite, samples):
        code = run(["verify", "--suite", suite, "--samples", samples])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--samples must be >= 1" in captured.err

    @pytest.mark.parametrize("samples", ["-1", "-5"])
    def test_cross_check_negative_samples_is_usage_error(self, capsys, samples):
        code = run(["verify", "--suite", "cross-check", "--samples", samples])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--samples must be >= 0" in captured.err

    @pytest.mark.parametrize("suite, samples, message", [
        ("monotonicity", "1", "--samples must be >= 2"),
        ("monotonicity", "-5", "--samples must be >= 2"),
        ("candidates", "-3", "--samples does not apply to suite candidates"),
        ("candidates", "5", "--samples does not apply to suite candidates"),
    ])
    def test_grid_and_candidates_samples_usage_error(self, capsys, suite, samples, message):
        code = run(["verify", "--suite", suite, "--samples", samples])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("suite", cli._SUITES)
    @pytest.mark.parametrize("seed", ["-1", "-5"])
    def test_negative_seed_is_usage_error(self, capsys, suite, seed):
        code = run(["verify", "--suite", suite, "--seed", seed])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--seed must be >= 0" in captured.err

    def test_negative_seed_exits_2_without_traceback(self):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "mheight.cli", "verify", "--suite", "icos-chain",
             "--seed", "-5"], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "--seed must be >= 0" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_cross_check_zero_samples_stays_valid(self, capsys):
        code, out = invoke(capsys, "verify", "--suite", "cross-check", "--samples", "0")
        doc = json.loads(out)
        assert code == 0 and doc["passed"] is True
        assert all("sample_dominated" not in c for c in doc["checks"])

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_chunked_draws_match_scalar_draws(self, monkeypatch, seed):
        monkeypatch.setattr(search, "_GRID_CHUNK", 64)
        for n in (3, 12):
            rng = np.random.default_rng(seed)
            batched = np.concatenate(list(cli._arc_chunks(rng, n, 1000)))
            rng = np.random.default_rng(seed)
            scalar = [float(rng.random()) * math.pi / (2 * n) for _ in range(1000)]
            assert batched.tolist() == scalar
        rng = np.random.default_rng(seed)
        chunks = list(cli._triangle_chunks(rng, 500))
        assert len(chunks) > 1 and all(len(us) <= 64 for us, _ in chunks)
        batched = [(u, v) for us, vs in chunks for u, v in zip(us.tolist(), vs.tolist())]
        assert batched == scalar_triangle_draws(np.random.default_rng(seed), 500)

    def test_cross_check_chunking_keeps_output(self, capsys, monkeypatch):
        argv = ("verify", "--suite", "cross-check", "--samples", "1000", "--seed", "4")
        default = invoke(capsys, *argv)
        monkeypatch.setattr(search, "_GRID_CHUNK", 64)
        assert invoke(capsys, *argv) == default

    def test_cross_check_memory_is_bounded_by_the_chunk(self, capsys):
        # 50,000 normals per code, drawn and sorted whole, take over 10 MB.
        tracemalloc.start()
        try:
            code, _ = invoke(capsys, "verify", "--suite", "cross-check",
                             "--samples", "50000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("suite,table,wrong", [
        ("polygonal-order", "polygonal_rank_index", lambda n, k: k),
        ("icos-chain", "_ICOSA_CHAIN", (1, 5, 3, 4, 6, 2)),
        ("dode-ranks", "_DODE_PAIRS", ((5, 1), (9, 5), (2, 6))),
    ])
    def test_suite_counts_match_scalar_checks(self, capsys, monkeypatch,
                                              suite, table, wrong):
        # A wrong rule table makes the counts nonzero, so the chunked array
        # pass must reproduce the scalar per-point checks on the same draws.
        monkeypatch.setattr(search, "_GRID_CHUNK", 64)
        monkeypatch.setattr(search, table, wrong)
        rng = np.random.default_rng(3)
        if suite == "polygonal-order":
            expected = [sum(len(search.polygonal_order_indices(
                            n, float(rng.random()) * math.pi / (2 * n)).violations)
                            for _ in range(300)) for n in range(3, 13)]
        else:
            check = (search.icosahedral_chain_check if suite == "icos-chain"
                     else search.dodecahedral_rank_check)
            expected = [sum(len(check(u, v).violations)
                            for u, v in scalar_triangle_draws(rng, 300))]
        code, out = invoke(capsys, "verify", "--suite", suite,
                           "--samples", "300", "--seed", "3")
        doc = json.loads(out)
        assert code == 1 and doc["passed"] is False
        assert [c["violations"] for c in doc["checks"]] == expected
        assert sum(expected) > 0


_DATA = Path(__file__).parent / "data"
GOLDEN_LP = json.loads((_DATA / "cli_lp_golden.json").read_text())
GOLDEN_CLI = json.loads((_DATA / "cli_golden.json").read_text())


class TestLpGolden:
    """Stdout and exit code, byte for byte.  ``cli_lp_golden.json`` holds
    ``height``/``profile --method lp`` as recorded from the per-top-set
    engine the vertex pool replaced; ``cli_golden.json`` holds closed-form
    heights (in and out of range) and profiles, both ``capability`` modes,
    every ``verify`` suite and the README examples."""

    @pytest.mark.parametrize("case", GOLDEN_LP + GOLDEN_CLI,
                             ids=lambda c: " ".join(c["argv"]))
    def test_stdout_is_byte_identical(self, capsys, case):
        code, out = invoke(capsys, *case["argv"])
        assert code == case.get("exit", 0)
        assert out == case["stdout"]


class TestConsoleScript:
    def test_script_targets_print_the_golden_gen(self, monkeypatch, capsys):
        """``[project.scripts]`` names real functions that behave like
        ``python -m mheight.cli``."""
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        argv = ["gen", "--family", "dual-icosahedral"]
        golden = next(c for c in GOLDEN_CLI if c["argv"] == argv)
        assert scripts
        for name, target in scripts.items():
            module, _, attr = target.partition(":")
            entry = getattr(importlib.import_module(module), attr)
            monkeypatch.setattr(sys, "argv", [name, *argv])
            assert entry() == golden.get("exit", 0)
            assert capsys.readouterr().out == golden["stdout"]


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("profile", "--family", "dual-dodecahedral", "--method", "lp"),
        ("height", "--family", "dual-polygonal", "--n", "9", "--m", "3",
         "--method", "search"),
        ("verify", "--suite", "dode-ranks", "--samples", "100", "--seed", "0"),
        ("gen", "--family", "dual-dodecahedral"),
    ])
    def test_byte_identical_reruns(self, capsys, argv):
        code1, out1 = invoke(capsys, *argv)
        code2, out2 = invoke(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_seventeen_digit_floats(self, capsys):
        _, out = invoke(capsys, "profile", "--family", "dual-icosahedral",
                        "--method", "closed")
        assert format(SQRT5, ".17g") in out


class TestExitCodes:
    def test_domain_error_is_exit_1_with_json(self, capsys):
        code, out = invoke(capsys, "height", "--family", "dual-polygonal",
                           "--n", "3", "--m", "9", "--method", "closed")
        assert code == 1
        doc = json.loads(out)
        assert doc["error"]["type"] == "InvalidParameterError"

    def test_missing_n_is_exit_1(self, capsys):
        code, out = invoke(capsys, "gen", "--family", "dual-polygonal")
        assert code == 1
        assert "error" in json.loads(out)

    @pytest.mark.parametrize("family", ["dual-icosahedral", "dual-dodecahedral"])
    @pytest.mark.parametrize("command", [
        ("gen",), ("height", "--m", "1", "--method", "closed"),
        ("profile", "--method", "closed"), ("capability", "--ratio", "6.5"),
    ], ids=lambda c: c[0])
    def test_n_for_polyhedral_family_is_exit_1(self, capsys, command, family):
        code, out = invoke(capsys, *command, "--family", family, "--n", "5")
        assert code == 1
        assert "--n" in json.loads(out)["error"]["message"]

    def test_unknown_flag_is_exit_2(self, capsys):
        code, _ = invoke(capsys, "profile", "--family", "dual-icosahedral",
                         "--method", "lp", "--bogus")
        assert code == 2

    def test_unknown_suite_is_exit_2(self, capsys):
        code, _ = invoke(capsys, "verify", "--suite", "nope")
        assert code == 2

    def test_unknown_family_is_exit_2(self, capsys):
        code, _ = invoke(capsys, "gen", "--family", "octahedral")
        assert code == 2
