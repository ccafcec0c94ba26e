"""Integration tests for the benchmark-regression harness and its CLI."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    SCHEMA,
    SCALING_SCHEMA,
    auto_min_speedup,
    default_report_name,
    format_scaling_summary,
    run_regress,
    run_scaling,
    validate_report,
    validate_scaling_report,
)
from repro.bench.regress import format_summary
from repro.cli import main


@pytest.fixture(scope="module")
def report() -> dict:
    # Small n keeps the module fast; the oracle stage still runs so the
    # bit-identity machinery is exercised end to end.
    return run_regress(n=4000, repeats=1, pr=3)


class TestRunRegress:
    def test_schema_and_structure(self, report):
        assert report["schema"] == SCHEMA
        assert validate_report(report) == []

    def test_covers_table1(self, report):
        assert [(c["n_words"], c["k"]) for c in report["cases"]] == [
            (2, 1), (3, 2), (6, 3), (8, 4),
        ]

    def test_engines_bit_identical(self, report):
        assert report["checks"]["bit_identical_all"] is True
        assert all(c["bit_identical"] for c in report["cases"])

    def test_oracle_trials_cover_matrix(self, report):
        oracle = report["oracle"]
        assert oracle["bit_identical"] is True
        # >= 3 permutations x >= 2 chunk sizes, every trial identical
        assert oracle["permutations"] >= 3
        assert len(oracle["chunk_sizes"]) >= 2
        assert len(oracle["trials"]) == (
            oracle["permutations"]
            * len(oracle["chunk_sizes"])
            * len(oracle["backends"])
        )
        assert all(t["bit_identical"] for t in oracle["trials"])

    def test_headline_is_widest_format(self, report):
        assert report["checks"]["headline_params"] == "HP(N=8, k=4)"

    def test_small_engine_bit_identical(self, report):
        assert report["checks"]["small_bit_identical_all"] is True
        assert all(c["small_bit_identical"] for c in report["cases"])

    def test_small_oracle_covers_backends(self, report):
        oracle = report["oracle"]
        assert oracle["bit_identical"] is True
        assert oracle["backends"][0] == "pure"
        assert {t["backend"] for t in oracle["trials"]} == set(
            oracle["backends"]
        )
        # one trial per permutation x chunk x backend
        assert len(oracle["trials"]) == (
            oracle["permutations"]
            * len(oracle["chunk_sizes"])
            * len(oracle["backends"])
        )
        assert all(t["bit_identical"] for t in oracle["trials"])

    def test_rejected_input_gated_on_every_backend(self, report):
        oracle = report["oracle"]
        rejections = oracle["rejections"]
        assert {(r["case"], r["backend"]) for r in rejections} == {
            (case, backend)
            for case in ("nan", "out-of-range", "nan-after-range")
            for backend in oracle["backends"]
        }
        assert all(r["agrees"] for r in rejections)
        by_case = {r["case"]: r["error"] for r in rejections}
        assert by_case["nan-after-range"] == "input contains NaN or infinity"
        assert by_case["out-of-range"].startswith("element 2000 ")

    def test_small_target_recorded_not_gated(self, report):
        checks = report["checks"]
        assert checks["small_target"] == 10.0
        assert isinstance(checks["small_target_met"], bool)
        if not checks["small_target_met"]:
            assert checks["small_target_note"]

    def test_compensated_tiers_within_bound_and_deterministic(self, report):
        compensated = report["compensated"]
        assert set(compensated["tiers"]) == {"comp-pairwise"}
        for tier in compensated["tiers"].values():
            assert tier["within_bound"] is True
            assert tier["deterministic"] is True
            assert tier["error"] <= tier["bound"]
        assert report["checks"]["compensated_within_bounds"] is True
        assert report["checks"]["compensated_deterministic"] is True
        # The planner's choice at the pinned target is the tier the pass
        # measured (it can never pick an escalated or exact engine at
        # 1e-12 with the tier in bound).
        assert compensated["planner_choice"] in compensated["tiers"]

    def test_compensated_target_recorded_not_gated(self, report):
        checks = report["checks"]
        assert checks["compensated_target"] == 5.0
        assert isinstance(checks["compensated_target_met"], bool)
        if not checks["compensated_target_met"]:
            assert checks["compensated_target_note"]
        # Like the small engine's 10x: missing the ratio never fails
        # the gate on its own.
        assert checks["passed"] is True

    def test_skip_oracle(self):
        doc = run_regress(n=1000, repeats=1, skip_oracle=True)
        assert doc["oracle"] is None
        assert doc["checks"]["oracle_bit_identical"] is True

    def test_unreachable_speedup_fails(self):
        doc = run_regress(n=1000, repeats=1, skip_oracle=True,
                          min_speedup=1e9)
        assert doc["checks"]["pure_faster"] is False
        assert doc["checks"]["passed"] is False

    def test_validate_flags_problems(self, report):
        broken = dict(report, schema="something/else")
        assert validate_report(broken)
        assert validate_report({"schema": SCHEMA}) != []

    def test_summary_renders(self, report):
        text = format_summary(report)
        assert "PASS" in text
        assert "HP(N=8, k=4)" in text

    def test_default_report_name(self):
        assert default_report_name(3) == "BENCH_3.json"


class TestBenchCLI:
    def test_regress_writes_report(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        rc = main([
            "bench", "--regress", "--n", "2000", "--repeats", "1",
            "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert validate_report(doc) == []
        assert doc["checks"]["passed"] is True
        assert "report written" in capsys.readouterr().out

    def test_requires_regress_flag(self, capsys):
        assert main(["bench"]) == 2
        assert "--regress" in capsys.readouterr().err

    def test_failing_gate_exits_nonzero(self, tmp_path):
        out = tmp_path / "bench.json"
        rc = main([
            "bench", "--regress", "--n", "2000", "--repeats", "1",
            "--skip-oracle", "--min-speedup", "1e9", "--out", str(out),
        ])
        assert rc == 1
        assert json.loads(out.read_text())["checks"]["passed"] is False


@pytest.fixture(scope="module")
def scaling_report() -> dict:
    # Tiny n and two PE counts keep the module fast while still running
    # real worker processes end to end; min_speedup=0 waives the
    # wall-clock gate (meaningless at this scale), bit-identity stays on.
    return run_scaling(n=20_000, pes_list=(1, 2), repeats=1,
                       min_speedup=0.0, pr=4)


class TestRunScaling:
    def test_schema_and_structure(self, scaling_report):
        assert scaling_report["schema"] == SCALING_SCHEMA
        assert validate_scaling_report(scaling_report) == []

    def test_covers_matrix(self, scaling_report):
        cases = scaling_report["cases"]
        assert {(c["method"], c["pes"]) for c in cases} == {
            (m, p)
            for m in ("double", "hp", "hp-small")
            for p in (1, 2)
        }

    def test_tasks_match_pes(self, scaling_report):
        assert scaling_report["checks"]["tasks_match_pes"] is True
        for case in scaling_report["cases"]:
            assert case["tasks_match_pes"] is True
            assert case["tasks"] == case["pes"]

    def test_exact_methods_bit_identical(self, scaling_report):
        assert scaling_report["checks"]["bit_identical_all"] is True
        for case in scaling_report["cases"]:
            if case["method"] == "double":
                assert case["bit_identical"] is None
            else:
                assert case["bit_identical"] is True

    def test_waived_gate_passes(self, scaling_report):
        checks = scaling_report["checks"]
        assert checks["speedup_gate_waived"] is True
        assert checks["passed"] is True

    def test_environment_records_machine(self, scaling_report):
        env = scaling_report["environment"]
        assert env["cpu_count"] >= 1
        assert env["start_method"] in ("fork", "spawn", "forkserver")

    def test_unreachable_gate_fails(self):
        doc = run_scaling(n=2000, pes_list=(1, 2), repeats=1,
                          min_speedup=1e9)
        assert doc["checks"]["passed"] is False
        assert doc["checks"]["speedup_gate_waived"] is False

    def test_auto_min_speedup_tiers(self):
        assert auto_min_speedup(1) == 0.0
        assert auto_min_speedup(2) == 1.2
        assert auto_min_speedup(3) == 1.2
        assert auto_min_speedup(4) == 2.0
        assert auto_min_speedup(64) == 2.0

    def test_validate_flags_problems(self, scaling_report):
        assert validate_scaling_report(
            dict(scaling_report, schema="other/1")
        )
        assert validate_scaling_report({"schema": SCALING_SCHEMA}) != []

    def test_summary_renders(self, scaling_report):
        text = format_scaling_summary(scaling_report)
        assert "PASS" in text
        assert "bit-identical" in text
        assert "waived" in text

    def test_rejects_empty_pes_list(self):
        with pytest.raises(ValueError):
            run_scaling(n=100, pes_list=(), repeats=1)


class TestScalingCLI:
    def test_scaling_writes_report(self, tmp_path, capsys):
        out = tmp_path / "scaling.json"
        rc = main([
            "bench", "--scaling", "--n", "4000", "--pes-list", "1,2",
            "--repeats", "1", "--min-speedup", "0", "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert validate_scaling_report(doc) == []
        assert doc["checks"]["passed"] is True
        assert doc["pr"] == 4
        assert "report written" in capsys.readouterr().out

    def test_failing_gate_exits_nonzero(self, tmp_path):
        out = tmp_path / "scaling.json"
        rc = main([
            "bench", "--scaling", "--n", "2000", "--pes-list", "1,2",
            "--repeats", "1", "--min-speedup", "1e9", "--out", str(out),
        ])
        assert rc == 1
        assert json.loads(out.read_text())["checks"]["passed"] is False

    def test_rejects_both_modes(self, capsys):
        assert main(["bench", "--regress", "--scaling"]) == 2
        assert "exactly one" in capsys.readouterr().err


class TestCommittedTrajectoryPoint:
    def test_bench_3_json_is_valid(self):
        """The committed BENCH_3.json must conform and pass its gates."""
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / "BENCH_3.json"
        doc = json.loads(path.read_text())
        assert validate_report(doc) == []
        checks = doc["checks"]
        assert checks["passed"] is True
        # the PR acceptance bar: >= 2x at the N=8 / 1M headline case
        assert checks["speedup_headline"] >= 2.0
        assert doc["config"]["n"] >= 1_000_000

    def test_bench_4_json_is_valid(self):
        """The committed BENCH_4.json strong-scaling point must conform
        and pass its machine-aware gates."""
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / "BENCH_4.json"
        doc = json.loads(path.read_text())
        assert validate_scaling_report(doc) == []
        checks = doc["checks"]
        assert checks["passed"] is True
        assert checks["bit_identical_all"] is True
        # the PR acceptance bar: >= 4M summands over p up to 8
        assert doc["config"]["n"] >= 4_000_000
        assert max(doc["config"]["pes_list"]) >= 8
        # gate honesty: waived only when the generating machine could
        # not physically show a speedup
        if checks["speedup_gate_waived"]:
            assert checks["cpu_count"] < 2


class TestBenchProfileFlag:
    @pytest.fixture(scope="class")
    def profiled_report(self) -> dict:
        return run_regress(n=2000, repeats=1, skip_oracle=True, profile=True)

    def test_report_without_profile_has_no_phases(self):
        doc = run_regress(n=1000, repeats=1, skip_oracle=True)
        assert "phases" not in doc

    def test_phases_block_covers_every_engine(self, profiled_report):
        phases = profiled_report["phases"]
        assert set(phases["engines"]) == {"small", "words"}
        assert phases["n"] == 2000
        expected_hot = {
            "small": "smallacc.scatter",
            "words": "words.convert",
        }
        for engine, rep in phases["engines"].items():
            assert rep["kind"] == "profile"
            names = {row["phase"] for row in rep["phases"]}
            assert expected_hot[engine] in names

    def test_profiled_report_still_validates(self, profiled_report):
        assert profiled_report["schema"] == SCHEMA
        assert validate_report(profiled_report) == []

    def test_validator_flags_malformed_phases_block(self, profiled_report):
        bad = dict(profiled_report, phases={"nope": 1})
        assert any("engines" in p for p in validate_report(bad))
        bad = dict(profiled_report,
                   phases={"engines": {"small": "not-a-dict"}})
        assert any("profile dict" in p for p in validate_report(bad))

    def test_old_schema_reports_still_accepted(self, profiled_report):
        """The committed /1, /3 and /4 trajectory points carry the
        retired superacc columns and must keep validating; a current
        report relabelled as /1 lacks them and must not."""
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        for name in ("BENCH_3.json", "BENCH_8.json", "BENCH_9.json"):
            doc = json.loads((root / name).read_text())
            assert validate_report(doc) == [], name
        legacy = dict(profiled_report, schema="repro.bench.regress/1")
        assert any("superacc_seconds" in p for p in validate_report(legacy))

    def test_profile_pass_leaves_tracer_as_found(self):
        from repro.observability import tracing

        tracing.TRACER.reset()
        run_regress(n=1000, repeats=1, skip_oracle=True, profile=True)
        # The instrumented pass ran inside profiled(); the ambient
        # tracer must come back empty and the gates disarmed.
        assert tracing.TRACER.spans() == []
        assert not tracing.ENABLED

    def test_scaling_profile_has_worker_rows(self):
        doc = run_scaling(n=20_000, pes_list=(1, 2), repeats=1,
                          min_speedup=0.0, profile=True,
                          methods=("hp-small",))
        assert validate_scaling_report(doc) == []
        block = doc["phases"]
        assert block["substrate"] == "procs"
        assert block["pes"] == 2
        workers = {row["worker"] for row in block["phases"]}
        assert "master" in workers
        assert sum(1 for w in workers if w.startswith("pid=")) == 2

    def test_cli_regress_profile_flag(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        status = main(["bench", "--regress", "--n", "1000", "--repeats",
                       "1", "--skip-oracle", "--profile",
                       "--out", str(out)])
        assert status == 0
        doc = json.loads(out.read_text())
        assert set(doc["phases"]["engines"]) == {"small", "words"}
