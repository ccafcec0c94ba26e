"""Integration tests for the command-line interface."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSum:
    def test_text_file(self, tmp_path, capsys):
        f = tmp_path / "values.txt"
        f.write_text("0.1 0.2 -0.1 -0.2\n")
        code, out, _ = run_cli(capsys, "sum", str(f))
        assert code == 0 and out.strip() == "0.0"

    def test_npy_file(self, tmp_path, capsys, rng):
        data = rng.uniform(-1.0, 1.0, 500)
        f = tmp_path / "values.npy"
        np.save(f, data)
        code, out, _ = run_cli(capsys, "sum", str(f))
        assert code == 0
        assert float(out.strip()) == math.fsum(data)

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("1 2 3 4\n"))
        code, out, _ = run_cli(capsys, "sum", "-")
        assert code == 0 and out.strip() == "10.0"

    def test_explicit_params_and_words(self, tmp_path, capsys):
        f = tmp_path / "v.txt"
        f.write_text("1.0\n")
        code, out, _ = run_cli(capsys, "sum", str(f), "--params", "3,2",
                               "--words")
        assert code == 0
        assert "HP(N=3, k=2)" in out
        assert "0000000000000001" in out

    @pytest.mark.parametrize("method", ["hallberg", "double", "kahan", "fsum"])
    def test_other_methods(self, tmp_path, capsys, method):
        f = tmp_path / "v.txt"
        f.write_text("0.5 0.25\n")
        code, out, _ = run_cli(capsys, "sum", str(f), "--method", method)
        assert code == 0 and out.strip() == "0.75"

    def test_missing_file_is_clean_error(self, capsys):
        code, _, err = run_cli(capsys, "sum", "/no/such/file")
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "flags",
        [
            (),
            ("--engine", "words"),
            ("--target-accuracy", "1e-12"),
            ("--substrate", "procs", "--pes", "2"),
        ],
        ids=["default", "words", "planned", "procs"],
    )
    def test_nonfinite_input_is_one_domain_error(self, tmp_path, capsys,
                                                 flags, bad):
        """Every sum path rejects NaN/inf with the engines' one error
        before it derives a format or plans an engine."""
        f = tmp_path / "v.txt"
        f.write_text(f"1.0 {bad} 2.0\n")
        code, out, err = run_cli(capsys, "sum", str(f), *flags)
        assert code == 1
        assert out == ""
        assert err.strip() == "error: input contains NaN or infinity"

    def test_empty_input(self, tmp_path, capsys):
        f = tmp_path / "empty.txt"
        f.write_text("")
        code, out, _ = run_cli(capsys, "sum", str(f))
        assert code == 0 and out.strip() == "0.0"


class TestSumSubstrate:
    @pytest.fixture()
    def npy(self, tmp_path, rng):
        data = rng.uniform(-1.0, 1.0, 3000) * np.exp2(
            rng.uniform(-15.0, 15.0, 3000)
        )
        f = tmp_path / "values.npy"
        np.save(f, data)
        return f

    def test_procs_matches_serial_engine(self, npy, capsys):
        code, serial_out, _ = run_cli(capsys, "sum", str(npy),
                                      "--params", "6,3", "--words")
        assert code == 0
        code, procs_out, _ = run_cli(
            capsys, "sum", str(npy), "--substrate", "procs", "--pes", "2",
            "--params", "6,3", "--words",
        )
        assert code == 0
        # same value line, same hex words (labels differ)
        assert procs_out.splitlines()[0] == serial_out.splitlines()[0]
        assert (procs_out.splitlines()[1].split(":")[1]
                == serial_out.splitlines()[1].split(":")[1])

    def test_ooc_streams_npy(self, npy, capsys):
        code, direct_out, _ = run_cli(
            capsys, "sum", str(npy), "--substrate", "procs", "--pes", "2",
            "--params", "6,3", "--words",
        )
        assert code == 0
        code, ooc_out, _ = run_cli(
            capsys, "sum", str(npy), "--substrate", "procs", "--pes", "2",
            "--params", "6,3", "--words", "--ooc",
        )
        assert code == 0
        assert ooc_out == direct_out

    def test_threads_substrate_still_routes(self, npy, capsys):
        code, out, _ = run_cli(
            capsys, "sum", str(npy), "--substrate", "threads", "--pes", "4",
        )
        assert code == 0 and out.strip()

    def test_ooc_requires_procs(self, npy, capsys):
        code, _, err = run_cli(capsys, "sum", str(npy), "--ooc")
        assert code == 2 and "--substrate procs" in err
        code, _, err = run_cli(
            capsys, "sum", str(npy), "--substrate", "threads", "--ooc"
        )
        assert code == 2 and "--substrate procs" in err

    def test_substrate_rejects_scalar_only_methods(self, npy, capsys):
        code, _, err = run_cli(
            capsys, "sum", str(npy), "--substrate", "procs",
            "--method", "kahan",
        )
        assert code == 2 and "kahan" in err


class TestDot:
    def test_exact(self, tmp_path, capsys):
        x = tmp_path / "x.txt"
        y = tmp_path / "y.txt"
        x.write_text("0.1 -0.1\n")
        y.write_text("0.7 0.7\n")
        code, out, _ = run_cli(capsys, "dot", str(x), str(y))
        assert code == 0 and out.strip() == "0.0"


class TestInfoSuggest:
    def test_info_matches_table1(self, capsys):
        code, out, _ = run_cli(capsys, "info", "--params", "6,3")
        assert code == 0
        assert "3.138551e+57" in out and "1.593092e-58" in out

    def test_info_rejects_malformed_params(self, capsys):
        with pytest.raises(SystemExit):
            main(["info", "--params", "six-three"])

    def test_suggest(self, capsys):
        code, out, _ = run_cli(capsys, "suggest", "--max", "1e6",
                               "--min", "1e-12")
        assert code == 0 and "HP(N=" in out


class TestTablesFigures:
    def test_table1(self, capsys):
        code, out, _ = run_cli(capsys, "table", "1")
        assert code == 0 and "9.223372e+18" in out

    def test_table2(self, capsys):
        code, out, _ = run_cli(capsys, "table", "2")
        assert code == 0 and "67108863" in out

    def test_figure1_reduced(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "1", "--trials", "16")
        assert code == 0 and "HP exact?" in out

    def test_figure5(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "5")
        assert code == 0 and "bit-identical across PEs" in out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "9"])

    def test_figure3_walkthrough(self, capsys):
        code = main(["figure", "3"])
        out = capsys.readouterr().out
        assert code == 0 and "1.25" in out and "carry" in out


class TestInvarianceAndCalibration:
    def test_invariance_command(self, capsys):
        code, out, _ = run_cli(capsys, "invariance", "--n", "256")
        assert code == 0 and "1 distinct word pattern" in out

    def test_calibration_command(self, capsys):
        code, out, _ = run_cli(capsys, "calibration")
        assert code == 0
        assert "37" in out and "OUT OF BAND" not in out
