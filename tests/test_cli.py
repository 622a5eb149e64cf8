import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sigmatau
from sigmatau.cli import run


def _run(capsys, *argv):
    status = run(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestRing:
    def test_table(self, capsys):
        status, out, _ = _run(capsys, "ring", "--ring", "cyclotomic:5")
        assert status == 0
        assert "rank: 4" in out
        assert "endomorphisms: 1, 2, 3, 4" in out

    def test_json(self, capsys):
        status, out, _ = _run(
            capsys, "ring", "--ring", "biquadratic:2,3", "--format", "json"
        )
        assert status == 0
        doc = json.loads(out)
        assert doc["family"] == "biquadratic"
        assert doc["rank"] == 4
        assert doc["basis"] == ["1", "sqrt(2)", "sqrt(3)", "sqrt(6)"]
        assert doc["endomorphisms"] == ["phi1", "phi2", "phi3", "phi4"]

    def test_cyclotomic_61_lists_every_endomorphism(self, capsys):
        status, out, _ = _run(capsys, "ring", "--ring", "cyclotomic:61", "--format", "json")
        assert status == 0
        assert json.loads(out)["endomorphisms"] == [str(u) for u in range(1, 61)]

    def test_unknown_family(self, capsys):
        status, _, err = _run(capsys, "ring", "--ring", "octic:2")
        assert status == 1
        assert err.startswith("error:")


class TestDeriveAndCheck:
    def test_round_trip(self, capsys, tmp_path):
        status, out, _ = _run(
            capsys, "derive",
            "--ring", "cyclotomic:5", "--sigma", "1", "--tau", "2",
            "--dzeta", "0,1,0,0",
        )
        assert status == 0
        doc = json.loads(out)
        assert doc["sigma"] == "1"
        assert doc["images"][1] == [0, 1, 0, 0]

        path = tmp_path / "d.json"
        path.write_text(out)
        status, out, _ = _run(capsys, "check", "--from-file", str(path))
        assert status == 0
        assert "derivation law holds" in out

    def test_inline_check_failure(self, capsys):
        status, out, _ = _run(
            capsys, "check",
            "--ring", "cyclotomic:5", "--sigma", "1", "--tau", "2",
            "--images", "0,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1",
        )
        assert status == 1
        assert "fails at basis pair" in out

    def test_check_requires_input(self, capsys):
        status, _, err = _run(capsys, "check")
        assert status == 1
        assert "error:" in err

    def test_dzeta_rejected_off_cyclotomic(self, capsys):
        status, _, err = _run(
            capsys, "derive",
            "--ring", "quadratic:2", "--sigma", "id", "--tau", "conj",
            "--dzeta", "0,1",
        )
        assert status == 1
        assert "cyclotomic" in err

    def test_bad_images_rejected(self, capsys):
        status, _, err = _run(
            capsys, "derive",
            "--ring", "quadratic:2", "--sigma", "id", "--tau", "conj",
            "--images", "0,0;1,1;1,1",
        )
        assert status == 1
        assert "error:" in err


class TestInner:
    def test_not_inner_both_deciders(self, capsys):
        status, out, _ = _run(
            capsys, "inner",
            "--ring", "cyclotomic:5", "--sigma", "1", "--tau", "2",
            "--dzeta", "0,1,0,0",
        )
        assert status == 0
        assert out.count("not inner") == 2
        assert "generic:" in out and "conjectural:" in out

    def test_witness_line(self, capsys):
        status, out, _ = _run(
            capsys, "inner",
            "--ring", "cyclotomic:5", "--sigma", "1", "--tau", "2",
            "--dzeta", "0,-1,1,0", "--method", "conjectural",
        )
        assert status == 0
        assert "inner with witness beta = (1,0,0,0)" in out

    def test_json_format(self, capsys):
        status, out, _ = _run(
            capsys, "inner",
            "--ring", "quadratic:2", "--sigma", "conj", "--tau", "id",
            "--images", "0,0;4,2", "--format", "json",
        )
        assert status == 0
        doc = json.loads(out)
        assert doc["generic"]["inner"] is True
        assert doc["closed"]["witness"] == [1, 1]
        assert doc["closed"]["obstruction"] is None

    def test_negative_leading_coordinate(self, capsys):
        status, out, _ = _run(
            capsys, "inner",
            "--ring", "cyclotomic:5", "--sigma", "1", "--tau", "2",
            "--dzeta", "-3,4,0,1",
        )
        assert status == 0
        assert out.count("not inner") == 2
        status, out, _ = _run(
            capsys, "check",
            "--ring", "cyclotomic:5", "--sigma", "1", "--tau", "2",
            "--images", "-1,0,0,0;0,0,0,0;0,0,0,0;0,0,0,0",
        )
        assert status == 1
        assert "fails at basis pair" in out

    def test_biquadratic_closed(self, capsys):
        status, out, _ = _run(
            capsys, "inner",
            "--ring", "biquadratic:2,3", "--sigma", "phi1", "--tau", "phi2",
            "--images", "0,0,0,0;0,0,0,0;0,0,6,0;0,0,0,6", "--method", "both",
        )
        assert status == 0
        assert out.count("inner with witness") == 2


class TestSweep:
    def test_csv_row_count(self, capsys):
        status, out, _ = _run(
            capsys, "sweep", "--max-p", "13", "--format", "csv"
        )
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "p,u,w,det,pass"
        assert len(lines) == 267
        assert all(line.endswith("True") for line in lines[1:])

    def test_json_summary(self, capsys):
        status, out, _ = _run(
            capsys, "sweep", "--min-p", "5", "--max-p", "7", "--format", "json"
        )
        assert status == 0
        doc = json.loads(out)
        assert doc["cases"] == 42
        assert doc["failures"] == 0

    def test_table_summary(self, capsys):
        status, out, _ = _run(capsys, "sweep", "--max-p", "7")
        assert status == 0
        assert "failures: 0" in out
        assert "sign mismatches: 0" in out


class TestCode:
    ARGS = [
        "code",
        "--ring", "cyclotomic:17", "--sigma", "1", "--tau", "3",
        "--dzeta", "1,1,1,1,0,1,0,1,1,0,0,1,0,0,0,0",
        "--subset", "2,3,7,8",
    ]

    def test_json(self, capsys):
        status, out, _ = _run(capsys, *self.ARGS, "--label", "S8", "--format", "json")
        assert status == 0
        doc = json.loads(out)
        assert (doc["n"], doc["k"], doc["d"]) == (16, 4, 7)
        assert doc["lcd"] is False
        assert doc["dual"] == {"n": 16, "k": 12, "d": 2}
        assert doc["label"] == "S8"

    def test_csv(self, capsys):
        status, out, _ = _run(capsys, *self.ARGS, "--label", "S8", "--format", "csv")
        assert status == 0
        assert out.splitlines()[1] == "S8,16,4,7,non-LCD,16,12,2"

    def test_table(self, capsys):
        status, out, _ = _run(capsys, *self.ARGS)
        assert status == 0
        assert "2 3 7 8" in out
        assert "non-LCD" in out

    def test_jobs_still_parses(self, capsys):
        # codes run in one process; --jobs is accepted so older command lines work
        _, plain, _ = _run(capsys, *self.ARGS, "--format", "csv")
        status, out, _ = _run(capsys, *self.ARGS, "--format", "csv", "--jobs", "3")
        assert status == 0
        assert out == plain

    def test_budget_exceeded(self, capsys):
        status, _, err = _run(capsys, *self.ARGS, "--budget", "3")
        assert status == 1
        assert "error:" in err and "budget" in err

    def test_dependent_subset(self, capsys):
        status, _, err = _run(capsys, *self.ARGS[:-1], "1,1")
        assert status == 1
        assert "not Z-linearly independent" in err


class TestReproduce:
    def test_section_32(self, capsys):
        status, out, _ = _run(capsys, "reproduce-paper", "--section", "3.2")
        assert status == 0
        assert out.count("PASS") == 3
        assert "FAIL" not in out

    def test_section_44(self, capsys):
        status, out, _ = _run(capsys, "reproduce-paper", "--section", "4.4")
        assert status == 0
        assert "table matches golden CSV byte for byte: PASS" in out
        assert "S13,16,6,5,LCD,16,10,3" in out


class TestUsage:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["sweep", "--unknown"])
        assert exc.value.code == 2

    def test_bad_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["inner", "--ring", "cyclotomic:5", "--sigma", "1",
                 "--tau", "2", "--dzeta", "0,1,0,0", "--method", "guess"])
        assert exc.value.code == 2


def test_import_leaves_process_pool_unloaded():
    # the pool is imported only when jobs > 1, so a CLI query never pays for it
    src = Path(sigmatau.__file__).resolve().parents[1]
    code = "import sys, sigmatau, sigmatau.cli; print('multiprocessing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
