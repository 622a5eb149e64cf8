import dataclasses
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sigmatau
from sigmatau import _backend, algebra, conjecture, derivations, rings
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

    @pytest.mark.parametrize("spec", ["cyclotomic:13", "quadratic:-3", "quadratic:5", "biquadratic:2,3"])
    def test_lists_names_without_checking_maps(self, capsys, monkeypatch, spec):
        calls = []
        check = algebra.endomorphism_failure
        monkeypatch.setattr(algebra, "endomorphism_failure", lambda *a: calls.append(a) or check(*a))
        status, out, _ = _run(capsys, "ring", "--ring", spec, "--format", "json")
        assert status == 0
        assert calls == []
        doc = json.loads(out)
        ring = rings.ring_from_json(doc)
        assert doc["endomorphisms"] == [e.name for e in rings.endomorphisms(ring)]

    def test_unknown_family(self, capsys):
        status, _, err = _run(capsys, "ring", "--ring", "octic:2")
        assert status == 1
        assert err.startswith("error:")

    def test_radicand_above_the_bound_refused_fast(self, capsys):
        # trial division to the cube root of 10^27 would take minutes
        start = time.perf_counter()
        status, out, err = _run(capsys, "ring", "--ring", "quadratic:1000000000000000000000000007")
        assert time.perf_counter() - start < 1.0
        assert (status, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert "10^18" in err


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

    def test_check_reads_stdin(self, capsys, monkeypatch):
        status, out, _ = _run(
            capsys, "derive",
            "--ring", "cyclotomic:5", "--sigma", "1", "--tau", "2",
            "--dzeta", "0,1,0,0",
        )
        assert status == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        status, out, _ = _run(capsys, "check", "--from-file", "-")
        assert status == 0
        assert "derivation law holds for (1, 2)" in out

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

    @pytest.mark.parametrize("command", ["derive", "inner", "code"])
    def test_dzeta_and_images_together_refused(self, capsys, command):
        argv = [command, "--ring", "cyclotomic:5", "--sigma", "1", "--tau", "2",
                "--dzeta", "1,0,0,0", "--images", "0,0,0,0"]
        if command == "code":
            argv += ["--subset", "1,2"]
        status, out, err = _run(capsys, *argv)
        assert (status, out, err) == (1, "", "error: give one of --dzeta or --images, not both\n")

    @pytest.mark.parametrize("flag, value", [
        ("--ring", "quadratic:2"), ("--sigma", "id"), ("--tau", "conj"), ("--images", "0,0;9,9"),
    ])
    @pytest.mark.parametrize("stdin", [False, True])
    def test_from_file_refuses_inline_flags(self, capsys, monkeypatch, tmp_path, flag, value, stdin):
        source = tmp_path / "d.json"
        source.write_text(json.dumps(_GOOD_DOC))
        if stdin:
            monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(_GOOD_DOC)))
            source = "-"
        status, out, err = _run(capsys, "check", "--from-file", str(source), flag, value)
        assert (status, out) == (1, "")
        assert err == (
            "error: --from-file reads the whole derivation; drop --ring, --sigma, --tau and --images\n"
        )

    def test_bad_images_rejected(self, capsys):
        status, _, err = _run(
            capsys, "derive",
            "--ring", "quadratic:2", "--sigma", "id", "--tau", "conj",
            "--images", "0,0;1,1;1,1",
        )
        assert status == 1
        assert "error:" in err


_GOOD_DOC = {
    "ring": {"family": "cyclotomic", "p": 5},
    "sigma": "1",
    "tau": "2",
    "images": [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, -1, -1, 0]],
}

_MALFORMED_DOCS = {
    "no_ring_p": ({**_GOOD_DOC, "ring": {"family": "cyclotomic"}}, "'p'"),
    "no_images": ({k: v for k, v in _GOOD_DOC.items() if k != "images"}, "'images'"),
    "images_not_a_list": ({**_GOOD_DOC, "images": 7}, "'images'"),
}


def _assert_clean_error(status, err, *needles):
    # exit 1 with a one-line "error:" message, never a Python traceback
    assert status == 1
    assert err.startswith("error:")
    assert "Traceback" not in err
    for needle in needles:
        assert needle in err


class TestMalformedInput:
    @pytest.mark.parametrize("name", sorted(_MALFORMED_DOCS))
    def test_check_from_file(self, capsys, tmp_path, name):
        doc, field = _MALFORMED_DOCS[name]
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc))
        status, _, err = _run(capsys, "check", "--from-file", str(path))
        _assert_clean_error(status, err, field)

    @pytest.mark.parametrize("name", sorted(_MALFORMED_DOCS))
    def test_check_from_stdin(self, capsys, monkeypatch, name):
        doc, field = _MALFORMED_DOCS[name]
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        status, _, err = _run(capsys, "check", "--from-file", "-")
        _assert_clean_error(status, err, field)

    @pytest.mark.parametrize("spec, form", [
        ("biquadratic:2", "biquadratic:M,N"),
        ("cyclotomic:x", "cyclotomic:P"),
        ("cyclotomic:5,7", "cyclotomic:P"),
        ("quadratic:", "quadratic:D"),
        ("biquadratic:x,3", "biquadratic:M,N"),
    ])
    def test_ring_parameters_name_the_form(self, capsys, spec, form):
        status, _, err = _run(capsys, "ring", "--ring", spec)
        _assert_clean_error(status, err, form)

    def test_well_formed_document_still_checks(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(_GOOD_DOC))
        status, out, _ = _run(capsys, "check", "--from-file", str(path))
        assert status == 0
        assert "derivation law holds for (1, 2)" in out


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

    @pytest.mark.parametrize("argv", [
        ["sweep", "--max-p", "5"],
        ["reproduce-paper", "--section", "3.2"],
        ["code", "--ring", "cyclotomic:5", "--sigma", "1", "--tau", "2", "--dzeta", "1,0,0,0", "--subset", "1,2"],
    ], ids=["sweep", "reproduce-paper", "code"])
    def test_jobs_is_not_an_option(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--jobs", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 3" in capsys.readouterr().err


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
        assert out.splitlines() == [
            "subset   n   k  d  lcd      dual_n  dual_k  dual_d",
            "-------  --  -  -  -------  ------  ------  ------",
            "2 3 7 8  16  4  7  non-LCD  16      12      2     ",
        ]

    def test_budget_exceeded(self, capsys):
        status, _, err = _run(capsys, *self.ARGS, "--budget", "3")
        assert status == 1
        assert "error:" in err and "budget" in err

    def test_budget_below_one_refused(self, capsys):
        for budget in ("0", "-1"):
            status, out, err = _run(capsys, *self.ARGS, "--budget", budget)
            assert (status, out) == (1, "")
            assert err == "error: budget must be positive\n"

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_budget_refused_before_the_ring_is_read(self, capsys, budget):
        # cyclotomic:9 is no ring; the budget check comes first all the same
        argv = ["code", "--ring", "cyclotomic:9", "--sigma", "1", "--tau", "2",
                "--dzeta", "1,0,0,0", "--subset", "1", "--budget", budget]
        status, out, err = _run(capsys, *argv)
        assert (status, out, err) == (1, "", "error: budget must be positive\n")

    def test_large_prime_modulus_refused_fast(self, capsys):
        # q = 2^61 - 1 is prime, and q^2 is far over the default budget
        start = time.perf_counter()
        status, out, err = _run(
            capsys, "code", "--ring", "cyclotomic:7", "--sigma", "1", "--tau", "3",
            "--dzeta", "1,0,1,0,0,1", "--subset", "2,3", "--q", str(2**61 - 1),
        )
        assert time.perf_counter() - start < 1.0
        assert (status, out) == (1, "")
        assert err.startswith("error:") and "exceeds the budget" in err

    def test_large_dual_runs_fast(self, capsys):
        # q^k = 4093 words are enumerated; the dual's 4093^15 are not, its
        # distribution coming from the MacWilliams identity
        start = time.perf_counter()
        status, out, err = _run(capsys, *self.ARGS[:-1], "2", "--q", "4093", "--format", "json")
        assert time.perf_counter() - start < 1.0
        assert (status, err) == (0, "")
        doc = json.loads(out)
        assert (doc["n"], doc["k"], doc["d"], doc["lcd"]) == (16, 1, 8, True)
        assert doc["dual"] == {"n": 16, "k": 15, "d": 1}

    def test_unprovable_prime_modulus_refused_fast(self):
        # q = 2^89 - 1 is prime but above the bound where is_prime is exact
        src = Path(sigmatau.__file__).resolve().parents[1]
        argv = ["code", "--ring", "cyclotomic:7", "--sigma", "1", "--tau", "3",
                "--dzeta", "1,0,1,0,0,1", "--subset", "2,3", "--q", str(2**89 - 1)]
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "sigmatau", *argv], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=10,
        )
        assert time.perf_counter() - start < 2.0
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert "3317044064679887385961981" in proc.stderr

    def test_dependent_subset(self, capsys):
        status, _, err = _run(capsys, *self.ARGS[:-1], "1,1")
        assert status == 1
        assert "not Z-linearly independent" in err


class TestReproduce:
    def test_section_32(self, capsys, monkeypatch):
        # the seed is decided without the paper's O(p^5) adjugate route: one
        # build_A and one determinant, for the golden matrix, and no cofactors
        calls = []
        for module, name in ((derivations, "_adjugate_det_A"), (conjecture, "build_A"), (_backend, "det_int")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, n=name, f=real: calls.append(n) or f(*a))
        status, out, _ = _run(capsys, "reproduce-paper", "--section", "3.2")
        assert status == 0
        assert out.splitlines() == [
            "build_A(5,1,2) matches golden: PASS",
            "det == 5: PASS",
            "D(z)=z at p=5 not inner by both deciders: PASS",
        ]
        assert calls == ["build_A", "det_int"]

    def test_section_44(self, capsys):
        status, out, _ = _run(capsys, "reproduce-paper", "--section", "4.4")
        assert status == 0
        assert "table matches golden CSV byte for byte: PASS" in out
        assert "S13,16,6,5,LCD,16,10,3" in out

    def _sweep_to_13(self, monkeypatch, extra=()):
        # the section sweeps p <= 49; p <= 13 runs the same report path
        real = conjecture.sweep

        def small(p_min, p_max):
            report = real(p_min, 13)
            return dataclasses.replace(report, cases=report.cases + tuple(extra))

        monkeypatch.setattr(conjecture, "sweep", small)

    def test_section_sweep_passes(self, capsys, monkeypatch):
        self._sweep_to_13(monkeypatch)
        status, out, _ = _run(capsys, "reproduce-paper", "--section", "sweep")
        assert status == 0
        assert "0 failures, 0 sign mismatches: PASS" in out

    def test_section_sweep_reports_a_failing_case(self, capsys, monkeypatch):
        self._sweep_to_13(monkeypatch, [conjecture.ConjectureCase(5, 1, 2, 10)])
        status, out, _ = _run(capsys, "reproduce-paper", "--section", "sweep")
        assert status == 1
        assert "1 failures, 0 sign mismatches: FAIL" in out


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
    # nothing in the package starts worker processes, so no query pays for the import
    src = Path(sigmatau.__file__).resolve().parents[1]
    code = "import sys, sigmatau, sigmatau.cli; print('multiprocessing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _loaded_after(code: str) -> list[str]:
    """The sigmatau submodules a fresh interpreter holds after running code."""
    src = Path(sigmatau.__file__).resolve().parents[1]
    code += "\nimport json; print(json.dumps(sorted(m for m in sys.modules if m.startswith('sigmatau.'))))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestLazyLoading:
    """Names bind on first use, and each command imports only the layers it runs."""

    def test_import_loads_no_submodule(self):
        assert _loaded_after("import sys, sigmatau") == []

    def test_inner_skips_codes_and_conjecture(self):
        loaded = _loaded_after(
            "import sys\nfrom sigmatau.cli import run\n"
            "run(['inner', '--ring', 'cyclotomic:7', '--sigma', '2', '--tau', '3', '--dzeta', '1,0,0,0,0,0'])"
        )
        assert "sigmatau.derivations" in loaded
        assert "sigmatau.codes" not in loaded and "sigmatau.conjecture" not in loaded

    def test_sweep_skips_codes(self):
        loaded = _loaded_after(
            "import sys\nfrom sigmatau.cli import run\nrun(['sweep', '--max-p', '7', '--format', 'json'])"
        )
        assert "sigmatau.conjecture" in loaded and "sigmatau.codes" not in loaded

    def test_public_names_resolve(self):
        # dir() lists every public name before any is read, and loads nothing
        loaded = _loaded_after(
            "import sys, sigmatau\nassert set(sigmatau.__all__) <= set(dir(sigmatau))"
        )
        assert loaded == []
        namespace: dict = {}
        exec("from sigmatau import *", namespace)
        assert set(sigmatau.__all__) <= namespace.keys()
        for name in sigmatau.__all__:
            owner = sys.modules[f"sigmatau.{sigmatau._MODULE_OF[name]}"]
            assert getattr(sigmatau, name) is getattr(owner, name) is namespace[name]
        assert sigmatau.codes is sys.modules["sigmatau.codes"]
        with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
            sigmatau.nonesuch


def test_module_entry_point():
    # python -m sigmatau runs the same CLI through __main__.py
    src = Path(sigmatau.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "sigmatau", "ring", "--ring", "cyclotomic:5"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "endomorphisms: 1, 2, 3, 4" in proc.stdout


def test_cli_module_runs_as_a_script():
    # python -m sigmatau.cli is the same CLI as the sigmatau entry point
    src = Path(sigmatau.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "sigmatau.cli", "inner", "--ring", "cyclotomic:5",
         "--sigma", "1", "--tau", "2", "--dzeta", "1,0,0,0"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("not inner") == 2
