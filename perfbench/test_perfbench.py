"""Tests of the benchmark itself: its checks catch wrong answers, and
BENCHMARK.json names the metrics run.py prints.

Run from the repository root: python3 -m pytest perfbench/test_perfbench.py
"""

import itertools
import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import truth  # noqa: E402
from cli_shim import import_checked  # noqa: E402
from worker import REFERENCE_MS, HostSpeed, measure  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

st = import_checked(ROOT)


def _session(name, seed=7):
    wl = WORKLOADS[name](st, seed, ROOT, False)
    wl.setup()
    return wl


@pytest.mark.parametrize("name", ["decide_batch", "codes"])
def test_correct_answers_pass(name):
    out = measure(_session(name), rounds=2)
    assert out["attempted"] > 0 and out["failed"] == 0


def test_random_code_subsets_have_full_rank():
    # at seed 110 a p = 29 matrix has rank just 20 mod 2, where drawing whole
    # 20-row subsets at random found none in a 25-second run
    wl = _session("codes", seed=110)
    for specs in itertools.islice(wl.rounds(), 40):
        for kind, matrix, _, subset, q in specs:
            if kind == "random":
                assert truth.rank_mod_q([matrix.B[t - 1] for t in subset], q) == len(subset)


def test_times_are_scaled_to_host_speed(monkeypatch):
    # a reference that takes twice REFERENCE_MS, as on a host at half speed,
    # halves every reported time; sleep never returns early
    monkeypatch.setattr(HostSpeed, "_reference", lambda self: time.sleep(2 * REFERENCE_MS / 1000))
    out = measure(_session("decide_batch"), rounds=1)
    assert 0.3 < out["busy_s"] / out["raw_busy_s"] <= 0.5
    assert out["busy_s"] == pytest.approx(sum(out["latencies_ms"]) / 1000)


def test_planted_wrong_answer_raises_failures(monkeypatch):
    honest = st.is_inner_generic

    def flipped(*args):
        v = honest(*args)
        return replace(v, inner=not v.inner)

    monkeypatch.setattr(st, "is_inner_generic", flipped)
    wl = _session("decide_batch")
    out = measure(wl, rounds=2)
    assert out["failed"] == out["attempted"] - 2 * len(wl.basis_rings)  # every op but the basis calls


def test_wrong_witness_fails(monkeypatch):
    honest = st.quadratic_inner

    def shifted(*args):
        v = honest(*args)
        return replace(v, witness=(v.witness[0] + 1, v.witness[1])) if v.inner else v

    monkeypatch.setattr(st, "quadratic_inner", shifted)
    out = measure(_session("decide_batch"), rounds=5)
    assert out["failed"] > 0


def test_wrong_code_parameters_fail(monkeypatch):
    honest = st.code_report
    monkeypatch.setattr(st, "code_report", lambda *a, **k: replace(honest(*a, **k), dual_k=0))
    out = measure(_session("codes"), rounds=1)
    assert out["failed"] == out["attempted"]


def test_wrong_sweep_determinant_fails(monkeypatch):
    honest = st.sweep

    def off_by_sign(*args, **kwargs):
        report = honest(*args, **kwargs)
        first = replace(report.cases[0], det=-report.cases[0].det)
        return replace(report, cases=(first, *report.cases[1:]))

    monkeypatch.setattr(st, "sweep", off_by_sign)
    wl = _session("sweep")
    out = measure(wl, rounds=1)
    assert out["failed"] == len(wl.primes)  # one case of each prime's call
    assert out["attempted"] == sum((p - 1) * (p - 2) for p in wl.primes) == len(out["latencies_ms"])


def test_cli_disagreement_fails():
    wl = _session("cli_inner")
    spec = next(wl.rounds())[0]
    model, sigma, tau, _, d_gen, (inner, _), _, _ = spec
    wrong = {"generic": {"inner": not inner, "witness": None}, "conjectural": {"inner": inner, "witness": None}}
    proc = subprocess.CompletedProcess([], 0, json.dumps(wrong), "")
    assert wl.check(spec, proc, None) == (1, 1)
    assert wl.check(spec, subprocess.CompletedProcess([], 2, "", "usage"), None) == (1, 1)


def test_benchmark_json_matches_run():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS) == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


def test_refuses_a_directory_without_the_package():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""


def test_tracer_counts_calls_fallbacks_and_self_time():
    # in a child, because install() rewires the package for the whole process
    code = """
import sys
sys.path.insert(0, sys.argv[1])
from cli_shim import import_checked
from pathlib import Path
from tracer import Tracer, summarize
st = import_checked(Path(sys.argv[2]))

class Overflowing:
    def det_bareiss_i64(self, rows):
        raise OverflowError

st._backend._kernels = Overflowing()
tracer = Tracer()
tracer.install(st)
assert st.det_bareiss([[2, 1], [1, 1]]) == 1
assert st.conjecture.det_bareiss is st.intlinalg.det_bareiss is st.det_bareiss
s = summarize([tracer.dump()])
assert s["calls"] == {"intlinalg.det_bareiss": 1, "_backend.det_int": 1}, s["calls"]
assert s["counters"]["_backend.overflow_fallbacks"] == 1
assert 0 <= s["self_s"]["intlinalg.det_bareiss"] < s["self_s"]["intlinalg.det_bareiss"] + s["self_s"]["_backend.det_int"]
"""
    proc = subprocess.run([sys.executable, "-c", code, str(HERE), str(ROOT)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_summarize_subtracts_child_spans():
    dump = {"names": ["outer", "inner"], "spans": [[0, 0.0, 10.0, -1], [1, 2.0, 5.0, 0], [1, 6.0, 7.0, 0]], "counters": {}}
    s = run.summarize([dump])
    assert s["calls"] == {"outer": 1, "inner": 2}
    assert s["self_s"] == {"outer": 6.0, "inner": 4.0}
