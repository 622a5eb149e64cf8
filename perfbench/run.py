"""Benchmark of sigmatau: four seeded workloads, untraced or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli_inner, decide_batch, sweep, codes (see workloads.py and
BENCHMARK.json for what each one stresses and why). The package is imported
from ./src on whatever backend ``sigmatau.BACKEND`` reports; nothing is built.

--trace 0 measures the end-to-end metrics. It starts SETUP_SAMPLES - 1
fresh sessions that only set up, then one session that also runs whole
rounds of ops for S seconds; set-up time is the median over all of them.
Every time is scaled to a fixed host speed (see worker.py); the "run" line
gives the unscaled busy and set-up times next to the scaled ones.

--trace 1 measures the per-layer metrics. It runs the workload's fixed
number of trace rounds twice, in two fresh sessions with the same seed:
untraced, then with every public sigmatau function wrapped. Call counts
therefore repeat exactly for a seed, and traced / untraced busy time is the
tracing overhead. The spans go to .perfbench/ once the run ends.

Every answer is checked against what the benchmark knows independently.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import summarize
from workloads import WORKLOADS as CLASSES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = tuple(CLASSES)
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Layer metrics, grouped by the end-to-end metric and workload each should
# move; BENCHMARK.json records the same map.
_CALLS = (
    "rings.endomorphisms", "rings.endomorphism_by_name", "algebra.endomorphism_failure",
    "algebra.mul", "_backend.derivation_failure", "intlinalg.adjugate",
    "intlinalg.hermite_normal_form", "conjecture.build_A", "intlinalg.det_bareiss",
    "codes.min_distance",
)
_SELF = (
    "rings.endomorphisms", "algebra.endomorphism_failure", "algebra.mul",
    "_backend.derivation_failure", "derivations.is_inner_generic", "derivations.quadratic_inner",
    "derivations.biquadratic_inner", "derivations.build_cyclotomic_derivation",
    "derivations.cyclotomic_inner_conjectural", "intlinalg.adjugate",
    "intlinalg.hermite_normal_form", "derivations.cyclotomic_basis",
    "derivations.biquadratic_basis", "intlinalg.rank_int", "conjecture.build_A",
    "conjecture.sweep", "intlinalg.det_bareiss", "_backend.det_int", "codes.min_distance",
    "_backend.min_weight_gf2", "_pykernels.min_weight_modq", "intlinalg.rref_mod_q",
    "intlinalg.nullspace_mod_q", "codes.is_lcd", "cli.run",
)
# Metric names may not start with "_": _backend and _pykernels lose theirs.
PER_LAYER = {
    **{f"{name.lstrip('_')}.calls": "count" for name in _CALLS},
    **{f"{name.lstrip('_')}.self_s": "s" for name in _SELF},
    "derivations.law_checks_per_op": "1/op",
    "derivations.adjugate_cache.hit_ratio": "ratio",
    "derivations.generic_hnf_cache.hit_ratio": "ratio",
    "codes.codewords_enumerated": "count",
    "codes.budget_used_max": "ratio",
    "cli.process_start_s": "s",
    "backend.overflow_fallbacks": "count",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    """The caller's environment (SIGMATAU_PURE included) with ./src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def session(workload: str, seed: int, limit: list[str], deadline: float) -> dict:
    """Run one worker session to completion and return its JSON report."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), workload, str(seed), repr(time.monotonic()), *limit]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env(), start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the session and any CLI child it started
        proc.communicate()
        raise BenchError(f"{workload} session ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} session exited with status {proc.returncode}:\n{err.strip()}")
    return json.loads(out.splitlines()[-1])


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles does."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_sha() -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    probes = [session(workload, seed, ["--rounds", "0"], deadline) for _ in range(SETUP_SAMPLES - 1)]
    main = session(workload, seed, ["--seconds", str(seconds)], deadline)
    sessions = [*probes, main]
    lat = main["latencies_ms"]
    ok = main["attempted"] - main["failed"]
    values = {
        "setup_s": (statistics.median(s["setup_s"] for s in sessions), SETUP_SAMPLES),
        "ops_per_s": (ok / main["busy_s"], main["attempted"]),
        "op_p50_ms": (statistics.median(lat), len(lat)),
        "op_p90_ms": (percentile(lat, 90), len(lat)),
        "peak_rss_mb": (main["peak_rss_mb"], 1),
    }
    notes = {
        "rounds": main["rounds"],
        "busy_s": round(main["busy_s"], 3),
        "raw_busy_s": round(main["raw_busy_s"], 3),
        "raw_setup_s": round(statistics.median(s["raw_setup_s"] for s in sessions), 4),
    }
    if "reuse_share" in main:
        notes["reuse_share"] = round(main["reuse_share"], 4)
    return main, values, notes, main["attempted"], main["failed"]


def traced(workload: str, seed: int, deadline: float):
    rounds = ["--rounds", str(CLASSES[workload].TRACE_ROUNDS)]
    base = session(workload, seed, rounds, deadline)
    run = session(workload, seed, [*rounds, "--trace"], deadline)
    summary = summarize(run["dumps"])
    calls, self_s, counters = summary["calls"], summary["self_s"], summary["counters"]

    def hit_ratio(cache):
        hits, misses = counters.get(f"{cache}.hits", 0), counters.get(f"{cache}.misses", 0)
        return hits / (hits + misses) if hits + misses else 0.0

    ops = run["attempted"]
    values = {
        **{f"{name.lstrip('_')}.calls": calls.get(name, 0) for name in _CALLS},
        **{f"{name.lstrip('_')}.self_s": self_s.get(name, 0.0) for name in _SELF},
        "derivations.law_checks_per_op": calls.get("_backend.derivation_failure", 0) / ops,
        "derivations.adjugate_cache.hit_ratio": hit_ratio("derivations.adjugate_cache"),
        "derivations.generic_hnf_cache.hit_ratio": hit_ratio("derivations.generic_hnf_cache"),
        "codes.codewords_enumerated": counters.get("codes.codewords_enumerated", 0),
        "codes.budget_used_max": counters.get("codes.budget_used_max", 0.0),
        "cli.process_start_s": statistics.median(run["process_start_s"]),
        "backend.overflow_fallbacks": counters.get("_backend.overflow_fallbacks", 0),
        "trace.overhead_ratio": run["busy_s"] / base["busy_s"],
    }
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{workload}.json"  # the latest traced run only
    spans_file.write_text(json.dumps(run["dumps"]))
    notes = {"rounds": run["rounds"], "ops": ops, "spans": sum(len(d["spans"]) for d in run["dumps"]), "spans_file": str(spans_file.relative_to(ROOT))}
    return run, {k: (values[k], None) for k in PER_LAYER}, notes, base["attempted"] + ops, base["failed"] + run["failed"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "sigmatau" / "__init__.py").is_file():
        print(f"error: no sigmatau package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        if args.trace:
            report, values, notes, attempted, failed = traced(args.workload, args.seed, deadline)
            units = PER_LAYER
        else:
            report, values, notes, attempted, failed = end_to_end(args.workload, args.seed, args.seconds, deadline)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "backend": report["backend"], "git_sha": git_sha(), "sigmatau": report["sigmatau"], **notes,
    }
    print("run " + json.dumps(record))
    for name, (value, samples) in values.items():
        print(f"{name:<48} {value:>14.6g} {units[name]:<6}" + (f" ({samples} samples)" if samples else ""))
    print(f"{'fail_ratio':<48} {failed / attempted:>14.6g} {'failed/attempted':<6} ({failed}/{attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
