"""Timing comparison between the compiled kernels and their pure twins.

Runs each hot kernel on identical inputs through both implementations and
reports best-of-N wall times plus the end-to-end determinant sweep, whose
pure-backend run happens in a subprocess with SIGMATAU_PURE=1 so the
in-process backend choice stays untouched.

Usage: python3 benchmarks/bench_kernels.py [--max-p N] [--repeat N]
"""

import argparse
import os
import random
import subprocess
import sys
import time

from sigmatau import _backend, _pykernels
from sigmatau.conjecture import sweep
from sigmatau.derivations import build_cyclotomic_derivation
from sigmatau.rings import endomorphisms, make_cyclotomic


def best_of(fn, repeat):
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None or dt < best else best
    return best


def bench_det(rng, repeat):
    # 12x12 at |entry| <= 3 stays inside the compiled kernel's 64-bit window
    a = [[rng.randint(-3, 3) for _ in range(12)] for _ in range(12)]
    loops = 200

    def compiled():
        from sigmatau import _kernels

        for _ in range(loops):
            _kernels.det_bareiss_i64(a)

    def pure():
        for _ in range(loops):
            _pykernels.det_bareiss(a)

    return "det_bareiss 12x12 x200", compiled, pure


def bench_derivation_failure(rng, repeat):
    # a genuine derivation forces the full basis-pair scan; a random map
    # would fail at the first pair and time only argument marshalling
    ring = make_cyclotomic(13)
    spec = ring.spec
    rank = spec.rank
    sigma, tau = endomorphisms(ring)[0], endomorphisms(ring)[3]
    seed = tuple(rng.randint(-9, 9) for _ in range(rank))
    d = build_cyclotomic_derivation(ring, sigma, tau, seed).images
    loops = 200

    def compiled():
        from sigmatau import _kernels

        for _ in range(loops):
            _kernels.derivation_failure_i64(spec.table, d, sigma.images, tau.images)

    def pure():
        for _ in range(loops):
            _pykernels.derivation_failure(spec.table, d, sigma.images, tau.images)

    return "derivation_failure p=13 x200", compiled, pure


def bench_min_weight(rng, repeat):
    # the compiled Gray walk against the pure path's bit-sliced histogram
    masks = [rng.getrandbits(32) for _ in range(20)]
    stop = (1 << 20) - 1

    def compiled():
        from sigmatau import _kernels

        _kernels.min_weight_gf2_u64(masks, 1, stop)

    def pure():
        _pykernels.weight_counts_gf2(masks, 32)

    return "min_weight_gf2 k=20 n=32", compiled, pure


def bench_sweep(max_p, out):
    t0 = time.perf_counter()
    report = sweep(3, max_p, jobs=1)
    compiled_s = time.perf_counter() - t0
    snippet = (
        "import time\n"
        "from sigmatau.conjecture import sweep\n"
        "t0 = time.perf_counter()\n"
        f"sweep(3, {max_p}, jobs=1)\n"
        "print(time.perf_counter() - t0)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", snippet],
        capture_output=True,
        text=True,
        env={**os.environ, "SIGMATAU_PURE": "1"},
    )
    if proc.returncode != 0:
        raise SystemExit(f"pure sweep subprocess failed:\n{proc.stderr}")
    pure_s = float(proc.stdout.strip())
    label = f"sweep p<={max_p} ({len(report.cases)} cases)"
    _print_row(out, label, compiled_s, pure_s)


def _print_row(out, label, compiled_s, pure_s):
    speedup = pure_s / compiled_s if compiled_s else float("inf")
    print(f"{label:<34} {compiled_s:>12.4f} {pure_s:>12.4f} {speedup:>9.1f}x", file=out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-p", type=int, default=49)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    out = sys.stdout
    if _backend.BACKEND != "compiled":
        print("compiled extension not importable; nothing to compare", file=out)
        return 1

    print(f"{'kernel':<34} {'compiled s':>12} {'pure s':>12} {'speedup':>10}", file=out)
    rng = random.Random(2024)
    for builder in (bench_det, bench_derivation_failure, bench_min_weight):
        label, compiled, pure = builder(rng, args.repeat)
        _print_row(out, label, best_of(compiled, args.repeat), best_of(pure, args.repeat))
    bench_sweep(args.max_p, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
