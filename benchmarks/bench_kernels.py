"""Timing comparison between the compiled kernels and their pure twins.

Runs each hot kernel on identical inputs through both implementations and
reports best-of-N wall times: the determinant on a dense random 12x12 matrix
and on every sweep case A(31, u, w), then the end-to-end sweep, whose
pure-backend run happens in a subprocess with SIGMATAU_PURE=1 so the
in-process backend choice stays untouched. Kernels with no compiled twin,
the GF(q) weight histogram, get pure-only rows, printed on either backend,
as do whole code_report calls with the compiled kernels switched off: the
thirteen reference subsets together, and a [30, 3] binary code at p = 31
whose 2^27-word dual comes from the MacWilliams identity. The thirteen
reports also get a cold row, on an IddMatrix that has not reduced its rows
mod 2 yet, and a warm row, on one that has; with the extension built they
are timed on both backends.

Usage: python3 benchmarks/bench_kernels.py [--max-p N] [--repeat N]
"""

import argparse
import os
import random
import subprocess
import sys
import time

from sigmatau import _backend, _pykernels
from sigmatau.codes import (
    IddMatrix,
    code_report,
    idd_matrix,
    load_reference_fixture,
    reference_code_reports,
)
from sigmatau.conjecture import build_A, sweep
from sigmatau.derivations import build_cyclotomic_derivation
from sigmatau.rings import endomorphism_by_name, endomorphisms, make_cyclotomic


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


def bench_det_sweep_cases(rng, repeat):
    # the sweep's own input: A(31, u, w) for every case at p = 31, sparse
    # enough that the pure kernel skips many of its row updates
    mats = [build_A(31, u, w) for u in range(1, 31) for w in range(1, 31) if u != w]

    def compiled():
        from sigmatau import _kernels

        for a in mats:
            _kernels.det_bareiss_i64(a)

    def pure():
        for a in mats:
            _pykernels.det_bareiss(a)

    return f"det_bareiss build_A p=31 x{len(mats)}", compiled, pure


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


def bench_weight_counts_modq(rng, k, n):
    # GF(3) has no compiled kernel; its codes run the pure histogram
    rows = [[rng.randrange(3) for _ in range(n)] for _ in range(k)]

    def pure():
        _pykernels.weight_counts_modq(rows, 3, n)

    return f"weight_counts_modq GF(3) [{n},{k}]", pure


def pure_code_reports():
    """(label, fn) rows of code_report calls on the pure kernels."""
    ring = make_cyclotomic(31)
    d = build_cyclotomic_derivation(
        ring, endomorphism_by_name(ring, "1"), endomorphism_by_name(ring, "2"),
        [1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 1, 1, 0],
    )
    b = idd_matrix(ring, d)
    yield "code_report S1-S13", reference_code_reports
    yield "code_report p=31 [30,3]", lambda: code_report(b, (2, 3, 5), 2)


def reference_report_passes():
    """(label, fn) rows of the thirteen reference reports on one IddMatrix:
    cold, on a new matrix each call, so the rows are reduced mod 2 first,
    and warm, on a matrix that holds them already."""
    fix = load_reference_fixture()
    ring = make_cyclotomic(fix["p"])
    d = build_cyclotomic_derivation(
        ring, endomorphism_by_name(ring, fix["sigma"]), endomorphism_by_name(ring, fix["tau"]),
        fix["d_zeta"],
    )
    rows = idd_matrix(ring, d).B
    subsets = [[e + 1 for e in exponents] for exponents in fix["subsets"]]

    def reports(b):
        for t in subsets:
            code_report(b, t, fix["q"])

    warm = IddMatrix(rows)
    reports(warm)
    yield "code_report S1-S13 cold matrix", lambda: reports(IddMatrix(rows))
    yield "code_report S1-S13 warm matrix", lambda: reports(warm)


def best_of_pure(fn, repeat):
    """best_of with the compiled kernels switched off for the duration."""
    saved, _backend._kernels = _backend._kernels, None
    try:
        return best_of(fn, repeat)
    finally:
        _backend._kernels = saved


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
    print(f"{'pure-only kernel':<34} {'pure s':>12}", file=out)
    rng = random.Random(2024)
    for k, n in ((10, 16), (12, 30)):
        label, pure = bench_weight_counts_modq(rng, k, n)
        print(f"{label:<34} {best_of(pure, args.repeat):>12.4f}", file=out)
    for label, pure in (*pure_code_reports(), *reference_report_passes()):
        print(f"{label:<34} {best_of_pure(pure, args.repeat):>12.4f}", file=out)
    if _backend.BACKEND != "compiled":
        print("compiled extension not importable; nothing to compare", file=out)
        return 1

    print(f"{'kernel':<34} {'compiled s':>12} {'pure s':>12} {'speedup':>10}", file=out)
    rng = random.Random(2024)
    for builder in (bench_det, bench_det_sweep_cases, bench_derivation_failure, bench_min_weight):
        label, compiled, pure = builder(rng, args.repeat)
        _print_row(out, label, best_of(compiled, args.repeat), best_of(pure, args.repeat))
    for label, fn in reference_report_passes():
        _print_row(out, label, best_of(fn, args.repeat), best_of_pure(fn, args.repeat))
    bench_sweep(args.max_p, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
