"""One benchmark session: import sigmatau, set up one workload, run its ops.

Started by run.py in a fresh interpreter, so its set-up time includes
interpreter start and ``import sigmatau``. Prints one JSON line on stdout:
the session's set-up time, per-call latencies, op and failure counts, peak
resident memory and, when traced, the spans.

Times are reported at a fixed host speed. On a shared host the same work runs
up to 60 % slower for seconds to minutes at a time, which moved every timing
metric by 15 to 30 % between runs of the same code. So the session times a
fixed reference computation, written apart from sigmatau (see ``HostSpeed``),
between ops, and scales each op's time by REFERENCE_MS over the reference's
time measured around that op. The unscaled times are reported next to them.

Usage: python3 perfbench/worker.py ROOT WORKLOAD SEED T0 --seconds S | --rounds R [--trace]
where T0 is the caller's time.monotonic() just before the spawn.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import truth
from cli_shim import import_checked
from workloads import WORKLOADS

REFERENCE_MS = 1.2  # the reference's time on a quiet 2-core x86-64 box, Python 3.11
REFERENCE_SHARE = 0.03  # reference time kept at this share of the time inside ops
NEIGHBOURS = 6  # reference samples on each side of an op that set its scale


class HostSpeed:
    """Times a fixed reference computation to tell how fast the host runs now.

    The reference (ring products and a rank mod 3 from truth.py) is integer
    arithmetic on tuples and lists, like the work of the ops, and shares no
    code with sigmatau, so no change to the package moves it.
    """

    def __init__(self):
        rng = random.Random(0)
        self._ring = truth.Cyclotomic(13)
        self._factors = [tuple(rng.randint(-9, 9) for _ in range(12)) for _ in range(8)]
        self._rows = [[rng.randint(0, 100) for _ in range(24)] for _ in range(20)]
        self.samples: list[float] = []
        self.spent = 0.0
        for _ in range(3):
            self._reference()  # warm-up, not recorded

    def _reference(self) -> None:
        acc = self._factors[0]
        for f in self._factors:
            acc = self._ring.mul(acc, f)
        truth.rank_mod_q(self._rows, 3)

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t = time.perf_counter()
            self._reference()
            dt = time.perf_counter() - t
            self.samples.append(dt)
            self.spent += dt

    def keep_up(self, busy_s: float) -> None:
        """Sample until reference time is REFERENCE_SHARE of busy_s."""
        while self.spent < REFERENCE_SHARE * busy_s:
            self.sample()

    def scale(self, at: int) -> float:
        """Scale for work done when ``at`` samples had been taken: REFERENCE_MS
        over the median of the NEIGHBOURS samples on each side."""
        window = self.samples[max(0, at - NEIGHBOURS):at + NEIGHBOURS]
        return REFERENCE_MS / 1000 / statistics.median(window)


def measure(wl, seconds: float | None = None, rounds: int | None = None, host: HostSpeed | None = None) -> dict:
    """Run whole rounds of wl: exactly ``rounds`` of them, or, given ``seconds``,
    as many as end nearest to that time (at least one). Latencies and busy
    time are scaled to REFERENCE_MS host speed; ``raw_busy_s`` is not."""
    host = host or HostSpeed()
    host.sample(NEIGHBOURS)
    raw, at, attempted, failed, busy_s, done = [], [], 0, 0, 0.0, 0
    start = time.perf_counter()
    for specs in wl.rounds():
        if done == rounds:
            break
        if seconds is not None and done:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / done / 2 >= seconds:
                break
        for spec in specs:
            host.keep_up(busy_s)
            at.append(len(host.samples))
            error = result = None
            t = time.perf_counter()
            try:
                result = wl.run(spec)
            except Exception as exc:  # a failed op is counted, never dropped
                error = exc
            dt = time.perf_counter() - t
            ops, bad = wl.check(spec, result, error)
            busy_s += dt
            raw.append((dt, ops))
            attempted += ops
            failed += bad
        done += 1
    host.sample(NEIGHBOURS)
    scaled = [(dt * host.scale(i), ops) for (dt, ops), i in zip(raw, at)]
    return {
        "rounds": done,
        "attempted": attempted,
        "failed": failed,
        "busy_s": sum(dt for dt, _ in scaled),
        "raw_busy_s": busy_s,
        # one latency per op: an op of a call that stands for several gets its share
        "latencies_ms": [dt * 1000 / ops for dt, ops in scaled for _ in range(ops)],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("root", type=Path)
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("t0", type=float)
    limit = parser.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float, help="run whole rounds for about this long")
    limit.add_argument("--rounds", type=int, help="run exactly this many rounds")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    # reference samples before and after set-up scale it, as they do an op
    t = time.monotonic()
    host = HostSpeed()
    host.sample(NEIGHBOURS)
    own_s = time.monotonic() - t  # the reference's own time is not set-up
    st = import_checked(args.root)
    process_start_s = time.monotonic() - args.t0 - own_s
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(st)
    wl = WORKLOADS[args.workload](st, args.seed, args.root, args.trace)
    wl.setup()
    setup_s = time.monotonic() - args.t0 - own_s

    out = measure(wl, args.seconds, args.rounds, host)
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli_inner" else resource.RUSAGE_SELF
    out.update({
        "backend": st.BACKEND,
        "sigmatau": st.__file__,
        "setup_s": setup_s * host.scale(NEIGHBOURS),
        "raw_setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
    })
    if hasattr(wl, "reuse_share"):
        out["reuse_share"] = wl.reuse_share()
    if tracer is not None:
        out["dumps"] = [tracer.dump(), *getattr(wl, "child_dumps", [])]
        out["process_start_s"] = getattr(wl, "process_start_s", None) or [process_start_s]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
