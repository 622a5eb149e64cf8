"""Determinant sweep for the cyclotomic innerness matrix.

For an odd prime p and distinct exponents u, w in 1..p-1, A(p, u, w) is the
matrix of multiplication by z^u - z^w on the power basis {1, z, ..., z^(p-2)}.
The paper conjectured det A(p, u, w) == p for every such case; it holds,
since det A is the norm of z^u - z^w, an associate of 1 - z, whose norm is
Phi_p(1) = p. The sweep remains the paper's numerical check: it evaluates
every ordered pair for every prime in a range, in the calling process, and
reports failures (det not in {p, -p}) separately from sign mismatches
(det == -p), which have never been observed but are tracked as their own
outcome.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .intlinalg import det_bareiss, is_prime


@dataclass(frozen=True, slots=True)
class ConjectureCase:
    p: int
    u: int
    w: int
    det: int

    @property
    def passed(self) -> bool:
        return self.det == self.p


@dataclass(frozen=True, slots=True)
class SweepReport:
    p_min: int
    p_max: int
    cases: tuple[ConjectureCase, ...]
    seconds: float

    @property
    def failures(self) -> tuple[ConjectureCase, ...]:
        return tuple(c for c in self.cases if c.det not in (c.p, -c.p))

    @property
    def sign_mismatches(self) -> tuple[ConjectureCase, ...]:
        return tuple(c for c in self.cases if c.det == -c.p)


def build_A(p: int, u: int, w: int) -> list[list[int]]:
    """Multiplication-by-(z^u - z^w) matrix on the power basis, (p-1) x (p-1).

    Column j holds the coordinates of (z^u - z^w) * z^j, with z^(p-1)
    rewritten as -(1 + z + ... + z^(p-2)).
    """
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    n = p - 1
    if not (1 <= u <= n and 1 <= w <= n):
        raise ValueError("u and w must lie in 1..p-1")
    if u == w:
        raise ValueError("u and w must be distinct")
    a = [[0] * n for _ in range(n)]
    for j in range(n):
        for e, sign in ((u + j) % p, 1), ((w + j) % p, -1):
            if e < n:
                a[e][j] += sign
            else:
                for t in range(n):
                    a[t][j] -= sign
    return a


def primes_in(lo: int, hi: int) -> list[int]:
    """Primes in the inclusive range [lo, hi]."""
    return [p for p in range(max(lo, 2), hi + 1) if is_prime(p)]


def sweep(p_min: int = 3, p_max: int = 49, jobs: int = 1) -> SweepReport:
    """Evaluate every case for every odd prime in [p_min, p_max] (inclusive).

    Every case runs in the calling process; jobs is accepted, and must be
    positive, so that older callers keep working.
    """
    if jobs < 1:
        raise ValueError("jobs must be positive")
    start = time.perf_counter()
    cases = tuple(
        ConjectureCase(p, u, w, det_bareiss(build_A(p, u, w)))
        for p in primes_in(max(p_min, 3), p_max)
        for u in range(1, p)
        for w in range(1, p)
        if u != w
    )
    return SweepReport(p_min, p_max, cases, time.perf_counter() - start)


def write_cases_csv(report: SweepReport, fp) -> None:
    """One row per case: p,u,w,det,pass."""
    fp.write("p,u,w,det,pass\n")
    for c in report.cases:
        fp.write(f"{c.p},{c.u},{c.w},{c.det},{c.passed}\n")


def summary_json(report: SweepReport) -> dict:
    return {
        "range": [report.p_min, report.p_max],
        "cases": len(report.cases),
        "failures": len(report.failures),
        "failure_cases": [
            {"p": c.p, "u": c.u, "w": c.w, "det": c.det} for c in report.failures
        ],
        "sign_mismatches": len(report.sign_mismatches),
        "seconds": report.seconds,
    }
