import io
import os
import random
import subprocess
import sys
from pathlib import Path

import sigmatau
from sigmatau.algebra import mult_matrix, sub
from sigmatau.conjecture import (
    ConjectureCase,
    SweepReport,
    build_A,
    primes_in,
    summary_json,
    sweep,
    write_cases_csv,
)
from sigmatau.intlinalg import det_bareiss
from sigmatau.rings import make_cyclotomic, zeta_power

import pytest

PAPER_A_P5 = [
    [0, 0, 1, -2],
    [1, 0, 1, -1],
    [-1, 1, 1, -1],
    [0, -1, 2, -1],
]


class TestBuildA:
    def test_reference_matrix_p5(self):
        a = build_A(5, 1, 2)
        assert a == PAPER_A_P5
        assert det_bareiss(a) == 5

    def test_hand_expanded_p3(self):
        # (z - z^2) * 1 = 1 + 2z and (z - z^2) * z = -2 - z, with z^2 = -1 - z
        a = build_A(3, 1, 2)
        assert a == [[1, -2], [2, -1]]
        assert det_bareiss(a) == 3

    def test_first_column_is_the_difference(self):
        for p, u, w in ((5, 1, 2), (7, 3, 5), (11, 10, 1)):
            ring = make_cyclotomic(p)
            a = build_A(p, u, w)
            col0 = tuple(row[0] for row in a)
            assert col0 == sub(zeta_power(ring, u), zeta_power(ring, w))

    def test_matches_generic_multiplication_matrix(self):
        rng = random.Random(3)
        for p in (3, 5, 7, 11, 13):
            ring = make_cyclotomic(p)
            for _ in range(4):
                u, w = rng.sample(range(1, p), 2)
                g = sub(zeta_power(ring, u), zeta_power(ring, w))
                assert build_A(p, u, w) == mult_matrix(ring.spec, g)

    @pytest.mark.parametrize("p", [1, 2, 4, 9, 15])
    def test_invalid_p_rejected(self, p):
        with pytest.raises(ValueError):
            build_A(p, 1, 2)

    def test_invalid_exponents_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            build_A(5, 2, 2)
        with pytest.raises(ValueError, match="1..p-1"):
            build_A(5, 0, 2)
        with pytest.raises(ValueError, match="1..p-1"):
            build_A(5, 1, 5)


class TestSweep:
    def test_counts_and_clean_pass_up_to_13(self):
        report = sweep(3, 13)
        assert isinstance(report, SweepReport)
        expected = sum((p - 1) * (p - 2) for p in (3, 5, 7, 11, 13))
        assert len(report.cases) == expected == 266
        assert report.failures == ()
        assert report.sign_mismatches == ()
        assert all(c.det == c.p and c.passed for c in report.cases)
        assert report.seconds >= 0

    def test_single_prime(self):
        report = sweep(5, 5)
        assert len(report.cases) == 12
        assert {c.p for c in report.cases} == {5}
        assert {(c.u, c.w) for c in report.cases} == {
            (u, w) for u in range(1, 5) for w in range(1, 5) if u != w
        }

    def test_jobs_is_accepted_and_runs_in_process(self):
        # jobs > 1 gives the same cases, and starts no worker pool
        assert sweep(3, 13, jobs=2).cases == sweep(3, 13, jobs=1).cases
        src = Path(sigmatau.__file__).resolve().parents[1]
        code = (
            "import sys\nfrom sigmatau.conjecture import sweep\nsweep(3, 7, jobs=2)\n"
            "print('concurrent.futures' in sys.modules)"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_empty_range(self):
        report = sweep(24, 28)
        assert report.cases == ()
        assert report.failures == ()

    def test_invalid_jobs(self):
        with pytest.raises(ValueError, match="positive"):
            sweep(3, 5, jobs=0)

    def test_violation_error_is_gone(self):
        # det A = +-p is a theorem; the adjugate route asserts it instead
        with pytest.raises(AttributeError):
            sigmatau.ConjectureViolationError

    def test_primes_in(self):
        assert primes_in(3, 49) == [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
        assert primes_in(2, 2) == [2]
        assert primes_in(48, 52) == []


class TestCaseRecord:
    def test_passed_property(self):
        assert ConjectureCase(5, 1, 2, 5).passed
        assert not ConjectureCase(5, 1, 2, -5).passed
        assert not ConjectureCase(5, 1, 2, 25).passed

    def test_failures_vs_sign_mismatches(self):
        good = ConjectureCase(5, 1, 2, 5)
        flipped = ConjectureCase(5, 2, 1, -5)
        broken = ConjectureCase(5, 3, 1, 10)
        report = SweepReport(5, 5, (good, flipped, broken), 0.0)
        assert report.failures == (broken,)
        assert report.sign_mismatches == (flipped,)


class TestReportOutput:
    def test_csv_shape(self):
        report = sweep(5, 5)
        buf = io.StringIO()
        write_cases_csv(report, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "p,u,w,det,pass"
        assert len(lines) == 13
        assert lines[1] == "5,1,2,5,True"

    def test_summary_json(self):
        report = sweep(3, 7)
        data = summary_json(report)
        assert data["range"] == [3, 7]
        assert data["cases"] == 2 + 12 + 30
        assert data["failures"] == 0
        assert data["failure_cases"] == []
        assert data["sign_mismatches"] == 0
