import random

import pytest

from sigmatau.intlinalg import (
    adjugate,
    det_bareiss,
    hermite_normal_form,
    identity,
    is_prime,
    mat_vec,
    nullspace_mod_q,
    rank_int,
    rref_mod_q,
    solve_integer,
    transpose,
)

from .oracles import det_cofactor, is_prime_trial, mat_mul, rank_fraction, solve_via_adjugate

PAPER_A = [[0, 0, 1, -2], [1, 0, 1, -1], [-1, 1, 1, -1], [0, -1, 2, -1]]


def rand_matrix(rng, rows, cols, bound=9):
    return [[rng.randrange(-bound, bound + 1) for _ in range(cols)] for _ in range(rows)]


class TestDet:
    def test_paper_matrix(self):
        assert det_bareiss(PAPER_A) == 5

    def test_identity(self):
        assert det_bareiss(identity(6)) == 1

    def test_p3_analogue(self):
        assert det_bareiss([[1, -2], [2, -1]]) == 3

    def test_empty_and_singletons(self):
        assert det_bareiss([]) == 1
        assert det_bareiss([[7]]) == 7

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det_bareiss([[1, 2, 3], [4, 5, 6]])

    def test_against_cofactor_oracle(self):
        rng = random.Random(10)
        for _ in range(300):
            n = rng.randrange(1, 6)
            a = rand_matrix(rng, n, n)
            assert det_bareiss(a) == det_cofactor(a)

    def test_row_swap_sign(self):
        assert det_bareiss([[0, 1], [1, 0]]) == -1
        assert det_bareiss([[0, 0, 1], [1, 0, 0], [0, 1, 0]]) == 1

    def test_singular(self):
        assert det_bareiss([[1, 2], [2, 4]]) == 0


class TestAdjugate:
    def test_one_by_one(self):
        assert adjugate([[13]]) == [[1]]

    def test_identity(self):
        assert adjugate(identity(4)) == identity(4)

    def test_paper_matrix_identity(self):
        adj = adjugate(PAPER_A)
        want = [[5 if i == j else 0 for j in range(4)] for i in range(4)]
        assert mat_mul(PAPER_A, adj) == want
        assert mat_mul(adj, PAPER_A) == want

    def test_random_identity_both_sides(self):
        rng = random.Random(11)
        for _ in range(120):
            n = rng.randrange(1, 7)
            a = rand_matrix(rng, n, n)
            d = det_bareiss(a)
            adj = adjugate(a)
            want = [[d if i == j else 0 for j in range(n)] for i in range(n)]
            assert mat_mul(a, adj) == want
            assert mat_mul(adj, a) == want


class TestSolveInteger:
    def test_paper_system_has_no_integer_solution(self):
        assert solve_integer(PAPER_A, (0, 1, 0, 0)) is None

    def test_identity_system(self):
        assert solve_integer(identity(4), (3, -1, 4, 1)) == (3, -1, 4, 1)

    def test_forward_constructed_solution(self):
        c = mat_vec(PAPER_A, (1, 2, 3, 4))
        assert solve_integer(PAPER_A, c) == (1, 2, 3, 4)

    def test_rectangular_overdetermined(self):
        a = [[1, 0], [0, 1], [1, 1]]
        assert solve_integer(a, (2, 3, 5)) == (2, 3)
        assert solve_integer(a, (2, 3, 6)) is None

    def test_singular_consistent_and_inconsistent(self):
        a = [[1, 2], [2, 4]]
        got = solve_integer(a, (3, 6))
        assert got is not None and mat_vec(a, got) == [3, 6]
        assert solve_integer(a, (3, 7)) is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_integer(PAPER_A, (1, 2, 3))

    def test_agrees_with_adjugate_route(self):
        rng = random.Random(12)
        checked_absent = 0
        for _ in range(300):
            n = rng.randrange(1, 6)
            a = rand_matrix(rng, n, n)
            if det_bareiss(a) == 0:
                continue
            c = tuple(rng.randrange(-9, 10) for _ in range(n))
            hnf_route = solve_integer(a, c)
            adj_route = solve_via_adjugate(a, c)
            assert hnf_route == adj_route
            if hnf_route is None:
                checked_absent += 1
            else:
                assert mat_vec(a, hnf_route) == list(c)
        assert checked_absent > 20

    def test_adjugate_route_rejects_singular(self):
        with pytest.raises(ValueError):
            solve_via_adjugate([[1, 2], [2, 4]], (1, 1))


class TestHermite:
    def test_transform_is_unimodular(self):
        rng = random.Random(13)
        for _ in range(100):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 5)
            a = rand_matrix(rng, rows, cols)
            h, u = hermite_normal_form(a)
            assert det_bareiss(u) in (1, -1)
            assert mat_mul(u, a) == h

    def test_pivots_positive_and_staircase(self):
        rng = random.Random(14)
        for _ in range(60):
            a = rand_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5))
            h, _ = hermite_normal_form(a)
            last = -1
            for row in h:
                nz = [j for j, v in enumerate(row) if v]
                if not nz:
                    continue
                assert nz[0] > last
                last = nz[0]
                assert row[nz[0]] > 0


class TestRank:
    def test_against_fraction_oracle(self):
        rng = random.Random(15)
        cases = [rand_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 6), 5) for _ in range(200)]
        # up to 12 x 30, with a zero row, a repeated row and a sum of two rows
        for _ in range(40):
            a = rand_matrix(rng, rng.randrange(1, 10), rng.randrange(1, 31), 5)
            x, y = rng.choice(a), rng.choice(a)
            a += [[0] * len(x), list(x), [u + v for u, v in zip(x, y)]]
            rng.shuffle(a)
            cases.append(a)
        cases += [[[]], [[], [], []], [[0, 0, 0]] * 4]
        for a in cases:
            assert rank_int(a) == rank_fraction(a)

    def test_empty(self):
        assert rank_int([]) == 0


class TestModQ:
    def test_zero_matrix_rank_0(self):
        r, rank, piv = rref_mod_q([[0, 0], [0, 0]], 5)
        assert rank == 0 and piv == []

    def test_identity_rank_n(self):
        _, rank, piv = rref_mod_q(identity(5), 7)
        assert rank == 5 and piv == [0, 1, 2, 3, 4]

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError):
            rref_mod_q([[1, 2]], 6)

    def test_parity_nullspace(self):
        null = nullspace_mod_q([[1, 1]], 2)
        assert null == [[1, 1]]

    def test_identity_nullspace_empty(self):
        assert nullspace_mod_q(identity(3), 3) == []

    def test_rank_nullity_and_orthogonality(self):
        rng = random.Random(16)
        for q in (2, 3, 5, 17):
            for _ in range(40):
                rows = rng.randrange(1, 5)
                cols = rng.randrange(1, 7)
                a = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
                _, rank, _ = rref_mod_q(a, q)
                null = nullspace_mod_q(a, q)
                assert rank + len(null) == cols
                for v in null:
                    for row in a:
                        assert sum(x * y for x, y in zip(row, v)) % q == 0

    def test_is_prime(self):
        assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert not is_prime(1) and not is_prime(0) and not is_prime(-7)

    def test_is_prime_agrees_with_trial_division(self):
        for q in range(-10, 200_000):
            assert is_prime(q) == is_prime_trial(q), q
        for q in (10**12 + 39, 10**12 + 37, 999_999_999_989 * 7):
            assert is_prime(q) == is_prime_trial(q), q

    def test_is_prime_large_moduli(self):
        # strong pseudoprimes to the first 1, 2, ..., 12 prime bases
        for q in (
            2047, 1373653, 3215031751, 2152302898747, 3474749660383,
            341550071728321, 3825123056546413051, 318665857834031151167461,
        ):
            assert not is_prime(q), q
        assert is_prime(2**61 - 1) and is_prime(2**31 - 1)
        assert not is_prime(2**61 + 1) and not is_prime((2**31 - 1) * (2**61 - 1))


class TestHnfSolveCrossCheck:
    def test_solution_always_verified(self):
        # solve_integer re-multiplies internally; a returned vector is a solution
        rng = random.Random(17)
        for _ in range(100):
            n = rng.randrange(1, 5)
            m = rng.randrange(1, 5)
            a = rand_matrix(rng, n, m, 6)
            x = tuple(rng.randrange(-5, 6) for _ in range(m))
            c = mat_vec(a, x)
            got = solve_integer(a, tuple(c))
            assert got is not None
            assert mat_vec(a, got) == c

    def test_transpose_helper(self):
        assert transpose([[1, 2, 3], [4, 5, 6]]) == [[1, 4], [2, 5], [3, 6]]
