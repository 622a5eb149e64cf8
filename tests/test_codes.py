import csv
import io
import random
from fractions import Fraction

import pytest
from hypothesis import given

from sigmatau import _pykernels, intlinalg
from sigmatau.codes import (
    BudgetExceededError,
    CodeReport,
    IddMatrix,
    LinearCode,
    _macwilliams_dual,
    _mask_row,
    _row_mask,
    _rref_gf2,
    code_report,
    dual_code,
    hom_idd_code,
    idd_matrix,
    independent_subset_check,
    is_lcd,
    load_reference_fixture,
    min_distance,
    omega_reduce,
    reference_code_reports,
    report_to_json,
    reports_csv,
    weight_distribution,
)
from sigmatau.derivations import build_cyclotomic_derivation
from sigmatau.intlinalg import rref_mod_q
from sigmatau.rings import endomorphism_by_name, endomorphisms, make_cyclotomic, make_quadratic

from .oracles import (
    macwilliams_transform,
    mat_mul,
    min_dependent_columns,
    naive_min_distance,
    naive_weight_counts,
    odometer_weight_counts,
)
from .strategies import DIFFERENTIAL, generator_matrices


def _reference_matrix():
    fix = load_reference_fixture()
    ring = make_cyclotomic(fix["p"])
    d = build_cyclotomic_derivation(
        ring,
        endomorphism_by_name(ring, fix["sigma"]),
        endomorphism_by_name(ring, fix["tau"]),
        fix["d_zeta"],
    )
    return idd_matrix(ring, d)


def _rows_for_exponents(exponents):
    # row i of B holds D of the i-th basis element z^(i-1)
    return [e + 1 for e in exponents]


class TestIddMatrix:
    def test_rows_are_derivation_images(self):
        ring = make_cyclotomic(5)
        d = build_cyclotomic_derivation(
            ring, endomorphism_by_name(ring, 1), endomorphism_by_name(ring, 2),
            (0, 1, 0, 0),
        )
        b = idd_matrix(ring, d)
        assert b.B == d.images
        assert b.n == 4

    def test_reference_matrix_shape(self):
        b = _reference_matrix()
        assert b.n == 16
        assert b.B[0] == (0,) * 16
        assert b.B[1] == tuple(load_reference_fixture()["d_zeta"])


class TestSubsetChecks:
    def test_empty_selection_is_independent(self):
        assert independent_subset_check(_reference_matrix(), []) is True

    def test_duplicates_rejected(self):
        b = _reference_matrix()
        assert independent_subset_check(b, [2, 2]) is False

    def test_out_of_range_raises(self):
        b = _reference_matrix()
        with pytest.raises(ValueError, match="outside"):
            independent_subset_check(b, [0])
        with pytest.raises(ValueError, match="outside"):
            independent_subset_check(b, [17])

    def test_non_integer_indices_rejected(self):
        # int() would truncate these to the S8 rows (2, 3, 7, 8)
        b = _reference_matrix()
        floats = [2.9, 3.2, 7.5, 8.99]
        for check in (
            lambda: independent_subset_check(b, floats),
            lambda: hom_idd_code(b, floats, 2),
            lambda: code_report(b, floats, 2),
        ):
            with pytest.raises(TypeError):
                check()

    def test_zero_row_is_dependent(self):
        b = _reference_matrix()
        assert independent_subset_check(b, [1]) is False  # D(1) = 0

    def test_reference_subsets_all_independent(self):
        b = _reference_matrix()
        for exponents in load_reference_fixture()["subsets"]:
            assert independent_subset_check(b, _rows_for_exponents(exponents))


class TestOmegaReduce:
    def test_wraps_negatives(self):
        assert omega_reduce([[-1, 7, 10]], 5) == [[4, 2, 0]]
        assert omega_reduce([[3, -4]], 2) == [[1, 0]]

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError, match="not prime"):
            omega_reduce([[1]], 6)

    def test_non_integer_entries_rejected(self):
        with pytest.raises(TypeError):
            omega_reduce([[1.5, 2.0, -1]], 2)

    def test_scaling_commutes_with_reduction(self):
        rng = random.Random(2)
        for q in (2, 3, 5):
            row = [rng.randint(-30, 30) for _ in range(6)]
            lam = rng.randint(-5, 5)
            direct = omega_reduce([[lam * v for v in row]], q)[0]
            reduced = omega_reduce([row], q)[0]
            assert direct == [(lam * v) % q for v in reduced]


class TestLinearCode:
    def test_rank_and_standard_form(self):
        code = LinearCode(2, 4, [[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]])
        assert code.k == 2
        assert code.n == 4
        assert len(code.standard_form) == 2

    def test_equality_ignores_generator_presentation(self):
        a = LinearCode(3, 3, [[1, 0, 2], [0, 1, 1]])
        b = LinearCode(3, 3, [[1, 1, 0], [2, 2, 0], [0, 1, 1]])
        assert a == b
        assert hash(a) == hash(b)

    def test_row_length_checked(self):
        with pytest.raises(ValueError, match="code length"):
            LinearCode(2, 4, [[1, 0]])

    @pytest.mark.parametrize("entry", [1.0, Fraction(1)])
    def test_non_integer_entries_rejected(self, entry):
        # mod-2 masks would read 1.0 as 1; every field checks entries first
        for q in (2, 3):
            with pytest.raises(TypeError):
                LinearCode(q, 3, [[entry, 0, 1]])

    def test_modulus_checked(self):
        with pytest.raises(ValueError, match="not prime"):
            LinearCode(4, 2, [[1, 0]])

    def test_repr(self):
        code = LinearCode(2, 4, [[1, 1, 0, 0]])
        assert repr(code) == "LinearCode([4,1] over GF(2))"


class TestLazyStandardForm:
    """A GF(2) code keeps only its masks; its standard form, == and hash
    are those of the eager rref of the same rows."""

    @DIFFERENTIAL
    @given(generator_matrices(primes=(2,)))
    def test_matches_the_eager_rref(self, drawn):
        _, n, rows = drawn
        eager = tuple(_mask_row(m, n) for m in _rref_gf2(map(_row_mask, rows)))
        code = LinearCode(2, n, rows)
        assert code._form is None
        assert hash(code) == hash((2, n, eager))
        assert code == LinearCode(2, n, [list(r) for r in eager])
        assert code.standard_form == eager
        assert code.standard_form is code.standard_form

    def test_a_report_never_builds_it(self):
        b = _reference_matrix()
        code = hom_idd_code(b, _rows_for_exponents([1, 2, 4, 5, 6, 7, 10, 13]), 2)
        min_distance(code)
        weight_distribution(code)
        is_lcd(code)
        assert code._form is None


class TestReducedRows:
    """An IddMatrix reduces its rows mod q once, on the first code over
    GF(q); a report reads the same whether they are reduced yet or not."""

    def test_reference_reports_fresh_and_warm(self):
        warm = _reference_matrix()
        for q in (2, 3):
            warm._rows_mod(q)
        fix = load_reference_fixture()
        for i, exponents in enumerate(fix["subsets"], start=1):
            t = _rows_for_exponents(exponents)
            for q in (2, 3):
                fresh = _reference_matrix()
                assert fresh._reduced == {}
                assert code_report(fresh, t, q, label=f"S{i}") == code_report(warm, t, q, label=f"S{i}")
                assert fresh._reduced[q] == warm._reduced[q]

    def test_rows_kept_per_q(self):
        b = _reference_matrix()
        masks = b._rows_mod(2)
        assert masks[1] == _row_mask(b.B[1])
        assert b._rows_mod(3)[1] == tuple(v % 3 for v in b.B[1])
        assert b._rows_mod(2) is masks
        assert b == _reference_matrix() and hash(b) == hash(_reference_matrix())

    @pytest.mark.parametrize("entry", [1.0, Fraction(1)])
    @pytest.mark.parametrize("q", [2, 3])
    def test_non_integer_entry_raises_from_a_report(self, entry, q):
        rows = [list(r) for r in _reference_matrix().B]
        t = _rows_for_exponents([1, 2, 6, 7])
        for row in (t[0] - 1, 0):  # a selected row, then an unselected one
            bad = [list(r) for r in rows]
            bad[row][5] = entry
            b = IddMatrix(tuple(map(tuple, bad)))
            with pytest.raises(TypeError):
                code_report(b, t, q)
            with pytest.raises(TypeError):
                hom_idd_code(b, t, q)
            assert b._reduced == {}

    def test_float_modulus_rejected_after_the_rows_are_reduced(self):
        b = _reference_matrix()
        b._rows_mod(2)
        with pytest.raises(TypeError):
            hom_idd_code(b, _rows_for_exponents([1, 2, 6, 7]), 2.0)


class TestHomIddCode:
    def test_reference_s8(self):
        b = _reference_matrix()
        code = hom_idd_code(b, _rows_for_exponents([1, 2, 6, 7]), 2)
        assert (code.n, code.k) == (16, 4)
        assert min_distance(code) == 7
        assert not is_lcd(code)
        dual = dual_code(code)
        assert (dual.n, dual.k) == (16, 12)
        assert min_distance(dual) == 2

    def test_dependent_selection_rejected(self):
        b = _reference_matrix()
        with pytest.raises(ValueError, match="not Z-linearly independent"):
            hom_idd_code(b, [1, 2], 2)

    def test_rank_drop_warns(self):
        # D(z) = 2 makes every row even: Z-independent but zero mod 2
        ring = make_cyclotomic(5)
        d = build_cyclotomic_derivation(
            ring, endomorphism_by_name(ring, 1), endomorphism_by_name(ring, 2),
            (2, 0, 0, 0),
        )
        b = idd_matrix(ring, d)
        assert independent_subset_check(b, [2])
        with pytest.warns(UserWarning, match="below the subset size"):
            code = hom_idd_code(b, [2], 2)
        assert code.k == 0

    def test_full_mod_q_rank_skips_the_z_rank(self, monkeypatch):
        # rows independent mod q are independent over Z; only a short mod-q
        # rank needs the Z-rank to tell a rank drop from a dependent subset
        calls = []
        rank = intlinalg.rank_int
        monkeypatch.setattr(intlinalg, "rank_int", lambda rows: calls.append(rows) or rank(rows))
        b = _reference_matrix()
        code = hom_idd_code(b, _rows_for_exponents([1, 2, 6, 7]), 2)
        assert code.k == 4 and calls == []
        with pytest.raises(ValueError, match="not Z-linearly independent"):
            hom_idd_code(b, [1, 2], 2)
        assert len(calls) == 1


class TestMinDistance:
    def test_budget_refusal(self):
        code = LinearCode(2, 6, [[1, 0, 0, 1, 1, 0], [0, 1, 0, 1, 0, 1]])
        with pytest.raises(BudgetExceededError, match="exceeds the budget"):
            min_distance(code, budget=3)

    def test_budget_error_is_an_input_error(self):
        # cli.run reports it, like every bad input, by catching ValueError
        assert issubclass(BudgetExceededError, RuntimeError)
        assert issubclass(BudgetExceededError, ValueError)

    def test_zero_code_rejected(self):
        code = LinearCode(2, 4, [])
        with pytest.raises(ValueError, match="zero code"):
            min_distance(code)

    def test_matches_naive_small_random(self):
        rng = random.Random(19)
        for q in (2, 3, 5):
            for _ in range(8):
                n = rng.randint(3, 7)
                k = rng.randint(1, 3)
                rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
                code = LinearCode(q, n, rows)
                if code.k == 0:
                    continue
                assert min_distance(code) == naive_min_distance(
                    [list(r) for r in code.standard_form], q
                )

    def test_reference_subset_distance(self):
        b = _reference_matrix()
        t = _rows_for_exponents([1, 2, 4, 5, 6, 7, 10, 13])
        assert min_distance(hom_idd_code(b, t, 2)) == 4

    def test_matches_naive_across_block_boundary(self):
        # k = 15 > 14 spans two blocks of the bit-sliced enumeration
        rng = random.Random(23)
        rows = [[rng.randrange(2) for _ in range(20)] for _ in range(15)]
        code = LinearCode(2, 20, rows)
        assert code.k == 15
        g = [list(r) for r in code.standard_form]
        wd = weight_distribution(code)
        assert list(wd) == naive_weight_counts(g, 2, 20)
        assert min_distance(code) == naive_min_distance(g, 2)

    def test_cached(self):
        code = LinearCode(2, 4, [[1, 1, 1, 1]])
        assert min_distance(code) == 4
        assert code._wd == (1, 0, 0, 0, 1)
        assert min_distance(code, budget=1) == 4  # cache hit skips the budget


class TestWeightDistribution:
    def test_totals_and_zero_word(self):
        b = _reference_matrix()
        code = hom_idd_code(b, _rows_for_exponents([1, 2, 6, 7]), 2)
        wd = weight_distribution(code)
        assert len(wd) == 17
        assert wd[0] == 1
        assert sum(wd) == 2 ** 4
        assert min(w for w in range(1, 17) if wd[w]) == min_distance(code)

    def test_matches_naive(self):
        rng = random.Random(37)
        for q in (2, 3):
            n, k = 6, 3
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
            code = LinearCode(q, n, rows)
            expected = naive_weight_counts(
                [list(r) for r in code.standard_form], q, n
            )
            assert list(weight_distribution(code)) == expected

    def test_ternary_reference_code_matches_odometer(self):
        # rows 2..11 of the p = 17 reference matrix are independent mod 3: a
        # [16, 10] code whose 3^10 words span several bit-sliced blocks
        b = _reference_matrix()
        t = list(range(2, 12))
        code = hom_idd_code(b, t, 3)
        assert (code.n, code.k) == (16, 10)
        want = odometer_weight_counts(code.standard_form, 3, 16)
        assert list(weight_distribution(code)) == want
        fresh = hom_idd_code(b, t, 3)
        assert min_distance(fresh) == min(w for w in range(1, 17) if want[w])
        dual = dual_code(code)
        assert list(weight_distribution(dual)) == odometer_weight_counts(dual.standard_form, 3, 16)

    def test_budget_refusal(self):
        code = LinearCode(3, 4, [[1, 0, 1, 1], [0, 1, 2, 0]])
        with pytest.raises(BudgetExceededError):
            weight_distribution(code, budget=5)

    @pytest.mark.parametrize("q, kernel", [(2, "weight_counts_gf2"), (3, "weight_counts_modq")])
    def test_one_enumeration_per_gfq_code(self, monkeypatch, q, kernel):
        # one histogram per code, whichever question comes first
        histogram = getattr(_pykernels, kernel)
        calls = []

        def counting(*args):
            calls.append(args)
            return histogram(*args)

        monkeypatch.setattr(_pykernels, kernel, counting)
        rows = [[1, 0, 2, 1, 1, 0], [0, 1, 1, 2, 0, 1], [1, 1, 0, 0, 2, 2]]
        g = [list(r) for r in LinearCode(q, 6, rows).standard_form]
        assert len(g) == 3
        for first, second in ((min_distance, weight_distribution), (weight_distribution, min_distance)):
            calls.clear()
            code = LinearCode(q, 6, rows)
            first(code)
            assert len(calls) == 1
            second(code)
            assert len(calls) == 1
            assert min_distance(code) == naive_min_distance(g, q)
            assert list(weight_distribution(code)) == naive_weight_counts(g, q, 6)
            assert len(calls) == 1


class TestDual:
    def test_dimension_and_orthogonality(self):
        b = _reference_matrix()
        for exponents in load_reference_fixture()["subsets"][:4]:
            code = hom_idd_code(b, _rows_for_exponents(exponents), 2)
            dual = dual_code(code)
            assert code.k + dual.k == code.n
            for u in code.standard_form:
                for v in dual.standard_form:
                    assert sum(a * b_ for a, b_ in zip(u, v)) % 2 == 0

    def test_double_dual_is_identity(self):
        code = LinearCode(5, 5, [[1, 2, 3, 4, 0], [0, 1, 0, 1, 4]])
        assert dual_code(dual_code(code)) == code

    @pytest.mark.parametrize("q", [2, 3])
    def test_zero_code_dual_is_everything(self, q):
        code = LinearCode(q, 4, [])
        dual = dual_code(code)
        assert dual.k == 4
        assert dual == LinearCode(q, 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])

    @pytest.mark.parametrize("q", [2, 3])
    def test_full_code_dual_is_zero(self, q):
        code = LinearCode(q, 4, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
        assert code.k == 4
        dual = dual_code(code)
        assert dual.k == 0
        assert dual == LinearCode(q, 4, [])
        assert dual_code(dual) == code


class TestMacWilliams:
    """The dual's whole distribution from the code's, against enumerating
    the words of dual_code's standard form."""

    @staticmethod
    def _check(code):
        dual = [list(r) for r in dual_code(code).standard_form]
        want = naive_weight_counts(dual, code.q, code.n)
        assert list(_macwilliams_dual(weight_distribution(code), code.q, code.k)) == want
        # the column-subset oracle that stands in for the dual's enumeration
        # in the code_report property, checked where both can run
        g = [list(r) for r in code.standard_form]
        least = next((j for j in range(1, code.n + 1) if want[j]), None)
        assert min_dependent_columns(g, code.q, code.n) == least

    def test_reference_subsets(self):
        b = _reference_matrix()
        for exponents in load_reference_fixture()["subsets"]:
            self._check(hom_idd_code(b, _rows_for_exponents(exponents), 2))

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_seeded_codes_to_p13(self, q):
        # image rows of seeded derivations of Z[z_p], and the zero code and
        # the whole space, while both sides stay small enough to enumerate
        rng = random.Random(q)
        checked = set()
        for p in (3, 5, 7, 11, 13):
            n = p - 1
            ring = make_cyclotomic(p)
            for _ in range(4):
                sigma, tau = rng.sample(endomorphisms(ring), 2)
                d = build_cyclotomic_derivation(ring, sigma, tau, [rng.randint(-2, 2) for _ in range(n)])
                rows = idd_matrix(ring, d).B
                code = LinearCode(q, n, rng.sample(rows, rng.randint(1, n)))
                if q**code.k <= 1 << 14 and q ** (n - code.k) <= 1 << 12:
                    self._check(code)
                    checked.add(code.k)
            if q**n <= 1 << 12:
                self._check(LinearCode(q, n, []))
                self._check(LinearCode(q, n, [[int(i == j) for j in range(n)] for i in range(n)]))
                checked |= {0, n}
        assert len(checked) >= 3

    def test_corrupted_count_fails_exact_division(self):
        b = _reference_matrix()
        code = hom_idd_code(b, _rows_for_exponents([1, 2, 6, 7]), 2)
        wd = list(weight_distribution(code))
        wd[7] += 1
        with pytest.raises(AssertionError, match="not exact"):
            _macwilliams_dual(wd, 2, code.k)


class TestBenchmarkSizedCodes:
    """The benchmark's GF(2) shapes, k = 18 and 20, checked exactly: the dual
    of at most 2^10 words is enumerated naively and transformed back."""

    @staticmethod
    def _code_and_dual(rng, n, k):
        # G = [I | P] and H = [P^T | I] span duals; one column permutation
        # for both, and G's rows mixed so the code reduces them itself
        p = [[rng.getrandbits(1) for _ in range(n - k)] for _ in range(k)]
        g = [[int(i == j) for j in range(k)] + p[i] for i in range(k)]
        h = [[p[i][j] for i in range(k)] + [int(j == i) for i in range(n - k)] for j in range(n - k)]
        perm = rng.sample(range(n), n)
        g = [[row[c] for c in perm] for row in g]
        h = [[row[c] for c in perm] for row in h]
        for _ in range(3 * k):
            a, b = rng.sample(range(k), 2)
            g[a] = [x ^ y for x, y in zip(g[a], g[b])]
        assert all(sum(x * y for x, y in zip(gr, hr)) % 2 == 0 for gr in g for hr in h)
        return g, h

    @pytest.mark.parametrize("n, k", [(28, 18), (22, 20), (30, 20)])
    def test_distribution_matches_the_dual_transformed_back(self, n, k):
        rng = random.Random(n * 100 + k)
        g, h = self._code_and_dual(rng, n, k)
        code = LinearCode(2, n, g)
        assert code.k == k
        dual_counts = naive_weight_counts(h, 2, n)
        assert sum(dual_counts) == 1 << (n - k)
        assert list(weight_distribution(code)) == macwilliams_transform(dual_counts, 2, n, n - k)


class TestLcd:
    def test_reference_flags(self):
        b = _reference_matrix()
        lcd = hom_idd_code(b, _rows_for_exponents([1, 2, 4, 5, 6, 7, 10, 13]), 2)
        non_lcd = hom_idd_code(b, _rows_for_exponents([1, 2, 4, 5, 6, 7, 9, 12]), 2)
        assert is_lcd(lcd)
        assert not is_lcd(non_lcd)

    def test_empty_code_is_lcd(self):
        assert is_lcd(LinearCode(2, 4, []))
        assert is_lcd(LinearCode(3, 4, []))

    def test_gram_parity(self):
        # over GF(2) only the parity of each Gram entry counts
        assert not is_lcd(LinearCode(2, 3, [[1, 1, 0]]))  # G G^T = [2]
        assert is_lcd(LinearCode(2, 3, [[1, 1, 1]]))  # G G^T = [3]

    def test_flag_matches_trivial_intersection(self):
        b = _reference_matrix()
        for exponents in load_reference_fixture()["subsets"][:6]:
            code = hom_idd_code(b, _rows_for_exponents(exponents), 2)
            dual = dual_code(code)
            stacked = [list(r) for r in code.standard_form + dual.standard_form]
            trivial = rref_mod_q(stacked, 2)[1] == code.k + dual.k
            assert is_lcd(code) == trivial


class TestAgainstListAlgebra:
    """Each code's rref, dual and LCD flag against intlinalg's list routines,
    which the GF(2) mask path bypasses, every dual against orthogonality and
    k + k⊥ = n, which hold without either, and the enumerations of small
    codes against the naive oracles."""

    @DIFFERENTIAL
    @given(generator_matrices())
    def test_matches_rref_nullspace_and_bareiss(self, drawn):
        q, n, rows = drawn
        red, rank, _ = rref_mod_q(rows, q) if rows else ([], 0, [])
        form = tuple(tuple(r) for r in red[:rank])
        null = intlinalg.nullspace_mod_q(rows, q) if rows else intlinalg.identity(n)
        dual_red, dual_rank, _ = rref_mod_q(null, q) if null else ([], 0, [])
        g = [list(r) for r in form]
        lcd = not g or intlinalg.det_bareiss(mat_mul(g, intlinalg.transpose(g))) % q != 0
        code = LinearCode(q, n, rows)
        assert (code.standard_form, code.k) == (form, rank)
        dual = dual_code(code)
        assert dual.standard_form == tuple(tuple(r) for r in dual_red[:dual_rank])
        assert dual.k == dual_rank == n - rank
        # over GF(q > 2) nullspace_mod_q builds the dual, so it is no reference there
        if rows and dual.k:
            gram = mat_mul(rows, intlinalg.transpose(dual.standard_form))
            assert all(v % q == 0 for row in gram for v in row)
        # Bareiss's determinant stays the reference for the Gram rank test
        assert is_lcd(code) == lcd
        if q ** rank <= 1 << 12:
            counts = naive_weight_counts(g, q, n)
            d = naive_min_distance(g, q) if g else None
            # both call orders: either question may fill the cache first
            for distance_first in (True, False):
                fresh = LinearCode(q, n, rows)
                if distance_first and g:
                    assert min_distance(fresh) == d
                assert list(weight_distribution(fresh)) == counts
                if g:
                    assert min_distance(fresh) == d


class TestReports:
    def test_one_enumeration_per_report(self, monkeypatch):
        # a report reads d off the histogram that MacWilliams needs anyway,
        # and a standalone min_distance builds the same histogram, on either
        # backend; a code's later questions read the cached one
        calls = []
        histogram = _pykernels.weight_counts_gf2
        monkeypatch.setattr(_pykernels, "weight_counts_gf2", lambda *args: calls.append(args) or histogram(*args))
        b = _reference_matrix()
        t = _rows_for_exponents([1, 2, 6, 7])
        assert code_report(b, t, 2).d == 7
        assert len(calls) == 1
        code = hom_idd_code(b, t, 2)
        assert min_distance(code) == 7
        assert len(calls) == 2
        assert min_distance(code) == 7
        assert weight_distribution(code)[7] > 0
        assert len(calls) == 2

    def test_code_report_fields(self):
        b = _reference_matrix()
        r = code_report(b, _rows_for_exponents([1, 2, 6, 7]), 2, label="S8")
        assert r == CodeReport(
            label="S8", subset=(2, 3, 7, 8), n=16, k=4, d=7,
            lcd=False, dual_n=16, dual_k=12, dual_d=2,
        )

    def test_report_json_shape(self):
        b = _reference_matrix()
        r = code_report(b, _rows_for_exponents([1, 2, 6, 7]), 2, label="S8")
        data = report_to_json(r)
        assert data == {
            "subset": [2, 3, 7, 8], "n": 16, "k": 4, "d": 7, "lcd": False,
            "dual": {"n": 16, "k": 12, "d": 2}, "label": "S8",
        }
        unlabeled = code_report(b, _rows_for_exponents([1, 2, 6, 7]), 2)
        assert "label" not in report_to_json(unlabeled)

    def test_zero_dimension_report_renders_dash(self):
        ring = make_cyclotomic(5)
        d = build_cyclotomic_derivation(
            ring, endomorphism_by_name(ring, 1), endomorphism_by_name(ring, 2),
            (2, 0, 0, 0),
        )
        b = idd_matrix(ring, d)
        with pytest.warns(UserWarning):
            r = code_report(b, [2], 2, label="even")
        assert r.k == 0
        assert r.d is None
        line = reports_csv([r]).splitlines()[1]
        assert line == "even,4,0,—,LCD,4,4,1"

    def test_csv_header_and_label_fallback(self):
        b = _reference_matrix()
        r = code_report(b, _rows_for_exponents([1, 2, 6, 7]), 2)
        text = reports_csv([r])
        lines = text.splitlines()
        assert lines[0] == "subset,n,k,d,lcd,dual_n,dual_k,dual_d"
        assert lines[1] == "2 3 7 8,16,4,7,non-LCD,16,12,2"

    def test_csv_quotes_a_label_with_a_comma_or_quote(self):
        b = _reference_matrix()
        label = 'S1, "a"'
        r = code_report(b, _rows_for_exponents([1, 2, 6, 7]), 2, label=label)
        rows = list(csv.reader(io.StringIO(reports_csv([r]))))
        assert [len(row) for row in rows] == [8, 8]
        assert rows[1] == [label, "16", "4", "7", "non-LCD", "16", "12", "2"]

    def test_reference_table_matches_fixture(self):
        from sigmatau.codes import _fixture_text

        got = reports_csv(reference_code_reports())
        assert got == _fixture_text("paper_s17_codes.csv")

    def test_fixture_sanity(self):
        fix = load_reference_fixture()
        assert fix["p"] == 17
        assert fix["q"] == 2
        assert (fix["sigma"], fix["tau"]) == (1, 3)
        assert len(fix["d_zeta"]) == 16
        assert len(fix["subsets"]) == 13
