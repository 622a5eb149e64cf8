import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from sigmatau import algebra
from sigmatau._pykernels import _law_failure
from sigmatau.algebra import (
    AlgebraSpec,
    Endomorphism,
    LinearMap,
    add,
    apply_map,
    associativity_failure,
    derivation_failure,
    endomorphism_failure,
    is_derivation,
    is_endomorphism,
    mul,
    mult_matrix,
    sigma_tau_power_sum,
    smul,
    spec_from_json,
    spec_to_json,
)
from sigmatau.rings import (
    endomorphism_by_name,
    endomorphisms,
    make_biquadratic,
    make_cyclotomic,
    make_quadratic,
)

from .counterexamples import ALL_COUNTEREXAMPLES
from .oracles import (
    apply_linear,
    associativity_triple_loop,
    basis_elements,
    derivation_law_holds,
    ring_multiply,
)

Z5 = make_cyclotomic(5)


def rand_elt(rng, n, bound=9):
    return tuple(rng.randrange(-bound, bound + 1) for _ in range(n))


# every kind of table mul expands through: power bases, d = 1 and d != 1 mod 4,
# biquadratic tables, and the counterexamples' cyclic and nilpotent tables
_PRODUCT_SPECS = {
    **{f"cyclotomic_{p}": (lambda p=p: make_cyclotomic(p).spec) for p in (3, 5, 7, 11, 13)},
    **{f"quadratic_{d}": (lambda d=d: make_quadratic(d).spec) for d in (-7, -3, 5, 13, -5, -1, 2, 3)},
    **{
        f"biquadratic_{m}_{n}": (lambda m=m, n=n: make_biquadratic(m, n).spec)
        for m, n in ((2, 3), (-1, 2), (5, 6), (6, 10), (-2, 5))
    },
    **{name: (lambda build=build: build()[0]) for name, build, _ in ALL_COUNTEREXAMPLES},
}


class TestSpecValidation:
    def test_non_commutative_table_rejected(self):
        table = [[(1, 0), (0, 1)], [(1, 0), (0, 1)]]
        with pytest.raises(ValueError, match="commut"):
            AlgebraSpec(table, (1, 0))

    def test_bad_unity_rejected(self):
        # unity must reproduce each basis element
        table = [[(1, 0), (0, 1)], [(0, 1), (0, 1)]]
        with pytest.raises(ValueError, match="unity"):
            AlgebraSpec(table, (0, 1))

    def test_ragged_table_rejected(self):
        with pytest.raises(ValueError):
            AlgebraSpec([[(1, 0), (0, 1)], [(0, 1)]], (1, 0))

    def test_shipped_specs_commutative_associative_unital(self):
        specs = [make_cyclotomic(p).spec for p in (3, 5, 7, 11, 13)]
        specs += [
            make_quadratic(d).spec
            for d in range(-50, 51)
            if d not in (0, 1) and _square_free(d)
        ]
        seen = 0
        for m in range(-30, 31):
            for n in range(m + 1, 31):
                if m in (0, 1) or n in (0, 1) or not (_square_free(m) and _square_free(n)):
                    continue
                specs.append(make_biquadratic(m, n).spec)
                seen += 1
        assert seen > 100
        for spec in specs:
            # commutativity and the unity law are asserted at construction
            assert associativity_failure(spec) is None

    def test_counterexample_specs_associative(self):
        for _, build, _ in ALL_COUNTEREXAMPLES:
            spec, _, _, _ = build()
            assert associativity_failure(spec) is None

    @pytest.mark.parametrize("make", [
        lambda: make_cyclotomic(7).spec,
        lambda: make_quadratic(-3).spec,
        lambda: make_biquadratic(2, 3).spec,
        lambda: NON_ASSOCIATIVE,
    ])
    def test_cell_forms_build_the_same_spec(self, make):
        spec = make()
        n = spec.rank
        nested = [[list(cell) for cell in row] for row in spec.table]
        shared = {cell: list(cell) for row in spec.table for cell in row}
        reused = [[shared[cell] for cell in row] for row in spec.table]
        for table in (nested, spec.table, reused):
            built = AlgebraSpec(table, list(spec.unity))
            assert built == spec
            assert built.table == spec.table
            assert built.unity == spec.unity
            assert built.power_basis == spec.power_basis
            assert hash(built) == hash(spec)
            # equal cells share one tuple, however the input held them
            assert all(
                built.table[i][j] is built.table[k][m]
                for i, j, k, m in itertools.product(range(n), repeat=4)
                if spec.table[i][j] == spec.table[k][m]
            )

    def test_malformed_cell_rejected(self):
        table = [[list(cell) for cell in row] for row in make_quadratic(5).spec.table]
        short = [1]
        table[1][0] = table[0][1] = short
        with pytest.raises(ValueError, match="expected 2 coordinates, got 1"):
            AlgebraSpec(table, (1, 0))
        table[1][0] = table[0][1] = [0, "1"]
        with pytest.raises(TypeError):
            AlgebraSpec(table, (1, 0))


def _square_free(v: int) -> bool:
    v = abs(v)
    k = 2
    while k * k <= v:
        if v % (k * k) == 0:
            return False
        k += 1
    return True


class TestMul:
    def test_zeta2_times_zeta3_is_one(self):
        assert mul(Z5.spec, Z5.spec.basis(2), Z5.spec.basis(3)) == (1, 0, 0, 0)

    def test_zeta3_squared_is_zeta(self):
        assert mul(Z5.spec, Z5.spec.basis(3), Z5.spec.basis(3)) == (0, 1, 0, 0)

    def test_unity_absorbs(self):
        rng = random.Random(1)
        for _ in range(20):
            x = rand_elt(rng, 4)
            assert mul(Z5.spec, Z5.spec.unity, x) == x

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mul(Z5.spec, (1, 0), (0, 1, 0, 0))

    @given(
        st_.tuples(*[st_.integers(-50, 50)] * 4),
        st_.tuples(*[st_.integers(-50, 50)] * 4),
        st_.tuples(*[st_.integers(-50, 50)] * 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms_on_random_elements(self, x, y, z):
        spec = Z5.spec
        assert mul(spec, x, y) == mul(spec, y, x)
        assert mul(spec, x, mul(spec, y, z)) == mul(spec, mul(spec, x, y), z)
        assert mul(spec, x, add(y, z)) == add(mul(spec, x, y), mul(spec, x, z))

    @pytest.mark.parametrize("name", sorted(_PRODUCT_SPECS))
    def test_matches_oracle_multiplication(self, name):
        spec = _PRODUCT_SPECS[name]()
        n = spec.rank
        rng = random.Random(name)
        factors = [spec.zero(), *basis_elements(n), *(rand_elt(rng, n) for _ in range(8))]
        for x in factors:
            for y in factors:
                assert mul(spec, x, y) == ring_multiply(spec.table, x, y)


class TestApplyMap:
    def test_identity_endomorphism(self):
        ident = endomorphism_by_name(Z5, 1)
        rng = random.Random(3)
        for _ in range(10):
            x = rand_elt(rng, 4)
            assert apply_map(Z5.spec, ident.images, x) == x

    def test_square_map_on_zeta3(self):
        phi = endomorphism_by_name(Z5, 2)
        assert phi.apply(Z5.spec.basis(3)) == (0, 1, 0, 0)  # z^6 = z

    def test_zero_map(self):
        zero = LinearMap(Z5.spec, [(0, 0, 0, 0)] * 4)
        assert zero.apply((5, -3, 2, 7)) == (0, 0, 0, 0)

    @given(
        st_.tuples(*[st_.integers(-50, 50)] * 4),
        st_.tuples(*[st_.integers(-50, 50)] * 4),
        st_.integers(-20, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, x, y, c):
        phi = endomorphism_by_name(Z5, 3)
        left = phi.apply(add(smul(c, x), y))
        right = add(smul(c, phi.apply(x)), phi.apply(y))
        assert left == right

    def test_mult_matrix_columns(self):
        g = (1, -2, 0, 3)
        m = mult_matrix(Z5.spec, g)
        for j in range(4):
            col = tuple(m[r][j] for r in range(4))
            assert col == mul(Z5.spec, g, Z5.spec.basis(j))


class TestIsEndomorphism:
    def test_square_map_is_endomorphism(self):
        imgs = endomorphism_by_name(Z5, 2).images
        assert is_endomorphism(Z5.spec, LinearMap(Z5.spec, imgs))

    def test_doubling_map_is_not(self):
        imgs = [(1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 4, 0), (0, 0, 0, 8)]
        m = LinearMap(Z5.spec, imgs)
        assert not is_endomorphism(Z5.spec, m)
        assert endomorphism_failure(Z5.spec, m) == (1, 3)

    def test_identity_is_endomorphism(self):
        ident = LinearMap(Z5.spec, [Z5.spec.basis(i) for i in range(4)])
        assert is_endomorphism(Z5.spec, ident)

    def test_non_unital_reported(self):
        m = LinearMap(Z5.spec, [(2, 0, 0, 0)] + [Z5.spec.basis(i) for i in (1, 2, 3)])
        assert endomorphism_failure(Z5.spec, m) == ("unity",)

    def test_eager_validation_raises(self):
        with pytest.raises(ValueError, match="endomorphism"):
            Endomorphism(
                Z5.spec, [(1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 4, 0), (0, 0, 0, 8)]
            )


def _power_basis_table(top):
    """Table of Z[x]/(f) on 1, x, ..., x^(n-1), with x^n = top."""
    n = len(top)
    powers = [tuple(1 if r == k else 0 for r in range(n)) for k in range(n)]
    for _ in range(n - 1):
        v = powers[-1]
        powers.append(add((0,) + v[:-1], smul(v[-1], top)))
    return [[powers[i + j] for j in range(n)] for i in range(n)]


def _swapped(spec, a, b):
    """spec with basis elements a and b exchanged."""
    perm = list(range(spec.rank))
    perm[a], perm[b] = b, a

    def move(v):
        return tuple(v[perm[r]] for r in range(spec.rank))

    n = spec.rank
    table = [[move(spec.table[perm[i]][perm[j]]) for j in range(n)] for i in range(n)]
    return AlgebraSpec(table, move(spec.unity))


# commutative and unital, basis 1, x, y with x*x = y, x*y = 0, y*y = 1:
# (x*x)*y = 1 but x*(x*y) = 0
NON_ASSOCIATIVE = AlgebraSpec(
    [
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(0, 1, 0), (0, 0, 1), (0, 0, 0)],
        [(0, 0, 1), (0, 0, 0), (1, 0, 0)],
    ],
    (1, 0, 0),
)


def _full_scan(spec, imgs):
    """Row-major endomorphism scan over every basis pair, with the oracles."""
    if apply_linear(imgs, spec.unity) != spec.unity:
        return ("unity",)
    n = spec.rank
    for i in range(n):
        for j in range(i, n):
            if apply_linear(imgs, spec.table[i][j]) != ring_multiply(spec.table, imgs[i], imgs[j]):
                return (i, j)
    return None


def _count_pairs(monkeypatch):
    """Record every basis pair that algebra hands to the law scan."""
    pairs = []

    def counted(table, d, sig, tau, given):
        given = list(given)
        pairs.extend(given)
        return _law_failure(table, d, sig, tau, given)

    monkeypatch.setattr(algebra, "_law_failure", counted)
    return pairs


class TestPowerBasisGuard:
    @pytest.mark.parametrize("spec", [
        *(make_cyclotomic(p).spec for p in (3, 5, 7, 13)),
        *(make_quadratic(d).spec for d in (-3, -1, 2, 5)),
        *(AlgebraSpec(_power_basis_table((0,) * n), (1,) + (0,) * (n - 1)) for n in (1, 2, 3, 5)),
        AlgebraSpec(_power_basis_table((1, 1, 0)), (1, 0, 0)),
    ])
    def test_power_basis_specs(self, spec):
        assert spec.power_basis
        assert associativity_failure(spec) is None

    @pytest.mark.parametrize("top", [
        *((0,) * n for n in range(1, 9)),
        *(tuple(random.Random(n).randrange(-5, 6) for _ in range(n)) for n in range(1, 9)),
        *((-1,) * (p - 1) for p in (3, 5, 7)),
        *((((d - 1) // 4, 1) if d % 4 == 1 else (d, 0)) for d in (-7, -3, -1, 2, 5, 13)),
    ])
    def test_power_table_matches_the_oracle(self, top):
        n = len(top)
        table = algebra._power_table(top)
        assert table == tuple(map(tuple, _power_basis_table(top)))
        # one shared tuple per power x^(i+j)
        assert all(table[i][j] is table[i + 1][j - 1] for i in range(n - 1) for j in range(1, n))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_bumped_power_table(self, n):
        """Bumping a diagonal cell or a symmetric pair leaves a table that is
        rejected or not a power basis, unless the bump is x^n = e_1 e_(n-1)
        itself and the result is the table of the bumped f."""
        rng = random.Random(n)
        base = _power_basis_table(tuple(rng.randrange(-3, 4) for _ in range(n)))
        built = 0
        for i in range(n):
            for j in range(i, n):
                for r in range(n):
                    table = [list(row) for row in base]
                    cell = list(table[i][j])
                    cell[r] += 1
                    table[i][j] = table[j][i] = tuple(cell)
                    try:
                        spec = AlgebraSpec(table, (1,) + (0,) * (n - 1))
                    except ValueError:
                        continue
                    built += 1
                    oracle = tuple(map(tuple, _power_basis_table(spec.table[n - 1][1])))
                    assert spec.power_basis == (spec.table == oracle)
                    if (i, j) != (1, n - 1):
                        assert not spec.power_basis
        assert built == n * n * (n - 1) // 2  # every bump outside row and column 0

    @pytest.mark.parametrize("spec", [
        make_biquadratic(2, 3).spec,
        _swapped(make_cyclotomic(5).spec, 1, 2),
        NON_ASSOCIATIVE,
    ])
    def test_other_specs_get_the_full_scan(self, monkeypatch, spec):
        assert not spec.power_basis
        ident = [spec.basis(i) for i in range(spec.rank)]
        pairs = _count_pairs(monkeypatch)
        assert endomorphism_failure(spec, ident) is None
        assert len(pairs) == spec.rank * (spec.rank + 1) // 2

    def test_non_associative_table_needs_the_full_scan(self):
        # 1 -> 1, x -> 0, y -> 0 is multiplicative on every pair (e_k, x)
        assert associativity_failure(NON_ASSOCIATIVE) is not None
        imgs = [(1, 0, 0), (0, 0, 0), (0, 0, 0)]
        assert endomorphism_failure(NON_ASSOCIATIVE, imgs) == (2, 2)
        assert _full_scan(NON_ASSOCIATIVE, imgs) == (2, 2)


def _random_commutative_table(rng, n):
    """Commutative table with unity e_0 and sparse small cells elsewhere."""
    units = basis_elements(n)
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            cell = units[j] if i == 0 else tuple(rng.choice((0, 0, 0, 1, -1)) for _ in range(n))
            table[i][j] = table[j][i] = cell
    return AlgebraSpec(table, units[0])


_ASSOCIATIVITY_SPECS = {
    **_PRODUCT_SPECS,
    "non_associative": lambda: NON_ASSOCIATIVE,
    "swapped_cyclotomic_5": lambda: _swapped(make_cyclotomic(5).spec, 1, 2),
    "swapped_biquadratic_2_3": lambda: _swapped(make_biquadratic(2, 3).spec, 1, 2),
    "swapped_non_associative": lambda: _swapped(NON_ASSOCIATIVE, 1, 2),
}


class TestAssociativity:
    """associativity_failure, a law scan per basis element, names the same
    first triple as multiplying out both sides of every triple."""

    @pytest.mark.parametrize("name", sorted(_ASSOCIATIVITY_SPECS))
    def test_matches_the_triple_loop(self, name):
        spec = _ASSOCIATIVITY_SPECS[name]()
        assert associativity_failure(spec) == associativity_triple_loop(spec.table)

    def test_random_commutative_tables(self):
        rng = random.Random(2024)
        verdicts = []
        for n in (1, 2, 3, 4) * 40:
            spec = _random_commutative_table(rng, n)
            found = associativity_failure(spec)
            assert found == associativity_triple_loop(spec.table)
            verdicts.append(found is None)
        assert 10 < sum(verdicts) < len(verdicts) - 10

    def test_makes_no_product_call(self, monkeypatch):
        monkeypatch.setattr(algebra, "mul", None)
        assert associativity_failure(NON_ASSOCIATIVE) == (1, 1, 2)
        assert endomorphism_failure(NON_ASSOCIATIVE, [(1, 0, 0), (0, 0, 0), (0, 0, 0)]) == (2, 2)


class TestEndomorphismFastPath:
    """On a power-basis spec endomorphism_failure checks n pairs; verdict and
    witness equal those of the full row-major scan."""

    @pytest.mark.parametrize("make, arg", [
        *((make_cyclotomic, p) for p in (3, 5, 7, 11, 13)),
        *((make_quadratic, d) for d in (-7, -5, -3, -2, -1, 2, 3, 5, 13)),
    ])
    def test_canonical_maps_and_planted_faults(self, make, arg):
        ring = make(arg)
        spec = ring.spec
        assert spec.power_basis
        for phi in endomorphisms(ring):
            imgs = phi.images
            assert endomorphism_failure(spec, imgs) is None is _full_scan(spec, imgs)
            for i in range(spec.rank):
                for r in range(spec.rank):
                    bad = [list(im) for im in imgs]
                    bad[i][r] += 1
                    bad = [tuple(im) for im in bad]
                    found = endomorphism_failure(spec, bad)
                    assert found is not None
                    assert found == _full_scan(spec, bad)

    @pytest.mark.parametrize("spec", [
        make_quadratic(-1).spec,
        AlgebraSpec(_power_basis_table((0, 0)), (1, 0)),
        AlgebraSpec(_power_basis_table((0, 0, 0)), (1, 0, 0)),
        AlgebraSpec(_power_basis_table((1, 1, 0)), (1, 0, 0)),
    ])
    def test_every_small_map(self, spec):
        n = spec.rank
        assert spec.power_basis
        found = set()
        for flat in itertools.product((-1, 0, 1), repeat=n * n):
            imgs = [flat[k * n:(k + 1) * n] for k in range(n)]
            verdict = endomorphism_failure(spec, imgs)
            assert verdict == _full_scan(spec, imgs)
            found.add(verdict is None)
        assert found == {True, False}

    def test_p31_checks_the_generator_pairs_only(self, monkeypatch):
        ring = make_cyclotomic(31)
        imgs = endomorphism_by_name(ring, 3).images
        pairs = _count_pairs(monkeypatch)
        assert endomorphism_failure(ring.spec, imgs) is None
        assert len(pairs) == 30


class TestPowerSum:
    def test_k1_is_unity(self):
        s = endomorphism_by_name(Z5, 1)
        t = endomorphism_by_name(Z5, 2)
        assert sigma_tau_power_sum(Z5.spec, s, t, (0, 1, 0, 0), 1) == (1, 0, 0, 0)

    def test_p5_k2_example(self):
        s = endomorphism_by_name(Z5, 1)
        t = endomorphism_by_name(Z5, 2)
        got = sigma_tau_power_sum(Z5.spec, s, t, (0, 1, 0, 0), 2)
        assert got == (0, 1, 1, 0)  # z + z^2

    def test_k0_rejected(self):
        s = endomorphism_by_name(Z5, 1)
        t = endomorphism_by_name(Z5, 2)
        with pytest.raises(ValueError):
            sigma_tau_power_sum(Z5.spec, s, t, (0, 1, 0, 0), 0)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_vanishing_union_sum(self, p):
        # the union of S_0..S_{p-2} contributes zero in Z[zeta_p]
        ring = make_cyclotomic(p)
        zeta = ring.spec.basis(1)
        for s in endomorphisms(ring):
            for t in endomorphisms(ring):
                if s.images == t.images:
                    continue
                total = (0,) * (p - 1)
                for k in range(1, p):
                    total = add(total, sigma_tau_power_sum(ring.spec, s, t, zeta, k))
                assert total == (0,) * (p - 1), (p, s.name, t.name)


class TestDerivationLaw:
    def test_zero_map_is_derivation(self):
        s = endomorphism_by_name(Z5, 1)
        t = endomorphism_by_name(Z5, 2)
        zero = LinearMap(Z5.spec, [(0, 0, 0, 0)] * 4)
        assert is_derivation(Z5.spec, zero, s, t)

    def test_quadratic_any_d1_zero_map_is_derivation(self):
        ring = make_quadratic(2)
        s = endomorphism_by_name(ring, "conj")
        t = endomorphism_by_name(ring, "id")
        rng = random.Random(4)
        for _ in range(25):
            d = LinearMap(ring.spec, [(0, 0), rand_elt(rng, 2)])
            assert is_derivation(ring.spec, d, s, t)
            assert is_derivation(ring.spec, d, t, s)

    def test_equal_twists_rejected(self):
        s = endomorphism_by_name(Z5, 2)
        d = LinearMap(Z5.spec, [(0, 0, 0, 0)] * 4)
        with pytest.raises(ValueError, match="differ"):
            is_derivation(Z5.spec, d, s, s)

    def test_invalid_endomorphism_rejected(self):
        bad = LinearMap(Z5.spec, [(1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 4, 0), (0, 0, 0, 8)])
        good = endomorphism_by_name(Z5, 2)
        d = LinearMap(Z5.spec, [(0, 0, 0, 0)] * 4)
        with pytest.raises(ValueError, match="endomorphism"):
            is_derivation(Z5.spec, d, bad, good)

    def test_basis_law_implies_element_law(self):
        # Lemma 2.1 made empirical: clean on basis pairs, clean on elements
        from sigmatau.derivations import build_cyclotomic_derivation

        ring = make_cyclotomic(7)
        s = endomorphism_by_name(ring, 2)
        t = endomorphism_by_name(ring, 4)
        rng = random.Random(5)
        d = build_cyclotomic_derivation(ring, s, t, rand_elt(rng, 6))
        assert derivation_failure(ring.spec, d, s, t) is None
        pairs = [(rand_elt(rng, 6), rand_elt(rng, 6)) for _ in range(100)]
        assert derivation_law_holds(
            ring.spec.table, d.images, s.images, t.images, pairs
        )

    def test_failure_pair_is_row_major_first(self):
        spec, s, t, d = ALL_COUNTEREXAMPLES[2][1]()  # idempotent_span
        assert derivation_failure(spec, d, s, t) == (1, 1)


class TestCounterexamples:
    @pytest.mark.parametrize("name,build,pair", ALL_COUNTEREXAMPLES)
    def test_rejected_with_pinned_failure_pair(self, name, build, pair):
        spec, s, t, d = build()
        assert not is_derivation(spec, d, s, t)
        assert derivation_failure(spec, d, s, t) == pair

    @pytest.mark.parametrize("name,build,pair", ALL_COUNTEREXAMPLES)
    def test_candidate_agrees_with_truncated_rule(self, name, build, pair):
        # each candidate is the telescoped map: D(a^r) = power_sum(r) * D(a)
        spec, s, t, d = build()
        n = spec.rank
        gen = spec.basis(1)
        for r in range(1, n):
            expected = mul(spec, sigma_tau_power_sum(spec, s, t, gen, r), d.images[1])
            assert d.images[r] == expected, (name, r)


class TestLemma22Consistency:
    def test_derivation_respects_power_rule_on_elements(self):
        from sigmatau.derivations import build_cyclotomic_derivation

        ring = make_cyclotomic(7)
        spec = ring.spec
        s = endomorphism_by_name(ring, 3)
        t = endomorphism_by_name(ring, 5)
        rng = random.Random(6)
        d = build_cyclotomic_derivation(ring, s, t, rand_elt(rng, 6, 4))
        for _ in range(10):
            alpha = rand_elt(rng, 6, 3)
            power = spec.unity
            for k in range(1, 7):
                power = mul(spec, power, alpha)
                lhs = d.apply(power)
                rhs = mul(
                    spec, sigma_tau_power_sum(spec, s, t, alpha, k), d.apply(alpha)
                )
                assert lhs == rhs, (alpha, k)


class TestSpecJson:
    def test_round_trip(self):
        for spec in (Z5.spec, make_quadratic(-5).spec, make_biquadratic(2, 3).spec):
            doc = spec_to_json(spec)
            back = spec_from_json(doc)
            assert back == spec
            assert back.labels == spec.labels

    @pytest.mark.parametrize("doc, field", [
        ({}, "table"),
        ({"table": [[[1]]]}, "unity"),
        ([[[[1]]], [1]], "table"),
        ({"table": [[[1]]], "unity": [1], "labels": 7}, "labels"),
    ])
    def test_missing_or_malformed_field_is_named(self, doc, field):
        with pytest.raises(ValueError, match=f"field '{field}'"):
            spec_from_json(doc)

    def test_oracle_basis_elements_helper(self):
        assert basis_elements(3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
