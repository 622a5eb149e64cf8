import random
import time

import pytest

from sigmatau import algebra, rings
from sigmatau.algebra import apply_map, associativity_failure, mul
from sigmatau.rings import (
    BiquadraticRing,
    CyclotomicRing,
    QuadraticRing,
    endomorphism_by_name,
    endomorphisms,
    make_biquadratic,
    make_cyclotomic,
    make_quadratic,
    ring_from_json,
    ring_to_json,
    zeta_power,
)

from .oracles import is_square_free_trial


def _zeta_power(p, e):
    """z^e on 1, z, ..., z^(p-2), with z^(p-1) = -(1 + z + ... + z^(p-2))."""
    n = p - 1
    e %= p
    if e < n:
        return tuple(1 if t == e else 0 for t in range(n))
    return tuple([-1] * n)


class TestCyclotomic:
    def test_rank_and_labels(self):
        ring = make_cyclotomic(7)
        assert ring.spec.rank == 6
        assert ring.spec.labels[0] == "1"
        assert ring.spec.labels[1] == "z"

    def test_top_power_reduction(self):
        # z^4 = -(1 + z + z^2 + z^3) at p = 5
        ring = make_cyclotomic(5)
        assert mul(ring.spec, ring.spec.basis(2), ring.spec.basis(2)) == (-1, -1, -1, -1)

    def test_zeta_power_wraps(self):
        ring = make_cyclotomic(5)
        assert zeta_power(ring, 0) == (1, 0, 0, 0)
        assert zeta_power(ring, 5) == (1, 0, 0, 0)
        assert zeta_power(ring, 6) == (0, 1, 0, 0)
        assert zeta_power(ring, 4) == (-1, -1, -1, -1)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_table_holds_one_tuple_per_power(self, p):
        table = make_cyclotomic(p).spec.table
        assert len({id(cell) for row in table for cell in row}) <= p
        for i, row in enumerate(table):
            for j, cell in enumerate(row):
                assert cell == _zeta_power(p, i + j)

    def test_endomorphism_count_and_names(self):
        ring = make_cyclotomic(11)
        endos = endomorphisms(ring)
        assert len(endos) == 10
        assert [e.name for e in endos] == [str(u) for u in range(1, 11)]

    def test_endomorphisms_square_to_composition(self):
        ring = make_cyclotomic(7)
        phi2 = endomorphism_by_name(ring, 2)
        phi4 = endomorphism_by_name(ring, 4)
        for i in range(6):
            x = ring.spec.basis(i)
            assert phi2.apply(phi2.apply(x)) == phi4.apply(x)

    def test_lookup_accepts_int_and_str(self):
        ring = make_cyclotomic(5)
        assert endomorphism_by_name(ring, 3).images == endomorphism_by_name(ring, "3").images

    def test_lookup_error_lists_choices(self):
        ring = make_cyclotomic(5)
        with pytest.raises(ValueError, match="choose from"):
            endomorphism_by_name(ring, "9")

    @pytest.mark.parametrize("p", [4, 6, 9, 1, 2, -5])
    def test_invalid_p_rejected(self, p):
        with pytest.raises(ValueError):
            make_cyclotomic(p)

    def test_frozen(self):
        ring = make_cyclotomic(5)
        with pytest.raises(AttributeError):
            ring.p = 7


class TestQuadratic:
    def test_not_one_mod_4_table(self):
        ring = make_quadratic(2)
        assert not ring.one_mod4
        assert ring.spec.table[1][1] == (2, 0)
        assert ring.spec.labels == ("1", "sqrt(2)")

    def test_one_mod_4_table(self):
        # theta = (1 + sqrt(d))/2 satisfies theta^2 = (d-1)/4 + theta
        ring = make_quadratic(5)
        assert ring.one_mod4
        assert ring.spec.table[1][1] == (1, 1)
        assert ring.spec.labels == ("1", "theta")

    def test_negative_d(self):
        ring = make_quadratic(-1)
        assert ring.spec.table[1][1] == (-1, 0)
        ring = make_quadratic(-3)  # -3 % 4 == 1
        assert ring.one_mod4
        assert ring.spec.table[1][1] == (-1, 1)

    def test_conjugation_images(self):
        assert endomorphism_by_name(make_quadratic(2), "conj").images == ((1, 0), (0, -1))
        assert endomorphism_by_name(make_quadratic(5), "conj").images == ((1, 0), (1, -1))

    def test_conjugation_is_involution(self):
        for d in (2, 5, -1, -3, 13):
            ring = make_quadratic(d)
            conj = endomorphism_by_name(ring, "conj")
            for i in range(2):
                x = ring.spec.basis(i)
                assert conj.apply(conj.apply(x)) == x

    @pytest.mark.parametrize("d", [
        d for d in range(-50, 51) if d not in (0, 1) and all(d % (k * k) for k in range(2, 8))
    ])
    def test_literal_tables(self, d):
        if d % 4 == 1:
            table = [[(1, 0), (0, 1)], [(0, 1), ((d - 1) // 4, 1)]]
        else:
            table = [[(1, 0), (0, 1)], [(0, 1), (d, 0)]]
        assert [list(row) for row in make_quadratic(d).spec.table] == table

    def test_endomorphism_count(self):
        assert [e.name for e in endomorphisms(make_quadratic(7))] == ["id", "conj"]

    @pytest.mark.parametrize("d", [0, 1, 4, 12, -4, 50])
    def test_invalid_d_rejected(self, d):
        with pytest.raises(ValueError):
            make_quadratic(d)


class TestSquareFree:
    """Trial division to the cube root, then a perfect-square test on the
    cofactor, against trial division by every f with f^2 <= |d|."""

    def test_matches_trial_division_to_5000(self):
        for d in range(-5000, 5001):
            assert rings._is_square_free(d) == is_square_free_trial(d), d

    def test_matches_trial_division_on_random_d(self):
        rng = random.Random(9)
        for _ in range(300):
            d = rng.randrange(1, 10**8)
            assert rings._is_square_free(d) == is_square_free_trial(d), d

    # primes above the cube root leave a cofactor p^2 or p q
    @pytest.mark.parametrize("p, q", [(1009, 7), (1009, 1013), (7, 1000003), (99991, 2), (2, 3)])
    def test_constructed_products(self, p, q):
        assert not rings._is_square_free(p * p * q)
        assert not rings._is_square_free(-p * p)
        assert rings._is_square_free(p * q) and rings._is_square_free(-p * q)

    def test_large_d_is_fast(self):
        # trial division to sqrt(d) was still running after 20 s
        start = time.perf_counter()
        ring = make_quadratic(100000000000000003)
        assert time.perf_counter() - start < 1.0
        assert ring.spec.labels == ("1", "sqrt(100000000000000003)")

    @pytest.mark.parametrize("make", [
        make_quadratic,
        lambda d: make_biquadratic(2, d),
        lambda d: make_biquadratic(d, 3),
    ])
    @pytest.mark.parametrize("d", [10**18 + 9, -(10**18) - 3, 10**20 + 39, 10**27 + 7])
    def test_radicand_above_the_bound_refused_before_trial_division(self, monkeypatch, make, d):
        monkeypatch.setattr(rings, "_is_square_free", None)
        with pytest.raises(ValueError, match=r"at most 10\^18"):
            make(d)

    def test_radicand_at_the_bound_is_tested(self):
        # 10^18 = 2^18 5^18 passes the bound and fails square-freeness
        with pytest.raises(ValueError, match="square-free"):
            make_quadratic(10**18)


class TestBiquadratic:
    def test_table_products(self):
        ring = make_biquadratic(2, 3)
        spec = ring.spec
        sm, sn, smn = spec.basis(1), spec.basis(2), spec.basis(3)
        assert mul(spec, sm, sn) == smn
        assert mul(spec, sm, smn) == (0, 0, 2, 0)  # sqrt(2) sqrt(6) = 2 sqrt(3)
        assert mul(spec, sn, smn) == (0, 3, 0, 0)  # sqrt(3) sqrt(6) = 3 sqrt(2)
        assert mul(spec, smn, smn) == (6, 0, 0, 0)
        assert spec.labels == ("1", "sqrt(2)", "sqrt(3)", "sqrt(6)")

    def test_gcd_split(self):
        assert make_biquadratic(2, 6).gcd_split == (2, 1, 3)
        assert make_biquadratic(6, 10).gcd_split == (2, 3, 5)
        assert make_biquadratic(2, 3).gcd_split == (1, 2, 3)

    def test_sign_table(self):
        ring = make_biquadratic(2, 3)
        sm, sn, smn = ring.spec.basis(1), ring.spec.basis(2), ring.spec.basis(3)
        expected = {
            "phi1": (1, 1),
            "phi2": (1, -1),
            "phi3": (-1, 1),
            "phi4": (-1, -1),
        }
        for name, (em, en) in expected.items():
            phi = endomorphism_by_name(ring, name)
            assert phi.apply(sm) == tuple(em * v for v in sm)
            assert phi.apply(sn) == tuple(en * v for v in sn)
            assert phi.apply(smn) == tuple(em * en * v for v in smn)

    def test_endomorphism_count(self):
        assert len(endomorphisms(make_biquadratic(3, 5))) == 4

    @pytest.mark.parametrize("m,n", [(2, 2), (4, 3), (2, 9), (0, 3), (1, 5), (3, 12)])
    def test_invalid_pairs_rejected(self, m, n):
        with pytest.raises(ValueError):
            make_biquadratic(m, n)

    def test_negative_radicands(self):
        ring = make_biquadratic(-1, 2)
        assert mul(ring.spec, ring.spec.basis(1), ring.spec.basis(1)) == (-1, 0, 0, 0)
        assert associativity_failure(ring.spec) is None


class TestEndomorphismValidity:
    def test_all_shipped_endomorphisms_validate(self):
        rings = [make_cyclotomic(p) for p in (3, 5, 7, 11, 13)]
        rings += [make_quadratic(d) for d in (2, 3, 5, -1, -3, 17)]
        rings += [make_biquadratic(*mn) for mn in ((2, 3), (3, 5), (-1, 2), (6, 10))]
        for ring in rings:
            endos = endomorphisms(ring)
            assert len({e.name for e in endos}) == len(endos)
            # Endomorphism construction validates eagerly; reaching here is the test
            for e in endos:
                assert apply_map(ring.spec, e.images, ring.spec.unity) == ring.spec.unity


class TestRingJson:
    def test_round_trips(self):
        for ring in (make_cyclotomic(7), make_quadratic(-5), make_biquadratic(2, 3)):
            back = ring_from_json(ring_to_json(ring))
            assert type(back) is type(ring)
            assert back.spec == ring.spec

    def test_family_fields(self):
        assert ring_to_json(make_cyclotomic(5)) == {"family": "cyclotomic", "p": 5}
        assert ring_to_json(make_quadratic(-5)) == {"family": "quadratic", "d": -5}
        assert ring_to_json(make_biquadratic(2, 3)) == {
            "family": "biquadratic",
            "m": 2,
            "n": 3,
        }

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            ring_from_json({"family": "octic"})

    @pytest.mark.parametrize("doc,field", [
        ({"family": "cyclotomic"}, "'p'"),
        ({"family": "quadratic", "d": "5"}, "'d'"),
        ({"family": "biquadratic", "m": 2}, "'n'"),
        ({"family": "biquadratic", "m": 2, "n": None}, "'n'"),
    ])
    def test_missing_or_malformed_field_named(self, doc, field):
        with pytest.raises(ValueError, match=field):
            ring_from_json(doc)

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="ring family"):
            ring_from_json([5])


def test_ring_types_exported():
    assert isinstance(make_cyclotomic(5), CyclotomicRing)
    assert isinstance(make_quadratic(5), QuadraticRing)
    assert isinstance(make_biquadratic(2, 3), BiquadraticRing)


class TestLookupChecksOneMap:
    @pytest.mark.parametrize("p", [5, 13])
    def test_by_name_checks_only_the_named_map(self, monkeypatch, p):
        ring = make_cyclotomic(p)
        calls = []
        real = algebra.endomorphism_failure

        def counted(spec, m):
            calls.append(m)
            return real(spec, m)

        monkeypatch.setattr(algebra, "endomorphism_failure", counted)
        e = endomorphism_by_name(ring, 3)
        assert len(calls) == 1
        assert e.images[1] == zeta_power(ring, 3)
        assert len(endomorphisms(ring)) == p - 1
        assert len(calls) == p

    def test_lookup_matches_enumeration(self):
        for ring in (make_cyclotomic(7), make_quadratic(5), make_quadratic(-2), make_biquadratic(2, 3)):
            for e in endomorphisms(ring):
                assert endomorphism_by_name(ring, e.name) == e
