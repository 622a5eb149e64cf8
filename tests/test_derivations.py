import itertools
import random

import pytest

from sigmatau import _backend, algebra, conjecture, derivations, intlinalg, rings
from sigmatau.algebra import (
    Derivation,
    LinearMap,
    derivation_failure,
    is_derivation,
    mul,
    sigma_tau_power_sum,
    smul,
    sub,
)
from sigmatau.cli import _parse_ring
from sigmatau.derivations import (
    DerivationSpace,
    biquadratic_basis,
    biquadratic_inner,
    build_biquadratic_derivation,
    build_cyclotomic_derivation,
    build_quadratic_derivation,
    classify_biquadratic,
    cyclotomic_basis,
    cyclotomic_inner_conjectural,
    derivation_from_json,
    derivation_to_json,
    inner_derivation,
    is_inner_generic,
    quadratic_inner,
)
from sigmatau.intlinalg import rank_int
from sigmatau.rings import (
    endomorphism_by_name,
    endomorphisms,
    make_biquadratic,
    make_cyclotomic,
    make_quadratic,
    zeta_power,
)

from .golden.regen import RINGS as GOLDEN_RINGS
from .oracles import (
    basis_elements,
    cyclotomic_adjugate_witness,
    derivation_law_holds,
    ring_multiply,
    stacked_inner_witness,
)
from .strategies import BIQUADRATIC_PAIRS, QUADRATIC_DS

D_ZETA_P17 = (1, 1, 1, 1, 0, 1, 0, 1, 1, 0, 0, 1, 0, 0, 0, 0)


def _random_coords(rng: random.Random, rank: int, bound: int = 9):
    return tuple(rng.randint(-bound, bound) for _ in range(rank))


def _endo(ring, name):
    return endomorphism_by_name(ring, name)


# (sigma index, tau index) among phi1..phi4 -> (case, sign)
BIQUADRATIC_CASES = {
    (1, 2): ("I", 1), (2, 1): ("I", 1),
    (3, 4): ("I", -1), (4, 3): ("I", -1),
    (1, 3): ("II", 1), (3, 1): ("II", 1),
    (2, 4): ("II", -1), (4, 2): ("II", -1),
    (1, 4): ("III", 1), (4, 1): ("III", 1),
    (2, 3): ("III", -1), (3, 2): ("III", -1),
}


class TestCyclotomicBuilder:
    def test_forced_image_of_zeta_squared(self):
        ring = make_cyclotomic(5)
        sigma = endomorphism_by_name(ring, 1)
        tau = endomorphism_by_name(ring, 2)
        d = build_cyclotomic_derivation(ring, sigma, tau, (0, 1, 0, 0))
        # D(z^2) = (sigma(z) + tau(z)) D(z) = (z + z^2) z = z^2 + z^3
        assert d.images[2] == (0, 0, 1, 1)
        assert is_derivation(ring.spec, d, sigma, tau)

    def test_zero_seed_gives_zero_map(self):
        ring = make_cyclotomic(7)
        sigma = endomorphism_by_name(ring, 2)
        tau = endomorphism_by_name(ring, 5)
        d = build_cyclotomic_derivation(ring, sigma, tau, (0,) * 6)
        assert all(img == (0,) * 6 for img in d.images)

    def test_every_seed_yields_a_derivation(self):
        rng = random.Random(11)
        for p in (3, 5, 7, 11):
            ring = make_cyclotomic(p)
            endos = endomorphisms(ring)
            for _ in range(10):
                sigma, tau = rng.sample(endos, 2)
                d = build_cyclotomic_derivation(
                    ring, sigma, tau, _random_coords(rng, p - 1)
                )
                assert is_derivation(ring.spec, d, sigma, tau)

    def test_reference_map_at_p17(self):
        ring = make_cyclotomic(17)
        sigma = endomorphism_by_name(ring, 1)
        tau = endomorphism_by_name(ring, 3)
        d = build_cyclotomic_derivation(ring, sigma, tau, D_ZETA_P17)
        assert d.images[1] == D_ZETA_P17
        assert is_derivation(ring.spec, d, sigma, tau)

    @pytest.mark.parametrize("p", (3, 5, 7, 11, 13, 31))
    def test_power_law(self, p):
        # D(z^k) equals the k-term twisted power sum times D(z), on every
        # ordered pair and every power up to z^(2p), past the wrap-around
        # z^(p-1) = -(1 + ... + z^(p-2)), z^p = 1 (D(1) = 0) and z^(p+j) = z^j
        rng = random.Random(23 + p)
        ring = make_cyclotomic(p)
        spec = ring.spec
        zeta = spec.basis(1)
        endos = endomorphisms(ring)
        pairs = [(s, t) for s in endos for t in endos if s.images != t.images]
        if p == 31:
            # six seeded pairs: two with sigma(z) = z^30, two with tau(z) = z^30
            top, o = endos[-1], rng.sample(endos[:-1], 8)
            pairs = [(top, o[0]), (top, o[1]), (o[2], top), (o[3], top), (o[4], o[5]), (o[6], o[7])]
        for sigma, tau in pairs:
            c = _random_coords(rng, p - 1)
            d = build_cyclotomic_derivation(ring, sigma, tau, c)
            for k in range(1, 2 * p + 1):
                ps = sigma_tau_power_sum(spec, sigma, tau, zeta, k)
                assert d.apply(zeta_power(ring, k)) == mul(spec, ps, c)


class TestCyclotomicBasis:
    def test_rank_p3(self):
        ring = make_cyclotomic(3)
        space = cyclotomic_basis(ring, _endo(ring, 1), _endo(ring, 2))
        assert isinstance(space, DerivationSpace)
        assert space.rank == 2
        assert len(space.basis_maps) == 2

    def test_generator_rows_are_identity(self):
        ring = make_cyclotomic(5)
        space = cyclotomic_basis(ring, _endo(ring, 2), _endo(ring, 3))
        rows = [mp.images[1] for mp in space.basis_maps]
        assert rows == [
            (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
        ]
        assert rank_int([list(r) for r in rows]) == 4

    def test_all_pairs_p7(self):
        ring = make_cyclotomic(7)
        endos = endomorphisms(ring)
        for sigma in endos:
            for tau in endos:
                if sigma.images == tau.images:
                    continue
                space = cyclotomic_basis(ring, sigma, tau)
                assert space.rank == 6
                for i, mp in enumerate(space.basis_maps):
                    # only D_0 is scanned when the basis is built: scan each
                    # map's raw images, and match the builder at z^i
                    assert is_derivation(ring.spec, LinearMap(ring.spec, mp.images), sigma, tau)
                    built = build_cyclotomic_derivation(ring, sigma, tau, ring.spec.basis(i))
                    assert mp.images == built.images


class TestConjecturalDecider:
    def test_seed_zeta_is_not_inner(self):
        ring = make_cyclotomic(5)
        d = build_cyclotomic_derivation(ring, _endo(ring, 1), _endo(ring, 2), (0, 1, 0, 0))
        v = cyclotomic_inner_conjectural(ring, _endo(ring, 1), _endo(ring, 2), d)
        assert not v.inner
        assert "5 does not divide" in v.obstruction
        g = is_inner_generic(ring, _endo(ring, 1), _endo(ring, 2), d)
        assert not g.inner

    def test_difference_seed_has_unit_witness(self):
        ring = make_cyclotomic(5)
        spec = ring.spec
        sigma = endomorphism_by_name(ring, 1)
        tau = endomorphism_by_name(ring, 2)
        c = sub(tau.images[1], sigma.images[1])
        d = build_cyclotomic_derivation(ring, sigma, tau, c)
        v = cyclotomic_inner_conjectural(ring, sigma, tau, d)
        assert v.inner
        assert v.witness == spec.unity

    def test_random_witness_recovery_p7(self):
        rng = random.Random(7)
        ring = make_cyclotomic(7)
        spec = ring.spec
        endos = endomorphisms(ring)
        for _ in range(25):
            sigma, tau = rng.sample(endos, 2)
            beta = _random_coords(rng, 6)
            d = inner_derivation(spec, sigma, tau, beta)
            v = cyclotomic_inner_conjectural(ring, sigma, tau, d)
            assert v.inner
            assert v.witness == beta

    def test_adjugate_witness_matches_hnf_witness(self):
        rng = random.Random(31)
        for p in (3, 5, 7, 11):
            ring = make_cyclotomic(p)
            endos = endomorphisms(ring)
            for _ in range(10):
                sigma, tau = rng.sample(endos, 2)
                beta = _random_coords(rng, p - 1)
                d = inner_derivation(ring.spec, sigma, tau, beta)
                conj = cyclotomic_inner_conjectural(ring, sigma, tau, d)
                gen = is_inner_generic(ring, sigma, tau, d)
                assert conj.inner and gen.inner
                assert conj.witness == gen.witness == beta

    def test_equal_twists_rejected(self):
        ring = make_cyclotomic(5)
        d = LinearMap(ring.spec, [(0, 0, 0, 0)] * 4)
        with pytest.raises(ValueError, match="differ"):
            cyclotomic_inner_conjectural(ring, _endo(ring, 2), _endo(ring, 2), d)

    def test_non_derivation_rejected(self):
        ring = make_cyclotomic(5)
        bad = LinearMap(ring.spec, [ring.spec.basis(i) for i in range(4)])
        with pytest.raises(ValueError, match="not a derivation"):
            cyclotomic_inner_conjectural(ring, _endo(ring, 1), _endo(ring, 2), bad)


class TestQuadratic:
    def test_builder_validates_unit_image(self):
        ring = make_quadratic(2)
        with pytest.raises(ValueError, match="D\\(1\\) must be zero"):
            build_quadratic_derivation(ring, ((1, 0), (0, 1)))
        with pytest.raises(ValueError, match="two basis images"):
            build_quadratic_derivation(ring, ((0, 0),))

    def test_builder_output_is_a_derivation_both_orderings(self):
        ring = make_quadratic(2)
        ident, conj = endomorphisms(ring)
        d = build_quadratic_derivation(ring, ((0, 0), (1, 1)))
        assert is_derivation(ring.spec, d, ident, conj)
        assert is_derivation(ring.spec, d, conj, ident)

    def test_inner_witness_signs(self):
        ring = make_quadratic(2)
        ident, conj = endomorphisms(ring)
        d = build_quadratic_derivation(ring, ((0, 0), (4, 2)))
        v = quadratic_inner(ring, conj, ident, d)
        assert v.inner and v.witness == (1, 1)
        v = quadratic_inner(ring, ident, conj, d)
        assert v.inner and v.witness == (-1, -1)

    def test_obstruction_even_branch(self):
        ring = make_quadratic(2)
        ident, conj = endomorphisms(ring)
        d = build_quadratic_derivation(ring, ((0, 0), (1, 0)))
        v = quadratic_inner(ring, conj, ident, d)
        assert not v.inner
        assert v.obstruction == "2d = 4 does not divide c0 = 1"
        d = build_quadratic_derivation(ring, ((0, 0), (4, 1)))
        v = quadratic_inner(ring, conj, ident, d)
        assert not v.inner
        assert v.obstruction == "2 does not divide c1 = 1"

    def test_obstruction_one_mod_4_branch(self):
        ring = make_quadratic(5)
        ident, conj = endomorphisms(ring)
        d = build_quadratic_derivation(ring, ((0, 0), (0, 1)))
        assert is_derivation(ring.spec, d, ident, conj)
        v = quadratic_inner(ring, conj, ident, d)
        assert not v.inner
        assert "5 does not divide" in v.obstruction

    def test_one_mod_4_witness_recovery(self):
        rng = random.Random(5)
        for d_val in (5, -3, 13, -7):
            ring = make_quadratic(d_val)
            assert ring.one_mod4
            ident, conj = endomorphisms(ring)
            for sigma, tau in ((ident, conj), (conj, ident)):
                beta = _random_coords(rng, 2)
                dv = inner_derivation(ring.spec, sigma, tau, beta)
                v = quadratic_inner(ring, sigma, tau, dv)
                assert v.inner
                assert v.witness == beta

    def test_requires_identity_conjugation_pair(self):
        ring = make_quadratic(2)
        _, conj = endomorphisms(ring)
        d = build_quadratic_derivation(ring, ((0, 0), (0, 0)))
        with pytest.raises(ValueError, match="sigma and tau must differ"):
            quadratic_inner(ring, conj, conj, d)


class TestBiquadraticClassification:
    @pytest.mark.parametrize("m, n", BIQUADRATIC_PAIRS)
    def test_all_twelve_pairs(self, m, n):
        ring = make_biquadratic(m, n)
        endos = endomorphisms(ring)
        for (i, j), expected in BIQUADRATIC_CASES.items():
            assert classify_biquadratic(ring, endos[i - 1], endos[j - 1]) == expected

    def test_named_examples(self):
        ring = make_biquadratic(2, 3)
        assert classify_biquadratic(ring, _endo(ring, "phi1"), _endo(ring, "phi2")) == ("I", 1)
        assert classify_biquadratic(ring, _endo(ring, "phi2"), _endo(ring, "phi4")) == ("II", -1)
        assert classify_biquadratic(ring, _endo(ring, "phi4"), _endo(ring, "phi1")) == ("III", 1)

    def test_equal_pair_rejected(self):
        ring = make_biquadratic(2, 3)
        with pytest.raises(ValueError, match="differ"):
            classify_biquadratic(ring, _endo(ring, "phi2"), _endo(ring, "phi2"))


class TestBiquadraticBuilders:
    def test_case_one_free_image(self):
        ring = make_biquadratic(2, 3)
        d = build_biquadratic_derivation(ring, _endo(ring, "phi1"), _endo(ring, "phi2"), (1, 0, 0, 0))
        assert d.images[1] == (0, 0, 0, 0)  # D(sqrt(2)) = 0
        assert d.images[2] == (1, 0, 0, 0)  # D(sqrt(3)) = 1
        assert d.images[3] == (0, 1, 0, 0)  # D(sqrt(6)) = sqrt(2)
        assert is_derivation(ring.spec, d, endomorphism_by_name(ring, "phi1"),
                             endomorphism_by_name(ring, "phi2"))

    def test_case_two_free_image(self):
        ring = make_biquadratic(2, 3)
        d = build_biquadratic_derivation(ring, _endo(ring, "phi2"), _endo(ring, "phi4"), (1, 0, 0, 0))
        assert d.images[1] == (1, 0, 0, 0)   # D(sqrt(2)) = 1
        assert d.images[2] == (0, 0, 0, 0)   # D(sqrt(3)) = 0
        assert d.images[3] == (0, 0, -1, 0)  # D(sqrt(6)) = -sqrt(3)
        assert is_derivation(ring.spec, d, endomorphism_by_name(ring, "phi2"),
                             endomorphism_by_name(ring, "phi4"))

    def test_case_three_coefficient_form(self):
        ring = make_biquadratic(2, 3)
        d = build_biquadratic_derivation(ring, _endo(ring, "phi1"), _endo(ring, "phi4"), (0, 1, 0, 0))
        assert d.images[1] == (0, 1, 0, 0)  # D(sqrt(2)) = sqrt(2)
        assert d.images[2] == (0, 0, 1, 0)  # D(sqrt(3)) = sqrt(3)
        assert d.images[3] == (0, 0, 0, 0)  # D(sqrt(6)) = 0
        assert is_derivation(ring.spec, d, endomorphism_by_name(ring, "phi1"),
                             endomorphism_by_name(ring, "phi4"))

    def test_case_three_pair_form(self):
        ring = make_biquadratic(2, 3)
        d = build_biquadratic_derivation(ring, _endo(ring, "phi1"), _endo(ring, "phi4"), ((0, 1, 0, 0), (0, 0, 1, 0))
        )
        assert d.images[1] == (0, 1, 0, 0)
        assert d.images[2] == (0, 0, 1, 0)

    def test_case_three_incompatible_pair_rejected(self):
        ring = make_biquadratic(2, 3)
        with pytest.raises(ValueError, match="must satisfy"):
            build_biquadratic_derivation(ring, _endo(ring, "phi1"), _endo(ring, "phi4"), ((0, 1, 0, 0), (0, 0, 2, 0))
            )

    def test_case_three_coefficients_must_be_integers(self):
        ring = make_biquadratic(2, 3)
        sigma, tau = _endo(ring, "phi1"), _endo(ring, "phi4")
        for bad in ((1.9, 0, 0, 2), (1, 0, 0, "2")):
            with pytest.raises(TypeError):
                build_biquadratic_derivation(ring, sigma, tau, bad)
        d = build_biquadratic_derivation(ring, sigma, tau, (1, 0, 0, 2))
        assert d.images[1] == (2, 0, 0, 2)  # D(sqrt(2)) = (m t1, t2, r t3, t4)

    def test_case_three_arity_rejected(self):
        ring = make_biquadratic(2, 3)
        with pytest.raises(ValueError, match="four coefficients"):
            build_biquadratic_derivation(ring, _endo(ring, "phi1"), _endo(ring, "phi4"), (1, 2, 3))

    def test_gcd_split_shapes_case_three_basis(self):
        ring = make_biquadratic(6, 10)
        assert ring.gcd_split == (2, 3, 5)
        space = biquadratic_basis(ring, _endo(ring, "phi1"), _endo(ring, "phi4"))
        # third basis map carries the split cofactors r = 3 and s = 5
        assert space.basis_maps[2].images[1] == (0, 0, 3, 0)
        assert space.basis_maps[2].images[2] == (0, 5, 0, 0)

    @pytest.mark.parametrize("m, n", BIQUADRATIC_PAIRS)
    def test_case_three_pair_accepted_iff_law_holds(self, m, n):
        # planted pairs come from the case-III closed form D(sqrt(m)) =
        # (m t1, t2, r t3, t4), D(sqrt(n)) = sgn (n t4, s t3, t2, t1);
        # random and perturbed pairs mostly break the law
        rng = random.Random(1000 * m + n)
        ring = make_biquadratic(m, n)
        endos = endomorphisms(ring)
        _, r, s = ring.gcd_split
        table = ring.spec.table
        basis_pairs = [(x, y) for x in basis_elements(4) for y in basis_elements(4)]
        case_three = [(i - 1, j - 1, sgn) for (i, j), (case, sgn) in BIQUADRATIC_CASES.items() if case == "III"]
        accepted = rejected = 0
        for si, ti, sgn in case_three:
            sigma, tau = endos[si], endos[ti]
            for trial in range(30):
                t1, t2, t3, t4 = _random_coords(rng, 4, 4)
                dm = [m * t1, t2, r * t3, t4]
                dn = [sgn * v for v in (n * t4, s * t3, t2, t1)]
                if trial % 3 == 1:
                    (dm if rng.random() < 0.5 else dn)[rng.randrange(4)] += rng.choice((-1, 1))
                elif trial % 3 == 2:
                    dm, dn = _random_coords(rng, 4, 3), _random_coords(rng, 4, 3)
                images = [(0, 0, 0, 0), tuple(dm), tuple(dn), (0, 0, 0, 0)]
                holds = derivation_law_holds(table, images, sigma.images, tau.images, basis_pairs)
                if trial % 3 == 0:
                    # the coefficient form builds the same planted map
                    assert holds
                    d = build_biquadratic_derivation(ring, sigma, tau, (t1, t2, t3, t4))
                    assert d.images == tuple(images)
                if holds:
                    d = build_biquadratic_derivation(ring, sigma, tau, (dm, dn))
                    assert d.images == tuple(images)
                    accepted += 1
                else:
                    with pytest.raises(ValueError, match="must satisfy"):
                        build_biquadratic_derivation(ring, sigma, tau, (dm, dn))
                    rejected += 1
        assert accepted >= 40 and rejected >= 40

    @pytest.mark.parametrize("m, n", BIQUADRATIC_PAIRS)
    def test_case_one_two_basis_images_follow_the_formula(self, m, n):
        # D(g) = e_i and D(sqrt(mn)) = sgn h e_i, with g = sqrt(n), h = sqrt(m)
        # in case I and g = sqrt(m), h = sqrt(n) in case II
        ring = make_biquadratic(m, n)
        endos = endomorphisms(ring)
        units = basis_elements(4)
        for (i, j), (case, sgn) in BIQUADRATIC_CASES.items():
            if case == "III":
                continue
            g, h = (2, 1) if case == "I" else (1, 2)
            space = biquadratic_basis(ring, endos[i - 1], endos[j - 1])
            for e, mp in zip(units, space.basis_maps):
                expected = [(0, 0, 0, 0)] * 4
                expected[g] = e
                expected[3] = tuple(sgn * v for v in ring_multiply(ring.spec.table, units[h], e))
                assert mp.images == tuple(expected)

    def test_basis_rank_and_law_all_pairs(self):
        for m, n in ((2, 3), (-1, 2)):
            ring = make_biquadratic(m, n)
            endos = endomorphisms(ring)
            for sigma in endos:
                for tau in endos:
                    if sigma.images == tau.images:
                        continue
                    space = biquadratic_basis(ring, sigma, tau)
                    assert space.rank == 4
                    for mp in space.basis_maps:
                        assert is_derivation(ring.spec, mp, sigma, tau)


class TestBiquadraticInner:
    def test_zero_map_is_inner(self):
        ring = make_biquadratic(2, 3)
        zero = LinearMap(ring.spec, [(0, 0, 0, 0)] * 4)
        v = biquadratic_inner(ring, _endo(ring, "phi1"), _endo(ring, "phi2"), zero)
        assert v.inner
        assert v.witness == (0, 0, 0, 0)

    def test_case_one_obstruction(self):
        ring = make_biquadratic(2, 3)
        d = build_biquadratic_derivation(ring, _endo(ring, "phi1"), _endo(ring, "phi2"), (1, 0, 0, 0))
        v = biquadratic_inner(ring, _endo(ring, "phi1"), _endo(ring, "phi2"), d)
        assert not v.inner
        assert v.obstruction == "6 does not divide c0 = 1"

    def test_case_one_witness_signs(self):
        ring = make_biquadratic(2, 3)
        d = build_biquadratic_derivation(ring, _endo(ring, "phi1"), _endo(ring, "phi2"), (0, 0, 6, 0))
        v = biquadratic_inner(ring, _endo(ring, "phi1"), _endo(ring, "phi2"), d)
        assert v.inner and v.witness == (-3, 0, 0, 0)
        d = build_biquadratic_derivation(ring, _endo(ring, "phi2"), _endo(ring, "phi1"), (0, 0, 6, 0))
        v = biquadratic_inner(ring, _endo(ring, "phi2"), _endo(ring, "phi1"), d)
        assert v.inner and v.witness == (3, 0, 0, 0)

    def test_case_two_witness(self):
        ring = make_biquadratic(2, 3)
        d = build_biquadratic_derivation(ring, _endo(ring, "phi2"), _endo(ring, "phi4"), (4, 2, 0, 0))
        v = biquadratic_inner(ring, _endo(ring, "phi2"), _endo(ring, "phi4"), d)
        assert v.inner and v.witness == (-1, -1, 0, 0)

    def test_random_witness_recovery(self):
        rng = random.Random(17)
        ring = make_biquadratic(2, 3)
        endos = endomorphisms(ring)
        for _ in range(30):
            sigma, tau = rng.sample(endos, 2)
            beta = _random_coords(rng, 4)
            d = inner_derivation(ring.spec, sigma, tau, beta)
            v = biquadratic_inner(ring, sigma, tau, d)
            assert v.inner
            # witnesses need not be unique; require the induced map to agree
            induced = inner_derivation(ring.spec, sigma, tau, v.witness)
            assert induced.images == d.images


class TestGenericDecider:
    def test_zero_map_witness(self):
        ring = make_cyclotomic(5)
        zero = LinearMap(ring.spec, [(0, 0, 0, 0)] * 4)
        v = is_inner_generic(ring, _endo(ring, 1), _endo(ring, 3), zero)
        assert v.inner
        assert v.witness == (0, 0, 0, 0)

    def test_obstruction_message(self):
        ring = make_cyclotomic(5)
        d = build_cyclotomic_derivation(ring, _endo(ring, 1), _endo(ring, 2), (0, 1, 0, 0))
        v = is_inner_generic(ring, _endo(ring, 1), _endo(ring, 2), d)
        assert not v.inner
        assert "no integer beta" in v.obstruction

    def test_non_derivation_rejected(self):
        ring = make_quadratic(2)
        ident, conj = endomorphisms(ring)
        bad = LinearMap(ring.spec, [(1, 0), (0, 1)])
        with pytest.raises(ValueError, match="not a derivation"):
            is_inner_generic(ring, ident, conj, bad)

    def test_witness_verifies_on_all_families(self):
        rng = random.Random(29)
        rings = [make_cyclotomic(7), make_quadratic(-5), make_biquadratic(3, 5)]
        for ring in rings:
            spec = ring.spec
            endos = endomorphisms(ring)
            for _ in range(10):
                sigma, tau = rng.sample(endos, 2)
                beta = _random_coords(rng, spec.rank)
                d = inner_derivation(spec, sigma, tau, beta)
                v = is_inner_generic(ring, sigma, tau, d)
                assert v.inner
                induced = inner_derivation(spec, sigma, tau, v.witness)
                assert induced.images == d.images


def _generic_checked_by_oracle(ring, sigma, tau, d):
    """is_inner_generic's verdict, after checking it against the stacked
    solve over Q and, when inner, its witness on every basis element."""
    spec = ring.spec
    images = d.images
    v = is_inner_generic(ring, sigma, tau, d)
    beta = stacked_inner_witness(spec.table, images, sigma.images, tau.images)
    assert v.inner == (beta is not None)
    assert v.witness == beta
    if v.inner:
        for s, t, img in zip(sigma.images, tau.images, images):
            g = tuple(b - a for a, b in zip(s, t))
            assert ring_multiply(spec.table, v.witness, g) == img
    return v


class TestGenericSolvesOnGenerator:
    """On a power-basis spec the generic decider solves on x = e_1 only;
    verdicts and witnesses match the stacked n^2 x n solve over Q. Every
    ordered cyclotomic pair at p <= 13 is covered in TestProvenCyclotomicTest."""

    def test_every_quadratic_ring(self):
        for d_val in QUADRATIC_DS:
            ring = make_quadratic(d_val)
            rng = random.Random(8000 + d_val)
            ident, conj = endomorphisms(ring)
            for sigma, tau in ((ident, conj), (conj, ident)):
                planted = inner_derivation(ring.spec, sigma, tau, _random_coords(rng, 2))
                assert _generic_checked_by_oracle(ring, sigma, tau, planted).inner
                d = build_quadratic_derivation(ring, ((0, 0), _random_coords(rng, 2)))
                _generic_checked_by_oracle(ring, sigma, tau, d)

    def test_every_biquadratic_ring(self):
        for m, n in BIQUADRATIC_PAIRS:
            ring = make_biquadratic(m, n)
            rng = random.Random(9000 + 100 * m + n)
            endos = endomorphisms(ring)
            for sigma in endos:
                for tau in endos:
                    if sigma is tau:
                        continue
                    planted = inner_derivation(ring.spec, sigma, tau, _random_coords(rng, 4))
                    assert _generic_checked_by_oracle(ring, sigma, tau, planted).inner
                    case, _ = classify_biquadratic(ring, sigma, tau)
                    free = (
                        _random_coords(rng, 4)
                        if case != "III"
                        else tuple(rng.randint(-9, 9) for _ in range(4))
                    )
                    d = build_biquadratic_derivation(ring, sigma, tau, free)
                    _generic_checked_by_oracle(ring, sigma, tau, d)

    @pytest.mark.parametrize("ring, rows", [
        (make_cyclotomic(5), 4),
        (make_cyclotomic(13), 12),
        (make_quadratic(-1), 2),
        (make_quadratic(5), 2),
        (make_biquadratic(2, 3), 16),
    ])
    def test_system_size(self, ring, rows):
        sigma, tau = endomorphisms(ring)[:2]
        stack, _, _ = derivations._generic_hnf(ring.spec, sigma.images, tau.images)
        assert len(stack) == rows
        assert all(len(row) == ring.spec.rank for row in stack)


class TestClosedFormMatchesGeneric:
    """Verdict agreement between the per-family closed forms and the
    basis-system solver, 200 random derivations per ring."""

    def test_quadratic_all_d_up_to_50(self):
        for d_val in QUADRATIC_DS:
            ring = make_quadratic(d_val)
            ident, conj = endomorphisms(ring)
            rng = random.Random(1000 + d_val)
            for i in range(200):
                sigma, tau = (ident, conj) if i % 2 else (conj, ident)
                if i % 4 < 3:
                    d = build_quadratic_derivation(
                        ring, ((0, 0), _random_coords(rng, 2, 12))
                    )
                else:
                    d = inner_derivation(
                        ring.spec, sigma, tau, _random_coords(rng, 2, 6)
                    )
                closed = quadratic_inner(ring, sigma, tau, d)
                generic = is_inner_generic(ring, sigma, tau, d)
                assert closed.inner == generic.inner
                if closed.inner:
                    assert inner_derivation(
                        ring.spec, sigma, tau, closed.witness
                    ).images == d.images

    def test_biquadratic_ten_rings(self):
        for m, n in BIQUADRATIC_PAIRS:
            ring = make_biquadratic(m, n)
            spec = ring.spec
            endos = endomorphisms(ring)
            pairs = [
                (s, t) for s in endos for t in endos if s.images != t.images
            ]
            rng = random.Random(5000 + 100 * m + n)
            for i in range(200):
                sigma, tau = pairs[i % len(pairs)]
                if i % 4 < 3:
                    case, _ = classify_biquadratic(ring, sigma, tau)
                    free = (
                        _random_coords(rng, 4, 12)
                        if case != "III"
                        else tuple(rng.randint(-6, 6) for _ in range(4))
                    )
                    d = build_biquadratic_derivation(ring, sigma, tau, free)
                else:
                    d = inner_derivation(spec, sigma, tau, _random_coords(rng, 4, 6))
                closed = biquadratic_inner(ring, sigma, tau, d)
                generic = is_inner_generic(ring, sigma, tau, d)
                assert closed.inner == generic.inner
                if closed.inner:
                    assert inner_derivation(
                        spec, sigma, tau, closed.witness
                    ).images == d.images


class TestConjecturalMatchesGeneric:
    def test_sampled_pairs(self):
        rng = random.Random(41)
        for p in (5, 7, 11):
            ring = make_cyclotomic(p)
            endos = endomorphisms(ring)
            for _ in range(8):
                sigma, tau = rng.sample(endos, 2)
                for j in range(10):
                    if j % 2:
                        d = build_cyclotomic_derivation(
                            ring, sigma, tau, _random_coords(rng, p - 1)
                        )
                    else:
                        d = inner_derivation(
                            ring.spec, sigma, tau, _random_coords(rng, p - 1)
                        )
                    conj = cyclotomic_inner_conjectural(ring, sigma, tau, d)
                    gen = is_inner_generic(ring, sigma, tau, d)
                    assert conj.inner == gen.inner
                    assert conj.witness == gen.witness


class TestProvenCyclotomicTest:
    """The (1 - z) | D(z) test against the generic solver and the paper's
    adjugate route (oracles.cyclotomic_adjugate_witness), the generic solver
    against the stacked solve over Q, and the work the test does not do."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_every_ordered_pair_matches_both_oracles(self, p):
        rng = random.Random(p)
        ring = make_cyclotomic(p)
        endos = endomorphisms(ring)
        for sigma in endos:
            for tau in endos:
                if sigma == tau:
                    continue
                planted = _random_coords(rng, p - 1)
                free = _random_coords(rng, p - 1)
                for d, beta in ((inner_derivation(ring.spec, sigma, tau, planted), planted),
                                (build_cyclotomic_derivation(ring, sigma, tau, free), None)):
                    proven = cyclotomic_inner_conjectural(ring, sigma, tau, d)
                    generic = _generic_checked_by_oracle(ring, sigma, tau, d)
                    adjugate = cyclotomic_adjugate_witness(p, int(sigma.name), int(tau.name), d.images[1])
                    assert proven.inner == generic.inner == (adjugate is not None)
                    assert proven.witness == generic.witness == adjugate
                    if beta is not None:
                        assert proven.witness == beta

    def test_quotient_walk_on_every_pair_to_p31(self):
        # a planted beta comes back exactly, and a random c whose coordinate
        # sum p divides is reproduced by its quotient, at every odd prime p <= 31
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            rng = random.Random(p)
            ring = make_cyclotomic(p)
            for u in range(1, p):
                for w in range(1, p):
                    if u == w:
                        continue
                    divisor = sub(zeta_power(ring, w), zeta_power(ring, u))
                    beta = _random_coords(rng, p - 1)
                    c = mul(ring.spec, beta, divisor)
                    assert derivations._cyclotomic_quotient(p, u, w, c) == beta
                    c = list(_random_coords(rng, p - 1))
                    c[0] -= sum(c) % p
                    quotient = derivations._cyclotomic_quotient(p, u, w, tuple(c))
                    assert mul(ring.spec, quotient, divisor) == tuple(c)

    def test_no_adjugate_or_determinant_at_p31(self, monkeypatch):
        rng = random.Random(31)
        ring = make_cyclotomic(31)
        sigma, tau = _endo(ring, 3), _endo(ring, 17)
        beta = _random_coords(rng, 30)
        inner = inner_derivation(ring.spec, sigma, tau, beta)
        outer = build_cyclotomic_derivation(ring, sigma, tau, (1,) + (0,) * 29)
        derivations._adjugate_det_A.cache_clear()
        calls = []
        for module, name in ((intlinalg, "adjugate"), (conjecture, "build_A"), (_backend, "det_int")):
            calls.append(_count_calls(monkeypatch, module, name))
        assert cyclotomic_inner_conjectural(ring, sigma, tau, inner).witness == beta
        assert not cyclotomic_inner_conjectural(ring, sigma, tau, outer).inner
        assert [len(c) for c in calls] == [0, 0, 0]

    def test_obstruction_names_the_coordinate_sum(self):
        ring = make_cyclotomic(7)
        sigma, tau = _endo(ring, 2), _endo(ring, 5)
        d = build_cyclotomic_derivation(ring, sigma, tau, (3, -1, 0, 4, 0, 2))
        v = cyclotomic_inner_conjectural(ring, sigma, tau, d)
        assert not v.inner and v.witness is None
        assert v.obstruction == (
            "7 does not divide the coordinate sum 8 of D(z), so 1 - z does not divide D(z)"
        )


def _assert_names_read_off(ring):
    for endo in endomorphisms(ring):
        unnamed = algebra.Endomorphism(ring.spec, endo.images)
        assert unnamed.name is None
        assert rings._name_of(ring, unnamed) == endo.name


class TestExponentRead:
    """A checked endomorphism's name is read off its images in O(n), with
    no lookup among the ring's endomorphisms; on Z[z] it is u in
    sigma(z) = z^u."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31])
    def test_exponent_is_the_name(self, p):
        ring = make_cyclotomic(p)
        _assert_names_read_off(ring)
        for endo in endomorphisms(ring):
            assert rings._exponent(ring, endo) == int(endo.name)

    @pytest.mark.parametrize("d", [-11, -7, -5, -3, -2, -1, 2, 3, 5, 13])
    def test_quadratic_name_is_read_off(self, d):
        _assert_names_read_off(make_quadratic(d))

    @pytest.mark.parametrize("m, n", BIQUADRATIC_PAIRS)
    def test_biquadratic_name_is_read_off(self, m, n):
        _assert_names_read_off(make_biquadratic(m, n))

    def test_build_and_decide_look_up_no_name(self, monkeypatch):
        ring = make_cyclotomic(7)
        sigma, tau = (algebra.Endomorphism(ring.spec, _endo(ring, u).images) for u in (3, 6))
        calls = _count_calls(monkeypatch, rings, "_endomorphism_images")
        beta = (1, -2, 0, 3, 0, 1)
        inner = inner_derivation(ring.spec, sigma, tau, beta)
        outer = build_cyclotomic_derivation(ring, sigma, tau, (1, 0, 0, 0, 0, 0))
        assert cyclotomic_inner_conjectural(ring, sigma, tau, inner).witness == beta
        assert cyclotomic_adjugate_witness(7, 3, 6, inner.images[1]) == beta
        assert not cyclotomic_inner_conjectural(ring, sigma, tau, outer).inner
        data = derivation_to_json(ring, sigma, tau, outer)
        assert (data["sigma"], data["tau"]) == ("3", "6")
        assert calls == []


class TestWitnessPowerScaling:
    def test_witness_transfers_to_powers(self):
        # if D(a) = beta (tau - sigma)(a) for all a then the same witness
        # works at a^k
        rng = random.Random(13)
        rings = [make_cyclotomic(7), make_quadratic(10), make_biquadratic(2, 3)]
        for ring in rings:
            spec = ring.spec
            endos = endomorphisms(ring)
            for _ in range(5):
                sigma, tau = rng.sample(endos, 2)
                beta = _random_coords(rng, spec.rank)
                d = inner_derivation(spec, sigma, tau, beta)
                alpha = _random_coords(rng, spec.rank, 3)
                power = spec.unity
                for _k in range(6):
                    power = mul(spec, power, alpha)
                    lhs = d.apply(power)
                    rhs = mul(
                        spec, beta, sub(tau.apply(power), sigma.apply(power))
                    )
                    assert lhs == rhs


class TestSerialization:
    def test_round_trip_each_family(self):
        cyc = make_cyclotomic(5)
        quad = make_quadratic(-3)
        biq = make_biquadratic(2, 3)
        cases = [
            (cyc, endomorphism_by_name(cyc, 1), endomorphism_by_name(cyc, 2),
             build_cyclotomic_derivation(cyc, endomorphism_by_name(cyc, 1), endomorphism_by_name(cyc, 2), (1, -2, 0, 3))),
            (quad, *endomorphisms(quad),
             build_quadratic_derivation(quad, ((0, 0), (4, 1)))),
            (biq, endomorphism_by_name(biq, "phi1"),
             endomorphism_by_name(biq, "phi2"),
             build_biquadratic_derivation(biq, endomorphism_by_name(biq, "phi1"), endomorphism_by_name(biq, "phi2"), (2, 0, -1, 5))),
        ]
        for ring, sigma, tau, d in cases:
            data = derivation_to_json(ring, sigma, tau, d)
            # raw image tuples are named by the ring's lookup
            assert derivation_to_json(ring, sigma.images, tau.images, d) == data
            ring2, sigma2, tau2, d2 = derivation_from_json(data)
            assert ring2.spec == ring.spec
            assert sigma2.images == sigma.images
            assert tau2.images == tau.images
            assert d2.images == d.images

    @pytest.mark.parametrize("change,field", [
        ({"images": None}, "'images'"),
        ({"images": 7}, "'images'"),
        ({"images": [[0, 0], ["1", 0]]}, "'images'"),
        ({"sigma": None}, "'sigma'"),
        ({"ring": None}, "'ring'"),
    ])
    def test_json_missing_or_malformed_field_named(self, change, field):
        ring = make_quadratic(2)
        sigma, tau = _endo(ring, "id"), _endo(ring, "conj")
        data = derivation_to_json(ring, sigma, tau, build_quadratic_derivation(ring, ((0, 0), (1, 0))))
        data.update(change)
        # None stands for a field left out
        data = {k: v for k, v in data.items() if v is not None}
        with pytest.raises(ValueError, match=field):
            derivation_from_json(data)

    def test_json_rejects_a_map_outside_the_enumeration(self):
        ring = make_biquadratic(2, 3)
        d = build_biquadratic_derivation(ring, _endo(ring, "phi1"), _endo(ring, "phi2"), (1, 0, 0, 0))
        not_an_endomorphism = ((1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        with pytest.raises(ValueError, match="not an endomorphism"):
            derivation_to_json(ring, not_an_endomorphism, _endo(ring, "phi2"), d)

    @pytest.mark.parametrize("ring_arg", GOLDEN_RINGS)
    def test_names_are_read_off_the_images(self, ring_arg):
        # every ordered pair, given as enumerated maps, as raw images and as
        # maps labelled with another map's name, round-trips to its images
        ring = _parse_ring(ring_arg)
        endos = endomorphisms(ring)
        d = LinearMap(ring.spec, [ring.spec.basis(i) for i in range(ring.spec.rank)])
        for sigma, tau in itertools.permutations(endos, 2):
            relabelled = (algebra.Endomorphism(ring.spec, sigma.images, name=tau.name),
                          algebra.Endomorphism(ring.spec, tau.images, name=sigma.name))
            for pair in ((sigma, tau), (sigma.images, tau.images), relabelled):
                _, sigma2, tau2, d2 = derivation_from_json(derivation_to_json(ring, *pair, d))
                assert (sigma2.images, tau2.images, d2.images) == (sigma.images, tau.images, d.images)
        for m in endos:
            other = next(e for e in endos if e != m)
            for same in (m, m.images, algebra.Endomorphism(ring.spec, m.images, name=other.name)):
                with pytest.raises(ValueError, match="sigma and tau must differ"):
                    derivation_to_json(ring, same, m, d)

    def test_json_uses_names(self):
        ring = make_biquadratic(2, 3)
        d = build_biquadratic_derivation(ring, _endo(ring, "phi1"), _endo(ring, "phi4"), (0, 1, 0, 0))
        data = derivation_to_json(ring, _endo(ring, "phi1"), _endo(ring, "phi4"), d)
        assert data["sigma"] == "phi1"
        assert data["tau"] == "phi4"
        assert data["images"][1] == [0, 1, 0, 0]


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestValidateOnce:
    """A derivation's law is checked where it is built, and only there."""

    def test_cyclotomic_build_then_both_deciders(self, monkeypatch):
        ring = make_cyclotomic(7)
        sigma, tau = _endo(ring, 2), _endo(ring, 5)
        calls = _count_calls(monkeypatch, _backend, "derivation_failure")
        d = build_cyclotomic_derivation(ring, sigma, tau, (1, -2, 0, 3, 1, 1))
        assert isinstance(d, Derivation)
        is_inner_generic(ring, sigma, tau, d)
        cyclotomic_inner_conjectural(ring, sigma, tau, d)
        assert len(calls) == 1

    @pytest.mark.parametrize("pair, free", [
        (("phi1", "phi2"), (1, 0, 2, 0)),
        (("phi2", "phi4"), (4, 2, 0, 0)),
        (("phi1", "phi4"), (0, 1, 0, 0)),
    ])
    def test_biquadratic_build_then_both_deciders(self, monkeypatch, pair, free):
        ring = make_biquadratic(2, 3)
        sigma, tau = (_endo(ring, name) for name in pair)
        calls = _count_calls(monkeypatch, _backend, "derivation_failure")
        d = build_biquadratic_derivation(ring, sigma, tau, free)
        is_inner_generic(ring, sigma, tau, d)
        biquadratic_inner(ring, sigma, tau, d)
        assert len(calls) == 1

    def test_public_law_check_scans_only_other_pairs(self, monkeypatch):
        ring = make_cyclotomic(7)
        sigma, tau = _endo(ring, 2), _endo(ring, 5)
        d = build_cyclotomic_derivation(ring, sigma, tau, (1, -2, 0, 3, 1, 1))
        calls = _count_calls(monkeypatch, _backend, "derivation_failure")
        assert derivation_failure(ring.spec, d, sigma, tau) is None
        assert calls == []
        raw = LinearMap(ring.spec, d.images)
        assert derivation_failure(ring.spec, raw, sigma.images, tau.images) is None
        assert derivation_failure(ring.spec, d, sigma, _endo(ring, 3)) is not None
        assert len(calls) == 2

    def test_classify_checks_no_endomorphism(self, monkeypatch):
        ring = make_biquadratic(2, 3)
        sigma, tau = _endo(ring, "phi2"), _endo(ring, "phi4")
        calls = _count_calls(monkeypatch, algebra, "endomorphism_failure")
        assert classify_biquadratic(ring, sigma, tau) == ("II", -1)
        assert calls == []

    def test_classify_checks_raw_images(self):
        ring = make_biquadratic(2, 3)
        doubling = ((1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        with pytest.raises(ValueError, match="not an endomorphism"):
            classify_biquadratic(ring, doubling, _endo(ring, "phi2").images)
        raw = (_endo(ring, "phi2").images, _endo(ring, "phi4").images)
        assert classify_biquadratic(ring, *raw) == ("II", -1)

    @pytest.mark.parametrize("entry", ["build", "inner"])
    def test_raw_biquadratic_pair_is_checked_once(self, monkeypatch, entry):
        ring = make_biquadratic(2, 3)
        sigma, tau = _endo(ring, "phi1").images, _endo(ring, "phi4").images
        d = build_biquadratic_derivation(ring, _endo(ring, "phi1"), _endo(ring, "phi4"), (0, 1, 0, 0))
        calls = _count_calls(monkeypatch, algebra, "endomorphism_failure")
        if entry == "build":
            build_biquadratic_derivation(ring, sigma, tau, (0, 1, 0, 0))
        else:
            biquadratic_inner(ring, sigma, tau, LinearMap(ring.spec, d.images))
        assert len(calls) == 2

    def test_raw_twist_images_are_checked(self):
        ring = make_cyclotomic(5)
        doubling = [smul(2, ring.spec.basis(i)) for i in range(4)]
        zero = [ring.spec.zero()] * 4
        with pytest.raises(ValueError, match="not an endomorphism"):
            Derivation(ring.spec, zero, doubling, _endo(ring, 2))
        d = Derivation(ring.spec, zero, _endo(ring, 1).images, _endo(ring, 2).images)
        assert d.sigma == _endo(ring, 1) and d.tau == _endo(ring, 2)

    @pytest.mark.parametrize("family", ["cyclotomic", "quadratic", "biquadratic"])
    def test_raw_linear_map_is_checked_by_every_decider(self, family):
        ring, names, closed = {
            "cyclotomic": (make_cyclotomic(5), (1, 2), cyclotomic_inner_conjectural),
            "quadratic": (make_quadratic(2), ("id", "conj"), quadratic_inner),
            "biquadratic": (make_biquadratic(2, 3), ("phi1", "phi2"), biquadratic_inner),
        }[family]
        sigma, tau = (_endo(ring, name) for name in names)
        bad = LinearMap(ring.spec, [ring.spec.basis(i) for i in range(ring.spec.rank)])
        for decide in (is_inner_generic, closed):
            with pytest.raises(ValueError, match="not a derivation"):
                decide(ring, sigma, tau, bad)

    def test_derivation_for_another_pair_is_rechecked(self):
        ring = make_cyclotomic(5)
        d = build_cyclotomic_derivation(ring, _endo(ring, 1), _endo(ring, 2), (0, 1, 0, 0))
        with pytest.raises(ValueError, match="not a derivation"):
            is_inner_generic(ring, _endo(ring, 1), _endo(ring, 3), d)

    def test_quotient_witness_is_verified(self, monkeypatch):
        ring = make_cyclotomic(5)
        sigma, tau = _endo(ring, 1), _endo(ring, 2)
        d = inner_derivation(ring.spec, sigma, tau, (1, 0, 0, 0))
        monkeypatch.setattr(derivations, "_cyclotomic_quotient", lambda p, u, w, c: (2, 0, 0, 0))
        with pytest.raises(AssertionError, match="witness"):
            cyclotomic_inner_conjectural(ring, sigma, tau, d)
