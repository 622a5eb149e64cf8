"""Differential properties over drawn rings, endomorphism pairs,
derivations and code subsets (tests/strategies.py), each against the naive
oracles."""

import json
import re

import pytest
from hypothesis import given

from sigmatau.algebra import derivation_failure, mult_matrix, spec_from_json, spec_to_json, sub
from sigmatau.codes import (
    BudgetExceededError,
    CodeReport,
    code_report,
    dual_code,
    hom_idd_code,
    idd_matrix,
    is_lcd,
)
from sigmatau.derivations import (
    biquadratic_basis,
    biquadratic_inner,
    build_quadratic_derivation,
    cyclotomic_basis,
    cyclotomic_inner_conjectural,
    derivation_from_json,
    derivation_to_json,
    is_inner_generic,
    quadratic_inner,
)
from sigmatau.intlinalg import det_bareiss, rank_int, rref_mod_q, solve_integer, transpose
from sigmatau.rings import BiquadraticRing, CyclotomicRing, QuadraticRing

from .oracles import (
    basis_elements,
    derivation_lattice,
    derivation_law_holds,
    det_cofactor,
    first_law_failure,
    mat_mul,
    naive_min_distance,
    naive_weight_counts,
    rank_fraction,
    ring_multiply,
)
from .strategies import (
    DIFFERENTIAL,
    code_subsets,
    cyclotomic_derivations,
    derivations,
    endomorphism_pairs,
    planted_faults,
    rings,
)

# enumerations the oracles repeat in pure Python stay at or under 2^12 words
ENUMERATED = 1 << 12

CLOSED_FORM = {
    CyclotomicRing: cyclotomic_inner_conjectural,
    QuadraticRing: quadratic_inner,
    BiquadraticRing: biquadratic_inner,
}


@DIFFERENTIAL
@given(derivations(kinds=("built",)))
def test_builder_output_satisfies_the_law(drawn):
    ring, sigma, tau, d, _ = drawn
    units = basis_elements(ring.spec.rank)
    pairs = [(x, y) for x in units for y in units]
    assert derivation_law_holds(ring.spec.table, d.images, sigma.images, tau.images, pairs)


@DIFFERENTIAL
@given(derivations())
def test_closed_form_and_generic_deciders_agree(drawn):
    ring, sigma, tau, d, beta = drawn
    closed = CLOSED_FORM[type(ring)](ring, sigma, tau, d)
    generic = is_inner_generic(ring, sigma, tau, d)
    assert (closed.inner, closed.witness) == (generic.inner, generic.witness)
    if beta is not None:
        assert closed.witness == beta
    if closed.inner:
        for s, t, img in zip(sigma.images, tau.images, d.images):
            assert ring_multiply(ring.spec.table, closed.witness, sub(t, s)) == img


@DIFFERENTIAL
@given(planted_faults())
def test_planted_fault_fails_at_the_oracles_first_pair(drawn):
    # a fault in D(x) alone still gives a derivation on a rank-2 ring, where
    # any D with D(1) = 0 is one; the package must then accept it too
    ring, sigma, tau, m, _ = drawn
    want = first_law_failure(ring.spec.table, m.images, sigma.images, tau.images)
    assert derivation_failure(ring.spec, m, sigma, tau) == want
    decide = CLOSED_FORM[type(ring)]
    if want is None:
        assert decide(ring, sigma, tau, m).inner == is_inner_generic(ring, sigma, tau, m).inner
    else:
        with pytest.raises(ValueError, match=re.escape(f"law fails at basis pair {want}")):
            decide(ring, sigma, tau, m)


@DIFFERENTIAL
@given(derivations())
def test_derivation_json_round_trips(drawn):
    ring, sigma, tau, d, _ = drawn
    data = json.loads(json.dumps(derivation_to_json(ring, sigma, tau, d)))
    ring2, sigma2, tau2, d2 = derivation_from_json(data)
    assert ring2 == ring
    assert (sigma2.name, tau2.name) == (sigma.name, tau.name)
    assert (sigma2.images, tau2.images, d2.images) == (sigma.images, tau.images, d.images)


@DIFFERENTIAL
@given(rings())
def test_spec_json_round_trips(ring):
    spec = spec_from_json(json.loads(json.dumps(spec_to_json(ring.spec))))
    assert spec == ring.spec
    assert hash(spec) == hash(ring.spec)


@DIFFERENTIAL
@given(code_subsets())
@pytest.mark.filterwarnings("ignore:mod-.* rank .* is below the subset size")
def test_code_report_agrees_with_the_oracles(drawn):
    b, subset, q = drawn
    rows = [list(b.B[t - 1]) for t in subset]
    n = b.n
    if rank_fraction(rows) < len(rows):
        with pytest.raises(ValueError, match="not Z-linearly independent"):
            code_report(b, subset, q)
        return
    code = hom_idd_code(b, subset, q)
    dual = dual_code(code)
    assert code.k + dual.k == n
    if dual.k:
        gram = mat_mul(rows, transpose(dual.standard_form))
        assert all(v % q == 0 for row in gram for v in row)
    if q ** len(rows) <= ENUMERATED:
        # the distinct words the subset's rows span number q^k
        assert sum(naive_weight_counts(rows, q, n)) == q**code.k
    g = [list(r) for r in code.standard_form]
    lcd = not g or det_bareiss(mat_mul(g, transpose(g))) % q != 0
    assert is_lcd(code) == lcd
    if max(q**code.k, q**dual.k) > ENUMERATED:
        with pytest.raises(BudgetExceededError):
            code_report(b, subset, q, budget=ENUMERATED)
        return
    h = [list(r) for r in dual.standard_form]
    assert code_report(b, subset, q, budget=ENUMERATED) == CodeReport(
        label="", subset=tuple(subset), n=n, k=code.k,
        d=naive_min_distance(g, q) if g else None, lcd=lcd,
        dual_n=n, dual_k=dual.k, dual_d=naive_min_distance(h, q) if h else None,
    )


def _family_basis(ring, sigma, tau):
    """(rank, maps): the family's basis of Der for the pair. A quadratic ring
    has no basis function; its basis is the two free maps D(g) = 1, D(g) = g."""
    if isinstance(ring, QuadraticRing):
        return 2, [build_quadratic_derivation(ring, (ring.spec.zero(), e)) for e in basis_elements(2)]
    space = (cyclotomic_basis if isinstance(ring, CyclotomicRing) else biquadratic_basis)(ring, sigma, tau)
    return space.rank, space.basis_maps


@DIFFERENTIAL
@given(endomorphism_pairs(rings().filter(lambda ring: ring.spec.rank <= 6)))
def test_family_basis_is_a_z_basis_of_der(drawn):
    ring, sigma, tau = drawn
    lattice = derivation_lattice(ring.spec, sigma, tau)
    rank, maps = _family_basis(ring, sigma, tau)
    assert len(lattice) == rank == len(maps)
    # the maps' coordinates in the lattice basis; |det| = 1 means they span it
    coords = [solve_integer(transpose(lattice), [v for img in mp.images for v in img]) for mp in maps]
    assert None not in coords
    assert abs(det_cofactor(coords)) == 1


@DIFFERENTIAL
@given(cyclotomic_derivations())
def test_hom_idd_rank_has_the_closed_form(drawn):
    # with sigma(z) = z^u, tau(z) = z^w and r = w/u mod p, a nonzero D(z)
    # gives B the rank (p - 1)(1 - 1/ord_p(r)) over Q, and over GF(q) for
    # every prime q != p that does not divide the norm of D(z)
    ring, sigma, tau, d = drawn
    p, dz = ring.p, d.images[1]
    r = int(tau.name) * pow(int(sigma.name), -1, p) % p
    order = next(k for k in range(1, p) if pow(r, k, p) == 1)
    want = (p - 1) - (p - 1) // order if any(dz) else 0
    b = [list(row) for row in idd_matrix(ring, d).B]
    assert rank_int(b) == want
    norm = det_bareiss(mult_matrix(ring.spec, dz))
    for q in (2, 3, 5, 7):
        if q != p and norm % q:
            assert rref_mod_q(b, q)[1] == want
