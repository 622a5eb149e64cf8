"""Differential properties over drawn rings, endomorphism pairs,
derivations and code subsets (tests/strategies.py), each against the naive
oracles."""

import json
import re

import pytest
from hypothesis import given

from sigmatau.algebra import derivation_failure, spec_from_json, spec_to_json, sub
from sigmatau.codes import BudgetExceededError, CodeReport, code_report, dual_code, hom_idd_code, is_lcd
from sigmatau.derivations import (
    biquadratic_inner,
    cyclotomic_inner_conjectural,
    derivation_from_json,
    derivation_to_json,
    is_inner_generic,
    quadratic_inner,
)
from sigmatau.intlinalg import det_bareiss, transpose
from sigmatau.rings import BiquadraticRing, CyclotomicRing, QuadraticRing

from .oracles import (
    basis_elements,
    derivation_law_holds,
    first_law_failure,
    mat_mul,
    naive_min_distance,
    naive_weight_counts,
    rank_fraction,
    ring_multiply,
)
from .strategies import DIFFERENTIAL, code_subsets, derivations, planted_faults, rings

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
