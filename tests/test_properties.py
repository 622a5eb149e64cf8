"""Differential properties over drawn rings, endomorphism pairs and
derivations (tests/strategies.py), each against the naive oracles."""

import json
import re

import pytest
from hypothesis import given

from sigmatau.algebra import derivation_failure, sub
from sigmatau.derivations import (
    biquadratic_inner,
    cyclotomic_inner_conjectural,
    derivation_from_json,
    derivation_to_json,
    is_inner_generic,
    quadratic_inner,
)
from sigmatau.rings import BiquadraticRing, CyclotomicRing, QuadraticRing

from .oracles import basis_elements, derivation_law_holds, first_law_failure, ring_multiply
from .strategies import DIFFERENTIAL, derivations, planted_faults

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
