"""Hypothesis strategies shared by the differential tests.

A differential test checks a fast path against the slow path kept as its
reference. Each one runs under DIFFERENTIAL: derandomized, with a fixed
number of examples and no deadline, so the suite draws the same examples on
every run and stays inside its time on the pure backend.
"""

from __future__ import annotations

from functools import lru_cache

from hypothesis import settings
from hypothesis import strategies as st

from sigmatau.algebra import Derivation, LinearMap
from sigmatau.codes import idd_matrix
from sigmatau.derivations import (
    build_biquadratic_derivation,
    build_cyclotomic_derivation,
    build_quadratic_derivation,
    inner_derivation,
)
from sigmatau.rings import (
    CyclotomicRing,
    QuadraticRing,
    endomorphisms,
    make_biquadratic,
    make_cyclotomic,
    make_quadratic,
)

from .oracles import is_square_free_trial

DIFFERENTIAL = settings(derandomize=True, max_examples=300, deadline=None)

CYCLOTOMIC_PRIMES = (3, 5, 7, 11, 13)
QUADRATIC_DS = tuple(d for d in range(-50, 51) if d not in (0, 1) and is_square_free_trial(d))
# the ten biquadratic rings of the acceptance criteria
BIQUADRATIC_PAIRS = (
    (2, 3), (2, 5), (3, 5), (2, 7), (5, 6),
    (6, 10), (-1, 2), (-1, 3), (-2, 5), (3, 7),
)


# each ring is built once per session, and its endomorphisms listed once
_cyclotomic, _quadratic, _biquadratic = (
    lru_cache(maxsize=None)(make) for make in (make_cyclotomic, make_quadratic, make_biquadratic)
)
_endomorphisms = lru_cache(maxsize=None)(endomorphisms)


def cyclotomic_rings():
    """Z[z_p] for p <= 13."""
    return st.sampled_from(CYCLOTOMIC_PRIMES).map(_cyclotomic)


def rings():
    """Z[z_p] for p <= 13, a square-free quadratic d in [-50, 50], or one of
    the ten biquadratic rings."""
    return st.one_of(
        cyclotomic_rings(),
        st.sampled_from(QUADRATIC_DS).map(_quadratic),
        st.sampled_from(BIQUADRATIC_PAIRS).map(lambda mn: _biquadratic(*mn)),
    )


@st.composite
def endomorphism_pairs(draw, ring_strategy=None):
    """(ring, sigma, tau): two distinct endomorphisms of a ring drawn from
    ring_strategy, rings() by default."""
    ring = draw(rings() if ring_strategy is None else ring_strategy)
    endos = _endomorphisms(ring)
    i = draw(st.integers(0, len(endos) - 1))
    j = draw(st.integers(0, len(endos) - 2))
    return ring, endos[i], endos[j + (j >= i)]


def _coords(rank: int):
    return st.tuples(*[st.integers(-9, 9)] * rank)


def _built(ring, sigma, tau, free) -> Derivation:
    """The family's builder at free data of the ring's rank."""
    if isinstance(ring, CyclotomicRing):
        return build_cyclotomic_derivation(ring, sigma, tau, free)
    if isinstance(ring, QuadraticRing):
        # any D with D(1) = 0 is a derivation here, for either ordering
        lm = build_quadratic_derivation(ring, (ring.spec.zero(), free))
        return Derivation(ring.spec, lm.images, sigma, tau)
    return build_biquadratic_derivation(ring, sigma, tau, free)


@st.composite
def derivations(draw, kinds=("built", "inner")):
    """(ring, sigma, tau, D, beta): D is builder output for drawn free data
    (beta None), or x -> beta (tau - sigma)(x) for a planted beta."""
    kind = draw(st.sampled_from(kinds))
    ring, sigma, tau = draw(endomorphism_pairs())
    data = draw(_coords(ring.spec.rank))
    if kind == "inner":
        return ring, sigma, tau, inner_derivation(ring.spec, sigma, tau, data), data
    return ring, sigma, tau, _built(ring, sigma, tau, data), None


@st.composite
def planted_faults(draw):
    """(ring, sigma, tau, M, (i, r, delta)): a derivation's images with
    coordinate r of D(e_i) moved by delta != 0, as a plain LinearMap."""
    ring, sigma, tau, d, _ = draw(derivations())
    rank = ring.spec.rank
    i, r = draw(st.integers(0, rank - 1)), draw(st.integers(0, rank - 1))
    delta = draw(st.integers(-3, 3).filter(bool))
    images = [list(img) for img in d.images]
    images[i][r] += delta
    return ring, sigma, tau, LinearMap(ring.spec, images), (i, r, delta)


@st.composite
def generator_matrices(draw, primes=(2, 3, 5), max_n: int = 12):
    """(q, n, rows): from 0 to n generator rows of length n over GF(q).

    Entries are integers in [-q, 2q), so each residue comes as a negative,
    a reduced and an unreduced representative. A row may be zero or repeat
    an earlier row, so the rows need not be independent.
    """
    q = draw(st.sampled_from(primes))
    n = draw(st.integers(0, max_n))
    row = st.lists(st.integers(-q, 2 * q - 1), min_size=n, max_size=n)
    rows: list[list[int]] = []
    for _ in range(draw(st.integers(0, n))):
        kind = draw(st.sampled_from(("drawn", "zero", "repeat")))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append(draw(row))
    return q, n, rows


@st.composite
def square_matrices(draw, max_n: int = 10):
    """A square integer matrix of size 0..max_n with entries in [-9, 9], of
    one of four kinds: dense; sparse, at least 70 % zeros; singular, one row
    a combination of others or zero; and leading, with a zero or negative
    top-left entry and a run of zeros atop the first column, so the first
    steps swap rows or pivot on a negative."""
    n = draw(st.integers(0, max_n))
    kind = draw(st.sampled_from(("dense", "sparse", "singular", "leading")))
    entry = st.integers(-9, 9)
    if kind == "sparse":
        a = [[0] * n for _ in range(n)]
        cells = st.integers(0, n * n - 1) if n else st.nothing()
        for c in draw(st.lists(cells, max_size=3 * n * n // 10, unique=True)):
            a[c // n][c % n] = draw(entry.filter(bool))
        return a
    a = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if kind == "singular" and n:
        i = draw(st.integers(0, n - 1))
        others = [r for r in range(n) if r != i]
        if others:
            picked = draw(st.lists(st.sampled_from(others), min_size=1, max_size=2, unique=True))
            coeffs = [draw(st.integers(-2, 2)) for _ in picked]
            a[i] = [sum(c * a[r][j] for c, r in zip(coeffs, picked)) for j in range(n)]
        else:
            a[i] = [0]
    elif kind == "leading" and n:
        for r in range(draw(st.integers(0, n - 1))):
            a[r][0] = 0
        if a[0][0] > 0:
            a[0][0] = -a[0][0]
    return a


@st.composite
def cyclotomic_derivations(draw):
    """(ring, sigma, tau, D): the builder derivation of Z[z_p], p <= 13, at a
    drawn D(z), which may be zero."""
    ring, sigma, tau = draw(endomorphism_pairs(cyclotomic_rings()))
    return ring, sigma, tau, build_cyclotomic_derivation(ring, sigma, tau, draw(_coords(ring.spec.rank)))


@st.composite
def code_subsets(draw):
    """(B, T, q): the IDD matrix B of a builder derivation of Z[z_p], p <= 13,
    a nonempty set T of its 1-based row indices, and q in {2, 3, 5}.

    Row 1 holds D(1) = 0. It joins about one T in five, which makes T
    Z-linearly dependent; other rows may be dependent too, and an
    independent T may still lose rank mod q.
    """
    ring, _, _, d = draw(cyclotomic_derivations())
    b = idd_matrix(ring, d)
    subset = draw(st.lists(st.integers(2, b.n), min_size=1, max_size=b.n - 1, unique=True))
    if draw(st.integers(0, 4)) == 0:
        subset.insert(draw(st.integers(0, len(subset))), 1)
    return b, subset, draw(st.sampled_from((2, 3, 5)))
