import hashlib
import inspect
import itertools
import random
import time
from pathlib import Path

import pytest

from sigmatau import _backend, _pykernels
from sigmatau.codes import LinearCode, min_distance
from sigmatau.derivations import biquadratic_basis, build_cyclotomic_derivation
from sigmatau.rings import endomorphisms, make_biquadratic, make_cyclotomic

from .oracles import (
    basis_elements,
    derivation_law_holds,
    gray_min_weight_gf2,
    naive_min_distance,
    naive_weight_counts,
    odometer_weight_counts,
)

compiled = pytest.mark.skipif(
    _backend.BACKEND != "compiled", reason="compiled extension not present"
)


def _histogram_min(counts):
    """Least weight of a nonzero message: 0 when one gives the zero word."""
    return next(w for w, c in enumerate(counts) if c > (w == 0))


# sha256 of the _kernels.pyx that the committed _kernels.c was generated from
PYX_SHA256 = "7efa5d7107ecf64543f0c0e9ac56501e9c039a19ae62577058b4556f1b610fce"


def test_committed_c_matches_pyx():
    src = Path(_pykernels.__file__).with_name("_kernels.pyx")
    digest = hashlib.sha256(src.read_bytes()).hexdigest()
    assert digest == PYX_SHA256, (
        "_kernels.pyx changed: regenerate _kernels.c with Cython "
        "(cython -3 src/sigmatau/_kernels.pyx), commit it, then set PYX_SHA256 "
        f"in this test to {digest}"
    )


def _random_matrix(rng, n, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]


@compiled
class TestCompiledEquivalence:
    def test_det(self):
        from sigmatau import _kernels

        rng = random.Random(61)
        for n in (1, 2, 3, 4, 6):
            for _ in range(40):
                a = _random_matrix(rng, n)
                assert _kernels.det_bareiss_i64(a) == _pykernels.det_bareiss(a)

    def test_det_row_swap_sign(self):
        from sigmatau import _kernels

        assert _kernels.det_bareiss_i64([[0, 1], [1, 0]]) == -1
        assert _kernels.det_bareiss_i64([[0, 0, 1], [1, 0, 0], [0, 1, 0]]) == 1

    def test_derivation_failure(self):
        from sigmatau import _kernels

        rng = random.Random(67)
        spec = make_cyclotomic(7).spec
        rank = spec.rank
        for _ in range(30):
            d = [tuple(rng.randint(-4, 4) for _ in range(rank)) for _ in range(rank)]
            s = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(rank)]
            t = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(rank)]
            assert _kernels.derivation_failure_i64(
                spec.table, d, s, t
            ) == _pykernels.derivation_failure(spec.table, d, s, t)


@compiled
class TestOverflowFallback:
    def test_det_overflow_raises_and_backend_recovers(self):
        from sigmatau import _kernels

        big = 1 << 62
        a = [[big, 1], [1, big]]
        with pytest.raises(OverflowError):
            _kernels.det_bareiss_i64(a)
        assert _backend.det_int(a) == big * big - 1

    def test_det_intermediate_overflow(self):
        from sigmatau import _kernels

        # entries fit in 64 bits but Bareiss intermediates do not
        a = [[1 << 31, 1], [-1, 1 << 31]]
        with pytest.raises(OverflowError):
            _kernels.det_bareiss_i64(a)
        assert _backend.det_int(a) == (1 << 62) + 1

    def test_derivation_failure_overflow(self):
        from sigmatau import _kernels

        spec = make_biquadratic(2, 3).spec
        big = 1 << 62
        d = [(0, 0, 0, 0), (big, 0, 0, 0), (0, big, 0, 0), (0, 0, big, 0)]
        ident = [spec.basis(i) for i in range(4)]
        with pytest.raises(OverflowError):
            _kernels.derivation_failure_i64(spec.table, d, ident, ident)
        assert _backend.derivation_failure(
            spec.table, d, ident, ident
        ) == _pykernels.derivation_failure(spec.table, d, ident, ident)


def _direct_weight_counts(masks, n):
    """Message-by-message histogram, dependent rows counted with multiplicity."""
    counts = [0] * (n + 1)
    for msg in range(1 << len(masks)):
        word = 0
        for b, mask in enumerate(masks):
            if msg >> b & 1:
                word ^= mask
        counts[bin(word).count("1")] += 1
    return counts


def _rows(masks, n):
    return [[mask >> c & 1 for c in range(n)] for mask in masks]


class TestBitSlicedWeights:
    """weight_counts_gf2 counts every one of the 2**k messages, zero included."""

    def _cases(self):
        rng = random.Random(89)
        cases = [([1], 1), ([0], 1), ([1, 1], 1), ([0b1011], 4)]
        cases += [([1 << i for i in range(n)], n) for n in (1, 5, 10)]  # k = n
        for _ in range(60):
            n = rng.randint(1, 18)
            k = rng.randint(1, min(n, 10))
            masks = [rng.getrandbits(n) for _ in range(k)]
            kind = rng.randrange(4)
            if kind == 1:  # a zero column
                c = rng.randrange(n)
                masks = [m & ~(1 << c) for m in masks]
            elif kind == 2 and n > 1:  # a repeated column
                a, b = rng.sample(range(n), 2)
                masks = [m & ~(1 << b) | (m >> a & 1) << b for m in masks]
            elif kind == 3 and k > 2:  # a dependent row
                masks[-1] = masks[0] ^ masks[1]
            cases.append((masks, n))
        return cases

    def test_matches_naive_weight_counts(self):
        for masks, n in self._cases():
            counts = _pykernels.weight_counts_gf2(masks, n)
            assert sum(counts) == 1 << len(masks)
            # naive_weight_counts lists distinct words; each is hit 2^(k - rank) times
            distinct = naive_weight_counts(_rows(masks, n), 2, n)
            repeat = (1 << len(masks)) // sum(distinct)
            assert counts == [c * repeat for c in distinct], (masks, n)

    def test_minimum_matches_walk_across_block_boundary(self):
        # one block holds 2^14 messages; k = 15 and 20 step the high rows
        rng = random.Random(97)
        for k, n in ((13, 20), (14, 21), (15, 24), (20, 26)):
            masks = [rng.getrandbits(n) for _ in range(k)]
            counts = _pykernels.weight_counts_gf2(masks, n)
            assert sum(counts) == 1 << k
            best = gray_min_weight_gf2(masks, 1, (1 << k) - 1)
            assert _histogram_min(counts) == best

    def test_block_boundary_matches_direct_histogram(self):
        rng = random.Random(101)
        masks = [rng.getrandbits(9) for _ in range(15)]
        assert _pykernels.weight_counts_gf2(masks, 9) == _direct_weight_counts(masks, 9)

    def test_wide_code(self):
        rng = random.Random(103)
        masks = [rng.getrandbits(70) for _ in range(8)]
        assert _pykernels.weight_counts_gf2(masks, 70) == _direct_weight_counts(masks, 70)
        masks = [rng.getrandbits(70) for _ in range(16)]
        counts = _pykernels.weight_counts_gf2(masks, 70)
        assert sum(counts) == 1 << 16
        best = gray_min_weight_gf2(masks, 1, (1 << 16) - 1)
        assert _histogram_min(counts) == best
        code = LinearCode(2, 70, _rows(masks, 70))
        assert code.k == 16
        assert min_distance(code) == best

    def test_nonzero_message_giving_zero_word(self):
        # a dependent row: the walk and the histogram both report weight 0
        masks = [0b0110, 0b1100, 0b1010]
        counts = _pykernels.weight_counts_gf2(masks, 4)
        assert counts[0] == 2
        assert _histogram_min(counts) == 0 == gray_min_weight_gf2(masks, 1, 7)

    def test_memory_is_bounded_by_the_block(self):
        import tracemalloc

        rng = random.Random(107)
        masks = [rng.getrandbits(30) for _ in range(20)]
        tracemalloc.start()
        try:
            _pykernels.weight_counts_gf2(masks, 30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024


def _first_oracle_failure(table, d, s, t):
    """First row-major basis pair at which the oracle's law check fails."""
    units = basis_elements(len(table))
    for i, x in enumerate(units):
        for j, y in enumerate(units):
            if not derivation_law_holds(table, d, s, t, [(x, y)]):
                return (i, j)
    return None


def _planted_faults(rng, images):
    """One copy of images per basis element, with one coordinate of its image changed."""
    for k in range(len(images)):
        bad = [list(im) for im in images]
        bad[k][rng.randrange(len(bad[k]))] += rng.choice((-2, -1, 1, 3))
        yield [tuple(im) for im in bad]


class TestPureLawKernel:
    """The pure kernel against the oracle law check, on derivations with one
    planted fault: both must name the same first failing basis pair."""

    def _check(self, rng, spec, d):
        s, t = d.sigma.images, d.tau.images
        assert _pykernels.derivation_failure(spec.table, d.images, s, t) is None
        found = 0
        for bad in _planted_faults(rng, d.images):
            got = _pykernels.derivation_failure(spec.table, bad, s, t)
            assert got == _first_oracle_failure(spec.table, bad, s, t)
            found += got is not None
        return found

    def test_planted_faults_cyclotomic(self):
        rng = random.Random(89)
        for p in (3, 5, 7, 11):
            ring = make_cyclotomic(p)
            endos = endomorphisms(ring)
            found = 0
            for _ in range(4):
                sigma, tau = rng.sample(endos, 2)
                seed = [rng.randint(-5, 5) for _ in range(p - 1)]
                d = build_cyclotomic_derivation(ring, sigma, tau, seed)
                found += self._check(rng, ring.spec, d)
            assert found > 0

    def test_planted_faults_biquadratic(self):
        rng = random.Random(97)
        for m, n in ((2, 3), (-1, 2), (5, 6), (6, 10), (-2, 5)):
            ring = make_biquadratic(m, n)
            endos = endomorphisms(ring)
            found = 0
            for sigma in endos:
                for tau in endos:
                    if sigma.images != tau.images:
                        for d in biquadratic_basis(ring, sigma, tau).basis_maps:
                            found += self._check(rng, ring.spec, d)
            assert found > 0

    def test_law_failure_names_the_first_failing_pair_in_the_given_order(self):
        rng = random.Random(101)
        ring = make_cyclotomic(7)
        table, n = ring.spec.table, ring.spec.rank
        sigma, tau = endomorphisms(ring)[1:3]
        d = build_cyclotomic_derivation(ring, sigma, tau, [1, 0, 2, 0, -1, 3])
        s, t = sigma.images, tau.images
        units = basis_elements(n)
        pairs = list(itertools.product(range(n), repeat=2))
        for bad in _planted_faults(rng, d.images):
            failing = {
                (i, j) for i, j in pairs
                if not derivation_law_holds(table, bad, s, t, [(units[i], units[j])])
            }
            assert len(failing) > 1
            rng.shuffle(pairs)
            first = next(pair for pair in pairs if pair in failing)
            assert _pykernels._law_failure(table, bad, s, t, iter(pairs)) == first
            passing = [pair for pair in pairs if pair not in failing]
            assert _pykernels._law_failure(table, bad, s, t, passing) is None


class TestBackendContract:
    def test_backend_label(self):
        assert _backend.BACKEND in ("compiled", "pure")

    def test_pure_kernels_public_names(self):
        # perfbench's tracer wraps every public function here that _backend does
        # not dispatch to; the shared product must stay private, or each product
        # inside a law check would become a span of its own
        public = {
            name for name, obj in vars(_pykernels).items()
            if not name.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == _pykernels.__name__
        }
        assert public == {"det_bareiss", "derivation_failure", "weight_counts_gf2", "weight_counts_modq"}

    def test_backend_public_names(self):
        # perfbench's tracer wraps every public function here; only the
        # determinant and the law check have compiled kernels to dispatch to
        public = {
            name for name, obj in vars(_backend).items()
            if not name.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == _backend.__name__
        }
        assert public == {"det_int", "derivation_failure"}

    def test_det_matches_pure_always(self):
        rng = random.Random(73)
        for _ in range(25):
            a = _random_matrix(rng, 4)
            assert _backend.det_int(a) == _pykernels.det_bareiss(a)

    def test_gray_walk_matches_direct_expansion(self):
        rng = random.Random(79)
        for k in (1, 2, 4, 6):
            masks = [rng.getrandbits(10) for _ in range(k)]
            best = None
            for msg in range(1, 1 << k):
                word = 0
                for b in range(k):
                    if (msg >> b) & 1:
                        word ^= masks[b]
                w = bin(word).count("1")
                best = w if best is None or w < best else best
            assert gray_min_weight_gf2(masks, 1, (1 << k) - 1) == best
            assert _histogram_min(_pykernels.weight_counts_gf2(masks, 10)) == best

    def test_gray_walk_empty_range(self):
        assert gray_min_weight_gf2([3], 1, 0) is None

    def test_gray_walk_partial_range(self):
        # a range that starts mid-walk must agree with slicing the full walk
        masks = [0b1011, 0b0110, 0b1100]
        weights = []
        for msg in range(1, 8):
            gray = msg ^ (msg >> 1)
            word = 0
            for b in range(3):
                if (gray >> b) & 1:
                    word ^= masks[b]
            weights.append(bin(word).count("1"))
        for start in range(1, 8):
            for stop in range(start, 8):
                assert gray_min_weight_gf2(masks, start, stop) == min(weights[start - 1 : stop])

    def test_modq_counts_small_code(self):
        rows = [[1, 2, 0], [0, 1, 1]]
        counts = _pykernels.weight_counts_modq(rows, 3, 3)
        assert sum(counts) == 9
        assert counts[0] == 1
        assert naive_min_distance(rows, 3) == min(w for w in range(1, 4) if counts[w])

    def test_modq_matches_naive(self):
        # the kernel and the odometer count all q^k messages; the naive oracle
        # counts distinct words, each of which q^(k - rank) messages reach
        rng = random.Random(113)
        for q in (3, 5, 7):
            for k in range(5):
                for _ in range(4):
                    n = rng.randint(1, 6)
                    rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
                    if k >= 2:
                        rows[-1] = [(2 * a + b) % q for a, b in zip(rows[0], rows[1])]
                    if k >= 3:
                        rows[1] = [0] * n
                    want = naive_weight_counts(rows, q, n)
                    reach = q ** k // sum(want)
                    got = _pykernels.weight_counts_modq([tuple(r) for r in rows], q, n)
                    assert got == [c * reach for c in want]
                    assert odometer_weight_counts(rows, q, n) == got


def _planted_modq_rows(rng, q, k, n):
    """Random rows mod q with the shapes the bit-sliced kernel special-cases:
    column 0 is zero on every row but the last, so the low rows never touch
    it; the second-to-last row repeats the first, one row is a combination
    of two others and one is zero. Past one block the last rows are high."""
    rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
    if k >= 3:
        rows[-2] = list(rows[0])
    if k >= 4:
        rows[k // 2] = [(a + (q - 1) * b) % q for a, b in zip(rows[1], rows[2])]
    if k >= 5:
        rows[3] = [0] * n
    if n and k:
        for row in rows:
            row[0] = 0
        rows[-1][0] = 1
    return rows


class TestModqBitSliced:
    """The bit-sliced GF(q) histogram against the base-q odometer."""

    def test_matches_odometer_within_one_block(self):
        rng = random.Random(131)
        for q in (3, 5, 7):
            for k in range(6):
                for _ in range(3):
                    n = rng.randint(0, 20)
                    rows = _planted_modq_rows(rng, q, k, n)
                    want = odometer_weight_counts(rows, q, n)
                    assert _pykernels.weight_counts_modq(rows, q, n) == want

    # q^k > 2^14 in each case, so the high rows step through several blocks
    @pytest.mark.parametrize(
        "q, k, n", [(3, 9, 20), (3, 10, 16), (3, 11, 12), (5, 7, 14), (7, 5, 20), (7, 6, 10)]
    )
    def test_matches_odometer_past_one_block(self, q, k, n):
        rng = random.Random(q * 100 + k)
        rows = _planted_modq_rows(rng, q, k, n)
        assert _pykernels.weight_counts_modq(rows, q, n) == odometer_weight_counts(rows, q, n)

    # past q = 128, q^2 > 2^14 and the last row stays out of the lanes
    @pytest.mark.parametrize("q, k", [(131, 1), (131, 2), (1009, 1)])
    def test_large_q_matches_naive(self, q, k):
        rng = random.Random(q * 10 + k)
        rows = _planted_modq_rows(rng, q, k, 9)
        want = naive_weight_counts(rows, q, 9)
        reach = q ** k // sum(want)
        assert _pykernels.weight_counts_modq(rows, q, 9) == [c * reach for c in want]

    def test_one_row_at_q4093_is_fast(self):
        # packing its one row into q lanes would build n q^2 bits of masks,
        # tens of seconds pure
        rng = random.Random(4093)
        rows = [[rng.randrange(4093) for _ in range(16)]]
        start = time.perf_counter()
        counts = _pykernels.weight_counts_modq(rows, 4093, 16)
        assert time.perf_counter() - start < 5.0
        assert counts == naive_weight_counts(rows, 4093, 16)
