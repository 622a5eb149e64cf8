import hashlib
import random
from pathlib import Path

import pytest

from sigmatau import _backend, _pykernels
from sigmatau.rings import make_biquadratic, make_cyclotomic

compiled = pytest.mark.skipif(
    _backend.BACKEND != "compiled", reason="compiled extension not present"
)


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

    def test_min_weight(self):
        from sigmatau import _kernels

        rng = random.Random(71)
        for k in (1, 3, 6, 10):
            masks = [rng.getrandbits(16) for _ in range(k)]
            stop = (1 << k) - 1
            assert _kernels.min_weight_gf2_u64(
                masks, 1, stop
            ) == _pykernels.min_weight_gf2(masks, 1, stop)


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

    def test_wide_mask_set_uses_pure_path(self):
        # 63 rows exceed the compiled kernel's 62-bit message window
        masks = [1 << i for i in range(63)]
        assert _backend.min_weight_gf2(masks, 1, 100) == 1


class TestBackendContract:
    def test_backend_label(self):
        assert _backend.BACKEND in ("compiled", "pure")

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
            assert _pykernels.min_weight_gf2(masks, 1, (1 << k) - 1) == best
            assert _backend.min_weight_gf2(masks, 1, (1 << k) - 1) == best

    def test_gray_walk_empty_range(self):
        assert _pykernels.min_weight_gf2([3], 1, 0) is None

    def test_gray_walk_partial_range(self):
        # a shard that starts mid-walk must agree with slicing the full walk
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
                assert _pykernels.min_weight_gf2(masks, start, stop) == min(
                    weights[start - 1 : stop]
                )

    def test_modq_odometer_counts(self):
        rows = [[1, 2, 0], [0, 1, 1]]
        counts = _pykernels.weight_counts_modq(rows, 3, 3)
        assert sum(counts) == 9
        assert counts[0] == 1
        assert _pykernels.min_weight_modq(rows, 3) == min(
            w for w in range(1, 4) if counts[w]
        )
