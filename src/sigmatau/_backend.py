"""Kernel selection: compiled extension when importable, pure Python otherwise.

Set SIGMATAU_PURE=1 in the environment to force the pure backend. Every
compiled kernel raises OverflowError when its fixed-width arithmetic cannot
hold the inputs, and the wrappers here retry with the pure twin, so results
never depend on which backend ran.
"""

from __future__ import annotations

import os

from . import _pykernels

if os.environ.get("SIGMATAU_PURE"):
    _kernels = None
else:
    try:
        from . import _kernels  # type: ignore[attr-defined]
    except ImportError:
        _kernels = None

BACKEND = "compiled" if _kernels is not None else "pure"


def det_int(rows) -> int:
    if _kernels is not None:
        try:
            return _kernels.det_bareiss_i64(rows)
        except OverflowError:
            pass
    return _pykernels.det_bareiss(rows)


def derivation_failure(table, d, sig, tau):
    if _kernels is not None:
        try:
            return _kernels.derivation_failure_i64(table, d, sig, tau)
        except OverflowError:
            pass
    return _pykernels.derivation_failure(table, d, sig, tau)


def min_weight_gf2(masks, n: int):
    """Minimum weight over the codewords of all nonzero messages; None for k = 0.

    masks[b] is generator row b as a bitmask of the n columns. A nonzero
    message that gives the zero word makes the answer 0.
    """
    k = len(masks)
    if k == 0:
        return None
    if _kernels is not None:
        try:
            return _kernels.min_weight_gf2_u64(masks, 1, (1 << k) - 1)
        except OverflowError:
            pass
    counts = _pykernels._weight_counts_gf2(masks, n)
    if counts[0] > 1:
        return 0
    return next(w for w in range(1, n + 1) if counts[w])
