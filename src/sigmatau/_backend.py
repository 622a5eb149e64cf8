"""Kernel selection: compiled extension when importable, pure Python otherwise.

Set SIGMATAU_PURE=1 in the environment to force the pure backend. Every
compiled kernel raises OverflowError when its fixed-width arithmetic cannot
hold the inputs, and the wrappers here retry with the pure twin; results
never depend on which backend ran. Only the determinant and the law check
have compiled kernels: minimum distances and weight distributions are
always the pure histogram's.
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

