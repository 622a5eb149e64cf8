"""Linear codes from derivation images over prime fields.

Pipeline: a derivation D of a rank-n ring gives the n x n integer matrix B
whose row i holds the coordinates of D applied to the i-th basis element;
a subset T of rows that is Z-linearly independent is reduced entrywise mod a
prime q and spans the code. Each code is eliminated once, when it is built,
to its unique rref (standard_form), whose rank is the dimension. The dual
has one generator per free column of that form, and only the dual's own
construction eliminates again. A code is LCD iff its
Gram matrix G G^T has full rank k over GF(q), on every field (Massey, 1992).
Minimum distance comes from exhaustive codeword enumeration.

Over GF(2) every row is an int bit mask, bit c holding coordinate c, from
the generator rows onward: rref is one XOR pass over the masks, the dual's
generators are masks read off the pivots, the Gram entries are parities of
popcounts of ANDed rows and its rank is found by XOR, and the enumeration
kernels take the masks as they are. Over GF(q > 2) rows stay lists: the
code's rref and the Gram rank are intlinalg.rref_mod_q's, and the dual's
words are intlinalg.nullspace_mod_q's on the standard form, whose rref pass
finds that form already reduced.

Enumeration is exact and refused up front, with BudgetExceededError, when
q^k exceeds the codeword budget. The pure backend builds one weight
histogram per code, bit-sliced: each bit of a big int is one message's
coordinate, so one integer operation advances up to 2^14 codewords, and a
ripple counter of bit planes yields the exact counts (over GF(q > 2) each
column keeps q one-hot lane masks, one per residue). The histogram is
cached with the minimum distance read off it, so a code is enumerated once
whichever of the two is asked for first. The only other path is the
compiled Gray walk, which gives a GF(2) minimum without a histogram.
"""

from __future__ import annotations

import csv
import importlib.resources
import io
import json
import operator
import warnings
from dataclasses import dataclass

from . import _backend, _pykernels, intlinalg
from .algebra import Coords, _images_of
from .derivations import build_cyclotomic_derivation
from .rings import endomorphism_by_name, make_cyclotomic

DEFAULT_BUDGET = 1 << 24


class BudgetExceededError(RuntimeError, ValueError):
    """Exhaustive enumeration would exceed the configured codeword budget;
    a ValueError too, since the input asks for more than the budget allows."""


@dataclass(frozen=True, slots=True)
class IddMatrix:
    """Rows of ring-basis coordinates of D(basis element), one per element."""

    B: tuple[Coords, ...]

    @property
    def n(self) -> int:
        return len(self.B)


def idd_matrix(ring, D) -> IddMatrix:
    return IddMatrix(_images_of(D, ring.spec))


def _subset(B: IddMatrix, T) -> tuple[int, ...]:
    # 1-based row indices; a float or other non-integer raises TypeError
    idx = tuple(map(operator.index, T))
    for t in idx:
        if not 1 <= t <= B.n:
            raise ValueError(f"row index {t} outside 1..{B.n}")
    return idx


def independent_subset_check(B: IddMatrix, T) -> bool:
    """True iff the selected rows are linearly independent over the rationals."""
    idx = _subset(B, T)
    if len(set(idx)) < len(idx):
        return False
    return intlinalg.rank_int([B.B[t - 1] for t in idx]) == len(idx)


def omega_reduce(m, q: int) -> list[list[int]]:
    """Entrywise reduction into [0, q), q prime."""
    intlinalg._require_prime(q)
    # a float or other non-integer entry raises TypeError
    return [[operator.index(v) % q for v in row] for row in m]


class LinearCode:
    """Code over GF(q) spanned by generator rows; rref and rank are eager,
    distance and weight distribution are computed on demand and cached.

    Over GF(2) the reduced rows are also kept as bit masks (bit c holds
    coordinate c), which the dual, the LCD test and the enumerations read.
    """

    __slots__ = ("q", "n", "standard_form", "k", "_masks", "_d", "_wd")

    def __init__(self, q: int, n: int, generator):
        intlinalg._require_prime(q)
        # a float or other non-integer entry raises TypeError
        rows = [list(map(operator.index, row)) for row in generator]
        for row in rows:
            if len(row) != n:
                raise ValueError("generator rows must have the code length")
        self.q = q
        self.n = n
        self._d: int | None = None
        self._wd: tuple[int, ...] | None = None
        if q == 2:
            self._reduce_gf2(map(_row_mask, rows))
        else:
            red, rank, _ = intlinalg.rref_mod_q(rows, q)
            self.standard_form = tuple(tuple(r) for r in red[:rank])
            self.k = rank
            self._masks = None

    def _reduce_gf2(self, masks) -> None:
        self._masks = tuple(_rref_gf2(masks))
        self.standard_form = tuple(_mask_row(m, self.n) for m in self._masks)
        self.k = len(self._masks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearCode):
            return NotImplemented
        return (self.q, self.n, self.standard_form) == (other.q, other.n, other.standard_form)

    def __hash__(self) -> int:
        return hash((self.q, self.n, self.standard_form))

    def __repr__(self) -> str:
        return f"LinearCode([{self.n},{self.k}] over GF({self.q}))"


def _row_mask(row) -> int:
    """Bit mask of a row of integers mod 2: bit c holds coordinate c."""
    m = 0
    for v in reversed(row):
        m = m << 1 | (v & 1)
    return m


# ASCII "0" and "1" to the bytes 0 and 1
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _mask_row(m: int, n: int) -> tuple[int, ...]:
    """Coordinates 0..n-1 of a mask: its n binary digits, lowest first."""
    return tuple(format(m, f"0{n}b")[::-1].encode().translate(_DIGITS))


def _rref_gf2(masks) -> list[int]:
    """Reduced row echelon form over GF(2) of rows given as bit masks.

    Each kept row's pivot is its lowest set bit, and no other row holds that
    bit; the rows come back sorted by pivot, zero rows dropped. One XOR pass:
    each new row is cleared of the kept pivots, then its own pivot is cleared
    from the kept rows.
    """
    rows: list[int] = []
    for m in masks:
        for r in rows:
            if m & (r & -r):
                m ^= r
        if m:
            low = m & -m
            rows = [r ^ m if r & low else r for r in rows]
            rows.append(m)
    rows.sort(key=lambda r: r & -r)
    return rows


def hom_idd_code(B: IddMatrix, T, q: int) -> LinearCode:
    """Code spanned mod q by the selected rows of B.

    T must be Z-linearly independent (error otherwise); losing rank mod q is
    legitimate and only warns, with the rref rank as the code dimension.
    Rows independent mod q are independent over Z, so the Z-rank is computed
    only when the mod-q rank falls short.
    """
    idx = _subset(B, T)
    code = LinearCode(q, B.n, [B.B[t - 1] for t in idx])
    if code.k < len(idx):
        if not independent_subset_check(B, idx):
            raise ValueError("selected rows are not Z-linearly independent")
        warnings.warn(
            f"mod-{q} rank {code.k} is below the subset size {len(idx)}",
            stacklevel=2,
        )
    return code


def _check_budget(code: LinearCode, budget: int) -> None:
    total = code.q ** code.k
    if total > budget:
        raise BudgetExceededError(
            f"enumerating {total} codewords exceeds the budget of {budget}"
        )


def min_distance(code: LinearCode, budget: int = DEFAULT_BUDGET) -> int:
    """Minimum Hamming weight over all q^k - 1 nonzero codewords, exhaustively.

    Never approximates: when q^k exceeds the budget the enumeration is
    refused with BudgetExceededError. A GF(2) code runs the compiled Gray
    walk when the extension is built and its masks fit; otherwise the
    minimum is read off weight_distribution's histogram, which caches both.
    """
    if code.k < 1:
        raise ValueError("minimum distance of the zero code is undefined")
    if code._d is None:
        _check_budget(code, budget)
        if code.q == 2:
            code._d = _backend.min_weight_gf2(code._masks)
        if code._d is None:
            weight_distribution(code, budget)
    return code._d


def weight_distribution(code: LinearCode, budget: int = DEFAULT_BUDGET) -> tuple[int, ...]:
    """Counts of codewords by Hamming weight, indices 0..n, zero word included.

    Every one of the q^k codewords is enumerated, bit-sliced over every
    field, so the budget refuses the same codes as min_distance. The
    minimum distance read off the counts fills min_distance's cache, or is
    cross-checked against it when the compiled walk filled it first.
    """
    if code._wd is not None:
        return code._wd
    _check_budget(code, budget)
    if code.q == 2:
        counts = _pykernels.weight_counts_gf2(code._masks, code.n)
    else:
        counts = _pykernels.weight_counts_modq(code.standard_form, code.q, code.n)
    wd = tuple(counts)
    if code.k >= 1:
        d = next(w for w in range(1, code.n + 1) if wd[w])
        if code._d not in (None, d):
            raise AssertionError("weight distribution disagrees with the Gray walk")
        code._d = d
    code._wd = wd
    return wd


def dual_code(code: LinearCode) -> LinearCode:
    """Orthogonal complement; dimensions always satisfy k + dual k == n.

    Over GF(2) the null basis is read off the pivots of the masks: each free
    column f gives the word with 1 at f and at the pivot of each row holding
    f. Over GF(q > 2) it is nullspace_mod_q of the standard form, whose rref
    pass finds that form already reduced; the zero code stands in as one
    zero row, so its dual is all of GF(q)^n.
    """
    q, n = code.q, code.n
    if q == 2:
        masks = code._masks
        pivots = sum(m & -m for m in masks)
        free = [1 << f for f in range(n) if not pivots >> f & 1]
        dual = LinearCode(2, n, ())
        dual._reduce_gf2([f | sum(m & -m for m in masks if m & f) for f in free])
        return dual
    return LinearCode(q, n, intlinalg.nullspace_mod_q(code.standard_form or [[0] * n], q))


def is_lcd(code: LinearCode) -> bool:
    """True iff the code meets its dual only in 0: G G^T has rank k over GF(q).

    Over GF(2) the Gram matrix is built on masks, entry (i, j) being the
    parity of the number of coordinates where rows i and j both hold 1, and
    its rank is found by XOR; over GF(q > 2) it is rref_mod_q's.
    """
    if code.q == 2:
        g = code._masks
        gram = [sum(((a & b).bit_count() & 1) << j for j, b in enumerate(g)) for a in g]
        return len(_rref_gf2(gram)) == code.k
    g = code.standard_form
    gram = [[sum(map(operator.mul, a, b)) for b in g] for a in g]
    return intlinalg.rref_mod_q(gram, code.q)[1] == code.k


@dataclass(frozen=True, slots=True)
class CodeReport:
    label: str
    subset: tuple[int, ...]
    n: int
    k: int
    d: int | None
    lcd: bool
    dual_n: int
    dual_k: int
    dual_d: int | None


def code_report(
    B: IddMatrix, T, q: int, label: str = "", budget: int = DEFAULT_BUDGET
) -> CodeReport:
    """[n,k,d] + LCD flag + dual [n,k,d] for one subset selection."""
    subset = _subset(B, T)
    code = hom_idd_code(B, subset, q)
    dual = dual_code(code)
    d = min_distance(code, budget) if code.k else None
    dual_d = min_distance(dual, budget) if dual.k else None
    return CodeReport(
        label=label,
        subset=subset,
        n=code.n,
        k=code.k,
        d=d,
        lcd=is_lcd(code),
        dual_n=dual.n,
        dual_k=dual.k,
        dual_d=dual_d,
    )


def report_to_json(report: CodeReport) -> dict:
    out = {
        "subset": list(report.subset),
        "n": report.n,
        "k": report.k,
        "d": report.d,
        "lcd": report.lcd,
        "dual": {"n": report.dual_n, "k": report.dual_k, "d": report.dual_d},
    }
    if report.label:
        out["label"] = report.label
    return out


_REPORT_COLUMNS = ("subset", "n", "k", "d", "lcd", "dual_n", "dual_k", "dual_d")


def _render_d(d: int | None) -> str:
    return "—" if d is None else str(d)


def _report_cells(r: CodeReport) -> list[str]:
    """One report as the cells of _REPORT_COLUMNS, shared by CSV and the CLI table."""
    return [
        r.label or " ".join(str(t) for t in r.subset),
        str(r.n),
        str(r.k),
        _render_d(r.d),
        "LCD" if r.lcd else "non-LCD",
        str(r.dual_n),
        str(r.dual_k),
        _render_d(r.dual_d),
    ]


def reports_csv(reports) -> str:
    """CSV mirror of the reference table layout, quoted where a cell needs it."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([_REPORT_COLUMNS, *map(_report_cells, reports)])
    return buf.getvalue()


# ------------------------------------------------------------------ fixtures

def _fixture_text(name: str) -> str:
    return importlib.resources.files("sigmatau.fixtures").joinpath(name).read_text()


def load_reference_fixture() -> dict:
    """The shipped length-16 binary construction: ring, pair, D(z), subsets.

    Subset entries are 1-based exponents j, selecting the row for D(z^j).
    """
    return json.loads(_fixture_text("subsets_p17.json"))


def reference_code_reports(budget: int = DEFAULT_BUDGET) -> list[CodeReport]:
    """CodeReports for the thirteen shipped subsets, labeled S1..S13."""
    fix = load_reference_fixture()
    ring = make_cyclotomic(fix["p"])
    sigma = endomorphism_by_name(ring, fix["sigma"])
    tau = endomorphism_by_name(ring, fix["tau"])
    d = build_cyclotomic_derivation(ring, sigma, tau, fix["d_zeta"])
    b = idd_matrix(ring, d)
    out = []
    for i, exponents in enumerate(fix["subsets"], start=1):
        t = [e + 1 for e in exponents]  # exponent j lives in the row of z^j
        out.append(code_report(b, t, fix["q"], label=f"S{i}", budget=budget))
    return out
