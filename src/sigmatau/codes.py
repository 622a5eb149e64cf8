"""Linear codes from derivation images over prime fields.

Pipeline: a derivation D of a rank-n ring gives the n x n integer matrix B
whose row i holds the coordinates of D applied to the i-th basis element;
a subset T of rows that is Z-linearly independent is reduced entrywise mod a
prime q and spans the code. Each code is eliminated once, when it is built,
to its unique rref (standard_form), whose rank is the dimension. On every
field the dual is intlinalg.nullspace_mod_q of that form, one generator per
free column. A code is LCD iff its Gram matrix G G^T has full rank k over
GF(q), on every field (Massey, 1992).
Minimum distance comes from exhaustive codeword enumeration. A report
enumerates the code C alone: the dual's weight distribution follows from
C's by the MacWilliams identity, B_j = q^-k sum_i A_i K_j(i) with integer
Krawtchouk values K_j(i), and every division is asserted exact (MacWilliams
and Sloane, The Theory of Error-Correcting Codes, Ch. 5).

Over GF(2) every row is an int bit mask, bit c holding coordinate c, from
the generator rows onward: rref is one XOR pass over the masks, the Gram
entries are parities of popcounts of ANDed rows and its rank is found by
XOR, and the enumeration kernel takes the masks as they are. A code keeps
only the masks, and its standard form's tuples are built when first asked
for. An IddMatrix checks and reduces its rows once per q, so the codes of
its row subsets start from those reduced rows. Over GF(q > 2) the code's
rref and the Gram rank are intlinalg.rref_mod_q's.

Enumeration is exact and refused up front, with BudgetExceededError, when
q^k exceeds the codeword budget; the dual's q^(n-k) words are never walked,
so the budget counts only C's. Each code gets one weight histogram,
bit-sliced: each bit of a big int is one message's coordinate, so one
integer operation advances up to 2^14 codewords, and a ripple counter of
bit planes yields the exact counts (over GF(q > 2) each column keeps q
one-hot lane masks, one per residue). The histogram is cached and the
minimum distance is read off it, so a code is enumerated once, whichever
of the two is asked for first.
"""

from __future__ import annotations

import csv
import functools
import importlib.resources
import io
import json
import operator
import warnings
from dataclasses import dataclass, field
from math import comb

from . import _pykernels, intlinalg
from .algebra import Coords, _images_of
from .derivations import build_cyclotomic_derivation
from .rings import endomorphism_by_name, make_cyclotomic

DEFAULT_BUDGET = 1 << 24


class BudgetExceededError(RuntimeError, ValueError):
    """Exhaustive enumeration would exceed the configured codeword budget;
    a ValueError too, since the input asks for more than the budget allows."""


@dataclass(frozen=True, slots=True)
class IddMatrix:
    """Rows of ring-basis coordinates of D(basis element), one per element.

    The rows reduced mod q are kept per q from the first code built over
    GF(q): int bit masks for q = 2, tuples of residues otherwise. Every entry
    is checked once, by that reduction, so a non-integer raises TypeError
    from the first code built on it.
    """

    B: tuple[Coords, ...]
    _reduced: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.B)

    def _rows_mod(self, q: int) -> tuple:
        rows = self._reduced.get(q)
        if rows is None:
            rows = self._reduced[q] = _checked_rows(self.B, self.n, q)
        return rows


def idd_matrix(ring, D) -> IddMatrix:
    return IddMatrix(_images_of(D, ring.spec))


def _subset(B: IddMatrix, T) -> tuple[int, ...]:
    # 1-based row indices; a float or other non-integer raises TypeError
    idx = tuple(map(operator.index, T))
    n = B.n
    for t in idx:
        if not 1 <= t <= n:
            raise ValueError(f"row index {t} outside 1..{n}")
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
    the weight distribution is computed on demand and cached.

    Over GF(2) only the reduced rows' bit masks (bit c holds coordinate c) are
    kept, which the LCD test and the enumeration read; the standard form's
    tuples, which the dual reads, are built from them when first asked for.
    """

    __slots__ = ("q", "n", "k", "_masks", "_form", "_wd")

    def __init__(self, q: int, n: int, generator):
        intlinalg._require_prime(q)
        self._reduce(q, n, _checked_rows(generator, n, q))

    @classmethod
    def _of_checked(cls, q: int, n: int, rows) -> LinearCode:
        """The code of rows that _checked_rows has already checked and reduced."""
        code = cls.__new__(cls)
        code._reduce(q, n, rows)
        return code

    def _reduce(self, q: int, n: int, rows) -> None:
        self.q = q
        self.n = n
        self._wd = None
        if q == 2:
            self._masks = tuple(_rref_gf2(rows))
            self._form = None
            self.k = len(self._masks)
        else:
            red, rank, _ = intlinalg.rref_mod_q(rows, q)
            self._form = tuple(tuple(r) for r in red[:rank])
            self._masks = None
            self.k = rank

    @property
    def standard_form(self) -> tuple[tuple[int, ...], ...]:
        """The unique rref's nonzero rows, as tuples of residues."""
        if self._form is None:
            self._form = tuple(_mask_row(m, self.n) for m in self._masks)
        return self._form

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearCode):
            return NotImplemented
        return (self.q, self.n, self.standard_form) == (other.q, other.n, other.standard_form)

    def __hash__(self) -> int:
        return hash((self.q, self.n, self.standard_form))

    def __repr__(self) -> str:
        return f"LinearCode([{self.n},{self.k}] over GF({self.q}))"


def _checked_rows(rows, n: int, q: int) -> tuple:
    """Rows of n integers reduced mod q: int bit masks for q = 2, tuples of
    residues otherwise. A non-integer entry raises TypeError, checked before
    any row's length, and a row of another length raises ValueError."""
    rows = [list(map(operator.index, row)) for row in rows]
    if any(len(row) != n for row in rows):
        raise ValueError("generator rows must have the code length")
    if q == 2:
        return tuple(map(_row_mask, rows))
    return tuple(tuple(v % q for v in row) for row in rows)


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
    intlinalg._require_prime(q)
    rows = B._rows_mod(q)
    code = LinearCode._of_checked(q, B.n, [rows[t - 1] for t in idx])
    if code.k < len(idx):
        if not independent_subset_check(B, idx):
            raise ValueError("selected rows are not Z-linearly independent")
        warnings.warn(
            f"mod-{q} rank {code.k} is below the subset size {len(idx)}",
            stacklevel=2,
        )
    return code


def min_distance(code: LinearCode, budget: int = DEFAULT_BUDGET) -> int:
    """Minimum Hamming weight over all q^k - 1 nonzero codewords, exhaustively.

    Never approximates: when q^k exceeds the budget the enumeration is
    refused with BudgetExceededError. The minimum is the least nonzero
    weight of weight_distribution's histogram, so a code whose histogram is
    cached enumerates nothing and is not held to the budget.
    """
    if code.k < 1:
        raise ValueError("minimum distance of the zero code is undefined")
    return _least_weight(weight_distribution(code, budget))


def _least_weight(wd) -> int | None:
    """The least nonzero weight holding a word, None when only 0 does."""
    return next((w for w in range(1, len(wd)) if wd[w]), None)


def weight_distribution(code: LinearCode, budget: int = DEFAULT_BUDGET) -> tuple[int, ...]:
    """Counts of codewords by Hamming weight, indices 0..n, zero word included.

    Every one of the q^k codewords is enumerated, bit-sliced over every
    field, and the budget refuses the code up front when q^k exceeds it. The
    counts are cached, and min_distance reads its minimum off them.
    """
    if code._wd is not None:
        return code._wd
    total = code.q ** code.k
    if total > budget:
        raise BudgetExceededError(f"enumerating {total} codewords exceeds the budget of {budget}")
    if code.q == 2:
        counts = _pykernels.weight_counts_gf2(code._masks, code.n)
    else:
        counts = _pykernels.weight_counts_modq(code.standard_form, code.q, code.n)
    code._wd = tuple(counts)
    return code._wd


@functools.lru_cache(maxsize=64)
def _krawtchouk(n: int, q: int) -> tuple[tuple[int, ...], ...]:
    """Rows j = 0..n of the Krawtchouk matrix, K_j(i) the coefficient of z^j
    in (1 + (q - 1) z)^(n - i) (1 - z)^i."""
    cols = []
    for i in range(n + 1):
        ones = [comb(n - i, t) * (q - 1) ** t for t in range(n - i + 1)]
        col = [0] * (n + 1)
        for s in range(i + 1):
            c = (-1) ** s * comb(i, s)
            for t, v in enumerate(ones, start=s):
                col[t] += c * v
        cols.append(col)
    return tuple(zip(*cols))


def _macwilliams_dual(wd, q: int, k: int) -> tuple[int, ...]:
    """Weight distribution of the dual of an [n, k] code over GF(q) whose
    distribution is wd (indices 0..n), by the MacWilliams identity.

    B_j = q^-k sum_i A_i K_j(i). Raises AssertionError unless every division
    is exact, B_0 = 1, every B_j >= 0 and the B_j sum to q^(n-k), so a wrong
    histogram cannot pass as a distribution.
    """
    n = len(wd) - 1
    size = q**k
    out = []
    for row in _krawtchouk(n, q):
        b, rem = divmod(sum(map(operator.mul, wd, row)), size)
        if rem:
            raise AssertionError("MacWilliams division by q^k is not exact")
        out.append(b)
    if out[0] != 1 or min(out) < 0 or sum(out) != q ** (n - k):
        raise AssertionError("MacWilliams transform is not a dual weight distribution")
    return tuple(out)


def dual_code(code: LinearCode) -> LinearCode:
    """Orthogonal complement; dimensions always satisfy k + dual k == n.

    The null basis is nullspace_mod_q of the standard form on every field,
    one word per free column; its rref pass finds that form already reduced.
    The zero code stands in as one zero row, so its dual is all of GF(q)^n,
    and a code of dimension n has the zero code as its dual.
    """
    n = code.n
    return LinearCode(code.q, n, intlinalg.nullspace_mod_q(code.standard_form or [[0] * n], code.q))


def is_lcd(code: LinearCode) -> bool:
    """True iff the code meets its dual only in 0: G G^T has rank k over GF(q).

    Over GF(2) the Gram matrix is built on masks, entry (i, j) being the
    parity of the number of coordinates where rows i and j both hold 1, one
    parity per pair i <= j since the matrix is symmetric, and its rank is
    found by XOR; over GF(q > 2) it is rref_mod_q's.
    """
    if code.q == 2:
        g = code._masks
        gram = [0] * len(g)
        for i, a in enumerate(g):
            for j in range(i, len(g)):
                if (a & g[j]).bit_count() & 1:
                    gram[i] |= 1 << j
                    gram[j] |= 1 << i
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
    """[n,k,d] + LCD flag + dual [n,k,d] for one subset selection.

    Only the code's q^k words are enumerated, once, for the histogram, and
    only they count against the budget; the code's distance is read off it.
    The dual is not built: its distribution is the MacWilliams transform of
    the code's, with every division asserted exact, and its distance is the
    least nonzero weight there.
    """
    subset = _subset(B, T)
    code = hom_idd_code(B, subset, q)
    n, k = code.n, code.k
    wd = weight_distribution(code, budget)
    d = min_distance(code, budget) if k else None
    dual_d = _least_weight(_macwilliams_dual(wd, q, k))
    return CodeReport(
        label=label,
        subset=subset,
        n=n,
        k=k,
        d=d,
        lcd=is_lcd(code),
        dual_n=n,
        dual_k=n - k,
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
