"""Linear codes from derivation images over prime fields.

Pipeline: a derivation D of a rank-n ring gives the n x n integer matrix B
whose row i holds the coordinates of D applied to the i-th basis element;
a subset T of rows that is Z-linearly independent is reduced entrywise mod a
prime q and spans the code. Dimension comes from the mod-q rref, minimum
distance from exhaustive codeword enumeration, duals from the nullspace, and
the LCD property from det(G G^T) mod q.

Enumeration is exact and refused up front, with BudgetExceededError, when
q^k exceeds the codeword budget. Over GF(2) the pure backend enumerates
bit-sliced: each bit of a big int is one message's coordinate, so one integer
operation advances 2^14 codewords, and a ripple counter of bit planes yields
the exact weight histogram. GF(q > 2) codes use a base-q odometer.
"""

from __future__ import annotations

import importlib.resources
import json
import warnings
from dataclasses import dataclass

from . import _backend, _pykernels, intlinalg
from .algebra import Coords, LinearMap, _images_of
from .derivations import build_cyclotomic_derivation
from .intlinalg import is_prime
from .rings import endomorphism_by_name, make_cyclotomic

DEFAULT_BUDGET = 1 << 24


class BudgetExceededError(RuntimeError):
    """Exhaustive enumeration would exceed the configured codeword budget."""


@dataclass(frozen=True, slots=True)
class IddMatrix:
    """Rows of ring-basis coordinates of D(basis element), one per element."""

    ring: object
    derivation: LinearMap
    B: tuple[Coords, ...]

    @property
    def n(self) -> int:
        return len(self.B)


def idd_matrix(ring, D) -> IddMatrix:
    imgs = _images_of(D, ring.spec)
    d = D if isinstance(D, LinearMap) else LinearMap(ring.spec, imgs)
    return IddMatrix(ring, d, imgs)


def _subset_rows(B: IddMatrix, T) -> list[list[int]]:
    n = B.n
    idx = [int(t) for t in T]
    for t in idx:
        if not 1 <= t <= n:
            raise ValueError(f"row index {t} outside 1..{n}")
    return [list(B.B[t - 1]) for t in idx]


def independent_subset_check(B: IddMatrix, T) -> bool:
    """True iff the selected rows are linearly independent over the rationals."""
    rows = _subset_rows(B, T)
    if len(set(int(t) for t in T)) < len(rows):
        return False
    return intlinalg.rank_int(rows) == len(rows)


def omega_reduce(m, q: int) -> list[list[int]]:
    """Entrywise reduction into [0, q), q prime."""
    if not is_prime(q):
        raise ValueError(f"modulus {q} is not prime")
    return [[v % q for v in row] for row in m]


class LinearCode:
    """Code over GF(q) spanned by generator rows; rref and rank are eager,
    distance and weight distribution are computed on demand and cached."""

    __slots__ = ("q", "n", "generator", "standard_form", "k", "selected", "_d", "_wd")

    def __init__(self, q: int, n: int, generator, selected: int | None = None):
        if not is_prime(q):
            raise ValueError(f"modulus {q} is not prime")
        self.q = q
        self.n = n
        rows = [[v % q for v in row] for row in generator]
        for row in rows:
            if len(row) != n:
                raise ValueError("generator rows must have the code length")
        self.generator = tuple(tuple(row) for row in rows)
        red, rank, _ = intlinalg.rref_mod_q(rows, q) if rows else ([], 0, [])
        self.standard_form = tuple(tuple(r) for r in red[:rank])
        self.k = rank
        self.selected = selected
        self._d: int | None = None
        self._wd: tuple[int, ...] | None = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearCode):
            return NotImplemented
        return (self.q, self.n, self.standard_form) == (other.q, other.n, other.standard_form)

    def __hash__(self) -> int:
        return hash((self.q, self.n, self.standard_form))

    def __repr__(self) -> str:
        return f"LinearCode([{self.n},{self.k}] over GF({self.q}))"


def hom_idd_code(B: IddMatrix, T, q: int) -> LinearCode:
    """Code spanned mod q by the selected rows of B.

    T must be Z-linearly independent (error otherwise); losing rank mod q is
    legitimate and only warns, with the rref rank as the code dimension.
    """
    if not independent_subset_check(B, T):
        raise ValueError("selected rows are not Z-linearly independent")
    rows = omega_reduce(_subset_rows(B, T), q)
    code = LinearCode(q, B.n, rows, selected=len(rows))
    if code.k < len(rows):
        warnings.warn(
            f"mod-{q} rank {code.k} is below the subset size {len(rows)}",
            stacklevel=2,
        )
    return code


def _gf2_masks(code: LinearCode) -> list[int]:
    return [sum(1 << i for i, v in enumerate(row) if v) for row in code.standard_form]


def min_distance(code: LinearCode, budget: int = DEFAULT_BUDGET) -> int:
    """Minimum Hamming weight over all q^k - 1 nonzero codewords, exhaustively.

    Never approximates: when q^k exceeds the budget the enumeration is
    refused with BudgetExceededError. GF(2) codes run the compiled Gray walk
    when the extension is built, else the bit-sliced weight histogram.
    """
    if code.k < 1:
        raise ValueError("minimum distance of the zero code is undefined")
    if code._d is not None:
        return code._d
    total = code.q ** code.k
    if total > budget:
        raise BudgetExceededError(
            f"enumerating {total} codewords exceeds the budget of {budget}"
        )
    if code.q == 2:
        d = _backend.min_weight_gf2(_gf2_masks(code), code.n)
    else:
        d = _pykernels.min_weight_modq([list(r) for r in code.standard_form], code.q)
    code._d = d
    return d


def weight_distribution(code: LinearCode, budget: int = DEFAULT_BUDGET) -> tuple[int, ...]:
    """Counts of codewords by Hamming weight, indices 0..n, zero word included.

    Every one of the q^k codewords is enumerated (bit-sliced over GF(2)), so
    the budget refuses the same codes as min_distance; the minimum distance
    read off the counts is cross-checked against min_distance's cache.
    """
    if code._wd is not None:
        return code._wd
    if code.q ** code.k > budget:
        raise BudgetExceededError(
            f"enumerating {code.q ** code.k} codewords exceeds the budget of {budget}"
        )
    if code.q == 2:
        counts = _pykernels.weight_counts_gf2(_gf2_masks(code), code.n)
    else:
        counts = _pykernels.weight_counts_modq(
            [list(r) for r in code.standard_form], code.q, code.n
        )
    wd = tuple(counts)
    if code.k >= 1:
        d = next(w for w in range(1, code.n + 1) if wd[w])
        if code._d is None:
            code._d = d
        elif code._d != d:
            raise AssertionError("weight distribution disagrees with min_distance")
    code._wd = wd
    return wd


def dual_code(code: LinearCode) -> LinearCode:
    """Orthogonal complement; dimensions always satisfy k + dual k == n."""
    if code.k == 0:
        return LinearCode(code.q, code.n, intlinalg.identity(code.n))
    null = intlinalg.nullspace_mod_q([list(r) for r in code.standard_form], code.q)
    return LinearCode(code.q, code.n, null)


def is_lcd(code: LinearCode) -> bool:
    """True iff the code meets its dual only in 0: det(G G^T) != 0 mod q."""
    g = [list(r) for r in code.standard_form]
    if not g:
        return True
    gram = intlinalg.mat_mul(g, intlinalg.transpose(g))
    return intlinalg.det_bareiss(gram) % code.q != 0


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
    code = hom_idd_code(B, T, q)
    dual = dual_code(code)
    d = min_distance(code, budget) if code.k else None
    dual_d = min_distance(dual, budget) if dual.k else None
    return CodeReport(
        label=label,
        subset=tuple(int(t) for t in T),
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


def _render_d(d: int | None) -> str:
    return "—" if d is None else str(d)


def reports_csv(reports) -> str:
    """CSV mirror of the reference table layout."""
    lines = ["subset,n,k,d,lcd,dual_n,dual_k,dual_d"]
    for r in reports:
        label = r.label or " ".join(str(t) for t in r.subset)
        lcd = "LCD" if r.lcd else "non-LCD"
        lines.append(
            f"{label},{r.n},{r.k},{_render_d(r.d)},{lcd},"
            f"{r.dual_n},{r.dual_k},{_render_d(r.dual_d)}"
        )
    return "\n".join(lines) + "\n"


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
