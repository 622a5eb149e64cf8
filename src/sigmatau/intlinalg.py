"""Exact linear algebra over the integers and over prime fields.

Matrices are lists of rows of ints. Nothing here is numeric-approximate: the
determinant is Bareiss fraction-free elimination, and the row Hermite normal
form is the only other integer row reduction: the rank and every integer
solve are read off it. Mod-q routines require q prime so that every nonzero
residue is invertible.
"""

from __future__ import annotations

from . import _backend

IntMatrix = list  # list of rows of ints


# Sorenson and Webster, Math. Comp. 86 (2017), 985-1003
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(q: int) -> bool:
    """Exact primality test.

    Trial division by the primes up to 41 settles q below 41^2. Larger q
    runs Miller-Rabin strong-probable-prime tests on the same primes as
    bases, proven exact below 3,317,044,064,679,887,385,961,981; a q at or
    above that bound that passes them all is confirmed by trial division.
    """
    if q < 2:
        return False
    for b in _MR_BASES:
        if b * b > q:
            return True
        if q % b == 0:
            return False
    d, s = q - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, q)
        if x == 1 or x == q - 1:
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    if q < _MR_EXACT_BELOW:
        return True
    f = 43
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


def _require_prime(q: int) -> None:
    if not is_prime(q):
        raise ValueError(f"modulus {q} is not prime")


def _dims(a) -> tuple[int, int]:
    m = len(a)
    n = len(a[0]) if m else 0
    for row in a:
        if len(row) != n:
            raise ValueError("ragged matrix")
    return m, n


def identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a) -> IntMatrix:
    m, n = _dims(a)
    return [[a[i][j] for i in range(m)] for j in range(n)]


def mat_vec(a, x) -> list[int]:
    m, n = _dims(a)
    if len(x) != n:
        raise ValueError("dimension mismatch")
    return [sum(r * v for r, v in zip(row, x)) for row in a]


def det_bareiss(a) -> int:
    """Exact determinant of a square integer matrix."""
    m, n = _dims(a)
    if m != n:
        raise ValueError("determinant of a non-square matrix")
    return _backend.det_int(a)


def adjugate(a) -> IntMatrix:
    """Adjugate matrix: A . adj(A) == det(A) . I, valid even when singular.

    Only derivations._adjugate_det_A calls it, for a cache that perfbench's
    tracer reads; ROADMAP item 8 removes both once item 1 drops that read.
    """
    m, n = _dims(a)
    if m != n:
        raise ValueError("adjugate of a non-square matrix")
    if n == 0:
        return []
    if n == 1:
        return [[1]]
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [a[r][c] for c in range(n) if c != i]
                for r in range(n) if r != j
            ]
            cof = det_bareiss(minor)
            out[i][j] = cof if (i + j) % 2 == 0 else -cof
    return out


def rank_int(rows) -> int:
    """Rank over the rationals: the number of nonzero rows of the row HNF."""
    return sum(map(any, hermite_normal_form(rows)[0]))


def hermite_normal_form(rows) -> tuple[IntMatrix, IntMatrix]:
    """Row HNF with transform: returns (H, U) with U unimodular and U A = H.

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    and zero rows sink to the bottom.
    """
    m, n = _dims(rows)
    a = [list(r) for r in rows]
    u = identity(m)
    row = 0
    for col in range(n):
        if row == m:
            break
        while True:
            live = [r for r in range(row, m) if a[r][col] != 0]
            if not live:
                break
            r0 = min(live, key=lambda r: abs(a[r][col]))
            if r0 != row:
                a[row], a[r0] = a[r0], a[row]
                u[row], u[r0] = u[r0], u[row]
            p = a[row][col]
            clean = True
            for r in range(row + 1, m):
                if a[r][col]:
                    q = a[r][col] // p
                    if q:
                        a[r] = [x - q * y for x, y in zip(a[r], a[row])]
                        u[r] = [x - q * y for x, y in zip(u[r], u[row])]
                    if a[r][col]:
                        clean = False
            if clean:
                break
        if a[row][col] != 0:
            if a[row][col] < 0:
                a[row] = [-x for x in a[row]]
                u[row] = [-x for x in u[row]]
            p = a[row][col]
            for r in range(row):
                q = a[r][col] // p
                if q:
                    a[r] = [x - q * y for x, y in zip(a[r], a[row])]
                    u[r] = [x - q * y for x, y in zip(u[r], u[row])]
            row += 1
    return a, u


def solve_integer(a, c) -> tuple[int, ...] | None:
    """Some integer solution x of A x = c, or None when none exists.

    Works for rectangular and rank-deficient A: the system is transposed so
    membership of c in the row lattice of A^T is decided through its HNF, and
    the result is verified against the original system before returning.
    """
    m, n = _dims(a)
    if len(c) != m:
        raise ValueError("dimension mismatch")
    if n == 0:
        return () if all(v == 0 for v in c) else None
    h, u = hermite_normal_form(transpose(a))
    return _solve_with_hnf(a, h, u, c)


def _solve_with_hnf(a, h, u, c) -> tuple[int, ...] | None:
    # h, u = hermite_normal_form(transpose(a)); split out so callers solving
    # many right-hand sides against one matrix can reuse the reduction
    n = len(h)
    residual = list(c)
    y = [0] * n
    for r in range(n):
        jr = next((j for j, v in enumerate(h[r]) if v != 0), None)
        if jr is None:
            continue
        if residual[jr] % h[r][jr] != 0:
            return None
        y[r] = residual[jr] // h[r][jr]
        if y[r]:
            residual = [x - y[r] * v for x, v in zip(residual, h[r])]
    if any(residual):
        return None
    x = tuple(sum(y[r] * u[r][i] for r in range(n)) for i in range(n))
    if mat_vec(a, x) != list(c):
        raise AssertionError("HNF solve produced a non-solution")
    return x


def rref_mod_q(rows, q: int) -> tuple[IntMatrix, int, list[int]]:
    """Reduced row echelon form mod prime q: (R, rank, pivot columns)."""
    _require_prime(q)
    m, n = _dims(rows)
    a = [[x % q for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for col in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][col], -1, q)
        a[r] = [(x * inv) % q for x in a[r]]
        for i in range(m):
            if i != r and a[i][col]:
                ci = a[i][col]
                a[i] = [(x - ci * y) % q for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
    return a, r, pivots


def nullspace_mod_q(rows, q: int) -> IntMatrix:
    """Basis of the right nullspace mod prime q, one row per free column."""
    _require_prime(q)
    m, n = _dims(rows)
    red, rank, pivots = rref_mod_q(rows, q)
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        v = [0] * n
        v[free] = 1
        for r, col in enumerate(pivots):
            v[col] = (-red[r][free]) % q
        basis.append(v)
    return basis
