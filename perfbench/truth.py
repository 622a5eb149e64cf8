"""Exact arithmetic the benchmark checks answers against, written apart from sigmatau.

Nothing here imports the package under test. Each ring is modelled from its
definition, so a wrong answer from the program cannot also be a wrong
expectation here:

* ``Cyclotomic(p)``: Z[z]/Phi_p on the power basis 1, z, ..., z^(p-2), with
  endomorphisms z -> z^u named by u;
* ``Quadratic(d)``: basis 1, g with g = sqrt(d), or g = (1 + sqrt(d))/2 when
  d = 1 mod 4, and endomorphisms "id" and "conj";
* ``Biquadratic(m, n)``: basis 1, sqrt(m), sqrt(n), sqrt(mn), and endomorphisms
  phi1..phi4 with signs (+,+), (+,-), (-,+), (-,-) on (sqrt(m), sqrt(n)).
"""

from __future__ import annotations

from fractions import Fraction


class _Ring:
    n: int
    names: tuple[str, ...]

    def basis(self, i: int) -> tuple[int, ...]:
        return tuple(1 if j == i else 0 for j in range(self.n))

    def apply(self, name: str, x) -> tuple[int, ...]:
        """Image of x under the endomorphism called name."""
        acc = [0] * self.n
        for i, c in enumerate(x):
            if c:
                for r, v in enumerate(self.image(name, i)):
                    acc[r] += c * v
        return tuple(acc)

    def twist(self, sigma: str, tau: str, x) -> tuple[int, ...]:
        """(tau - sigma)(x)."""
        return tuple(b - a for a, b in zip(self.apply(sigma, x), self.apply(tau, x)))

    def inner_images(self, sigma: str, tau: str, beta) -> list[tuple]:
        """Images of the basis under x -> beta (tau(x) - sigma(x)); beta may be rational."""
        return [self.mul(beta, self.twist(sigma, tau, self.basis(i))) for i in range(self.n)]

    def divide(self, x, g) -> tuple[Fraction, ...] | None:
        """The field element beta with beta * g = x, or None when g is 0."""
        cols = [self.mul(g, self.basis(j)) for j in range(self.n)]
        rows = [[Fraction(cols[j][i]) for j in range(self.n)] + [Fraction(x[i])] for i in range(self.n)]
        return _solve(rows, self.n)


class Cyclotomic(_Ring):
    def __init__(self, p: int):
        self.p = p
        self.n = p - 1
        self.names = tuple(str(u) for u in range(1, p))
        self.cli = f"cyclotomic:{p}"

    def power(self, e: int) -> tuple[int, ...]:
        e %= self.p
        if e < self.n:
            return self.basis(e)
        return (-1,) * self.n

    def image(self, name: str, i: int) -> tuple[int, ...]:
        return self.power(int(name) * i)

    def mul(self, a, b) -> tuple:
        acc = [0] * self.p
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        acc[(i + j) % self.p] += x * y
        top = acc[self.n]  # z^(p-1) = -(1 + z + ... + z^(p-2))
        return tuple(acc[t] - top for t in range(self.n))


class Quadratic(_Ring):
    def __init__(self, d: int):
        self.d = d
        self.n = 2
        self.one_mod4 = d % 4 == 1
        self.names = ("id", "conj")
        self.cli = f"quadratic:{d}"
        # g^2 = c0 + c1 g
        self._sq = ((d - 1) // 4, 1) if self.one_mod4 else (d, 0)

    def image(self, name: str, i: int) -> tuple[int, ...]:
        if name == "id" or i == 0:
            return self.basis(i)
        return (1, -1) if self.one_mod4 else (0, -1)

    def mul(self, a, b) -> tuple:
        c0, c1 = self._sq
        k = a[1] * b[1]
        return (a[0] * b[0] + k * c0, a[0] * b[1] + a[1] * b[0] + k * c1)


_SIGNS = {"phi1": (1, 1), "phi2": (1, -1), "phi3": (-1, 1), "phi4": (-1, -1)}


class Biquadratic(_Ring):
    def __init__(self, m: int, n: int):
        self.m = m
        self.nn = n
        self.n = 4
        self.names = tuple(_SIGNS)
        self.cli = f"biquadratic:{m},{n}"

    def image(self, name: str, i: int) -> tuple[int, ...]:
        sm, sn = _SIGNS[name]
        sign = (sm if i & 1 else 1) * (sn if i & 2 else 1)
        return tuple(sign if j == i else 0 for j in range(4))

    def mul(self, a, b) -> tuple:
        # basis index i has bit 0 for sqrt(m) and bit 1 for sqrt(n)
        acc = [0] * 4
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        k = (self.m if i & j & 1 else 1) * (self.nn if i & j & 2 else 1)
                        acc[i ^ j] += x * y * k
        return tuple(acc)

    def case(self, sigma: str, tau: str) -> str:
        """Which generator the pair kills: "I" kills sqrt(m), "II" sqrt(n), "III" sqrt(mn)."""
        (am, an), (bm, bn) = _SIGNS[sigma], _SIGNS[tau]
        if am == bm:
            return "I"
        if an == bn:
            return "II"
        return "III"


def _solve(rows, n: int):
    """Solve the n x n system given as augmented rows over Q, or None if singular."""
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        pv = rows[col][col]
        rows[col] = [v / pv for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return tuple(rows[i][n] for i in range(n))


def integral(beta) -> tuple[int, ...] | None:
    """beta as ints when every coordinate is an integer, else None."""
    if any(Fraction(v).denominator != 1 for v in beta):
        return None
    return tuple(int(v) for v in beta)


def is_prime(q: int) -> bool:
    return q >= 2 and all(q % f for f in range(2, int(q ** 0.5) + 1))


def rank_mod_q(rows, q: int) -> int:
    """Rank over GF(q), q prime, by plain elimination."""
    a = [[v % q for v in row] for row in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], -1, q)
        a[rank] = [v * inv % q for v in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][col]:
                f = a[r][col]
                a[r] = [(x - f * y) % q for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank
