"""Structure-constant commutative algebras over the integers.

An algebra of rank n is described by an n x n x n integer tensor: table[i][j]
is the coordinate vector of basis_i * basis_j. Elements are coordinate tuples
and all arithmetic is exact. Twisted maps come in three flavours: LinearMap
(arbitrary images of the basis), and Endomorphism and Derivation, checked at
construction to be unital multiplicative and a (sigma, tau)-derivation.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence

from . import _backend

Coords = tuple[int, ...]


def _coords(x: Sequence[int], n: int) -> Coords:
    t = tuple(map(operator.index, x))
    if len(t) != n:
        raise ValueError(f"expected {n} coordinates, got {len(t)}")
    return t


class AlgebraSpec:
    """Finite-rank commutative unital algebra given by structure constants.

    The constructor checks shape, commutativity and the unity law eagerly;
    associativity is an O(n^4) scan left to associativity_failure so large
    algebras stay cheap to build.

    It also decides, in O(n^3) and without mul, whether the table is exactly
    multiplication in Z[x]/(f) on the power basis 1, x, ..., x^(n-1) with
    x = e_1: unity is e_0, e_i * e_0 = e_i, and every cell e_i * e_j is x
    times its left neighbour e_i * e_(j-1). The result is power_basis. A
    table that passes is associative and commutative by construction, and
    its endomorphisms and (sigma, tau)-derivations are fixed by the image
    of x, which endomorphism_failure and is_inner_generic use.
    """

    __slots__ = ("rank", "table", "unity", "labels", "power_basis", "_hash")

    def __init__(self, table, unity, labels=None):
        n = len(table)
        tab = []
        for row in table:
            if len(row) != n:
                raise ValueError("structure table must be n x n")
            tab.append(tuple(_coords(cell, n) for cell in row))
        self.table: tuple = tuple(tab)
        self.rank: int = n
        self.unity: Coords = _coords(unity, n)
        if labels is None:
            labels = tuple(f"b{i}" for i in range(n))
        else:
            labels = tuple(str(s) for s in labels)
            if len(labels) != n:
                raise ValueError("one label per basis element required")
        self.labels: tuple[str, ...] = labels
        self._hash = hash((self.table, self.unity))
        for i in range(n):
            for j in range(i + 1, n):
                if self.table[i][j] != self.table[j][i]:
                    raise ValueError(f"structure table not commutative at ({i}, {j})")
        for i in range(n):
            if mul(self, self.unity, self.basis(i)) != self.basis(i):
                raise ValueError(f"unity law fails on basis element {i}")
        self.power_basis: bool = self._is_power_basis()

    def _is_power_basis(self) -> bool:
        n = self.rank
        table = self.table
        if n == 0 or self.unity != self.basis(0):
            return False
        if any(table[i][0] != self.basis(i) for i in range(n)):
            return False
        if n == 1:
            return True
        # x v is the shift of v plus v[n-1] x^n, with x^n = e_(n-1) * e_1; the
        # cells (i, 1) pin that down as multiplication by x on the basis
        top = table[n - 1][1]
        for row in table:
            for j in range(1, n):
                v = row[j - 1]
                c = v[n - 1]
                xv = (0,) + v[:-1]
                if c:
                    xv = tuple(a + c * b for a, b in zip(xv, top))
                if row[j] != xv:
                    return False
        return True

    def basis(self, i: int) -> Coords:
        return tuple(1 if j == i else 0 for j in range(self.rank))

    def zero(self) -> Coords:
        return (0,) * self.rank

    def element(self, x: Sequence[int]) -> Coords:
        return _coords(x, self.rank)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraSpec):
            return NotImplemented
        return self.table == other.table and self.unity == other.unity

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"AlgebraSpec(rank={self.rank}, labels={list(self.labels)})"


def add(a: Sequence[int], b: Sequence[int]) -> Coords:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def sub(a: Sequence[int], b: Sequence[int]) -> Coords:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def neg(a: Sequence[int]) -> Coords:
    return tuple(-x for x in a)


def smul(k: int, a: Sequence[int]) -> Coords:
    return tuple(k * x for x in a)


def mul(spec: AlgebraSpec, a: Sequence[int], b: Sequence[int]) -> Coords:
    """Product in the algebra, expanded bilinearly through the table."""
    n = spec.rank
    a = _coords(a, n)
    b = _coords(b, n)
    acc = [0] * n
    table = spec.table
    for s, cs in enumerate(a):
        if cs:
            row = table[s]
            for t, ct in enumerate(b):
                if ct:
                    k = cs * ct
                    cell = row[t]
                    for r in range(n):
                        acc[r] += k * cell[r]
    return tuple(acc)


class LinearMap:
    """Additive map recorded by the images of the basis elements."""

    __slots__ = ("spec", "images", "name")

    def __init__(self, spec: AlgebraSpec, images, name: str | None = None):
        if len(images) != spec.rank:
            raise ValueError("one image per basis element required")
        self.spec = spec
        self.images: tuple[Coords, ...] = tuple(_coords(im, spec.rank) for im in images)
        self.name = name

    def apply(self, x: Sequence[int]) -> Coords:
        return apply_map(self.spec, self.images, x)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearMap):
            return NotImplemented
        return self.spec == other.spec and self.images == other.images

    def __hash__(self) -> int:
        return hash((self.spec, self.images))

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"{type(self).__name__}{tag}(images={list(self.images)})"


class Endomorphism(LinearMap):
    """Unital multiplicative linear map; validity is checked at construction."""

    __slots__ = ()

    def __init__(self, spec: AlgebraSpec, images, name: str | None = None):
        super().__init__(spec, images, name)
        bad = endomorphism_failure(spec, self)
        if bad is not None:
            raise ValueError(f"not an endomorphism: fails at {bad}")


class Derivation(LinearMap):
    """(sigma, tau)-derivation, checked once at construction; sigma and tau
    are kept as Endomorphisms (see _twist_pair)."""

    __slots__ = ("sigma", "tau")

    def __init__(self, spec: AlgebraSpec, images, sigma, tau, name: str | None = None):
        super().__init__(spec, images, name)
        self.sigma, self.tau = _twist_pair(spec, sigma, tau)
        bad = _backend.derivation_failure(spec.table, self.images, self.sigma.images, self.tau.images)
        if bad is not None:
            raise ValueError(f"D is not a derivation for this pair (law fails at basis pair {bad})")

    def checked_for(self, spec: AlgebraSpec, sigma, tau) -> bool:
        """True when the law was checked at construction for this spec and pair."""
        return self.spec == spec and (self.sigma, self.tau) == (sigma, tau)


def _images_of(m, spec: AlgebraSpec) -> tuple[Coords, ...]:
    if isinstance(m, LinearMap):
        if m.spec != spec:
            raise ValueError("map belongs to a different algebra")
        return m.images
    return tuple(_coords(im, spec.rank) for im in m)


def apply_map(spec: AlgebraSpec, images, x: Sequence[int]) -> Coords:
    """Image of x under the additive map with the given basis images."""
    return _apply(_images_of(images, spec), _coords(x, spec.rank))


def _apply(imgs, x: Coords) -> Coords:
    # imgs and x are already checked coordinate tuples
    n = len(imgs)
    acc = [0] * n
    for s, c in enumerate(x):
        if c:
            im = imgs[s]
            for r in range(n):
                acc[r] += c * im[r]
    return tuple(acc)


def endomorphism_failure(spec: AlgebraSpec, m) -> tuple | None:
    """First witness that m is not a unital multiplicative map, else None.

    Returns ("unity",) when the image of 1 is wrong, otherwise the first
    basis pair (i, j) with m(ei*ej) != m(ei)m(ej) in row-major order.

    On a power_basis spec a unital m is multiplicative iff it is so on the
    n pairs (x^k, x): they force m(x^k) = m(x)^k, and the last one gives
    f(m(x)) = 0. Only those pairs are checked. If one fails, the full
    row-major scan runs, so the witness is the same as without the shortcut.
    """
    imgs = _images_of(m, spec)
    if _apply(imgs, spec.unity) != spec.unity:
        return ("unity",)
    n = spec.rank
    if spec.power_basis and n > 1:
        if _product_failure(spec, imgs, ((k, 1) for k in range(n))) is None:
            return None
    return _product_failure(spec, imgs, ((i, j) for i in range(n) for j in range(i, n)))


def _product_failure(spec: AlgebraSpec, imgs, pairs) -> tuple[int, int] | None:
    # first basis pair (i, j) with m(ei*ej) != m(ei)m(ej)
    for i, j in pairs:
        if _apply(imgs, spec.table[i][j]) != mul(spec, imgs[i], imgs[j]):
            return (i, j)
    return None


def is_endomorphism(spec: AlgebraSpec, m) -> bool:
    """True when m is unital and multiplicative on every basis pair."""
    return endomorphism_failure(spec, m) is None


def associativity_failure(spec: AlgebraSpec) -> tuple | None:
    """First basis triple (i, j, k) with (ei*ej)*ek != ei*(ej*ek), else None."""
    n = spec.rank
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = mul(spec, spec.table[i][j], spec.basis(k))
                rhs = mul(spec, spec.basis(i), spec.table[j][k])
                if lhs != rhs:
                    return (i, j, k)
    return None


def _twist_pair(spec: AlgebraSpec, sigma, tau) -> tuple[Endomorphism, Endomorphism]:
    """sigma and tau as distinct Endomorphisms of spec; only maps that are
    not Endomorphisms yet are checked."""
    pair = tuple(
        m if isinstance(m, Endomorphism) else Endomorphism(spec, _images_of(m, spec))
        for m in (sigma, tau)
    )
    if any(m.spec != spec for m in pair):
        raise ValueError("endomorphism belongs to a different algebra")
    if pair[0].images == pair[1].images:
        raise ValueError("sigma and tau must differ")
    return pair


def derivation_failure(spec: AlgebraSpec, d, sigma, tau) -> tuple[int, int] | None:
    """First basis pair (i, j) with D(ei*ej) != D(ei)tau(ej) + sigma(ei)D(ej).

    Scans in row-major order; None means D is a (sigma, tau)-derivation.
    sigma and tau must be distinct endomorphisms. A Derivation built for
    this spec and pair was checked when it was built and is not scanned again.
    """
    d_imgs = _images_of(d, spec)
    sigma, tau = _twist_pair(spec, sigma, tau)
    if isinstance(d, Derivation) and d.checked_for(spec, sigma, tau):
        return None
    return _backend.derivation_failure(spec.table, d_imgs, sigma.images, tau.images)


def is_derivation(spec: AlgebraSpec, d, sigma, tau) -> bool:
    """True when the twisted Leibniz law holds on every basis pair."""
    return derivation_failure(spec, d, sigma, tau) is None


def _power_sum_chain(spec: AlgebraSpec, s_imgs, t_imgs, alpha: Coords, kmax: int) -> list[Coords]:
    """[P_1, ..., P_kmax] where P_k sums sigma(alpha)^i tau(alpha)^j over
    i + j = k - 1, via P_(k+1) = sigma(alpha) P_k + tau(alpha)^k.

    The recurrence needs s_imgs and t_imgs to be multiplicative; callers
    validate that before reaching here.
    """
    s_alpha = _apply(s_imgs, alpha)
    t_alpha = _apply(t_imgs, alpha)
    chain = [spec.unity]
    tpow = spec.unity
    for _ in range(kmax - 1):
        tpow = mul(spec, tpow, t_alpha)
        chain.append(add(mul(spec, s_alpha, chain[-1]), tpow))
    return chain


def _power_sum(spec: AlgebraSpec, s_imgs, t_imgs, alpha: Coords, k: int) -> Coords:
    return _power_sum_chain(spec, s_imgs, t_imgs, alpha, k)[-1]


def sigma_tau_power_sum(spec: AlgebraSpec, sigma, tau, alpha: Sequence[int], k: int) -> Coords:
    """Sum of sigma(alpha^i) tau(alpha^j) over i + j = k - 1 (k terms).

    This is the factor with D(alpha^k) = (sum) * D(alpha) for any
    (sigma, tau)-derivation; k must be at least 1.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    sigma, tau = _twist_pair(spec, sigma, tau)
    return _power_sum(spec, sigma.images, tau.images, spec.element(alpha), k)


def mult_matrix(spec: AlgebraSpec, g: Sequence[int]) -> list[list[int]]:
    """Matrix of multiplication by g: column j holds coords of g * basis_j."""
    n = spec.rank
    g = _coords(g, n)
    cols = [mul(spec, g, spec.basis(j)) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def spec_to_json(spec: AlgebraSpec) -> dict:
    """JSON-ready description; spec_from_json inverts it."""
    return {
        "rank": spec.rank,
        "table": [[list(cell) for cell in row] for row in spec.table],
        "unity": list(spec.unity),
        "labels": list(spec.labels),
    }


def spec_from_json(data: dict) -> AlgebraSpec:
    spec = AlgebraSpec(data["table"], data["unity"], data.get("labels"))
    if spec.rank != data.get("rank", spec.rank):
        raise ValueError("rank does not match table size")
    return spec
