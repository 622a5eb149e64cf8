"""Structure-constant commutative algebras over the integers.

An algebra of rank n is described by an n x n x n integer tensor: table[i][j]
is the coordinate vector of basis_i * basis_j. Elements are coordinate tuples
and all arithmetic is exact: products and images of maps come from
_pykernels._expand and _apply, and the endomorphism and associativity
checks are the pure law kernel's pair scan with sigma = 0. Twisted maps
come in three flavours: LinearMap (arbitrary images of the basis), and
Endomorphism and Derivation, checked at construction to be unital
multiplicative and a (sigma, tau)-derivation.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from itertools import product

from . import _backend
from ._pykernels import _apply, _expand, _law_failure, _support

Coords = tuple[int, ...]


def _coords(x: Sequence[int], n: int) -> Coords:
    t = tuple(map(operator.index, x))
    if len(t) != n:
        raise ValueError(f"expected {n} coordinates, got {len(t)}")
    return t


def _power_table(top: Coords) -> tuple:
    """Table of Z[x]/(x^n - top) on 1, x, ..., x^(n-1).

    Cell (i, j) is x^(i+j), one shared tuple per power. Each power is x times
    the previous one: its shift plus its last coordinate times top.
    """
    n = len(top)
    powers = [tuple(int(r == k) for r in range(n)) for k in range(n)]
    for _ in range(n - 1):
        v = powers[-1]
        powers.append(tuple(a + v[-1] * b for a, b in zip((0,) + v[:-1], top)))
    return tuple(tuple(powers[i : i + n]) for i in range(n))


class AlgebraSpec:
    """Finite-rank commutative unital algebra given by structure constants.

    The constructor checks shape, commutativity and the unity law eagerly;
    associativity is an O(n^4) scan left to associativity_failure so large
    algebras stay cheap to build.

    power_basis records whether unity is e_0 and the table equals
    _power_table(x^n) with x = e_1 and x^n read off cell (n-1, 1): then it is
    Z[x]/(f) on 1, x, ..., x^(n-1), associative by construction, and its
    endomorphisms and (sigma, tau)-derivations are fixed by the image of x,
    which endomorphism_failure and is_inner_generic use.
    """

    __slots__ = ("rank", "table", "unity", "labels", "power_basis", "_hash")

    def __init__(self, table, unity, labels=None):
        n = len(table)
        tab = []
        cells: dict[Coords, Coords] = {}  # one tuple per distinct cell value
        # each cell object is read once; holding it keeps its id from reuse
        seen: dict[int, tuple] = {}  # id(cell) -> (cell, its tuple)
        for row in table:
            if len(row) != n:
                raise ValueError("structure table must be n x n")
            for cell in row:
                if id(cell) not in seen:
                    t = _coords(cell, n)
                    seen[id(cell)] = (cell, cells.setdefault(t, t))
            tab.append(tuple(seen[id(cell)][1] for cell in row))
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
        # equal cells are one tuple, so identity decides equality from here on
        for i in range(n):
            for j in range(i + 1, n):
                if self.table[i][j] is not self.table[j][i]:
                    raise ValueError(f"structure table not commutative at ({i}, {j})")
        # O(n) of the data __eq__ compares: equal specs hash alike
        self._hash = hash((self.unity, self.table[-1][-1] if n else ()))
        for i in range(n):
            if mul(self, self.unity, self.basis(i)) != self.basis(i):
                raise ValueError(f"unity law fails on basis element {i}")
        self.power_basis: bool = self._is_power_basis()

    def _is_power_basis(self) -> bool:
        n = self.rank
        if n == 0 or self.unity != self.basis(0):
            return False
        if n == 1:
            return True
        # rows 0 and n - 1 hold the 2n - 1 distinct powers x^(i+j): compare
        # those by value once, then every other cell by identity, in O(n^2)
        tab, want = self.table, _power_table(self.table[n - 1][1])
        powers = [*tab[0], *tab[n - 1][1:]]
        if powers != [*want[0], *want[n - 1][1:]]:
            return False
        return all(tab[i][j] is powers[i + j] for i in range(n) for j in range(n))

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


def smul(k: int, a: Sequence[int]) -> Coords:
    return tuple(k * x for x in a)


def mul(spec: AlgebraSpec, a: Sequence[int], b: Sequence[int]) -> Coords:
    """Product in the algebra, expanded bilinearly through the table."""
    n = spec.rank
    return tuple(_expand(spec.table, _support(_coords(a, n)), _support(_coords(b, n)), [0] * n))


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
    """(sigma, tau)-derivation, checked once at construction (or made by
    _scaled from one that was); sigma and tau are kept as Endomorphisms
    (see _twist_pair)."""

    __slots__ = ("sigma", "tau")

    def __init__(self, spec: AlgebraSpec, images, sigma, tau, name: str | None = None):
        super().__init__(spec, images, name)
        self.sigma, self.tau = _twist_pair(spec, sigma, tau)
        bad = _backend.derivation_failure(spec.table, self.images, self.sigma.images, self.tau.images)
        if bad is not None:
            raise ValueError(f"D is not a derivation for this pair (law fails at basis pair {bad})")

    def _scaled(self, c: Sequence[int]) -> Derivation:
        """x -> c D(x). The law is linear in D and the algebra commutative,
        so this is a derivation for the same pair and is not scanned."""
        spec = self.spec
        out = Derivation.__new__(Derivation)
        LinearMap.__init__(out, spec, [mul(spec, c, img) for img in self.images])
        out.sigma, out.tau = self.sigma, self.tau
        return out

    def checked_for(self, spec: AlgebraSpec, sigma, tau) -> bool:
        """True when D is known to satisfy the law for this spec and pair."""
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
    zero = (spec.zero(),) * n
    if spec.power_basis and n > 1:
        if _law_failure(spec.table, imgs, zero, imgs, ((k, 1) for k in range(n))) is None:
            return None
    return _law_failure(spec.table, imgs, zero, imgs, ((i, j) for i in range(n) for j in range(i, n)))


def is_endomorphism(spec: AlgebraSpec, m) -> bool:
    """True when m is unital and multiplicative on every basis pair."""
    return endomorphism_failure(spec, m) is None


def associativity_failure(spec: AlgebraSpec) -> tuple | None:
    """First basis triple (i, j, k) with (ei*ej)*ek != ei*(ej*ek), else None."""
    n = spec.rank
    zero = (spec.zero(),) * n
    ident = tuple(spec.basis(i) for i in range(n))
    for i, left in enumerate(spec.table):  # the law for D = (x -> ei*x), tau = id
        pair = _law_failure(spec.table, left, zero, ident, product(range(n), repeat=2))
        if pair is not None:
            return (i, *pair)
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


def sigma_tau_power_sum(spec: AlgebraSpec, sigma, tau, alpha: Sequence[int], k: int) -> Coords:
    """Sum of sigma(alpha^i) tau(alpha^j) over i + j = k - 1 (k terms).

    This is the factor with D(alpha^k) = (sum) * D(alpha) for any
    (sigma, tau)-derivation; k must be at least 1.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    sigma, tau = _twist_pair(spec, sigma, tau)
    imgs = (_apply(m.images, spec.element(alpha)) for m in (sigma, tau))
    # P_(i+1) = s P_i + t^i, from P_1 = 1, where the sum is symmetric in
    # (s, t) = (sigma(alpha), tau(alpha)): s, the fixed factor, is the sparser
    s_alpha, t_alpha = sorted(imgs, key=lambda v: len(_support(v)))
    total = t_pow = spec.unity
    for _ in range(k - 1):
        t_pow = mul(spec, t_pow, t_alpha)
        total = add(mul(spec, s_alpha, total), t_pow)
    return total


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


def _nested_ints(v, depth: int) -> bool:
    # v is a list nested depth deep with int leaves
    if depth == 0:
        return type(v) is int
    return isinstance(v, list) and all(_nested_ints(x, depth - 1) for x in v)


def spec_from_json(data: dict) -> AlgebraSpec:
    """Inverse of spec_to_json; a missing or malformed field is a ValueError
    naming it."""
    for key, depth, form in (("table", 3, "rows of integer lists"), ("unity", 1, "integers")):
        if not isinstance(data, dict) or key not in data:
            raise ValueError(f"algebra spec lacks field {key!r}")
        if not _nested_ints(data[key], depth):
            raise ValueError(f"algebra spec field {key!r} must be a list of {form}, got {data[key]!r}")
    labels = data.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise ValueError(f"algebra spec field 'labels' must be a list, got {labels!r}")
    spec = AlgebraSpec(data["table"], data["unity"], labels)
    if spec.rank != data.get("rank", spec.rank):
        raise ValueError("rank does not match table size")
    return spec
