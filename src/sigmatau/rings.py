"""Number rings presented as structure-constant algebras.

Three families:

* cyclotomic ring of an odd prime p, power basis {1, z, ..., z^(p-2)} where
  z is a primitive p-th root of unity and z^(p-1) = -(1 + z + ... + z^(p-2));
* quadratic ring of a square-free d: Z[sqrt(d)] when d != 1 (mod 4), and
  Z[theta] with theta = (1 + sqrt(d))/2, theta^2 = (d-1)/4 + theta, when
  d == 1 (mod 4); the conjugation sends theta to 1 - theta;
* biquadratic ring Z[sqrt(m), sqrt(n)], basis {1, sqrt(m), sqrt(n), sqrt(mn)}.

The first two are Z[x]/(f) on a power basis, so their tables come from x^n
alone (algebra._power_table); the biquadratic table is written out.

Every unital endomorphism of these rings is one that endomorphisms() lists
(z goes to some z^u, sqrt(m) to +-sqrt(m)), so _name_of reads a checked
map's name off its images in O(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import AlgebraSpec, Coords, Endomorphism, _power_table
from .intlinalg import is_prime


def _is_square_free(d: int) -> bool:
    """True when d != 0 and no prime square divides d.

    Trial division runs only up to the cube root of what is left, dividing
    out each factor found. The cofactor then has no prime factor at or below
    its cube root, so it has at most two, and it is square-free iff it is not
    a perfect square. That is O(|d|^(1/3)), about 0.05 s at |d| = 10^17;
    larger |d| needs the up-front refusal of ROADMAP item 12.
    """
    d = abs(d)
    if d == 0:
        return False
    f = 2
    while f * f * f <= d:
        if d % f == 0:
            d //= f
            if d % f == 0:
                return False
        f += 1
    r = math.isqrt(d)
    return d == 1 or r * r != d


@dataclass(frozen=True, slots=True)
class CyclotomicRing:
    p: int
    spec: AlgebraSpec


@dataclass(frozen=True, slots=True)
class QuadraticRing:
    d: int
    spec: AlgebraSpec

    @property
    def one_mod4(self) -> bool:
        """True when the basis is 1, theta rather than 1, sqrt(d)."""
        return self.d % 4 == 1


@dataclass(frozen=True, slots=True)
class BiquadraticRing:
    m: int
    n: int
    spec: AlgebraSpec

    @property
    def gcd_split(self) -> tuple[int, int, int]:
        """(k, r, s) with k = gcd(m, n), m = k r, n = k s."""
        k = math.gcd(self.m, self.n)
        return k, self.m // k, self.n // k


def make_cyclotomic(p: int) -> CyclotomicRing:
    """Ring of integers Z[z] of the p-th cyclotomic field, p an odd prime."""
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    n = p - 1
    labels = ["1"] + [f"z^{i}" if i > 1 else "z" for i in range(1, n)]
    # z^(p-1) = -(1 + z + ... + z^(p-2)); folding once more gives z^p = 1
    table = _power_table((-1,) * n)
    return CyclotomicRing(p, AlgebraSpec(table, table[0][0], labels))


def zeta_power(ring: CyclotomicRing, e: int) -> Coords:
    """Coordinates of z^e, for any integer exponent e."""
    # the table holds z^(i+j) for i, j < p - 1, which covers every residue
    e %= ring.p
    return ring.spec.table[0][e] if e < ring.p - 1 else ring.spec.table[1][-1]


def _exponent(ring: CyclotomicRing, endo: Endomorphism) -> int:
    """u with endo(z) = z^u, read off the checked map in O(p): z^u is the
    basis vector e_u for u <= p - 2, and z^(p-1) = -(1 + z + ... + z^(p-2))."""
    z_image = endo.images[1]
    return z_image.index(1) if 1 in z_image else ring.p - 1


def make_quadratic(d: int) -> QuadraticRing:
    """Quadratic ring of integers for a square-free d not in {0, 1}."""
    if d in (0, 1):
        raise ValueError("d must differ from 0 and 1")
    if not _is_square_free(d):
        raise ValueError(f"d must be square-free, got {d}")
    top, label = (((d - 1) // 4, 1), "theta") if d % 4 == 1 else ((d, 0), f"sqrt({d})")
    table = _power_table(top)
    return QuadraticRing(d, AlgebraSpec(table, table[0][0], ["1", label]))


def make_biquadratic(m: int, n: int) -> BiquadraticRing:
    """Z[sqrt(m), sqrt(n)] for distinct square-free m, n outside {0, 1}."""
    if m in (0, 1) or n in (0, 1):
        raise ValueError("m and n must differ from 0 and 1")
    if m == n:
        raise ValueError("m and n must be distinct")
    if not _is_square_free(m) or not _is_square_free(n):
        raise ValueError("m and n must be square-free")
    # basis 1, sqrt(m), sqrt(n), sqrt(mn)
    table = [
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
        [(0, 1, 0, 0), (m, 0, 0, 0), (0, 0, 0, 1), (0, 0, m, 0)],
        [(0, 0, 1, 0), (0, 0, 0, 1), (n, 0, 0, 0), (0, n, 0, 0)],
        [(0, 0, 0, 1), (0, 0, m, 0), (0, n, 0, 0), (m * n, 0, 0, 0)],
    ]
    labels = ["1", f"sqrt({m})", f"sqrt({n})", f"sqrt({m * n})"]
    spec = AlgebraSpec(table, (1, 0, 0, 0), labels)
    return BiquadraticRing(m, n, spec)


_PHI_SIGNS = {"phi1": (1, 1), "phi2": (1, -1), "phi3": (-1, 1), "phi4": (-1, -1)}


def _endomorphism_names(ring) -> list[str]:
    if isinstance(ring, CyclotomicRing):
        return [str(u) for u in range(1, ring.p)]
    if isinstance(ring, QuadraticRing):
        return ["id", "conj"]
    if isinstance(ring, BiquadraticRing):
        return list(_PHI_SIGNS)
    raise TypeError(f"unsupported ring {ring!r}")


def _endomorphism_images(ring, name: str) -> tuple[Coords, ...]:
    # basis images of the named map; correct by construction, not checked here
    if isinstance(ring, CyclotomicRing):
        return tuple(zeta_power(ring, int(name) * i) for i in range(ring.p - 1))
    if isinstance(ring, QuadraticRing):
        conj = ((1, 0), (1, -1)) if ring.one_mod4 else ((1, 0), (0, -1))
        return ((1, 0), (0, 1)) if name == "id" else conj
    sm, sn = _PHI_SIGNS[name]
    return ((1, 0, 0, 0), (0, sm, 0, 0), (0, 0, sn, 0), (0, 0, 0, sm * sn))


def endomorphisms(ring) -> list[Endomorphism]:
    """All unital ring endomorphisms fixing the base ring, in canonical order.

    Cyclotomic: p-1 maps z -> z^u, u = 1..p-1, named by the exponent.
    Quadratic: identity and conjugation, named "id" and "conj".
    Biquadratic: the four sign patterns phi1..phi4 on (sqrt(m), sqrt(n)),
    with sqrt(mn) sent to the product of the two signs times sqrt(mn).

    Each map is checked as it is built. Cyclotomic and quadratic specs have
    a power basis, so that check multiplies n basis pairs, not n(n+1)/2.
    """
    return [
        Endomorphism(ring.spec, _endomorphism_images(ring, name), name=name)
        for name in _endomorphism_names(ring)
    ]


def endomorphism_by_name(ring, key) -> Endomorphism:
    """Look up an endomorphism by its canonical name (or exponent)."""
    names = _endomorphism_names(ring)
    key = str(key)
    if key not in names:
        raise ValueError(f"no endomorphism named {key!r}; choose from: {', '.join(names)}")
    return Endomorphism(ring.spec, _endomorphism_images(ring, key), name=key)


def _name_of(ring, endo: Endomorphism) -> str:
    """Name of a checked endomorphism of ring, read off its images in O(n):
    the exponent u of z -> z^u, id or conj, or phi1..phi4 by the two signs."""
    images = endo.images
    if isinstance(ring, CyclotomicRing):
        return str(_exponent(ring, endo))
    if isinstance(ring, QuadraticRing):
        return "id" if images[1] == (0, 1) else "conj"
    return f"phi{1 + 2 * (images[1][1] < 0) + (images[2][2] < 0)}"


# family -> (ring type, maker, parameter names), read by the JSON form below
# and by the CLI's --ring parser
_FAMILIES = {
    "cyclotomic": (CyclotomicRing, make_cyclotomic, ("p",)),
    "quadratic": (QuadraticRing, make_quadratic, ("d",)),
    "biquadratic": (BiquadraticRing, make_biquadratic, ("m", "n")),
}


def ring_to_json(ring) -> dict:
    for family, (kind, _, keys) in _FAMILIES.items():
        if isinstance(ring, kind):
            return {"family": family, **{key: getattr(ring, key) for key in keys}}
    raise TypeError(f"unsupported ring {ring!r}")


def ring_from_json(data: dict):
    """Inverse of ring_to_json; a missing or malformed field is a ValueError naming it."""
    family = data.get("family") if isinstance(data, dict) else None
    if family not in _FAMILIES:
        raise ValueError(f"unknown ring family {family!r} in {data!r}")
    _, make, keys = _FAMILIES[family]
    for key in keys:
        if type(data.get(key)) is not int:
            raise ValueError(f"{family} ring field {key!r} is missing or not an integer")
    return make(*(data[key] for key in keys))
