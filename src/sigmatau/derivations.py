"""Builders and innerness deciders for twisted derivations of number rings.

A (sigma, tau)-derivation satisfies D(xy) = D(x)tau(y) + sigma(x)D(y); it is
inner when some ring element beta gives D(x) = beta (tau(x) - sigma(x)) for
every x. Builders produce derivations from their free generator images; the
deciders compute beta exactly or name the divisibility that fails.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

from . import intlinalg
from .algebra import (
    AlgebraSpec,
    Coords,
    Derivation,
    Endomorphism,
    LinearMap,
    _images_of,
    _twist_pair,
    add,
    mul,
    mult_matrix,
    smul,
    sub,
)
from .rings import (
    BiquadraticRing,
    CyclotomicRing,
    QuadraticRing,
    _exponent,
    _name_of,
    endomorphism_by_name,
    ring_from_json,
    ring_to_json,
)


@dataclass(frozen=True, slots=True)
class InnernessVerdict:
    inner: bool
    witness: Coords | None = None
    obstruction: str | None = None


@dataclass(frozen=True, slots=True)
class DerivationSpace:
    """A module of derivations spanned by basis_maps, for one (sigma, tau)."""

    ring: object
    sigma: Endomorphism
    tau: Endomorphism
    basis_maps: tuple[Derivation, ...]
    rank: int


def _as_derivation(spec: AlgebraSpec, sigma, tau, D) -> Derivation:
    """D as a (sigma, tau)-Derivation. One already built for this pair is
    taken as it is; anything else is checked here, once."""
    if isinstance(D, Derivation) and D.checked_for(spec, sigma, tau):
        return D
    return Derivation(spec, _images_of(D, spec), sigma, tau)


def _inner_images(spec: AlgebraSpec, sigma, tau, beta) -> tuple[Coords, ...]:
    return tuple(mul(spec, beta, sub(t, s)) for s, t in zip(sigma.images, tau.images))


def inner_derivation(spec: AlgebraSpec, sigma, tau, beta) -> Derivation:
    """The derivation x -> beta (tau(x) - sigma(x))."""
    sigma, tau = _twist_pair(spec, sigma, tau)
    return Derivation(spec, _inner_images(spec, sigma, tau, spec.element(beta)), sigma, tau)


def _assert_witness(d: Derivation, beta) -> None:
    # D and x -> beta (tau - sigma)(x) are both derivations for d's pair and
    # vanish on 1, so they are equal once they agree on the generators
    spec, s, t = d.spec, d.sigma.images, d.tau.images
    if any(mul(spec, beta, sub(t[g], s[g])) != d.images[g] for g in _generators(spec)):
        raise AssertionError("inner witness does not reproduce D")


def _generators(spec: AlgebraSpec) -> range:
    # x alone generates a power-basis spec; otherwise use every basis element
    return range(1, 2) if spec.power_basis else range(spec.rank)


def _make_space(ring, maps: list[Derivation]) -> DerivationSpace:
    rows = [[v for g in _generators(ring.spec) for v in mp.images[g]] for mp in maps]
    rank = intlinalg.rank_int(rows)
    return DerivationSpace(ring, maps[0].sigma, maps[0].tau, tuple(maps), rank)


# ---------------------------------------------------------------- cyclotomic

def _rotate(p: int, c, e: int) -> Coords:
    # coordinates of z^e sum_i c_i z^i on the power basis, for c of length p - 1 or p
    full = tuple(c) + (0,) * (p - len(c))
    e %= p
    out = full[-e:] + full[:-e]
    top = out[p - 1]
    return tuple(v - top for v in out[:-1])


def build_cyclotomic_derivation(ring: CyclotomicRing, sigma, tau, d_zeta) -> Derivation:
    """Derivation with D(1) = 0, D(z) = d_zeta, and every D(z^k) forced.

    With sigma(z) = z^u and tau(z) = z^w, the twisted Leibniz law gives
    D(z^(k+1)) = D(z^k) z^w + z^(uk) D(z); any d_zeta works. A product with
    a power of z is a rotation of the coordinates, so each power is O(p).
    """
    spec = ring.spec
    sigma, tau = _twist_pair(spec, sigma, tau)
    u, w = _exponent(ring, sigma), _exponent(ring, tau)
    d_zeta = spec.element(d_zeta)
    images = [spec.zero(), d_zeta]
    for k in range(1, ring.p - 2):
        images.append(add(_rotate(ring.p, images[k], w), _rotate(ring.p, d_zeta, u * k)))
    return Derivation(spec, images, sigma, tau)


def cyclotomic_basis(ring: CyclotomicRing, sigma, tau) -> DerivationSpace:
    """Module basis D_0..D_{p-2}, the builder at D_i(z) = z^i; rank p - 1.

    D_i agrees with z^i D_0 on z, so the two are equal: only D_0 is built
    and scanned, and each D_i is z^i times it.
    """
    d0 = build_cyclotomic_derivation(ring, sigma, tau, ring.spec.basis(0))
    return _make_space(ring, [d0] + [d0._scaled(ring.spec.basis(i)) for i in range(1, ring.p - 1)])


def _cyclotomic_quotient(p: int, u: int, w: int, c: Coords) -> Coords:
    """beta with c = beta (z^w - z^u), for c whose coordinate sum s p divides.

    With gamma = beta z^u and k = w - u, (z^k - 1) gamma = c modulo
    1 + z + ... + z^(p-1) reads gamma_{j+k} = gamma_j + s/p - c_{j+k} on p
    coordinates (c_{p-1} = 0). Walk it once around j = 0, k, 2k, ... from
    gamma_0 = 0, then rotate by z^-u.
    """
    k, m, c = (w - u) % p, sum(c) // p, (*c, 0)
    gamma = [0] * p
    j = 0
    for _ in range(p - 1):
        nxt = (j + k) % p
        gamma[nxt] = gamma[j] + m - c[nxt]
        j = nxt
    return _rotate(p, gamma, -u)


def cyclotomic_inner_conjectural(ring: CyclotomicRing, sigma, tau, D) -> InnernessVerdict:
    """Innerness over Z[z] by the proven criterion: D is inner iff
    tau(z) - sigma(z) divides D(z), iff 1 - z does, iff p divides the
    coordinate sum of D(z).

    z^w - z^u is an associate of 1 - z, whose norm is Phi_p(1) = p
    (Washington, Introduction to Cyclotomic Fields, Lemma 1.4 and
    Prop. 2.8); the witness is the exact quotient, found in O(p). The name
    is kept from the paper, which conjectured this test.
    """
    der = _as_derivation(ring.spec, sigma, tau, D)
    p = ring.p
    c = der.images[1]
    s = sum(c)
    if s % p:
        return InnernessVerdict(
            False, None,
            f"{p} does not divide the coordinate sum {s} of D(z), so 1 - z does not divide D(z)",
        )
    witness = _cyclotomic_quotient(p, _exponent(ring, der.sigma), _exponent(ring, der.tau), c)
    _assert_witness(der, witness)
    return InnernessVerdict(True, witness, None)


# The paper's adjugate route is a test oracle now (tests/oracles.py). This
# cache stays only because perfbench's tracer reads its cache_info(); ROADMAP
# item 8 removes it, and intlinalg.adjugate, once item 1 drops that read.
@lru_cache(maxsize=1024)
def _adjugate_det_A(p: int, u: int, w: int):
    from .conjecture import build_A  # only this cache needs the sweep module

    a = build_A(p, u, w)
    adj = tuple(tuple(r) for r in intlinalg.adjugate(a))
    return adj, intlinalg.det_bareiss(a)


# ----------------------------------------------------------------- quadratic

def build_quadratic_derivation(ring: QuadraticRing, images) -> LinearMap:
    """Derivation from images (D(1), D(g)) with g the non-unit basis element.

    Every choice with D(1) = 0 satisfies the law for both orderings of the
    identity and the conjugation.
    """
    spec = ring.spec
    if len(images) != 2:
        raise ValueError("two basis images required")
    if any(spec.element(images[0])):
        raise ValueError("D(1) must be zero")
    return LinearMap(spec, [spec.zero(), spec.element(images[1])])


def quadratic_inner(ring: QuadraticRing, sigma, tau, D) -> InnernessVerdict:
    """Divisibility test for innerness over the quadratic ring.

    With (c0, c1) the coordinates of the image of the generator: for
    d != 1 (mod 4), inner iff 2d | c0 and 2 | c1; for d == 1 (mod 4), inner
    iff d divides both t1 = -c0 + c1(d-1)/2 and t2 = 2c0 + c1. As
    2 t1 + t2 = c1 d, d | t1 already gives d | t2. The witness takes tau's
    sign on the generator: it is negated when (sigma, tau) = (id, conj)
    rather than (conj, id). Those are the ring's only two endomorphisms, so
    any two distinct ones are this pair.
    """
    der = _as_derivation(ring.spec, sigma, tau, D)
    c0, c1 = der.images[1]
    eps = der.tau.images[1][1]
    d = ring.d
    if ring.one_mod4:
        t1 = -c0 + c1 * ((d - 1) // 2)
        t2 = 2 * c0 + c1
        if t1 % d:
            return InnernessVerdict(False, None, f"{d} does not divide -c0 + c1*(d-1)/2 = {t1}")
        beta = (eps * (t1 // d), eps * (t2 // d))
    else:
        if c0 % (2 * d):
            return InnernessVerdict(False, None, f"2d = {2 * d} does not divide c0 = {c0}")
        if c1 % 2:
            return InnernessVerdict(False, None, f"2 does not divide c1 = {c1}")
        beta = (eps * (c1 // 2), eps * (c0 // (2 * d)))
    _assert_witness(der, beta)
    return InnernessVerdict(True, beta, None)


# --------------------------------------------------------------- biquadratic

def classify_biquadratic(ring: BiquadraticRing, sigma, tau) -> tuple[str, int]:
    """Case tag and sign for the pair: I couples D(sqrt(mn)) to +-sqrt(m)D(sqrt(n)),
    II to +-sqrt(n)D(sqrt(m)), III forces D(sqrt(mn)) = 0 with
    sqrt(m)D(sqrt(n)) = +-sqrt(n)D(sqrt(m)).

    Two distinct maps among phi1..phi4 agree on exactly one of sqrt(m),
    sqrt(n), sqrt(mn). That generator gives the case (I, II, III in that
    order), and the two maps' common sign on it gives the sign. Raw images
    are checked (_twist_pair); every endomorphism is one of phi1..phi4.
    """
    s, t = (m.images for m in _twist_pair(ring.spec, sigma, tau))
    g = next(g for g in (1, 2, 3) if s[g] == t[g])
    return ("I", "II", "III")[g - 1], s[g][g]


def build_biquadratic_derivation(ring: BiquadraticRing, sigma, tau, free_images) -> Derivation:
    """Derivation from the free data of the pair's case.

    Case I takes D(sqrt(n)) (one coordinate vector) with D(sqrt(m)) = 0,
    case II takes D(sqrt(m)) with D(sqrt(n)) = 0. Case III couples
    D(sqrt(m)) and D(sqrt(n)): pass either a pair (D(sqrt(m)), D(sqrt(n))),
    which is rejected unless sqrt(m) D(sqrt(n)) = +-sqrt(n) D(sqrt(m)), or
    four integer coefficients t1..t4, which give D(sqrt(m)) =
    (m t1, t2, r t3, t4) and D(sqrt(n)) = +-(n t4, s t3, t2, t1) with
    (k, r, s) = gcd_split. The Leibniz step then fixes
    D(sqrt(mn)) = D(sqrt(m)) tau(sqrt(n)) + sigma(sqrt(m)) D(sqrt(n)).
    """
    spec = ring.spec
    sigma, tau = _twist_pair(spec, sigma, tau)
    case, sgn = classify_biquadratic(ring, sigma, tau)
    zero = spec.zero()
    fi = list(free_images)
    if case != "III":
        free = spec.element(fi)
        dm, dn = (zero, free) if case == "I" else (free, zero)
    elif len(fi) == 2 and all(isinstance(v, (list, tuple)) for v in fi):
        dm, dn = spec.element(fi[0]), spec.element(fi[1])
    elif len(fi) == 4:
        t1, t2, t3, t4 = map(operator.index, fi)
        _, r, s = ring.gcd_split
        dm, dn = (ring.m * t1, t2, r * t3, t4), smul(sgn, (ring.n * t4, s * t3, t2, t1))
    else:
        raise ValueError("case III expects four coefficients or a (D(sqrt(m)), D(sqrt(n))) pair")
    d_mn = add(mul(spec, dm, tau.images[2]), mul(spec, sigma.images[1], dn))
    try:
        return Derivation(spec, [zero, dm, dn, d_mn], sigma, tau)
    except ValueError:
        # only a case-III pair can break the law, at (sqrt(n), sqrt(m))
        raise ValueError(
            "case III images must satisfy sqrt(m) D(sqrt(n)) = +-sqrt(n) D(sqrt(m))"
        ) from None


def biquadratic_basis(ring: BiquadraticRing, sigma, tau) -> DerivationSpace:
    """Module basis of four maps, rank 4: the builder at each unit vector e_i,
    taken as the free image in cases I and II and as the coefficients of the
    i-th case-III basis map in case III."""
    sigma, tau = _twist_pair(ring.spec, sigma, tau)
    return _make_space(ring, [
        build_biquadratic_derivation(ring, sigma, tau, ring.spec.basis(i)) for i in range(4)
    ])


def biquadratic_inner(ring: BiquadraticRing, sigma, tau, D) -> InnernessVerdict:
    """Membership test for beta = D(g)/((tau - sigma)(g)), g per the case.

    Case I divides D(sqrt(n)) by 2 sqrt(n): with image (c0, c1, c2, c3) this
    needs 2n | c0, 2n | c1, 2 | c2, 2 | c3. Cases II and III divide
    D(sqrt(m)) by 2 sqrt(m): 2m | c0, 2 | c1, 2m | c2, 2 | c3. The sign
    follows tau's sign on the dividing generator.
    """
    der = _as_derivation(ring.spec, sigma, tau, D)
    case, _sgn = classify_biquadratic(ring, der.sigma, der.tau)
    m, n = ring.m, ring.n
    g = 2 if case == "I" else 1
    c0, c1, c2, c3 = der.images[g]
    if case == "I":
        checks = ((2 * n, c0, "c0"), (2 * n, c1, "c1"), (2, c2, "c2"), (2, c3, "c3"))
        base = (c2 // 2, c3 // 2, c0 // (2 * n), c1 // (2 * n))
    else:
        checks = ((2 * m, c0, "c0"), (2, c1, "c1"), (2 * m, c2, "c2"), (2, c3, "c3"))
        base = (c1 // 2, c0 // (2 * m), c3 // 2, c2 // (2 * m))
    for q, v, name in checks:
        if v % q:
            return InnernessVerdict(False, None, f"{q} does not divide {name} = {v}")
    beta = smul(der.tau.images[g][g], base)
    _assert_witness(der, beta)
    return InnernessVerdict(True, beta, None)


# -------------------------------------------------------------- generic path

@lru_cache(maxsize=512)
def _generic_hnf(spec: AlgebraSpec, s_imgs, t_imgs):
    stack = []
    for i in _generators(spec):
        g = sub(t_imgs[i], s_imgs[i])
        stack.extend(mult_matrix(spec, g))
    h, u = intlinalg.hermite_normal_form(intlinalg.transpose(stack))
    return tuple(tuple(r) for r in stack), h, u


def is_inner_generic(ring, sigma, tau, D) -> InnernessVerdict:
    """Exact innerness for any ring here: solve the integer system
    coords(beta (tau - sigma)(e_i)) == coords(D(e_i)) on generators e_i.

    On a power_basis spec the only generator is x = e_1, an n x n system.
    That is exact because D is a checked Derivation, x -> beta (tau -
    sigma)(x) is another, and two (sigma, tau)-derivations that agree on 1
    and x agree on every x^k. Other specs stack the system over the whole
    basis, n^2 x n.
    """
    der = _as_derivation(ring.spec, sigma, tau, D)
    stack, h, u = _generic_hnf(ring.spec, der.sigma.images, der.tau.images)
    rhs = [v for i in _generators(ring.spec) for v in der.images[i]]
    x = intlinalg._solve_with_hnf(stack, h, u, rhs)
    if x is None:
        return InnernessVerdict(
            False, None,
            "no integer beta solves D(e_i) = beta (tau - sigma)(e_i) over the basis",
        )
    return InnernessVerdict(True, tuple(x), None)


# ------------------------------------------------------------- serialization

def derivation_to_json(ring, sigma, tau, D) -> dict:
    """JSON form of D with its pair; sigma and tau are named by their images."""
    sigma, tau = _twist_pair(ring.spec, sigma, tau)
    return {
        "ring": ring_to_json(ring),
        "sigma": _name_of(ring, sigma),
        "tau": _name_of(ring, tau),
        "images": [list(img) for img in _images_of(D, ring.spec)],
    }


def derivation_from_json(data: dict):
    """Inverse of derivation_to_json: (ring, sigma, tau, LinearMap); a
    missing or malformed field is a ValueError naming it."""
    for key in ("ring", "sigma", "tau", "images"):
        if not isinstance(data, dict) or key not in data:
            raise ValueError(f"derivation lacks field {key!r}")
    ring = ring_from_json(data["ring"])
    sigma = endomorphism_by_name(ring, data["sigma"])
    tau = endomorphism_by_name(ring, data["tau"])
    images = data["images"]
    if not isinstance(images, list) or not all(
        isinstance(img, list) and all(type(c) is int for c in img) for img in images
    ):
        raise ValueError(f"derivation field 'images' must be a list of integer lists, got {images!r}")
    d = LinearMap(ring.spec, [tuple(img) for img in images])
    return ring, sigma, tau, d
