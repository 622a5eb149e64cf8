"""Independent reference implementations used to validate the package.

Everything here is deliberately naive: cofactor expansion, Fraction-based
Gaussian elimination, message-space enumeration. The point is a second code
path with no shared logic, not speed. The one exception is
det_bareiss_every_row, the package's Bareiss loop without its skip of the
updates that leave a row unchanged: it checks that skip alone.
"""

from fractions import Fraction
from itertools import combinations, product


def det_cofactor(a):
    n = len(a)
    if n == 0:
        return 1
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        if a[0][j] == 0:
            continue
        minor = [[a[r][c] for c in range(n) if c != j] for r in range(1, n)]
        term = a[0][j] * det_cofactor(minor)
        total += term if j % 2 == 0 else -term
    return total


def det_bareiss_every_row(a):
    """Bareiss elimination that updates every row below the pivot at every
    step, whether or not the update can change it."""
    n = len(a)
    if n == 0:
        return 1
    a = [list(r) for r in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = a[k][k]
        rk = a[k]
        for i in range(k + 1, n):
            row = a[i]
            aik = row[k]
            row[k] = 0
            for j in range(k + 1, n):
                # exact division: every Bareiss minor is an integer
                row[j] = (pk * row[j] - aik * rk[j]) // prev
        prev = pk
    return sign * a[n - 1][n - 1]


def solve_via_adjugate(a, c):
    """Unique integer solution of a nonsingular square system, or None.

    x = adj(A) c / det(A), with every determinant by cofactor expansion; x is
    integral exactly when det(A) divides every entry of adj(A) c.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("square system required")
    d = det_cofactor(a)
    if d == 0:
        raise ValueError("adjugate solve needs det != 0")
    # entry i of adj(A) c is det(A with column i replaced by c)
    y = [
        det_cofactor([[c[r] if col == i else a[r][col] for col in range(n)] for r in range(n)])
        for i in range(n)
    ]
    if any(v % d for v in y):
        return None
    return tuple(v // d for v in y)


def mat_mul(a, b):
    """Product of two integer matrices given as lists of rows."""
    if any(len(row) != len(b) for row in a):
        raise ValueError("dimension mismatch")
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def cyclotomic_adjugate_witness(p, u, w, c):
    """The paper's innerness route on Z[z], with sigma(z) = z^u, tau(z) = z^w
    and c = D(z): beta = adj(A) c / det(A), or None when det(A) does not
    divide every entry of adj(A) c.

    A is the multiplication-by-(z^w - z^u) matrix, whose determinant is
    +-p by theorem (Washington, Lemma 1.4); anything else is a fault. Builds
    n^2 cofactors, so O(p^5).
    """
    from sigmatau import derivations

    adj, det = derivations._adjugate_det_A(p, w, u)
    assert abs(det) == p, f"det A({p}, {w}, {u}) = {det}, expected +-{p}"
    y = [sum(r * v for r, v in zip(row, c)) for row in adj]
    if any(v % det for v in y):
        return None
    return tuple(v // det for v in y)


def is_square_free_trial(d):
    """True when no square f^2 > 1 divides d, by trial division up to sqrt(|d|)."""
    d = abs(d)
    if d == 0:
        return False
    f = 2
    while f * f <= d:
        if d % (f * f) == 0:
            return False
        f += 1
    return True


def is_prime_trial(q):
    """Primality by trial division up to the square root of q."""
    if q < 2:
        return False
    if q < 4:
        return True
    if q % 2 == 0:
        return False
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


def rank_fraction(rows):
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    row = 0
    for col in range(cols):
        piv = next((r for r in range(row, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / m[row][col]
        m[row] = [v * inv for v in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col]:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[row])]
        row += 1
        rank += 1
    return rank


def naive_min_distance(generator_rows, q):
    """Smallest Hamming weight over all nonzero messages, via full enumeration."""
    k = len(generator_rows)
    n = len(generator_rows[0])
    best = None
    for msg in product(range(q), repeat=k):
        if not any(msg):
            continue
        word = [sum(m * row[i] for m, row in zip(msg, generator_rows)) % q for i in range(n)]
        wt = sum(1 for v in word if v)
        if best is None or wt < best:
            best = wt
    return best


def gray_min_weight_gf2(masks, start, stop):
    """Minimum Hamming weight over message indices start..stop, Gray-code walk.

    masks[b] is generator row b as a bitmask. Message index m encodes the
    codeword of gray(m) = m ^ (m >> 1); index 0 is the zero word, so a whole
    code is start=1, stop=2**k - 1. None for an empty range. The least
    nonzero weight of the bit-sliced histogram is checked against it.
    """
    if stop < start:
        return None
    g = start ^ (start >> 1)
    word = 0
    b = 0
    while g:
        if g & 1:
            word ^= masks[b]
        g >>= 1
        b += 1
    best = word.bit_count()
    for m in range(start + 1, stop + 1):
        word ^= masks[(m & -m).bit_length() - 1]
        best = min(best, word.bit_count())
    return best


def naive_weight_counts(generator_rows, q, n):
    counts = [0] * (n + 1)
    k = len(generator_rows)
    seen = set()
    for msg in product(range(q), repeat=k):
        word = tuple(
            sum(m * row[i] for m, row in zip(msg, generator_rows)) % q for i in range(n)
        )
        if word in seen:
            continue  # duplicate words arise when rows are dependent mod q
        seen.add(word)
        counts[sum(1 for v in word if v)] += 1
    return counts


def _rank_mod_q(rows, q):
    """Rank over GF(q), q prime, by elimination with Fermat inverses."""
    m = [[v % q for v in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], q - 2, q)
        for r in range(rank + 1, len(m)):
            f = m[r][col] * inv % q
            m[r] = [(v - f * w) % q for v, w in zip(m[r], m[rank])]
        rank += 1
    return rank


def min_dependent_columns(generator_rows, q, n):
    """Least number of the n columns of G that are linearly dependent mod q,
    found by ranking column subsets of increasing size; None when all n are
    independent. This is the dual code's minimum distance, found without
    enumerating the dual."""
    cols = [[row[c] for row in generator_rows] for c in range(n)]
    for size in range(1, n + 1):
        for chosen in combinations(cols, size):
            if _rank_mod_q(chosen, q) < size:
                return size
    return None


def odometer_weight_counts(rows, q, n):
    """Weight histogram over all q**k messages, zero included, by a base-q
    odometer that passes the running codeword down one row multiple per level."""
    counts = [0] * (n + 1)
    k = len(rows)

    def rec(i, cur):
        if i == k:
            counts[n - cur.count(0)] += 1
            return
        row = rows[i]
        rec(i + 1, cur)
        for _ in range(q - 1):
            cur = [(a + b) % q for a, b in zip(cur, row)]
            rec(i + 1, cur)

    rec(0, [0] * n)
    return counts


def ring_multiply(table, x, y):
    n = len(table)
    out = [0] * n
    for i in range(n):
        if x[i] == 0:
            continue
        for j in range(n):
            if y[j] == 0:
                continue
            c = x[i] * y[j]
            cell = table[i][j]
            for r in range(n):
                out[r] += c * cell[r]
    return tuple(out)


def apply_linear(images, x):
    n = len(images)
    return tuple(sum(x[i] * images[i][r] for i in range(n)) for r in range(n))


def derivation_law_holds(table, d_images, s_images, t_images, pairs):
    """Twisted Leibniz law checked on explicit element pairs, from scratch."""
    for x, y in pairs:
        lhs = apply_linear(d_images, ring_multiply(table, x, y))
        rhs_a = ring_multiply(table, apply_linear(d_images, x), apply_linear(t_images, y))
        rhs_b = ring_multiply(table, apply_linear(s_images, x), apply_linear(d_images, y))
        if lhs != tuple(a + b for a, b in zip(rhs_a, rhs_b)):
            return False
    return True


def first_law_failure(table, d_images, s_images, t_images):
    """First basis pair (i, j) in row-major order where the twisted Leibniz
    law fails, each pair checked from scratch, else None."""
    units = basis_elements(len(table))
    for i, j in product(range(len(table)), repeat=2):
        if not derivation_law_holds(table, d_images, s_images, t_images, [(units[i], units[j])]):
            return (i, j)
    return None


def associativity_triple_loop(table):
    """First basis triple (i, j, k) in row-major order with
    (ei*ej)*ek != ei*(ej*ek), multiplying both sides out, else None."""
    units = basis_elements(len(table))
    for i, j, k in product(range(len(table)), repeat=3):
        if ring_multiply(table, table[i][j], units[k]) != ring_multiply(table, units[i], table[j][k]):
            return (i, j, k)
    return None


def derivation_lattice(spec, sigma, tau):
    """Z-basis of every (sigma, tau)-derivation of spec, one row per basis
    derivation, each row the n^2 coordinates of D(e_0), ..., D(e_{n-1}).

    The unknowns are the coordinates d[a][s] of D(e_a). The law at (e_i, e_j)
    reads, on coordinate r,

        sum_a table[i][j][a] d[a][r] = (D(e_i) tau(e_j))_r + (sigma(e_i) D(e_j))_r,

    linear in the unknowns, with every product multiplied out here. The
    solutions are the integer kernel of that n^3 x n^2 system: the rows of
    the HNF transform U whose rows of U M^T = H are zero.
    """
    from sigmatau.intlinalg import hermite_normal_form

    table, n = spec.table, spec.rank
    units = basis_elements(n)
    d_tau = [[ring_multiply(table, units[s], t) for t in tau.images] for s in range(n)]
    sigma_d = [[ring_multiply(table, g, units[s]) for s in range(n)] for g in sigma.images]
    mt = []  # one row per unknown d[a][s], one column per equation (i, j, r)
    for a, s in product(range(n), repeat=2):
        mt.append([
            (table[i][j][a] if s == r else 0)
            - (d_tau[s][j][r] if a == i else 0)
            - (sigma_d[i][s][r] if a == j else 0)
            for i, j, r in product(range(n), repeat=3)
        ])
    h, u = hermite_normal_form(mt)
    return [u[k] for k, row in enumerate(h) if not any(row)]


def basis_elements(n):
    return [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]


def stacked_inner_witness(table, d_images, s_images, t_images):
    """beta with D(e_i) = beta (tau(e_i) - sigma(e_i)) on every basis element,
    or None when no integral beta exists.

    Stacks the n^2 x n system over the whole basis and solves it over Q by
    Fraction Gauss-Jordan. The system must have full column rank, as it has
    over a domain with sigma != tau; the rational solution is then unique and
    the answer is whether it is integral and solves every row.
    """
    n = len(table)
    units = basis_elements(n)
    rows = []
    for s, t, d in zip(s_images, t_images, d_images):
        g = tuple(a - b for a, b in zip(t, s))
        cols = [ring_multiply(table, g, e) for e in units]
        rows.extend([cols[j][r] for j in range(n)] + [d[r]] for r in range(n))
    pivots = {}
    for row in rows:
        v = [Fraction(x) for x in row]
        for col, prow in pivots.items():
            if v[col]:
                f = v[col]
                v = [a - f * b for a, b in zip(v, prow)]
        col = next((c for c in range(n) if v[c]), None)
        if col is None:
            if v[n]:
                return None  # inconsistent over Q
            continue
        inv = 1 / v[col]
        v = [a * inv for a in v]
        for c, prow in list(pivots.items()):
            if prow[col]:
                f = prow[col]
                pivots[c] = [a - f * b for a, b in zip(prow, v)]
        pivots[col] = v
        if len(pivots) == n:
            break
    if len(pivots) < n:
        raise ValueError("stacked system does not have full column rank")
    beta = [pivots[c][n] for c in range(n)]
    if any(b.denominator != 1 for b in beta):
        return None
    beta = tuple(int(b) for b in beta)
    if any(sum(r * b for r, b in zip(row, beta)) != row[n] for row in rows):
        return None
    return beta
