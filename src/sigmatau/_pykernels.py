"""Pure-Python kernels over plain ints.

Three kinds live here. Twins of the compiled kernels in _kernels.pyx: those
bail out (OverflowError) when int64 intermediates could overflow, and
_backend falls back to the twin. The one product through a structure table,
_support, _expand and _apply, shared by algebra's mul and maps and by
_law_failure, the one basis-pair law scan. And the bit-sliced weight
histograms over GF(2) and GF(q), which differ in how they build each
column's lane masks and share one lane counter: _ripple adds columns to its
bit planes and _tally_lanes counts the lanes of each weight. Over GF(2) a
low row's lane pattern is one period doubled by shifted ORs, and the
columns no high row touches, the same in every block, are rippled once into
base planes that each block starts from. Over GF(q) a column keeps q masks
of q^low bits; when q^2 > 2^14 the last row never goes into the lanes, so a
one-row code at large q walks its q words rather than build n q^2 bits of
masks.
Helpers stay private, so a tracer wrapping the public ones sees no product
in a kernel.
"""

from __future__ import annotations

from itertools import product


def det_bareiss(rows) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Step k replaces a_ij by (p_k a_ij - a_ik a_kj) / p_(k-1), with p_k the
    pivot. When a_ik = 0 and p_k = p_(k-1) that is a_ij itself, so such a
    row is left as it is: the update would change none of its entries.
    Multiplication matrices such as conjecture.build_A's, whose columns
    mostly have two nonzeros, skip many rows this way.
    """
    n = len(rows)
    if n == 0:
        return 1
    a = [list(r) for r in rows]
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
        same = pk == prev
        for i in range(k + 1, n):
            row = a[i]
            aik = row[k]
            if aik == 0 and same:
                continue
            row[k] = 0
            for j in range(k + 1, n):
                # exact division: every Bareiss minor is an integer
                row[j] = (pk * row[j] - aik * rk[j]) // prev
        prev = pk
    return sign * a[n - 1][n - 1]


def _support(x) -> list[tuple[int, int]]:
    """(index, coefficient) for each nonzero coordinate of x."""
    return [(s, c) for s, c in enumerate(x) if c]


def _expand(table, a, b, acc: list[int]) -> list[int]:
    """Add the product of supports a and b, expanded through table, to acc."""
    cols = range(len(acc))
    for s, cs in a:
        row = table[s]
        for t, ct in b:
            k = cs * ct
            cell = row[t]
            for r in cols:
                acc[r] += k * cell[r]
    return acc


def _apply(imgs, x) -> tuple[int, ...]:
    """Image of coordinates x under the additive map with basis images imgs."""
    n = len(imgs)
    acc = [0] * n
    for s, c in enumerate(x):
        if c:
            im = imgs[s]
            for r in range(n):
                acc[r] += c * im[r]
    return tuple(acc)


def derivation_failure(table, d, sig, tau):
    """First basis pair (i, j) violating D(ei*ej) == D(ei)tau(ej) + sig(ei)D(ej).

    table is the n x n x n structure tensor, d/sig/tau are image tables
    (row i = coordinates of the image of basis element i). Returns None when
    the twisted Leibniz law holds on every pair, scanning in row-major order.
    """
    return _law_failure(table, d, sig, tau, product(range(len(table)), repeat=2))


def _law_failure(table, d, sig, tau, pairs):
    # derivation_failure's law on the given pairs, in their order. D of a
    # cell is kept by the cell's identity: AlgebraSpec stores equal cells as
    # one tuple, so a power basis has 2n - 1 distinct cells, not n^2.
    n = len(table)
    d_supp, s_supp, t_supp = ([_support(row) for row in m] for m in (d, sig, tau))
    lhs = {}
    for i, j in pairs:
        rhs = _expand(table, d_supp[i], t_supp[j], [0] * n)
        _expand(table, s_supp[i], d_supp[j], rhs)
        cell = table[i][j]
        want = lhs.get(id(cell))
        if want is None:
            want = lhs[id(cell)] = _apply(d, cell)
        if want != tuple(rhs):
            return (i, j)
    return None


# Lanes per block of the bit-sliced enumerations: one block's big ints hold
# at most 2^14 bits (2 KB) each, so memory does not grow with q^k.
_BLOCK_BITS = 14


def _ripple(planes: list[int], cols) -> list[int]:
    """Add every mask of cols to the ripple counter whose bit planes are
    planes, in place: bit j of a lane's count is in planes[j]."""
    depth = len(planes)
    for x in cols:
        for j in range(depth):
            p = planes[j]
            planes[j] = p ^ x
            x &= p
            if not x:
                break
    return planes


def _tally_lanes(planes: list[int], full: int, offset: int, counts: list[int]) -> None:
    """Add to counts the weight of every lane of full: offset plus the lane's
    count in the bit planes. counts has one slot per weight."""
    # split the lanes by the planes, top plane first, and count each leaf
    stack = [(full, len(planes) - 1, offset)]
    while stack:
        s, j, w = stack.pop()
        if j < 0:
            counts[w] += s.bit_count()
            continue
        one = s & planes[j]
        if one:
            stack.append((one, j - 1, w + (1 << j)))
        if one != s:
            stack.append((s ^ one, j - 1, w))


def weight_counts_gf2(masks, n: int) -> list[int]:
    """Weight histogram (length n+1) over all 2**k messages, zero included.

    masks[b] is generator row b as a bitmask of its n columns.
    """
    # Bit-sliced: lane m of a big int holds one coordinate of the codeword of
    # message m. The low rows span the lanes of a block; the high rows step
    # in Gray order, one XOR per block, and flip whole columns.
    k = len(masks)
    low = min(k, _BLOCK_BITS)
    lanes = 1 << low
    full = (1 << lanes) - 1
    # bit m of cols[c] is coordinate c of the codeword of low message m: the
    # XOR, over the low rows r that have column c set, of "bit r of m". That
    # pattern repeats half zeros then half ones, half = 2^r; one period is
    # doubled by shifted ORs until it fills the block.
    cols = [0] * n
    for r in range(low):
        half = 1 << r
        pattern = ((1 << half) - 1) << half
        width = 2 * half
        while width < lanes:
            pattern |= pattern << width
            width *= 2
        row = masks[r]
        while row:
            bit = row & -row
            cols[bit.bit_length() - 1] ^= pattern
            row ^= bit
    # Columns the low rows never touch are constant on a block: they add
    # one to the offset where the high message sets them. Columns no high
    # row touches are the same in every block, so they ripple once into the
    # base planes, and each block adds only the columns both kinds touch.
    touched = 0
    for m in masks[low:]:
        touched |= m
    const = sum(1 << c for c in range(n) if not cols[c])
    fixed = [x for c, x in enumerate(cols) if x and not touched >> c & 1]
    live = [(c, x) for c, x in enumerate(cols) if x and touched >> c & 1]
    base = _ripple([0] * n.bit_length(), fixed)
    counts = [0] * (n + 1)
    high = 0
    for h in range(1 << (k - low)):
        if h:
            high ^= masks[low + (h & -h).bit_length() - 1]
        flipped = [x ^ full if high >> c & 1 else x for c, x in live]
        _tally_lanes(_ripple(base.copy(), flipped), full, (high & const).bit_count(), counts)
    if sum(counts) != 1 << k:
        raise AssertionError("bit-sliced weight counts do not sum to 2^k")
    return counts


def weight_counts_modq(rows, q: int, n: int) -> list[int]:
    """Weight histogram (length n+1) over all q**k messages, zero included.

    rows are the k generator rows, each a sequence of n residues mod q, q
    prime. Bit-sliced as over GF(2): lane m holds the codeword of the low
    message whose base-q digits are m's, and the high rows step in modular
    q-ary Gray order, shifting whole columns by one row each step.
    """
    k = len(rows)
    # Each column keeps q masks of q^low bits. Past q^2 > 2^14 those cost
    # more than they save unless a high row reuses them, so the last row
    # stays out of the lanes.
    top = k if q * q <= 1 << _BLOCK_BITS else k - 1
    low = 0
    while low < top and q ** (low + 1) <= 1 << _BLOCK_BITS:
        low += 1
    full = (1 << q ** low) - 1
    # Column c's one-hot masks hot[v] hold the lanes whose low part of
    # coordinate c is v. Low row r adds digit d times rows[r][c] to the
    # lanes shifted by d q^r, scattered from the nonzero masks only. Once
    # built, nonzero[s] holds the lanes where the low part plus s is
    # nonzero mod q.
    live = []
    const = []
    for c in range(n):
        hot = [1] + [0] * (q - 1)
        span = 1
        for r in range(low):
            g = rows[r][c] % q
            new = [0] * q
            for v, mask in enumerate(hot):
                if mask:
                    for d in range(q):
                        new[(v + d * g) % q] |= mask << d * span
            hot = new
            span *= q
        if hot[0] == full:
            const.append(c)  # the low rows never touch column c
        else:
            live.append((c, [full ^ hot[-s % q] for s in range(q)]))
    counts = [0] * (n + 1)
    shift = [0] * n  # the high message's coordinates, mod q
    for h in range(q ** (k - low)):
        if h:
            # digit v_q(h) of the high message steps by one
            r, t = low, h
            while t % q == 0:
                t //= q
                r += 1
            shift = [(a + b) % q for a, b in zip(shift, rows[r])]
        planes = _ripple([0] * n.bit_length(), [nonzero[shift[c]] for c, nonzero in live])
        _tally_lanes(planes, full, sum(1 for c in const if shift[c]), counts)
    if sum(counts) != q ** k:
        raise AssertionError("bit-sliced weight counts do not sum to q^k")
    return counts
