"""Pure-Python twins of the compiled kernels.

Everything here works on plain Python ints, so there is no overflow to worry
about; the compiled versions in _kernels.pyx bail out (OverflowError) when
int64 intermediates could overflow and the dispatcher falls back to these.
"""

from __future__ import annotations


def det_bareiss(rows) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
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
        for i in range(k + 1, n):
            row = a[i]
            aik = row[k]
            row[k] = 0
            for j in range(k + 1, n):
                # exact division: every Bareiss minor is an integer
                row[j] = (pk * row[j] - aik * rk[j]) // prev
        prev = pk
    return sign * a[n - 1][n - 1]


def derivation_failure(table, d, sig, tau):
    """First basis pair (i, j) violating D(ei*ej) == D(ei)tau(ej) + sig(ei)D(ej).

    table is the n x n x n structure tensor, d/sig/tau are image tables
    (row i = coordinates of the image of basis element i). Returns None when
    the twisted Leibniz law holds on every pair, scanning in row-major order.
    """
    n = len(table)
    zero = [0] * n
    supports = lambda rows: [
        [(s, c) for s, c in enumerate(row) if c] for row in rows
    ]
    d_supp = supports(d)
    s_supp = supports(sig)
    t_supp = supports(tau)
    for i in range(n):
        di_supp = d_supp[i]
        si_supp = s_supp[i]
        for j in range(n):
            lhs = zero[:]
            for s, c in enumerate(table[i][j]):
                if c:
                    row = d[s]
                    lhs = [x + c * y for x, y in zip(lhs, row)]
            rhs = zero[:]
            for s, cs in di_supp:
                ts = table[s]
                for t, ct in t_supp[j]:
                    k = cs * ct
                    rhs = [x + k * y for x, y in zip(rhs, ts[t])]
            for s, cs in si_supp:
                ts = table[s]
                for t, ct in d_supp[j]:
                    k = cs * ct
                    rhs = [x + k * y for x, y in zip(rhs, ts[t])]
            if lhs != rhs:
                return (i, j)
    return None


# Lanes per block of the bit-sliced GF(2) enumeration: one block's big ints
# hold 2^14 bits (2 KB) each, so memory does not grow with 2^k.
_BLOCK_BITS = 14


def weight_counts_gf2(masks, n: int) -> list[int]:
    """Weight histogram (length n+1) over all 2**k messages, zero included.

    masks[b] is generator row b as a bitmask of its n columns.
    """
    return _weight_counts_gf2(masks, n)


def _weight_counts_gf2(masks, n: int) -> list[int]:
    # _backend calls this private name, so a wrapper put around the public
    # kernel (as perfbench's tracer does) leaves its time with the caller.
    # Bit-sliced: lane m of a big int holds one coordinate of the codeword of
    # message m. The low rows span the lanes of a block; the high rows step
    # in Gray order, one XOR per block, and flip whole columns. A ripple
    # counter of bit planes adds the n columns of every lane at once.
    k = len(masks)
    low = min(k, _BLOCK_BITS)
    lanes = 1 << low
    full = (1 << lanes) - 1
    # bit m of cols[c] is coordinate c of the codeword of low message m: the
    # XOR, over the low rows r that have column c set, of "bit r of m"
    cols = [0] * n
    for r in range(low):
        half = 1 << r
        pattern = (((1 << half) - 1) << half) * full // ((1 << (2 * half)) - 1)
        row = masks[r]
        for c in range(n):
            if row >> c & 1:
                cols[c] ^= pattern
    # columns the low rows never touch are constant on a block
    const = sum(1 << c for c in range(n) if not cols[c])
    live = [(c, x) for c, x in enumerate(cols) if x]
    depth = n.bit_length()
    counts = [0] * (n + 1)
    high = 0
    for h in range(1 << (k - low)):
        if h:
            high ^= masks[low + (h & -h).bit_length() - 1]
        planes = [0] * depth
        for c, x in live:
            if high >> c & 1:
                x ^= full
            for j in range(depth):
                p = planes[j]
                planes[j] = p ^ x
                x &= p
                if not x:
                    break
        # split the lanes by the planes, top plane first, and count each leaf
        offset = (high & const).bit_count()
        stack = [(full, depth - 1, offset)]
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
    if sum(counts) != 1 << k:
        raise AssertionError("bit-sliced weight counts do not sum to 2^k")
    return counts


def min_weight_modq(rows, q: int) -> int | None:
    """Minimum weight over all nonzero codewords, exhaustive base-q odometer."""
    k = len(rows)
    if k == 0:
        return None
    n = len(rows[0])
    best = None
    cur = [0] * n

    def rec(i: int, nz: bool) -> None:
        nonlocal best
        if i == k:
            if nz:
                w = sum(1 for v in cur if v)
                if best is None or w < best:
                    best = w
            return
        rec(i + 1, nz)
        row = rows[i]
        for _ in range(q - 1):
            for t in range(n):
                cur[t] = (cur[t] + row[t]) % q
            rec(i + 1, True)
        for t in range(n):
            cur[t] = (cur[t] + row[t]) % q

    rec(0, False)
    return best


def weight_counts_modq(rows, q: int, n: int) -> list[int]:
    """Weight histogram (length n+1) over all q**k codewords, zero included."""
    counts = [0] * (n + 1)
    k = len(rows)
    cur = [0] * n

    def rec(i: int) -> None:
        if i == k:
            counts[sum(1 for v in cur if v)] += 1
            return
        rec(i + 1)
        row = rows[i]
        for _ in range(q - 1):
            for t in range(n):
                cur[t] = (cur[t] + row[t]) % q
            rec(i + 1)
        for t in range(n):
            cur[t] = (cur[t] + row[t]) % q

    rec(0)
    return counts
