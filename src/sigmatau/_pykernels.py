"""Pure-Python kernels over plain ints.

Two kinds live here. Twins of the compiled kernels in _kernels.pyx: those
bail out (OverflowError) when int64 intermediates could overflow, and
_backend falls back to the twin. And the one product through a structure
table, _support, _expand and _apply, which algebra's mul and maps share with
the pure law kernel. Helpers stay private so that a tracer wrapping this
module's public functions sees each kernel call once, not every product in it.
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
    n = len(table)
    d_supp, s_supp, t_supp = ([_support(row) for row in m] for m in (d, sig, tau))
    for i in range(n):
        for j in range(n):
            rhs = _expand(table, d_supp[i], t_supp[j], [0] * n)
            _expand(table, s_supp[i], d_supp[j], rhs)
            if _apply(d, table[i][j]) != tuple(rhs):
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


def weight_counts_modq(rows, q: int, n: int) -> list[int]:
    """Weight histogram (length n+1) over all q**k codewords, zero included.

    rows are the k generator rows, each a sequence of n residues mod q; the
    odometer passes the running codeword down, one row multiple per level.
    """
    counts = [0] * (n + 1)
    k = len(rows)

    def rec(i: int, cur: list[int]) -> None:
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
