"""Hypothesis strategies shared by the differential tests.

A differential test checks a fast path against the slow path kept as its
reference. Each one runs under DIFFERENTIAL: derandomized, with a fixed
number of examples and no deadline, so the suite draws the same examples on
every run and stays inside its time on the pure backend.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st

DIFFERENTIAL = settings(derandomize=True, max_examples=300, deadline=None)


@st.composite
def generator_matrices(draw, primes=(2, 3, 5), max_n: int = 12):
    """(q, n, rows): from 0 to n generator rows of length n over GF(q).

    Entries are integers in [-q, 2q), so each residue comes as a negative,
    a reduced and an unreduced representative. A row may be zero or repeat
    an earlier row, so the rows need not be independent.
    """
    q = draw(st.sampled_from(primes))
    n = draw(st.integers(0, max_n))
    row = st.lists(st.integers(-q, 2 * q - 1), min_size=n, max_size=n)
    rows: list[list[int]] = []
    for _ in range(draw(st.integers(0, n))):
        kind = draw(st.sampled_from(("drawn", "zero", "repeat")))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append(draw(row))
    return q, n, rows
