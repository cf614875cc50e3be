"""Reference row reduction for the differential tests.

Gauss-Jordan elimination over Q that scales every pivot row by the
exact inverse of its pivot and normalizes every entry it writes, with no
fast path for integers, so it is slow but has no shortcut to get wrong.
The program eliminates over the integers instead and returns only the
pivot rows, which must be the first rows this leaves, one per pivot.
`kernel_basis` reads the null space off this elimination.
"""

from fractions import Fraction

from clusterchar.linalg import normalize


def row_reduce(data: list[list], limit_cols: int) -> tuple[list[list], list[int]]:
    nrows = len(data)
    pivots: list[int] = []
    r = 0
    for c in range(limit_cols):
        pr = next((i for i in range(r, nrows) if data[i][c] != 0), None)
        if pr is None:
            continue
        data[r], data[pr] = data[pr], data[r]
        inv = normalize(Fraction(1) / Fraction(data[r][c]))
        data[r] = [normalize(x * inv) for x in data[r]]
        for i in range(nrows):
            if i != r and data[i][c] != 0:
                f = data[i][c]
                data[i] = [normalize(x - f * y) for x, y in zip(data[i], data[r])]
        pivots.append(c)
        r += 1
    return data, pivots


def kernel_basis(rows: list[list], cols: int) -> list[list]:
    """The right null space of a matrix, one vector per free column: 1
    there, 0 at the other free columns, minus the pivot rows' entries in
    that column at the pivot columns."""
    red, pivots = row_reduce([list(r) for r in rows], cols)
    vectors = []
    for f in range(cols):
        if f in pivots:
            continue
        v = [0] * cols
        v[f] = 1
        for row, c in zip(red, pivots):
            v[c] = normalize(-row[f])
        vectors.append(v)
    return vectors
