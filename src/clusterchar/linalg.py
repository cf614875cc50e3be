"""Exact dense linear algebra over Q.

Dense and small by design: every matrix in this package has a handful of
rows.  Entries are Python ints or ``fractions.Fraction`` (never floats);
a Fraction with denominator 1 is stored as an int.  `row_reduce` is the
one elimination over Q, the counting-polynomial fits of `grassmannian`
included; its point counting over F_p eliminates mod p on its own.
`rational_eigenvalues` serves the Fitting split of `modules`.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm
from operator import mul

from .errors import DimensionError

Scalar = int | Fraction


def normalize(x: Scalar) -> Scalar:
    """Canonical exact scalar; rejects floats and other inexact input."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    if isinstance(x, (int, Fraction)):
        return x
    raise DimensionError("non-exact scalar %r" % (x,))


def div(a: Scalar, b: Scalar) -> Scalar:
    if type(a) is int and type(b) is int and b and a % b == 0:
        return a // b
    return normalize(Fraction(a) / Fraction(b))


class Matrix(namedtuple("Matrix", "rows cols entries")):
    """Row-major dense matrix over Q."""

    __slots__ = ()

    def entry(self, i: int, j: int) -> Scalar:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list[list]:
        return [list(self.row(i)) for i in range(self.rows)]


def matrix(rows_data, rows: int | None = None, cols: int | None = None) -> Matrix:
    """Build a Matrix from nested sequences, normalizing every entry.

    ``rows``/``cols`` are required only when ``rows_data`` is empty in one
    direction (zero-dimensional shapes carry no entries).
    """
    data = [list(r) for r in rows_data]
    r = len(data) if rows is None else rows
    if data:
        c = len(data[0]) if cols is None else cols
        for row in data:
            if len(row) != c:
                raise DimensionError("ragged rows in matrix data")
    else:
        c = 0 if cols is None else cols
    flat = tuple([x if type(x) is int else normalize(x) for row in data for x in row])
    if len(flat) != r * c:
        raise DimensionError("matrix data does not fill a %dx%d shape" % (r, c))
    return Matrix(r, c, flat)


def zeros(rows: int, cols: int) -> Matrix:
    return Matrix(rows, cols, (0,) * (rows * cols))


def identity(n: int) -> Matrix:
    return Matrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise DimensionError("shape mismatch in product: %dx%d by %dx%d"
                             % (a.rows, a.cols, b.rows, b.cols))
    n = b.cols
    cols = []  # a loop, not a comprehension: cheaper for the tiny shapes of most calls
    for j in range(n):
        cols.append(b.entries[j::n])
    out = []
    for i in range(a.rows):
        ra = a.row(i)
        for col in cols:
            out.append(normalize(sum(map(mul, ra, col))))
    return Matrix(a.rows, n, tuple(out))


def row_reduce(data: list[list], limit_cols: int) -> tuple[list[list], list[int]]:
    """In-place reduced row echelon form; pivots chosen among the first
    ``limit_cols`` columns only (row operations act on full rows).

    Entries must be normalized, as a Matrix's are; those of the result
    are too, and a pivot row whose pivot is already 1 is left as it is.
    """
    nrows = len(data)
    pivots: list[int] = []
    r = 0
    for c in range(limit_cols):
        pr = next((i for i in range(r, nrows) if data[i][c] != 0), None)
        if pr is None:
            continue
        data[r], data[pr] = data[pr], data[r]
        pivot_row = data[r]
        if pivot_row[c] != 1:
            inv = div(1, pivot_row[c])
            pivot_row = data[r] = [normalize(x * inv) for x in pivot_row]
        for i in range(nrows):
            f = data[i][c]
            if i != r and f != 0:
                data[i] = [normalize(x - f * y) for x, y in zip(data[i], pivot_row)]
        pivots.append(c)
        r += 1
    return data, pivots


def rank(a: Matrix) -> int:
    _, pivots = row_reduce(a.to_lists(), a.cols)
    return len(pivots)


def kernel_basis(a: Matrix) -> Matrix:
    """Columns form a basis of the right null space (cols - rank of them).

    The basis has the echelon pattern: each vector is 1 on `its' free
    coordinate and 0 on the other free coordinates, and that 1 is its
    last nonzero entry (a pivot row of the echelon form is 0 before its
    pivot, so a vector's pivot coordinates precede its free one).
    """
    red, pivots = row_reduce(a.to_lists(), a.cols)
    pivot_set = set(pivots)
    free = [c for c in range(a.cols) if c not in pivot_set]
    cols = []
    for f in free:
        v = [0] * a.cols
        v[f] = 1
        for k, c in enumerate(pivots):
            v[c] = -red[k][f]
        cols.append(v)
    ent = tuple(cols[j][i] for i in range(a.cols) for j in range(len(free)))
    return Matrix(a.cols, len(free), ent)


def rational_eigenvalues(a: Matrix) -> list[Scalar]:
    """The distinct rational eigenvalues of a square matrix, ascending.

    With L the common denominator of the entries, L*a is an integer
    matrix whose characteristic polynomial f (Faddeev-LeVerrier, each of
    its divisions exact) is monic with integer coefficients, so its
    rational roots are integers.  Sturm's theorem counts the distinct
    real roots of f between two half-integers, none of which is a root;
    halving the interval out to the Cauchy bound isolates every integer
    root in O(n log B) evaluations, whatever the size of the entries.
    """
    n = a.rows
    scale = lcm(*(x.denominator for x in a.entries))
    b = [[int(x * scale) for x in a.row(i)] for i in range(n)]
    f = [0] * n + [1]  # ascending coefficients of det(t - L*a)
    acc = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        acc = [
            [sum(b[i][l] * acc[l][j] for l in range(n)) + (f[n - k + 1] if i == j else 0)
             for j in range(n)]
            for i in range(n)
        ]
        f[n - k] = -sum(b[i][l] * acc[l][i] for i in range(n) for l in range(n)) // k

    chain = [f, [k * c for k, c in enumerate(f)][1:]]
    while len(chain[-1]) > 1:
        rem = _remainder(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])

    def variations(k: int) -> int:
        """Sign changes along the Sturm chain at k + 1/2."""
        x = Fraction(2 * k + 1, 2)
        signs = [v > 0 for v in (_evaluate(g, x) for g in chain) if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    roots: list[int] = []

    def isolate(lo: int, hi: int, v_lo: int, v_hi: int) -> None:
        """Collect the integer roots in lo + 1 .. hi."""
        if v_lo == v_hi:
            return
        if hi == lo + 1:
            if _evaluate(f, hi) == 0:
                roots.append(hi)
            return
        mid = (lo + hi) // 2
        v_mid = variations(mid)
        isolate(lo, mid, v_lo, v_mid)
        isolate(mid, hi, v_mid, v_hi)

    bound = 1 + max(map(abs, f[:-1]), default=0)
    isolate(-bound - 1, bound, variations(-bound - 1), variations(bound))
    return [normalize(Fraction(r, scale)) for r in roots]


def _evaluate(f: list, x: Scalar) -> Scalar:
    acc: Scalar = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _remainder(f: list, g: list) -> list:
    """f mod g over Q, both ascending with a nonzero leading coefficient."""
    f = list(f)
    while len(f) >= len(g):
        c = Fraction(f[-1], g[-1])
        shift = len(f) - len(g)
        for k, x in enumerate(g):
            f[shift + k] -= c * x
        f.pop()
    while f and not f[-1]:
        f.pop()
    return f
