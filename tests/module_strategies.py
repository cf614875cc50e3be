"""Hypothesis strategies for small modules over the algebras in the
``algebras`` fixture (the point, a loop with x^3 = 0, linear A3, a4, d4)."""

from hypothesis import strategies as st

from clusterchar import linalg
from clusterchar.errors import InputError
from clusterchar.modules import Representation


def _draw_matrix(draw, rows, cols, entries=st.integers(0, 3)):
    data = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    return linalg.matrix(data, rows=rows, cols=cols)


@st.composite
def modules(draw, algebra, max_dim):
    """A module over ``algebra``: random arrow matrices, with arrows set to
    zero in a random order until the relations hold."""
    q = algebra.quiver
    dims = [draw(st.integers(0, max_dim)) for _ in range(q.n)]
    mats = {a.name: _draw_matrix(draw, dims[a.target], dims[a.source]) for a in q.arrows}
    for a in draw(st.permutations(q.arrows)):
        try:
            return Representation(algebra, dims, mats)
        except InputError:
            mats[a.name] = linalg.zeros(dims[a.target], dims[a.source])
    return Representation(algebra, dims, mats)


@st.composite
def loop_modules(draw, algebra):
    """A strictly upper-triangular loop, so x^3 = 0 holds for d <= 3."""
    d = draw(st.integers(0, 3))
    data = [[draw(st.integers(0, 3)) if c > r else 0 for c in range(d)] for r in range(d)]
    return Representation(algebra, (d,), {"x": linalg.matrix(data, rows=d, cols=d)})
