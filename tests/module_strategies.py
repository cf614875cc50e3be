"""Hypothesis strategies for small modules over the algebras in the
``algebras`` fixture (the point, a loop with x^3 = 0, linear A3, a4, d4),
and unimodular base changes of a module."""

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


def _random_unimodular(rng, n):
    """A random integer matrix with determinant 1 and its integer inverse."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    inv = [row[:] for row in m]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        # m <- (I + c e_ij) m and inv <- inv (I - c e_ij)
        c = rng.choice((-2, -1, 1, 2))
        for k in range(n):
            m[i][k] += c * m[j][k]
            inv[k][j] -= c * inv[k][i]
    return m, inv


def conjugate(module, rng):
    """``module`` after a base change by unimodular matrices at every
    vertex, drawn from ``rng`` (a `random.Random`): isomorphic over Z, so
    every reduction mod p is isomorphic too."""
    n_v = module.algebra.quiver.n
    pairs = [_random_unimodular(rng, module.dims[i]) for i in range(n_v)]
    mats = {}
    for a in module.algebra.quiver.arrows:
        d_t, d_s = module.dims[a.target], module.dims[a.source]
        u_t = linalg.matrix(pairs[a.target][0], rows=d_t, cols=d_t)
        inv_s = linalg.matrix(pairs[a.source][1], rows=d_s, cols=d_s)
        mats[a.name] = linalg.mat_mul(linalg.mat_mul(u_t, module.matrices[a.name]), inv_s)
    return Representation(module.algebra, module.dims, mats)
