"""The opposite algebra and the vector-space dual, for tests.

The program builds every module over the algebra it is given: I_i comes
from the algebra's own basis.  Tests that take the dual of a module as
input, or read a copresentation as the presentation of the dual, get
both here.  `opposite` reduces the reversed relations on the reversed
quiver on their own and keeps the result in the algebra's `cached`
store, so each algebra's opposite is built once and `opposite` is an
involution on instances.
"""

from clusterchar.linalg import Matrix
from clusterchar.modules import Representation
from clusterchar.quiver import AlgebraPresentation, Arrow, Path, Quiver, path_target


def opposite(alg: AlgebraPresentation) -> AlgebraPresentation:
    return alg.cached("op", lambda: _reversed(alg))


def _reversed(alg: AlgebraPresentation) -> AlgebraPresentation:
    q = alg.quiver
    op = AlgebraPresentation(
        Quiver(q.vertices, tuple(Arrow(a.name, a.target, a.source) for a in q.arrows)),
        tuple(
            tuple((c, Path(path_target(q, p), p.arrows[::-1])) for c, p in rel)
            for rel in alg.relations
        ),
    )
    op.cached("op", lambda: alg)
    return op


def transpose(a: Matrix) -> Matrix:
    return Matrix(a.cols, a.rows, tuple(
        a.entry(i, j) for j in range(a.cols) for i in range(a.rows)
    ))


def dual(m: Representation) -> Representation:
    """The dual of m, a module over the opposite algebra: every arrow
    matrix transposes, and the dimension at each vertex stays."""
    mats = {name: transpose(mat) for name, mat in m.matrices.items()}
    return Representation(opposite(m.algebra), m.dims, mats)
