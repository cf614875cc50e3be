"""The antisymmetrized Euler form and index/coindex.

The form matrix is E - E^T with E = I - (arrows i -> j), as relations
have length >= 2.  The coindex (<S_i, m>)_i is read off the relations:
the arrows and the relations starting at i give the start
(+)_rho P_t(rho) -> (+)_a P_t(a) -> P_i -> S_i -> 0 of a projective
resolution, and Hom(-, m) of it gives

    <S_i, m> = dim m_i - sum_{a: i -> j} dim m_j + rank gamma_i(m),

where gamma_i(m): (+)_a m_t(a) -> (+)_rho m_t(rho) has as (rho, a) block
the sum of c * (p with its first arrow a removed) acting on m, over the
terms c * p of rho.  As the form descends to K_0 (Palu), the index
[P0] - [P1] must equal coind(m) - (E - E^T) dim m, one check that reads
m's cover, the relations acting on m and the arrows.  The coindex of S_i
is column i of E, so for a simple this check compares its presentation
with row i of E; `antisym_form_matrix` makes it for every simple.
"""

from __future__ import annotations

from . import linalg
from .errors import ConsistencyError
from .modules import (
    DimVector,
    K0ProjClass,
    Representation,
    min_proj_presentation,
    path_matrix,
    simple,
)
from .quiver import AlgebraPresentation, Path, path_target

FormMatrix = tuple[tuple[int, ...], ...]


def antisym_form_matrix(a: AlgebraPresentation) -> FormMatrix:
    """Matrix of the antisymmetrized form on the simples, each simple's
    index checked against its presentation (cached per algebra)."""
    return a.cached("form_matrix", lambda: _compute_form_matrix(a))


def _compute_form_matrix(a: AlgebraPresentation) -> FormMatrix:
    """E - E^T once each simple's presentation has matched its row of E."""
    for i, label in enumerate(a.quiver.vertices):
        _indices(simple(a, i), "index of S_%s" % label)
    return _arrow_form_matrix(a)


def _arrow_form_matrix(a: AlgebraPresentation) -> FormMatrix:
    """E - E^T with E = I - (arrow counts), cached per algebra."""

    def compute():
        n = a.quiver.n
        euler = [[int(i == j) for j in range(n)] for i in range(n)]
        for arrow in a.quiver.arrows:
            euler[arrow.source][arrow.target] -= 1
        return tuple(tuple(euler[i][j] - euler[j][i] for j in range(n)) for i in range(n))

    return a.cached("arrow_form_matrix", compute)


def form_a_row(a: AlgebraPresentation, e: DimVector) -> tuple[int, ...]:
    """The vector (<S_i, e>_a)_i, i.e. the form matrix applied to e."""
    matrix = _arrow_form_matrix(a)
    return tuple(sum(row[j] * e[j] for j in range(len(e))) for row in matrix)


def _relation_coindex(m: Representation) -> K0ProjClass:
    """(<S_i, m>)_i from the arrows and relations starting at each i."""
    a = m.algebra
    q = a.quiver
    arrows, n, dims = q.arrows, q.n, m.dims
    # the columns of gamma_i: one block m_t(b) per arrow b from i
    offset, width = [], [0] * n
    for arrow in arrows:
        offset.append(width[arrow.source])
        width[arrow.source] += dims[arrow.target]
    gamma: list[list[list]] = [[] for _ in range(n)]
    for rel in a.relations:
        i, j = rel[0][1].source, path_target(q, rel[0][1])
        block = [[0] * width[i] for _ in range(dims[j])]
        for coeff, p in rel:
            first, rest = p.arrows[0], p.arrows[1:]
            if not all(dims[arrows[k].target] for k in p.arrows):
                continue  # the path runs through a zero space: its block is 0
            mat = path_matrix(m, Path(arrows[first].target, rest))
            for r, row in enumerate(block):
                for c, x in enumerate(mat.row(r), offset[first]):
                    row[c] += coeff * x
        gamma[i] += block
    return tuple(
        dims[i] - width[i]
        + (linalg.rank(linalg.matrix(rows, cols=width[i])) if rows and width[i] else 0)
        for i, rows in enumerate(gamma)
    )


def index(m: Representation) -> K0ProjClass:
    """Index of (a module lift of) m: [P0] - [P1], checked against
    coind(m) - (E - E^T) dim m."""
    return _indices(m)[0]


def coindex(m: Representation) -> K0ProjClass:
    """Coindex of m: (<S_i, m>)_i, checked together with the index."""
    return _indices(m)[1]


def _indices(m: Representation, what: str = "index") -> tuple[K0ProjClass, K0ProjClass]:
    """(index, coindex) of m once their descent check passes, cached by
    the module's data; a failing check raises "``what`` mismatch"."""
    a = m.algebra

    def compute():
        coind = _relation_coindex(m)
        presented = tuple(x - y for x, y in zip(*min_proj_presentation(m)))
        descended = tuple(c - f for c, f in zip(coind, form_a_row(a, m.dims)))
        if presented != descended:
            raise ConsistencyError(
                "%s mismatch: %s from the presentation, %s from the coindex and "
                "the form matrix" % (what, presented, descended)
            )
        return presented, coind

    return a.cached(("indices", m.fingerprint()), compute)
