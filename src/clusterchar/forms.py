"""The Euler form, its antisymmetrization, and index/coindex.

The antisymmetrized form descends to classes in K_0: its matrix on the
simples is assembled from minimal projective presentations and minimal
injective copresentations,

    entry(i, j) = [P0_i : P_j] - [P1_i : P_j] - [I0_i : I_j] + [I1_i : I_j],

and is validated on construction against the direct definition
<S_i,S_j> - <S_j,S_i> computed from Hom/Ext dimensions.  Index and
coindex are likewise computed along two independent routes (presentation
multiplicities vs. forms against the simples) and compared, so a
convention bug anywhere upstream turns into a hard error here.
"""

from __future__ import annotations

from .errors import ConsistencyError
from .modules import (
    DimVector,
    K0ProjClass,
    Representation,
    ext1_dim,
    hom_dim,
    min_inj_copresentation,
    min_proj_presentation,
    simple,
)
from .quiver import AlgebraPresentation

FormMatrix = tuple[tuple[int, ...], ...]


def euler_form(m: Representation, n: Representation) -> int:
    """<m, n> = dim Hom(m, n) - dim Ext^1(m, n)."""
    return hom_dim(m, n) - ext1_dim(m, n)


def antisym_form_matrix(a: AlgebraPresentation) -> FormMatrix:
    """Matrix of the antisymmetrized form on the simples (cached per algebra)."""
    return a.cached("form_matrix", lambda: _compute_form_matrix(a))


def _compute_form_matrix(a: AlgebraPresentation) -> FormMatrix:
    n = a.quiver.n
    simples = [simple(a, i) for i in range(n)]
    rows = []
    for i in range(n):
        p0, p1 = min_proj_presentation(simples[i])
        i0, i1 = min_inj_copresentation(simples[i])
        rows.append(tuple(p0[j] - p1[j] - i0[j] + i1[j] for j in range(n)))
    matrix = tuple(rows)
    for i in range(n):
        if matrix[i][i] != 0:
            raise ConsistencyError("form matrix has nonzero diagonal entry")
        for j in range(i + 1, n):
            if matrix[i][j] != -matrix[j][i]:
                raise ConsistencyError("form matrix is not skew-symmetric")
    # cross-check against the direct definition on every pair of simples
    euler = [[euler_form(s, t) for t in simples] for s in simples]
    for i in range(n):
        for j in range(n):
            direct = euler[i][j] - euler[j][i]
            if direct != matrix[i][j]:
                raise ConsistencyError(
                    "form matrix entry (%d, %d) is %d by presentations "
                    "but %d by Hom/Ext" % (i, j, matrix[i][j], direct)
                )
    return matrix


def form_a_row(a: AlgebraPresentation, e: DimVector) -> tuple[int, ...]:
    """The vector (<S_i, e>_a)_i, i.e. the form matrix applied to e."""
    matrix = antisym_form_matrix(a)
    return tuple(sum(row[j] * e[j] for j in range(len(e))) for row in matrix)


def index_routes(m: Representation) -> tuple[K0ProjClass, K0ProjClass]:
    """Index of (a module lift of) m by both routes:
    presentation multiplicities [P0]-[P1], and (<m, S_i>)_i."""
    a = m.algebra
    p0, p1 = min_proj_presentation(m)
    via_presentation = tuple(x - y for x, y in zip(p0, p1))
    via_simples = tuple(euler_form(m, simple(a, i)) for i in range(a.quiver.n))
    return via_presentation, via_simples


def coindex_routes(m: Representation) -> tuple[K0ProjClass, K0ProjClass]:
    """Coindex by both routes: injective copresentation multiplicities
    reread through I_j -> P_j, and (<S_i, m>)_i."""
    a = m.algebra
    i0, i1 = min_inj_copresentation(m)
    via_copresentation = tuple(x - y for x, y in zip(i0, i1))
    via_simples = tuple(euler_form(simple(a, i), m) for i in range(a.quiver.n))
    return via_copresentation, via_simples


def index(m: Representation) -> K0ProjClass:
    via_presentation, via_simples = index_routes(m)
    if via_presentation != via_simples:
        raise ConsistencyError(
            "index mismatch: %s from the presentation, %s from the simples"
            % (via_presentation, via_simples)
        )
    return via_presentation


def coindex(m: Representation) -> K0ProjClass:
    via_copresentation, via_simples = coindex_routes(m)
    if via_copresentation != via_simples:
        raise ConsistencyError(
            "coindex mismatch: %s from the copresentation, %s from the simples"
            % (via_copresentation, via_simples)
        )
    return via_copresentation
