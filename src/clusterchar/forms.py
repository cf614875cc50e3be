"""The antisymmetrized Euler form and index/coindex.

The form matrix is E - E^T with E = I - (arrows i -> j), as relations
have length >= 2.  Both indices are restrictions of the one Euler form
read off the relations (`modules.euler_form`): the coindex is
(<S_i, m>)_i and the index (<m, S_i>)_i, which is [P0] - [P1] for a
minimal presentation P1 -> P0 -> m, as P_i appears in P0
dim Hom(m, S_i) times and in P1 dim Ext^1(m, S_i) times.  The two
restrictions are different maps: for the coindex, d1 reads the
relations starting at i with the module on their tails, and for the
index the relations ending at i with the module on their heads.  As the
form descends to K_0 (Palu), the index must equal
coind(m) - (E - E^T) dim m, one check that reads both and the arrows.
`indices` returns the pair only once it passes, and runs it on every
call: nothing here is cached, as the character caches its value whole.
The form matrix, which `form-matrix` prints, is checked entry by entry:
every <S_i, S_j> read off the relations must equal E_ij, the diagonal
included.  The character and the descent check apply E - E^T to a
dimension vector straight from the arrows (`form_a_row`), with no
matrix.
"""

from __future__ import annotations

from .errors import ConsistencyError
from .modules import DimVector, K0ProjClass, Representation, euler_form, simple
from .quiver import AlgebraPresentation

FormMatrix = tuple[tuple[int, ...], ...]


def antisym_form_matrix(a: AlgebraPresentation) -> FormMatrix:
    """Matrix of the antisymmetrized form on the simples, E - E^T once
    every <S_i, S_j> read off the relations has matched E_ij = I -
    (arrow counts)."""
    labels, n = a.quiver.vertices, a.quiver.n
    euler = [[int(i == j) for j in range(n)] for i in range(n)]
    for arrow in a.quiver.arrows:
        euler[arrow.source][arrow.target] -= 1
    simples = [simple(a, i) for i in range(n)]
    for i, s in enumerate(simples):
        for j, t in enumerate(simples):
            got = euler_form(s, t)
            if got != euler[i][j]:
                raise ConsistencyError(
                    "form matrix mismatch: <S_%s, S_%s> = %d from the relations, %d from "
                    "the arrows" % (labels[i], labels[j], got, euler[i][j])
                )
    return tuple(tuple(euler[i][j] - euler[j][i] for j in range(n)) for i in range(n))


def form_a_row(a: AlgebraPresentation, e: DimVector) -> tuple[int, ...]:
    """The vector (<S_i, e>_a)_i = (E - E^T) e, read off the arrows: an
    arrow j -> i adds e_j at i and takes e_i off at j (a loop cancels)."""
    row = [0] * a.quiver.n
    for arrow in a.quiver.arrows:
        row[arrow.target] += e[arrow.source]
        row[arrow.source] -= e[arrow.target]
    return tuple(row)


def indices(m: Representation) -> tuple[K0ProjClass, K0ProjClass]:
    """(index, coindex) of (a module lift of) m: (<m, S_i>)_i = [P0] - [P1]
    and (<S_i, m>)_i, returned once the descent check
    ind(m) = coind(m) - (E - E^T) dim m passes; a failing check raises
    "index mismatch"."""
    a = m.algebra
    simples = [simple(a, i) for i in range(a.quiver.n)]
    presented = tuple(euler_form(m, s) for s in simples)
    coind = tuple(euler_form(s, m) for s in simples)
    descended = tuple(c - f for c, f in zip(coind, form_a_row(a, m.dims)))
    if presented != descended:
        raise ConsistencyError(
            "index mismatch: %s from the presentation, %s from the coindex and "
            "the form matrix" % (presented, descended)
        )
    return presented, coind
