"""The antisymmetrized Euler form and index/coindex.

Index and coindex are computed along two independent routes and
compared, so a convention bug anywhere upstream turns into a hard error
here: the index [P0] - [P1] of a minimal projective presentation must
equal (<m, S_i>)_i, and the coindex [I0] - [I1] of a minimal injective
copresentation (reread through I_j -> P_j) must equal (<S_i, m>)_i.
The matrix of the antisymmetrized form on the simples is E - E^T with
E[i][j] = <S_i, S_j> from `modules.euler_form`; building it checks both
routes on every simple, against row i and column i of E.
"""

from __future__ import annotations

from .errors import ConsistencyError
from .modules import (
    DimVector,
    K0ProjClass,
    Representation,
    euler_form,
    min_inj_copresentation,
    min_proj_presentation,
    simple,
)
from .quiver import AlgebraPresentation

FormMatrix = tuple[tuple[int, ...], ...]


def antisym_form_matrix(a: AlgebraPresentation) -> FormMatrix:
    """Matrix of the antisymmetrized form on the simples (cached per algebra)."""
    return a.cached("form_matrix", lambda: _compute_form_matrix(a))


def _compute_form_matrix(a: AlgebraPresentation) -> FormMatrix:
    n = a.quiver.n
    simples = [simple(a, i) for i in range(n)]
    euler = [[euler_form(s, t) for t in simples] for s in simples]
    for i, label in enumerate(a.quiver.vertices):
        _agree("index of S_%s" % label, "presentation",
               _difference(min_proj_presentation(simples[i])), tuple(euler[i]))
        _agree("coindex of S_%s" % label, "copresentation",
               _difference(min_inj_copresentation(simples[i])),
               tuple(row[i] for row in euler))
    return tuple(tuple(euler[i][j] - euler[j][i] for j in range(n)) for i in range(n))


def form_a_row(a: AlgebraPresentation, e: DimVector) -> tuple[int, ...]:
    """The vector (<S_i, e>_a)_i, i.e. the form matrix applied to e."""
    matrix = antisym_form_matrix(a)
    return tuple(sum(row[j] * e[j] for j in range(len(e))) for row in matrix)


def _difference(pair: tuple[K0ProjClass, K0ProjClass]) -> K0ProjClass:
    return tuple(x - y for x, y in zip(*pair))


def _agree(what: str, route: str, via_route: K0ProjClass,
           via_simples: K0ProjClass) -> K0ProjClass:
    """The common value of the two routes to ``what``, or raise."""
    if via_route != via_simples:
        raise ConsistencyError(
            "%s mismatch: %s from the %s, %s from the simples"
            % (what, via_route, route, via_simples)
        )
    return via_route


def index(m: Representation) -> K0ProjClass:
    """Index of (a module lift of) m: [P0] - [P1], checked against
    (<m, S_i>)_i."""
    a = m.algebra
    return _agree("index", "presentation", _difference(min_proj_presentation(m)),
                  tuple(euler_form(m, simple(a, i)) for i in range(a.quiver.n)))


def coindex(m: Representation) -> K0ProjClass:
    """Coindex of m: [I0] - [I1] reread through I_j -> P_j, checked
    against (<S_i, m>)_i."""
    a = m.algebra
    return _agree("coindex", "copresentation", _difference(min_inj_copresentation(m)),
                  tuple(euler_form(simple(a, i), m) for i in range(a.quiver.n)))
