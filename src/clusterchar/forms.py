"""The antisymmetrized Euler form and index/coindex.

Each is computed along two routes that read independent data and
compared, so a convention bug upstream turns into a hard error here.
The form matrix is E - E^T with E = I - (arrows i -> j), as relations
have length >= 2; row i of E is checked against the presentation
[P0] - [P1] of S_i.  The coindex (<S_i, m>)_i reads the covers of the
simples.  As the form descends to K_0 (Palu), the index [P0] - [P1]
must equal coind(m) - (E - E^T) dim m, one check of both vectors.
"""

from __future__ import annotations

from .errors import ConsistencyError
from .modules import (
    DimVector,
    K0ProjClass,
    Representation,
    euler_form,
    min_proj_presentation,
    simple,
)
from .quiver import AlgebraPresentation

FormMatrix = tuple[tuple[int, ...], ...]


def antisym_form_matrix(a: AlgebraPresentation) -> FormMatrix:
    """Matrix of the antisymmetrized form on the simples (cached per algebra)."""
    return a.cached("form_matrix", lambda: _compute_form_matrix(a))


def _compute_form_matrix(a: AlgebraPresentation) -> FormMatrix:
    """E - E^T with E = I - (arrow counts), row i checked against the presentation of S_i."""
    n = a.quiver.n
    euler = [[int(i == j) for j in range(n)] for i in range(n)]
    for arrow in a.quiver.arrows:
        euler[arrow.source][arrow.target] -= 1
    for i, label in enumerate(a.quiver.vertices):
        _agree("index of S_%s" % label, "presentation",
               _difference(min_proj_presentation(simple(a, i))), "arrows", tuple(euler[i]))
    return tuple(tuple(euler[i][j] - euler[j][i] for j in range(n)) for i in range(n))


def form_a_row(a: AlgebraPresentation, e: DimVector) -> tuple[int, ...]:
    """The vector (<S_i, e>_a)_i, i.e. the form matrix applied to e."""
    matrix = antisym_form_matrix(a)
    return tuple(sum(row[j] * e[j] for j in range(len(e))) for row in matrix)


def _difference(pair: tuple[K0ProjClass, K0ProjClass]) -> K0ProjClass:
    return tuple(x - y for x, y in zip(*pair))


def _agree(what: str, route: str, via_route: K0ProjClass,
           other: str, via_other: K0ProjClass) -> K0ProjClass:
    """The common value of the two routes to ``what``, or raise."""
    if via_route != via_other:
        raise ConsistencyError(
            "%s mismatch: %s from the %s, %s from the %s"
            % (what, via_route, route, via_other, other)
        )
    return via_route


def index(m: Representation) -> K0ProjClass:
    """Index of (a module lift of) m: [P0] - [P1], checked against
    coind(m) - (E - E^T) dim m."""
    return _indices(m)[0]


def coindex(m: Representation) -> K0ProjClass:
    """Coindex of m: (<S_i, m>)_i, checked together with the index."""
    return _indices(m)[1]


def _indices(m: Representation) -> tuple[K0ProjClass, K0ProjClass]:
    """(index, coindex) of m once their descent check passes, cached by the module's data."""
    a = m.algebra

    def compute():
        coind = tuple(euler_form(simple(a, i), m) for i in range(a.quiver.n))
        descended = tuple(c - f for c, f in zip(coind, form_a_row(a, m.dims)))
        return _agree("index", "presentation", _difference(min_proj_presentation(m)),
                      "coindex and the form matrix", descended), coind

    return a.cached(("indices", m.fingerprint()), compute)
