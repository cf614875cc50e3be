"""Reference syzygy, presentation and Ext^1 for the differential tests.

The generic route: the projective cover is summed one projective at a
time from the zero module, every vertex's cover map is checked by a
rank call and its kernel found by elimination, the kernel's arrow
matrices are solved for, and the restriction Hom(P0, N) -> Hom(Omega M, N)
is taken on a basis of Hom(P0, N) solved as an intertwiner system.  No
step knows an answer in advance, so it is slow but has no shortcut to
get wrong.  The program builds no cover: it reads the Euler form off the
relations, so these checks are the only ones a cover gets.  Its index
must equal [P0] - [P1] of `presentation`, and dim Hom - <M, N> must
equal this cokernel's dim Ext^1.

`fitting_split` splits a module into summands all the way down, where
the program splits one level at a time (`modules.fitting_parts`) and
stops at parts the torus fixed points answer.
"""

from dataclasses import dataclass

from linalg_reference import kernel_basis
from clusterchar import linalg
from clusterchar.errors import DimensionError
from clusterchar.linalg import Matrix
from clusterchar.modules import (
    Representation,
    _fitting_parts,
    _intertwiner_system,
    _require_same_algebra,
    _split_candidates,
    direct_sum,
    hom_dim,
    path_matrix,
    projective,
    zero_module,
)


def satisfies_relations(m) -> bool:
    """Whether every relation acts on m as the zero matrix, each term's
    full path matrix summed.  ``m`` needs only ``algebra``, ``dims`` and
    ``matrices``, so that data the program would refuse can be tested."""
    for rel in m.algebra.relations:
        terms = [(coeff, path_matrix(m, p).entries) for coeff, p in rel]
        if any(sum(c * e[k] for c, e in terms) for k in range(len(terms[0][1]))):
            return False
    return True


def solve(a: Matrix, rhs: Matrix) -> Matrix | None:
    """One solution X of a·X = rhs (column-wise), or None if inconsistent."""
    if rhs.rows != a.rows:
        raise DimensionError("rhs has %d rows, expected %d" % (rhs.rows, a.rows))
    aug = [list(a.row(i)) + list(rhs.row(i)) for i in range(a.rows)]
    red, pivots = linalg.row_reduce(aug, a.cols + rhs.cols)
    if pivots and pivots[-1] >= a.cols:
        return None  # a pivot among the right-hand columns: 0 = nonzero
    out = [[0] * rhs.cols for _ in range(a.cols)]
    for k, c in enumerate(pivots):
        for j in range(rhs.cols):
            out[c][j] = red[k][a.cols + j]
    return linalg.matrix(out, rows=a.cols, cols=rhs.cols)


def hom_basis(m, n) -> list[dict[int, Matrix]]:
    """A basis of Hom(m, n) as per-vertex matrix families."""
    _require_same_algebra(m, n)
    system, offsets = _intertwiner_system(m, n)
    q = m.algebra.quiver
    out = []
    for vec in kernel_basis(system.to_lists(), system.cols):
        phi: dict[int, Matrix] = {}
        for j in range(q.n):
            rows_j, cols_j = n.dims[j], m.dims[j]
            data = [
                [vec[offsets[j] + r * cols_j + c] for c in range(cols_j)]
                for r in range(rows_j)
            ]
            phi[j] = linalg.matrix(data, rows=rows_j, cols=cols_j)
        out.append(phi)
    return out


def _top_coordinates(m, j: int) -> list[int]:
    rad: list[list] = []
    for a in m.algebra.quiver.arrows:
        if a.target == j:
            A = m.matrices[a.name]
            rad.extend([A.entry(r, c) for r in range(A.rows)] for c in range(A.cols))
    _, pivots = linalg.row_reduce(rad, m.dims[j])
    return [k for k in range(m.dims[j]) if k not in pivots]


def top_dims(m) -> tuple[int, ...]:
    """Dimension vector of m / rad m (radical = sum of arrow images)."""
    return tuple(len(_top_coordinates(m, j)) for j in range(m.algebra.quiver.n))


@dataclass(frozen=True)
class ReferenceSyzygy:
    """The cover P0 -> m, its multiplicities, and the kernel with its
    inclusion into P0, vertex by vertex."""

    cover_mults: tuple[int, ...]
    cover: Representation
    kernel: Representation
    inclusion: dict[int, Matrix]


def compute_syzygy(m) -> ReferenceSyzygy:
    algebra = m.algebra
    q = algebra.quiver
    tops = [_top_coordinates(m, i) for i in range(q.n)]

    # cover = one P_i per top coordinate k at i, sent to the unit vector
    # e_k; the column of a basis path p from i is column k of p's matrix
    generators = [(i, k) for i in range(q.n) for k in tops[i]]
    cover = zero_module(algebra)
    for i, _ in generators:
        cover = direct_sum(cover, projective(algebra, i))

    cover_map: dict[int, Matrix] = {}
    for j in range(q.n):
        cols = [
            (path_matrix(m, p), k)
            for i, k in generators
            for p in algebra.paths_from[i][j]
        ]
        data = [[mat.entry(r, k) for mat, k in cols] for r in range(m.dims[j])]
        cover_map[j] = linalg.matrix(data, rows=m.dims[j], cols=cover.dims[j])
        if linalg.rank(cover_map[j]) != m.dims[j]:
            raise DimensionError("projective cover is not surjective at vertex %d" % j)

    inclusion = {}
    for j in range(q.n):
        vectors = kernel_basis(cover_map[j].to_lists(), cover.dims[j])
        inclusion[j] = linalg.matrix(zip(*vectors), rows=cover.dims[j], cols=len(vectors))
    ker_dims = tuple(inclusion[j].cols for j in range(q.n))
    ker_mats: dict[str, Matrix] = {}
    for a in q.arrows:
        i, j = a.source, a.target
        mapped = linalg.mat_mul(cover.matrices[a.name], inclusion[i])
        sol = solve(inclusion[j], mapped)
        if sol is None:
            raise DimensionError("cover map is not a module morphism")
        ker_mats[a.name] = sol
    kernel = Representation(m.algebra, ker_dims, ker_mats)
    return ReferenceSyzygy(tuple(map(len, tops)), cover, kernel, inclusion)


def presentation(m) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Multiplicities ([P0 : P_i]) and ([P1 : P_i]) of a minimal presentation."""
    syz = compute_syzygy(m)
    return syz.cover_mults, top_dims(syz.kernel)


def ext1_dim(m, n) -> int:
    """dim Ext^1(m, n) = dim coker( Hom(P0, n) -> Hom(Omega m, n) )."""
    _require_same_algebra(m, n)
    if not (any(m.dims) and any(n.dims)):
        return 0
    syz = compute_syzygy(m)
    omega = syz.kernel
    if not any(omega.dims):
        return 0
    dim_hom_omega = hom_dim(omega, n)
    restricted: list[list] = []
    for psi in hom_basis(syz.cover, n):
        vec: list = []
        for j in range(m.algebra.quiver.n):
            comp = linalg.mat_mul(psi[j], syz.inclusion[j])
            vec.extend(comp.entries)
        restricted.append(vec)
    if not restricted:
        return dim_hom_omega
    width = len(restricted[0])
    mat = linalg.matrix(restricted, rows=len(restricted), cols=width)
    return dim_hom_omega - linalg.rank(mat)


def fitting_split(m) -> list[Representation]:
    """Summands of m, split off by the Fitting lemma until none splits.

    The program's candidates (`_split_candidates`) on the basis of End(m)
    that `hom_basis` gives; the first that splits m (`_fitting_parts`)
    gives two parts, and each is split again.  A module that no
    candidate splits comes back whole.
    """
    q = m.algebra.quiver
    endos = [[phi[j] for j in range(q.n)] for phi in hom_basis(m, m)]
    for phi in _split_candidates(endos):
        parts = _fitting_parts(m, phi)
        if parts is not None:
            return [s for part in parts for s in fitting_split(part)]
    return [m]
