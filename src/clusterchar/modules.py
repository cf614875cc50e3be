"""Finite-dimensional modules over a presented quiver algebra.

A `Representation` assigns to each vertex a vector space (given by its
dimension) and to each arrow i -> j a matrix mapping the space at i to
the space at j; paths act by composing matrices in application order.
This one convention is used everywhere and is calibrated against known
submodule lists in the test suite.

Hom spaces are solved exactly over Q as intertwiner systems.  Syzygies
come from minimal projective covers (covering the top, not an arbitrary
generating set, so that presentation multiplicities are the minimal
ones), and Ext^1 from a single syzygy, with the maps out of its cover
given by Yoneda rather than solved for.  Injective-side computations are
routed through the vector-space dual over the opposite presentation.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path as FsPath

from . import linalg
from .errors import DimensionError, InputError
from .linalg import Matrix
from .quiver import (
    AlgebraPresentation,
    Path,
    _content_lines,
    load_algebra_file,
    same_algebra,
)

DimVector = tuple[int, ...]
K0ProjClass = tuple[int, ...]


class Representation:
    """A module over an `AlgebraPresentation`."""

    def __init__(
        self,
        algebra: AlgebraPresentation,
        dims,
        matrices: dict[str, Matrix] | None = None,
    ):
        self.algebra = algebra
        self.dims: DimVector = tuple(dims)
        if any(type(d) is not int for d in self.dims):
            raise InputError("dimension vector entries must be integers")
        q = algebra.quiver
        if len(self.dims) != q.n:
            raise DimensionError("dimension vector has wrong length")
        if any(d < 0 for d in self.dims):
            raise InputError("negative dimension")
        mats = dict(matrices or {})
        self.matrices: dict[str, Matrix] = {}
        for a in q.arrows:
            m = mats.pop(a.name, None)
            if m is None:
                m = linalg.zeros(self.dims[a.target], self.dims[a.source])
            if m.rows != self.dims[a.target] or m.cols != self.dims[a.source]:
                raise DimensionError(
                    "matrix for arrow %r has shape %dx%d, expected %dx%d"
                    % (a.name, m.rows, m.cols, self.dims[a.target], self.dims[a.source])
                )
            self.matrices[a.name] = m
        if mats:
            raise InputError("matrix for unknown arrow %r" % next(iter(mats)))
        self._check_relations()

    def _check_relations(self) -> None:
        for rel in self.algebra.relations.relations:
            acc: dict[int, linalg.Scalar] = {}
            for coeff, p in rel:
                for k, x in enumerate(path_matrix(self, p).entries):
                    acc[k] = acc.get(k, 0) + coeff * x
            if any(acc.values()):
                raise InputError("module does not satisfy the algebra relations")

    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim() == 0

    def fingerprint(self):
        """Hashable identity of the underlying data (same-algebra scope)."""
        mats = tuple(
            (a.name, self.matrices[a.name].entries) for a in self.algebra.quiver.arrows
        )
        return (self.dims, mats)

    def __repr__(self) -> str:
        return "Representation(dims=%s)" % (self.dims,)


def zero_module(algebra: AlgebraPresentation) -> Representation:
    return Representation(algebra, (0,) * algebra.quiver.n)


def simple(algebra: AlgebraPresentation, i: int) -> Representation:
    dims = tuple(1 if j == i else 0 for j in range(algebra.quiver.n))
    return Representation(algebra, dims)


def path_matrix(m: Representation, p: Path) -> Matrix:
    """The matrix of a path acting on m (identity for a trivial path)."""
    q = m.algebra.quiver
    acc = linalg.identity(m.dims[p.source])
    for k in p.arrows:
        acc = linalg.mat_mul(m.matrices[q.arrows[k].name], acc)
    return acc


def projective(algebra: AlgebraPresentation, i: int) -> Representation:
    """P_i: the space at j is spanned by basis paths i -> j; arrows act by
    composition, reduced to the basis."""
    return algebra.cached(("proj", i), lambda: _build_projective(algebra, i))


def injective(algebra: AlgebraPresentation, i: int) -> Representation:
    """I_i: the dual of the projective at i over the opposite presentation."""
    return algebra.cached(("inj", i), lambda: dual(projective(algebra.opposite(), i)))


def _build_projective(algebra: AlgebraPresentation, i: int) -> Representation:
    q = algebra.quiver
    by_target = algebra.paths_from[i]
    dims = tuple(map(len, by_target))
    pos = [{p: k for k, p in enumerate(paths)} for paths in by_target]
    mats: dict[str, Matrix] = {}
    for k, a in enumerate(q.arrows):
        rows, cols = dims[a.target], dims[a.source]
        data = [[0] * cols for _ in range(rows)]
        for c, p in enumerate(by_target[a.source]):
            ext = Path(p.source, p.arrows + (k,))
            for b, coeff in algebra.reduce_path(ext).items():
                data[pos[a.target][b]][c] = coeff
        mats[a.name] = linalg.matrix(data, rows=rows, cols=cols)
    return Representation(algebra, dims, mats)


def dual(m: Representation) -> Representation:
    """Vector-space dual, a module over the opposite presentation
    (arrow matrices transpose; dimensions per vertex are unchanged)."""
    op = m.algebra.opposite()
    mats = {name: linalg.transpose(mat) for name, mat in m.matrices.items()}
    return Representation(op, m.dims, mats)


def direct_sum(m: Representation, n: Representation) -> Representation:
    _require_same_algebra(m, n)
    return _block_sum(m.algebra, (m, n))


def _block_sum(algebra: AlgebraPresentation, summands) -> Representation:
    """The direct sum of ``summands`` over ``algebra``: each arrow matrix
    is block-diagonal, one block per summand in the order given (a single
    summand is returned as it is)."""
    if len(summands) == 1:
        return summands[0]
    q = algebra.quiver
    dims = tuple(sum(s.dims[j] for s in summands) for j in range(q.n))
    mats: dict[str, Matrix] = {}
    for a in q.arrows:
        cols = dims[a.source]
        entries: list = []
        left = 0
        for s in summands:
            A = s.matrices[a.name]
            pad = [0] * (cols - left - A.cols)
            for r in range(A.rows):
                entries += [0] * left
                entries += A.row(r)
                entries += pad
            left += A.cols
        mats[a.name] = Matrix(dims[a.target], cols, tuple(entries))
    return Representation(algebra, dims, mats)


def _require_same_algebra(m: Representation, n: Representation) -> None:
    if not same_algebra(m.algebra, n.algebra):
        raise DimensionError("representations live over different algebras")


# -- Hom and Ext ------------------------------------------------------------


def _intertwiner_system(m: Representation, n: Representation) -> tuple[Matrix, list[int]]:
    """Linear system on (phi_j) with phi_j . M(a) = N(a) . phi_i per arrow
    a: i -> j.  Returns the system matrix and the per-vertex unknown offsets;
    unknown (j, r, c) (entry of phi_j) sits at offset[j] + r*m.dims[j] + c.
    """
    q = m.algebra.quiver
    offsets = []
    total = 0
    for j in range(q.n):
        offsets.append(total)
        total += n.dims[j] * m.dims[j]
    rows: list[list] = []
    for a in q.arrows:
        i, j = a.source, a.target
        Ma, Na = m.matrices[a.name], n.matrices[a.name]
        for r in range(n.dims[j]):
            for c in range(m.dims[i]):
                row = [0] * total
                for k in range(m.dims[j]):
                    row[offsets[j] + r * m.dims[j] + k] += Ma.entry(k, c)
                for k in range(n.dims[i]):
                    row[offsets[i] + k * m.dims[i] + c] -= Na.entry(r, k)
                rows.append(row)
    return linalg.matrix(rows, rows=len(rows), cols=total), offsets


def hom_dim(m: Representation, n: Representation) -> int:
    """dim Hom(m, n), solved exactly over Q."""
    _require_same_algebra(m, n)
    system, _ = _intertwiner_system(m, n)
    return system.cols - linalg.rank(system)


def _top_coordinates(m: Representation, j: int) -> list[int]:
    """Coordinates at vertex j whose unit vectors complete rad m to m.

    The columns of the arrow matrices into j span the radical there; the
    non-pivot columns of one echelon form of them are the top.
    """
    if not m.dims[j]:
        return []
    rad: list[list] = []
    for a in m.algebra.quiver.arrows:
        if a.target == j:
            A = m.matrices[a.name]
            rad.extend([A.entry(r, c) for r in range(A.rows)] for c in range(A.cols))
    _, pivots = linalg.row_reduce(rad, m.dims[j])
    return [k for k in range(m.dims[j]) if k not in pivots]


def top_dims(m: Representation) -> DimVector:
    """Dimension vector of m / rad m (radical = sum of arrow images)."""
    return tuple(len(_top_coordinates(m, j)) for j in range(m.algebra.quiver.n))


@dataclass(frozen=True)
class Syzygy:
    """Minimal projective cover data: P0 -> m with kernel Omega m."""

    cover_mults: K0ProjClass
    cover: Representation
    cover_map: dict[int, Matrix]
    kernel: Representation
    inclusion: dict[int, Matrix]


def syzygy(m: Representation) -> Syzygy:
    """Minimal projective cover of m and its kernel, computed once per
    module and cached on the algebra under the module's fingerprint."""
    return m.algebra.cached(("syzygy", m.fingerprint()), lambda: _compute_syzygy(m))


def _compute_syzygy(m: Representation) -> Syzygy:
    algebra = m.algebra
    q = algebra.quiver
    tops = [_top_coordinates(m, i) for i in range(q.n)]

    # cover = one P_i per top coordinate k at i, sent to the unit vector
    # e_k; the column of a basis path p from i is column k of p's matrix
    generators = [(i, k) for i in range(q.n) for k in tops[i]]
    cover = _block_sum(algebra, [projective(algebra, i) for i, _ in generators])

    cover_map: dict[int, Matrix] = {}
    inclusion: dict[int, Matrix] = {}
    free: dict[int, list[int]] = {}
    for j in range(q.n):
        if not m.dims[j]:
            # nothing to cover: the kernel is the whole cover at j
            cover_map[j] = linalg.zeros(0, cover.dims[j])
            inclusion[j] = linalg.identity(cover.dims[j])
            continue
        acts = {
            i: [path_matrix(m, p) for p in algebra.paths_from[i][j]]
            for i in range(q.n)
            if tops[i]
        }
        cols = [(mat, k) for i, k in generators for mat in acts[i]]
        data = [[mat.entry(r, k) for mat, k in cols] for r in range(m.dims[j])]
        cover_map[j] = linalg.matrix(data, rows=m.dims[j], cols=cover.dims[j])
        inclusion[j] = linalg.kernel_basis(cover_map[j])
        if cover.dims[j] - inclusion[j].cols != m.dims[j]:
            raise DimensionError("projective cover is not surjective at vertex %d" % j)
        free[j] = _free_coordinates(inclusion[j])

    ker_dims = tuple(inclusion[j].cols for j in range(q.n))
    ker_mats: dict[str, Matrix] = {}
    for a in q.arrows:
        i, j = a.source, a.target
        # at a zero fibre the inclusion is the identity
        mapped = cover.matrices[a.name]
        if m.dims[i]:
            mapped = linalg.mat_mul(mapped, inclusion[i])
        if not m.dims[j]:
            ker_mats[a.name] = mapped
            continue
        # the kernel basis at j is the identity on its free coordinates, so
        # those rows of the image are its coordinates, if it lies in the kernel
        coords = Matrix(
            len(free[j]), mapped.cols, tuple(x for r in free[j] for x in mapped.row(r))
        )
        if linalg.mat_mul(inclusion[j], coords) != mapped:
            raise DimensionError("cover map is not a module morphism")
        ker_mats[a.name] = coords
    kernel = Representation(m.algebra, ker_dims, ker_mats)
    return Syzygy(tuple(map(len, tops)), cover, cover_map, kernel, inclusion)


def _free_coordinates(basis: Matrix) -> list[int]:
    """The free coordinate of each vector of a `linalg.kernel_basis`: its
    last nonzero entry, as the pivot coordinates it solves for all come
    before it."""
    return [
        max(r for r in range(basis.rows) if basis.entry(r, t))
        for t in range(basis.cols)
    ]


def ext1_dim(m: Representation, n: Representation) -> int:
    """dim Ext^1(m, n) = dim coker( Hom(P0, n) -> Hom(Omega m, n) ).

    Hom(Omega m, n) is solved as an intertwiner system.  Hom(P0, n) is
    given by Yoneda: a map sends the generator of a summand P_i to any
    vector v of n at i, and then each basis path p from i to n(p) v; the
    unit vectors v give a basis, restricted along the inclusion of Omega m.
    """
    _require_same_algebra(m, n)
    if m.is_zero() or n.is_zero():
        return 0
    syz = syzygy(m)
    omega = syz.kernel
    if omega.is_zero():
        return 0
    dim_hom_omega = hom_dim(omega, n)
    restricted = _restricted_cover_homs(syz, n)
    if not restricted:
        return dim_hom_omega
    width = len(restricted[0])
    mat = linalg.matrix(restricted, rows=len(restricted), cols=width)
    return dim_hom_omega - linalg.rank(mat)


def _restricted_cover_homs(syz: Syzygy, n: Representation) -> list[list]:
    """One row per basis map P0 -> n (a summand P_i and a unit vector r of
    n at i): the entries of its composite with the inclusion of Omega m,
    vertex by vertex and row by row."""
    algebra = n.algebra
    q = algebra.quiver
    acts: dict[int, list[list[Matrix]]] = {}
    start = [0] * q.n  # the current summand's first cover coordinate
    rows: list[list] = []
    for i, mult in enumerate(syz.cover_mults):
        paths = algebra.paths_from[i]
        for _ in range(mult):
            if n.dims[i] and i not in acts:
                acts[i] = [[path_matrix(n, p) for p in paths[j]] for j in range(q.n)]
            # the inclusion's rows at this summand's coordinates
            blocks = [
                [syz.inclusion[j].row(start[j] + t) for t in range(len(paths[j]))]
                for j in range(q.n)
            ]
            for r in range(n.dims[i]):
                vec: list = []
                for j in range(q.n):
                    for s in range(n.dims[j]):
                        images = [act.entry(s, r) for act in acts[i][j]]
                        for c in range(syz.inclusion[j].cols):
                            vec.append(sum(x * row[c] for x, row in zip(images, blocks[j])))
                rows.append(vec)
            for j in range(q.n):
                start[j] += len(paths[j])
    return rows


def min_proj_presentation(m: Representation) -> tuple[K0ProjClass, K0ProjClass]:
    """Multiplicities ([P0 : P_i]) and ([P1 : P_i]) of a minimal presentation."""
    if m.is_zero():
        z = (0,) * m.algebra.quiver.n
        return z, z
    syz = syzygy(m)
    return syz.cover_mults, top_dims(syz.kernel)


def min_inj_copresentation(m: Representation) -> tuple[K0ProjClass, K0ProjClass]:
    """Multiplicities ([I0 : I_i]) and ([I1 : I_i]); computed as the minimal
    projective presentation of the dual module over the opposite algebra."""
    return min_proj_presentation(dual(m))


# -- file format -------------------------------------------------------------


def load_module(
    text: str,
    algebra: AlgebraPresentation | None = None,
    base_dir: str | FsPath | None = None,
) -> Representation:
    """Load the ``[module]`` file format.

    ``algebra:`` names the algebra file (resolved against ``base_dir``)
    and is only consulted when no algebra object is supplied.  Matrices
    must have integer entries so that reduction mod p stays meaningful.
    """
    algebra_path: str | None = None
    dims: list[int] | None = None
    raw_matrices: dict[str, str] = {}
    section = None
    for lineno, line in _content_lines(text):
        if line.startswith("["):
            if line != "[module]":
                raise InputError("line %d: unknown section %s" % (lineno, line))
            section = "module"
            continue
        if section != "module":
            raise InputError("line %d: content before [module]" % lineno)
        if line.startswith("algebra:"):
            if algebra_path is not None:
                raise InputError("line %d: repeated algebra line" % lineno)
            algebra_path = line[len("algebra:") :].strip()
        elif line.startswith("dims:"):
            if dims is not None:
                raise InputError("line %d: repeated dims line" % lineno)
            try:
                dims = [int(t) for t in line[len("dims:") :].split()]
            except ValueError:
                raise InputError("line %d: bad dims line" % lineno) from None
        elif line.startswith("matrix "):
            head, _, body = line[len("matrix ") :].partition(":")
            name = head.strip()
            if not name or not body.strip():
                raise InputError("line %d: bad matrix line" % lineno)
            if name in raw_matrices:
                raise InputError(
                    "line %d: repeated matrix line for arrow %r" % (lineno, name)
                )
            raw_matrices[name] = body.strip()
        else:
            raise InputError("line %d: unexpected line in [module]" % lineno)
    if algebra is None:
        if algebra_path is None:
            raise InputError("module file names no algebra and none was supplied")
        base = FsPath(base_dir) if base_dir is not None else FsPath(".")
        algebra = load_algebra_file(base / algebra_path)
    if dims is None:
        raise InputError("missing dims line")
    q = algebra.quiver
    if len(dims) != q.n:
        raise InputError("dims line has %d entries, expected %d" % (len(dims), q.n))
    matrices: dict[str, Matrix] = {}
    for name, body in raw_matrices.items():
        k = q.arrow_index(name)
        a = q.arrows[k]
        if dims[a.source] == 0 or dims[a.target] == 0:
            raise InputError(
                "matrix for arrow %r with a 0-dimensional endpoint" % name
            )
        try:
            data = ast.literal_eval(body)
        except (ValueError, SyntaxError):
            raise InputError("unreadable matrix data for arrow %r" % name) from None
        if not isinstance(data, (list, tuple)) or not all(
            isinstance(r, (list, tuple)) for r in data
        ):
            raise InputError("matrix for arrow %r is not a list of rows" % name)
        for row in data:
            for x in row:
                if type(x) is not int:
                    raise InputError(
                        "non-integer entry %r in matrix for arrow %r" % (x, name)
                    )
        matrices[name] = linalg.matrix(data, rows=dims[a.target], cols=dims[a.source])
    return Representation(algebra, dims, matrices)


def load_module_file(path, algebra: AlgebraPresentation | None = None) -> Representation:
    p = FsPath(path)
    with open(p, "r", encoding="utf-8") as fh:
        return load_module(fh.read(), algebra=algebra, base_dir=p.parent)
