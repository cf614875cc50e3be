"""Finite-dimensional modules over a presented quiver algebra.

A `Representation` assigns to each vertex a vector space (given by its
dimension) and to each arrow i -> j a matrix mapping the space at i to
the space at j; paths act by composing matrices in application order.
This one convention is used everywhere and is calibrated against known
submodule lists in the test suite.

Hom spaces are solved exactly over Q as intertwiner systems.  Syzygies
come from minimal projective covers (covering the top, not an arbitrary
generating set, so that presentation multiplicities are the minimal
ones), and Ext^1 from a single syzygy.  Injective-side computations are
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
        check: bool = True,
    ):
        self.algebra = algebra
        self.dims: DimVector = tuple(int(d) for d in dims)
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
        if check:
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
    return Representation(algebra, (0,) * algebra.quiver.n, check=False)


def simple(algebra: AlgebraPresentation, i: int) -> Representation:
    dims = tuple(1 if j == i else 0 for j in range(algebra.quiver.n))
    return Representation(algebra, dims, check=False)


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
    q = m.algebra.quiver
    dims = tuple(a + b for a, b in zip(m.dims, n.dims))
    mats: dict[str, Matrix] = {}
    for a in q.arrows:
        A, B = m.matrices[a.name], n.matrices[a.name]
        rows, cols = dims[a.target], dims[a.source]
        data = [[0] * cols for _ in range(rows)]
        for r in range(A.rows):
            for c in range(A.cols):
                data[r][c] = A.entry(r, c)
        for r in range(B.rows):
            for c in range(B.cols):
                data[A.rows + r][A.cols + c] = B.entry(r, c)
        mats[a.name] = linalg.matrix(data, rows=rows, cols=cols)
    return Representation(m.algebra, dims, mats, check=False)


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


def hom_basis(m: Representation, n: Representation) -> list[dict[int, Matrix]]:
    """A basis of Hom(m, n) as per-vertex matrix families."""
    _require_same_algebra(m, n)
    system, offsets = _intertwiner_system(m, n)
    kern = linalg.kernel_basis(system)
    q = m.algebra.quiver
    out = []
    for col in range(kern.cols):
        phi: dict[int, Matrix] = {}
        for j in range(q.n):
            rows_j, cols_j = n.dims[j], m.dims[j]
            data = [
                [kern.entry(offsets[j] + r * cols_j + c, col) for c in range(cols_j)]
                for r in range(rows_j)
            ]
            phi[j] = linalg.matrix(data, rows=rows_j, cols=cols_j)
        out.append(phi)
    return out


def _top_coordinates(m: Representation, j: int) -> list[int]:
    """Coordinates at vertex j whose unit vectors complete rad m to m.

    The columns of the arrow matrices into j span the radical there; the
    non-pivot columns of one echelon form of them are the top.
    """
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

    inclusion = {j: linalg.kernel_basis(cover_map[j]) for j in range(q.n)}
    ker_dims = tuple(inclusion[j].cols for j in range(q.n))
    ker_mats: dict[str, Matrix] = {}
    for a in q.arrows:
        i, j = a.source, a.target
        mapped = linalg.mat_mul(cover.matrices[a.name], inclusion[i])
        sol = linalg.solve(inclusion[j], mapped)
        if sol is None:
            raise DimensionError("cover map is not a module morphism")
        ker_mats[a.name] = sol
    kernel = Representation(m.algebra, ker_dims, ker_mats, check=False)
    return Syzygy(tuple(map(len, tops)), cover, cover_map, kernel, inclusion)


def ext1_dim(m: Representation, n: Representation) -> int:
    """dim Ext^1(m, n) = dim coker( Hom(P0, n) -> Hom(Omega m, n) )."""
    _require_same_algebra(m, n)
    if m.is_zero() or n.is_zero():
        return 0
    syz = syzygy(m)
    omega = syz.kernel
    if omega.is_zero():
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
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
