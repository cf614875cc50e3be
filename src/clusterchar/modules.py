"""Finite-dimensional modules over a presented quiver algebra.

A `Representation` assigns to each vertex a vector space (given by its
dimension) and to each arrow i -> j a matrix mapping the space at i to
the space at j; paths act by composing matrices in application order.
This one convention is used everywhere and is calibrated against known
submodule lists in the test suite.

Hom spaces are solved exactly over Q as intertwiner systems; the one
for End(m) also gives the candidates phi (a basis and its shifts by
rational eigenvalues) by which `fitting_parts` splits m in two (im
phi^N and ker phi^N), one level at a time: `grassmannian` tries a split
after the torus fixed points and before point counting, and splits a
part again only where the fixed points do not answer it.
The Euler form <m, n> = dim Hom - dim Ext^1 is one rank, of the map the
relations induce between Hom spaces (`euler_form`), and Ext^1 is
dim Hom(m, n) - <m, n>: the intertwiner system is the only Hom solver,
and no projective cover is built.  `forms` reads the coindex and the
index off this form, with a simple on either side.  Projectives and
injectives are built from the algebra's own basis: P_i from the paths
out of i, I_i from the duals of the paths into i.
"""

from __future__ import annotations

import re
from operator import mul

from . import linalg
from .errors import ConsistencyError, DimensionError, InputError
from .linalg import Matrix
from .quiver import AlgebraPresentation, Path, _content_lines, ascii_int, path_target, same_algebra

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
        """Each relation must send every basis vector at its source to 0:
        the vector is pushed through each term's arrows, column by sparse
        column, and the terms are summed."""
        if not self.algebra.relations:
            return
        # per arrow, in arrow order, column c as its nonzero (row, entry) pairs
        cols = [[[(r, x) for r, x in enumerate(m.entries[c::m.cols]) if x] for c in range(m.cols)]
                for m in self.matrices.values()]
        for rel in self.algebra.relations:
            for c in range(self.dims[rel[0][1].source]):
                acc: dict[int, linalg.Scalar] = {}
                for coeff, p in rel:
                    vec = {c: coeff}
                    for k in p.arrows:
                        out: dict[int, linalg.Scalar] = {}
                        for j, x in vec.items():
                            for r, y in cols[k][j]:
                                out[r] = out.get(r, 0) + x * y
                        vec = out
                    for r, x in vec.items():
                        acc[r] = acc.get(r, 0) + x
                if any(acc.values()):
                    raise InputError("module does not satisfy the algebra relations")

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


def injective(algebra: AlgebraPresentation, i: int) -> Representation:
    """I_i: the space at j is dual to the span of basis paths j -> i; an
    arrow acts by the transpose of precomposition, reduced to the basis."""
    q = algebra.quiver
    by_source = [algebra.paths_from[j][i] for j in range(q.n)]
    dims = tuple(map(len, by_source))
    pos = [{p: k for k, p in enumerate(paths)} for paths in by_source]
    mats: dict[str, Matrix] = {}
    for k, a in enumerate(q.arrows):
        rows, cols = dims[a.target], dims[a.source]
        data = [[0] * cols for _ in range(rows)]
        for r, p in enumerate(by_source[a.target]):
            ext = Path(a.source, (k,) + p.arrows)
            for b, coeff in algebra.reduce_path(ext).items():
                data[r][pos[a.source][b]] = coeff
        mats[a.name] = linalg.matrix(data, rows=rows, cols=cols)
    return Representation(algebra, dims, mats)


def direct_sum(m: Representation, n: Representation) -> Representation:
    """m (+) n: each arrow matrix is block-diagonal, m's block first."""
    _require_same_algebra(m, n)
    q = m.algebra.quiver
    dims = tuple(x + y for x, y in zip(m.dims, n.dims))
    mats: dict[str, Matrix] = {}
    for a in q.arrows:
        A, B = m.matrices[a.name], n.matrices[a.name]
        entries = [x for r in range(A.rows) for x in A.row(r) + (0,) * B.cols]
        entries += [x for r in range(B.rows) for x in (0,) * A.cols + B.row(r)]
        mats[a.name] = Matrix(dims[a.target], dims[a.source], tuple(entries))
    return Representation(m.algebra, dims, mats)


def _require_same_algebra(m: Representation, n: Representation) -> None:
    if not same_algebra(m.algebra, n.algebra):
        raise DimensionError("representations live over different algebras")


# -- Hom and Ext ------------------------------------------------------------


def _intertwiner_system(m: Representation, n: Representation) -> tuple[Matrix, list[int]]:
    """Linear system on (phi_j) with phi_j . M(a) = N(a) . phi_i per arrow
    a: i -> j.  Returns the system matrix and the per-vertex unknown offsets;
    unknown (j, r, c) (entry of phi_j) sits at offset[j] + r*m.dims[j] + c.
    """
    md, nd = m.dims, n.dims
    offsets = []
    total = 0
    for d, e in zip(md, nd):
        offsets.append(total)
        total += d * e
    rows: list[list] = []
    for a in m.algebra.quiver.arrows:
        i, j = a.source, a.target
        mi, mj, ni = md[i], md[j], nd[i]  # ma is mj x mi, na is n_j x ni
        if not mi:
            continue
        ma, na = m.matrices[a.name].entries, n.matrices[a.name].entries
        for r in range(nd[j]):
            for c in range(mi):
                row = [0] * total
                for k in range(mj):
                    row[offsets[j] + r * mj + k] += ma[k * mi + c]
                for k in range(ni):
                    row[offsets[i] + k * mi + c] -= na[r * ni + k]
                rows.append(row)
    return linalg.matrix(rows, rows=len(rows), cols=total), offsets


def hom_dim(m: Representation, n: Representation) -> int:
    """dim Hom(m, n), solved exactly over Q."""
    _require_same_algebra(m, n)
    system, _ = _intertwiner_system(m, n)
    return system.cols - linalg.rank(system)


def fitting_parts(m: Representation) -> tuple[Representation, Representation] | None:
    """One Fitting split of m: (im phi^N, ker phi^N) for the first
    candidate phi that splits it, or None when none does.

    For an endomorphism phi of m, m is im phi^N (+) ker phi^N, a direct
    sum of submodules, once N is at least every dimension (N = d_j at
    vertex j); the split is proper when phi is neither nilpotent nor
    invertible.  The candidates are a basis of End(m), the kernel of the
    intertwiner system, and then phi - lambda for each rational
    eigenvalue lambda of a basis element phi.  The parts are in the
    basis [im | ker] (`_fitting_parts`), so their entries may be
    rational; a caller that wants every summand splits each part again.
    None comes back for an indecomposable m, whose local endomorphism
    ring holds no such phi, but not only for one: Krull-Schmidt
    completeness is not claimed.
    """
    system, offsets = _intertwiner_system(m, m)
    red, pivots = linalg.row_reduce(system.to_lists(), system.cols)
    endos = [
        [Matrix(d, d, tuple(v[offsets[j] : offsets[j] + d * d])) for j, d in enumerate(m.dims)]
        for v in linalg.null_vectors(red, pivots, system.cols)
    ]
    for phi in _split_candidates(endos):
        parts = _fitting_parts(m, phi)
        if parts is not None:
            return parts
    return None


def _split_candidates(endos):
    """The basis of End(m), then phi - lambda for each rational eigenvalue
    lambda of each basis element phi; where phi has one eigenvalue,
    `_fitting_parts` refuses the nilpotent phi - lambda.
    """
    yield from endos
    for phi in endos:
        for lam in sorted({x for a in phi for x in linalg.rational_eigenvalues(a)}):
            yield _shifted(phi, lam)


def _shifted(phi, lam) -> list[Matrix]:
    """phi - lam * id, vertex by vertex."""
    return [
        linalg.matrix(
            [[a.entry(r, c) - (lam if r == c else 0) for c in range(a.cols)]
             for r in range(a.rows)],
            rows=a.rows, cols=a.cols,
        )
        for a in phi
    ]


def _stable_power(a: Matrix) -> Matrix:
    """a^d for a d x d matrix, past which its image and kernel stay put."""
    acc = linalg.identity(a.rows)
    for _ in range(a.rows):
        acc = linalg.mat_mul(a, acc)
    return acc


def _fitting_parts(m: Representation, phi):
    """(im phi^N, ker phi^N) as modules, or None when phi is nilpotent or
    invertible.

    At each vertex one row reduction of phi^N gives both: the columns of
    phi^N at its pivot columns span the image, and `linalg.null_vectors`
    of the reduced form span the kernel.  Each arrow is conjugated into
    the bases [im | ker].  The two must make a basis there, and an arrow
    must map image into image and kernel into kernel, which holds when
    phi is an endomorphism: either failure raises `ConsistencyError`.
    """
    powers = [_stable_power(a) for a in phi]
    reduced = [linalg.row_reduce(power.to_lists(), power.cols) for power in powers]
    ranks = [len(pivots) for _, pivots in reduced]
    if not any(ranks) or ranks == list(m.dims):
        return None
    bases, inverses = [], []
    for j, (power, (red, columns)) in enumerate(zip(powers, reduced)):
        d = power.rows
        cols = [[power.entry(r, c) for r in range(d)] for c in columns]
        cols += linalg.null_vectors(red, columns, d)
        basis = [[col[r] for col in cols] for r in range(d)]
        inverted, full = linalg.row_reduce(
            [row + [int(r == c) for c in range(d)] for r, row in enumerate(basis)], d
        )
        if len(full) != d:
            raise ConsistencyError("Fitting summands meet at vertex %d" % j)
        bases.append(linalg.matrix(basis, rows=d, cols=d))
        inverses.append(linalg.matrix([row[d:] for row in inverted], rows=d, cols=d))
    image: dict[str, Matrix] = {}
    rest: dict[str, Matrix] = {}
    for a in m.algebra.quiver.arrows:
        i, j = a.source, a.target
        x = linalg.mat_mul(linalg.mat_mul(inverses[j], m.matrices[a.name]), bases[i])
        if any(x.entry(r, c) for r in range(x.rows) for c in range(x.cols)
               if (r < ranks[j]) != (c < ranks[i])):
            raise ConsistencyError("Fitting summands are not submodules at arrow %r" % a.name)
        image[a.name] = linalg.matrix(
            [x.row(r)[: ranks[i]] for r in range(ranks[j])], rows=ranks[j], cols=ranks[i]
        )
        rest[a.name] = linalg.matrix(
            [x.row(r)[ranks[i] :] for r in range(ranks[j], x.rows)],
            rows=x.rows - ranks[j], cols=x.cols - ranks[i],
        )
    rest_dims = [d - r for d, r in zip(m.dims, ranks)]
    return Representation(m.algebra, ranks, image), Representation(m.algebra, rest_dims, rest)


def euler_form(m: Representation, n: Representation) -> int:
    """<m, n> = dim Hom(m, n) - dim Ext^1(m, n), read off the relations.

    The bimodule resolution of the algebra, tensored with m, starts

        (+)_rho P_t(rho) (x) m_s(rho) -> (+)_a P_t(a) (x) m_s(a) -> (+)_i P_i (x) m_i -> m,

    and is exact there for any relations that generate the ideal
    (Butler-King).  Hom(-, n) of it gives Hom(m, n) as the kernel of
    (+)_i Hom(m_i, n_i) -> (+)_a Hom(m_s(a), n_t(a)), and Ext^1(m, n) as
    the cohomology at the arrows, where the next map d1 goes to
    (+)_rho Hom(m_s(rho), n_t(rho)).  With d = dim m and e = dim n,

        <m, n> = sum_i d_i e_i - sum_a d_s(a) e_t(a) + rank d1.

    d1 sends (f_a) to the sum of c * n(tail) . f_a . m(head) over the
    terms c * p of rho and the positions of a in p, head being the part
    of p before a and tail the part after it.  A (term, position) is
    skipped only where its head runs through a zero space of m or its
    tail through a zero space of n, as it then acts as 0.
    """
    _require_same_algebra(m, n)
    q = m.algebra.quiver
    arrows, d, e = q.arrows, m.dims, n.dims
    # the columns of d1: one block Hom(m_s(a), n_t(a)) per arrow, row-major
    offset, width = [], 0
    for a in arrows:
        offset.append(width)
        width += e[a.target] * d[a.source]
    rows: list[list] = []
    for rel in m.algebra.relations:
        s, t = rel[0][1].source, path_target(q, rel[0][1])
        block = [[0] * width for _ in range(e[t] * d[s])]
        for coeff, p in rel:
            for k, b in enumerate(p.arrows):
                if not (all(d[arrows[h].source] for h in p.arrows[: k + 1])
                        and all(e[arrows[h].target] for h in p.arrows[k:])):
                    continue  # the head or the tail runs through a zero space
                head = path_matrix(m, Path(s, p.arrows[:k]))
                tail = path_matrix(n, Path(arrows[b].target, p.arrows[k + 1 :]))
                cols = d[arrows[b].source]
                for c in range(d[s]):
                    column = [coeff * head.entry(y, c) for y in range(cols)]
                    for r in range(e[t]):
                        row = block[r * d[s] + c]
                        for x, tx in enumerate(tail.row(r)):
                            start = offset[b] + x * cols
                            for y, hy in enumerate(column):
                                row[start + y] += tx * hy
        rows += block
    rank = linalg.rank(linalg.matrix(rows, cols=width)) if rows and width else 0
    return sum(map(mul, d, e)) - sum(d[a.source] * e[a.target] for a in arrows) + rank


def ext1_dim(m: Representation, n: Representation) -> int:
    """dim Ext^1(m, n) = dim Hom(m, n) - <m, n>."""
    return hom_dim(m, n) - euler_form(m, n)


# -- file format -------------------------------------------------------------


_GAP = "[ \t]*"
_ROW = r"%s\[[^\[\]]*\]%s" % (_GAP, _GAP)
_MATRIX = re.compile(r"\[(?:%s(?:,%s)*)?%s\]" % (_ROW, _ROW, _GAP))
_ROW_BODY = re.compile(r"\[([^\[\]]*)\]")
_NESTED = re.compile(r"\[%s[\[\]]" % _GAP)


def _matrix_rows(body: str, name: str) -> list[list[int]]:
    """The rows ``[[a, b], [c, d]]`` spells, with spaces and tabs allowed
    around brackets and commas; each entry is read by `ascii_int`."""
    if not _MATRIX.fullmatch(body):
        if _NESTED.match(body):
            raise InputError("unreadable matrix data for arrow %r" % name)
        raise InputError("matrix for arrow %r is not a list of rows" % name)
    rows = []
    for row in _ROW_BODY.findall(body, 1, len(body) - 1):
        entries = []
        for t in row.split(",") if row.strip(" \t") else ():
            t = t.strip(" \t")
            if not t:
                raise InputError("unreadable matrix data for arrow %r" % name)
            try:
                entries.append(ascii_int(t))
            except ValueError:
                # quoted unless plain to read, so that a blank or invisible token shows
                shown = t if t.isascii() and t.isprintable() else repr(t)
                raise InputError(
                    "non-integer entry %s in matrix for arrow %r" % (shown, name)
                ) from None
        rows.append(entries)
    return rows


def load_module(text: str, algebra: AlgebraPresentation) -> Representation:
    """Load the ``[module]`` file format over ``algebra``.

    An ``algebra:`` line may name the algebra file for a reader, but the
    loader does not consult it.  Matrices must have integer entries so
    that reduction mod p stays meaningful.
    """
    seen_algebra = False
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
            if seen_algebra:
                raise InputError("line %d: repeated algebra line" % lineno)
            seen_algebra = True
        elif line.startswith("dims:"):
            if dims is not None:
                raise InputError("line %d: repeated dims line" % lineno)
            try:
                dims = [ascii_int(t) for t in line[len("dims:") :].split()]
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
        data = _matrix_rows(body, name)
        matrices[name] = linalg.matrix(data, rows=dims[a.target], cols=dims[a.source])
    return Representation(algebra, dims, matrices)


def load_module_file(path, algebra: AlgebraPresentation) -> Representation:
    with open(path, "r", encoding="utf-8") as fh:
        return load_module(fh.read(), algebra)
