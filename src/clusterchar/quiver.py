"""Quivers with admissible relations and their finite-dimensional quotients.

An `AlgebraPresentation` carries a quiver, a set of relations, and a
computed linear basis of the quotient of the path algebra by the ideal
generated by the relations.  Every relation is homogeneous in (source,
target, length), so the ideal is graded by length and the basis is found
one length at a time, a path that the ideal holds as a monomial going to
0 without elimination; the first length contributing nothing to the
quotient is the nilpotency bound, and a growth cap turns an algebra that
is not finite-dimensional into a loud error.  Every algebra reduces its
own relations, once; its projectives and injectives read that basis.

Paths store their arrows in application order: ``Path(v, (a, b))`` starts
at vertex ``v``, applies arrow ``a`` first, then ``b``.  The textual
relation format uses the opposite (right-to-left) composition order, as
is usual for written compositions; the parser reverses it.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

from . import linalg
from .errors import AlgebraBuildError, InputError

DEFAULT_BASIS_CAP = 64
_RAW_PATH_CAP = 20000


class Arrow(namedtuple("Arrow", "name source target")):
    __slots__ = ()


class Quiver(namedtuple("Quiver", "vertices arrows")):
    __slots__ = ()

    @property
    def n(self) -> int:
        return len(self.vertices)

    def vertex_index(self, label: str) -> int:
        try:
            return self.vertices.index(label)
        except ValueError:
            raise InputError("unknown vertex %r" % label) from None

    def arrow_index(self, name: str) -> int:
        for k, a in enumerate(self.arrows):
            if a.name == name:
                return k
        raise InputError("unknown arrow %r" % name)


def make_quiver(vertex_labels, arrow_triples) -> Quiver:
    """Build and validate a quiver from labels and (name, src, dst) triples."""
    labels = tuple(str(v) for v in vertex_labels)
    if len(set(labels)) != len(labels):
        raise InputError("duplicate vertex label")
    index = {v: i for i, v in enumerate(labels)}
    arrows = []
    seen = set()
    for name, src, dst in arrow_triples:
        if name in seen:
            raise InputError("duplicate arrow name %r" % name)
        seen.add(name)
        if src not in index:
            raise InputError("unknown vertex %r in arrow %r" % (src, name))
        if dst not in index:
            raise InputError("unknown vertex %r in arrow %r" % (dst, name))
        arrows.append(Arrow(name, index[src], index[dst]))
    return Quiver(labels, tuple(arrows))


class Path(namedtuple("Path", "source arrows")):
    """A path in a quiver; ``arrows`` are arrow indices in application order."""

    __slots__ = ()


def path_target(q: Quiver, p: Path) -> int:
    return q.arrows[p.arrows[-1]].target if p.arrows else p.source


def path_sort_key(p: Path):
    return (len(p.arrows), p.arrows, p.source)


Term = tuple[int, Path]
Relation = tuple[Term, ...]


def _validate_relations(q: Quiver, rels: tuple[Relation, ...]) -> None:
    for rel in rels:
        if not rel:
            raise InputError("empty relation")
        sig = None
        for coeff, p in rel:
            if coeff == 0:
                raise InputError("zero coefficient in relation")
            if len(p.arrows) < 2:
                raise InputError(
                    "non-admissible relation: monomial of length %d" % len(p.arrows)
                )
            at = p.source
            for k in p.arrows:
                a = q.arrows[k]
                if a.source != at:
                    raise InputError(
                        "non-composable path through arrow %r" % a.name
                    )
                at = a.target
            this_sig = (p.source, at, len(p.arrows))
            if sig is None:
                sig = this_sig
            elif sig != this_sig:
                raise InputError(
                    "relation not homogeneous in (source, target, length)"
                )


def _reduce_paths(q: Quiver, relations: tuple[Relation, ...]):
    """The nilpotency bound and the reduction table.

    The ideal's part in length L is spanned by the relations of length L
    and the arrow multiples, on either side, of the echelon rows kept
    from length L - 1.  Each (source, target) block of length-L paths is
    row-reduced once: a free (non-pivot) path maps to itself, a pivot
    path to minus the free part of its row.  A monomial row is a unit
    pivot, so its path maps to 0 and only the other rows are reduced,
    over the other paths; the reduced echelon form is unique, so this
    gives the same table as reducing the whole block.  The climb ends at
    the first length with no free path once every relation has entered.
    """
    _validate_relations(q, relations)
    arrows_from: dict[int, list[int]] = {i: [] for i in range(q.n)}
    arrows_into: dict[int, list[int]] = {i: [] for i in range(q.n)}
    for k, a in enumerate(q.arrows):
        arrows_from[a.source].append(k)
        arrows_into[a.target].append(k)
    max_rel_len = max((len(rel[0][1].arrows) for rel in relations), default=0)

    paths = [Path(i, ()) for i in range(q.n)]
    table: dict[Path, dict[Path, Fraction | int]] = {p: {p: 1} for p in paths}
    raw = dim = q.n
    echelon: list[dict[Path, Fraction | int]] = []
    length = 0
    while True:
        length += 1
        paths = [Path(p.source, p.arrows + (k,))
                 for p in paths for k in arrows_from[path_target(q, p)]]
        raw += len(paths)
        if raw > _RAW_PATH_CAP:
            raise AlgebraBuildError(
                "path enumeration exceeded %d raw paths; "
                "algebra not finite-dimensional at this cap" % _RAW_PATH_CAP
            )
        ideal = []
        for rel in relations:
            if len(rel[0][1].arrows) == length:
                vec: dict[Path, int] = {}
                for coeff, p in rel:
                    vec[p] = vec.get(p, 0) + coeff
                ideal.append({p: c for p, c in vec.items() if c != 0})
        for vec in echelon:
            first = next(iter(vec))
            s, t = first.source, path_target(q, first)
            ideal += [{Path(q.arrows[k].source, (k,) + p.arrows): c
                       for p, c in vec.items()} for k in arrows_into[s]]
            ideal += [{Path(s, p.arrows + (k,)): c for p, c in vec.items()}
                      for k in arrows_from[t]]
        # extension keeps the paths from each source in path_sort_key order
        blocks: dict[tuple[int, int], tuple[list, list]] = {}
        for p in paths:
            blocks.setdefault((p.source, path_target(q, p)), ([], []))[0].append(p)
        for vec in filter(None, ideal):
            p = next(iter(vec))
            blocks[p.source, path_target(q, p)][1].append(vec)
        echelon, added = [], 0
        for ps, vecs in blocks.values():
            zero = {p for vec in vecs if len(vec) == 1 for p in vec}
            for p in ps:
                if p in zero:
                    table[p] = {}
                    echelon.append({p: 1})
            ps = [p for p in ps if p not in zero]
            red, pivots = linalg.row_reduce(
                [[vec.get(p, 0) for p in ps] for vec in vecs if len(vec) > 1], len(ps)
            )
            pivot_set = set(pivots)
            free = [j for j in range(len(ps)) if j not in pivot_set]
            added += len(free)
            table.update((ps[j], {ps[j]: 1}) for j in free)
            for row, c in zip(red, pivots):
                table[ps[c]] = {ps[j]: -row[j] for j in free if row[j] != 0}
                echelon.append({ps[j]: x for j, x in enumerate(row) if x != 0})
        dim += added
        if dim > DEFAULT_BASIS_CAP:
            raise AlgebraBuildError(
                "quotient dimension exceeded cap %d; "
                "algebra not finite-dimensional at this cap" % DEFAULT_BASIS_CAP
            )
        if not added and length >= max_rel_len:
            return length, table


class AlgebraPresentation:
    """A quiver algebra with relations and its path basis: the paths that
    the reduction table (every path of length <= ``nilpotency_bound`` to
    its class) maps to themselves.  Every relation must reduce to 0.

    ``paths_from[i][j]`` lists the basis paths i -> j in basis order.
    Immutable after construction; data derived from it is cached through
    `cached`, the one place that writes ``_memo``.  The program caches
    one kind: each module's character value, under
    ``("cc_value", module.fingerprint())``.
    """

    def __init__(self, quiver: Quiver, relations: tuple[Relation, ...]):
        self.quiver = quiver
        self.relations = relations
        self.nilpotency_bound, self._reduce_table = _reduce_paths(quiver, relations)
        self._memo: dict = {}
        basis = sorted(
            (p for p, row in self._reduce_table.items() if row == {p: 1}),
            key=path_sort_key,
        )
        if any(len(p.arrows) >= self.nilpotency_bound for p in basis):
            raise AlgebraBuildError("basis path at or above the nilpotency bound")
        self.basis = tuple(basis)
        paths_from = [[[] for _ in range(quiver.n)] for _ in range(quiver.n)]
        for p in basis:
            paths_from[p.source][path_target(quiver, p)].append(p)
        self.paths_from = tuple(tuple(map(tuple, row)) for row in paths_from)
        self._check_relations_vanish()

    def _check_relations_vanish(self) -> None:
        for rel in self.relations:
            acc: dict[Path, Fraction | int] = {}
            for coeff, p in rel:
                for b, c in self.reduce_path(p).items():
                    acc[b] = linalg.normalize(acc.get(b, 0) + coeff * c)
            if any(c != 0 for c in acc.values()):
                raise AlgebraBuildError("relation does not vanish in the basis")

    # -- queries ---------------------------------------------------------

    def dim(self) -> int:
        return len(self.basis)

    def reduce_path(self, p: Path) -> dict[Path, Fraction | int]:
        """Express the class of a path of length at most the nilpotency
        bound in the chosen basis."""
        hit = self._reduce_table.get(p)
        if hit is None:
            # the table holds every composable path of in-range length
            raise InputError(
                "path not composable in this quiver or longer than the "
                "nilpotency bound %d" % self.nilpotency_bound
            )
        return hit

    def cached(self, key, compute):
        """The derived value under ``key``: ``compute()`` on first use, the
        stored object after.  ``compute`` must depend only on the algebra
        and ``key``, so every write is idempotent."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def __repr__(self) -> str:
        return "AlgebraPresentation(%d vertices, %d arrows, dim %d)" % (
            self.quiver.n,
            len(self.quiver.arrows),
            self.dim(),
        )


def same_algebra(a: AlgebraPresentation, b: AlgebraPresentation) -> bool:
    return a is b or (a.quiver == b.quiver and a.relations == b.relations)


# -- text format -----------------------------------------------------------


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


_INTEGER = re.compile(r"-?[0-9]+")


def ascii_int(text: str) -> int:
    """The integer an optional ``-`` and ASCII digits spell, the syntax of
    every integer a user types; anything else raises ValueError."""
    if not _INTEGER.fullmatch(text):
        raise ValueError("invalid integer %r" % text)
    return int(text)


def parse_relation_expr(q: Quiver, expr: str) -> Relation:
    """Parse ``±c*name_k.….name_1 ± …`` (rightmost arrow applied first)."""
    terms: list[Term] = []
    buf = expr.replace(" ", "")
    if not buf:
        raise InputError("empty relation expression")
    chunks: list[str] = []
    cur = ""
    for ch in buf:
        if ch in "+-" and cur not in ("", "+", "-"):
            chunks.append(cur)
            cur = ch
        else:
            cur += ch
    chunks.append(cur)
    for chunk in chunks:
        sign = 1
        if chunk.startswith("+"):
            chunk = chunk[1:]
        elif chunk.startswith("-"):
            sign, chunk = -1, chunk[1:]
        coeff = 1
        if "*" in chunk:
            head, chunk = chunk.split("*", 1)
            try:
                if head.startswith("-"):  # the term's sign is read above
                    raise ValueError
                coeff = ascii_int(head)
            except ValueError:
                raise InputError("bad relation coefficient %r" % head) from None
        names = chunk.split(".")
        if any(not n for n in names):
            raise InputError("bad path %r in relation" % chunk)
        arrow_ids = [q.arrow_index(n) for n in reversed(names)]
        source = q.arrows[arrow_ids[0]].source
        terms.append((sign * coeff, Path(source, tuple(arrow_ids))))
    return tuple(terms)


def load_algebra(text: str) -> AlgebraPresentation:
    """Load the line-oriented algebra format.

    ``[quiver]`` section: one ``vertices:`` line and ``arrow: name src dst``
    lines; ``[relations]`` section (optional): ``rel: <expr>`` lines.
    """
    section = None
    vertices: list[str] | None = None
    arrow_triples: list[tuple[str, str, str]] = []
    rel_exprs: list[str] = []
    for lineno, line in _content_lines(text):
        if line.startswith("["):
            if line == "[quiver]":
                section = "quiver"
            elif line == "[relations]":
                section = "relations"
            else:
                raise InputError("line %d: unknown section %s" % (lineno, line))
            continue
        if section == "quiver":
            if line.startswith("vertices:"):
                if vertices is not None:
                    raise InputError("line %d: repeated vertices line" % lineno)
                vertices = line[len("vertices:") :].split()
                if not vertices:
                    raise InputError("line %d: no vertices listed" % lineno)
            elif line.startswith("arrow:"):
                parts = line[len("arrow:") :].split()
                if len(parts) != 3:
                    raise InputError("line %d: arrow needs name src dst" % lineno)
                arrow_triples.append((parts[0], parts[1], parts[2]))
            else:
                raise InputError("line %d: unexpected line in [quiver]" % lineno)
        elif section == "relations":
            if line.startswith("rel:"):
                rel_exprs.append(line[len("rel:") :])
            else:
                raise InputError("line %d: unexpected line in [relations]" % lineno)
        else:
            raise InputError("line %d: content before any section" % lineno)
    if vertices is None:
        raise InputError("missing vertices line")
    q = make_quiver(vertices, arrow_triples)
    rels = tuple(parse_relation_expr(q, e) for e in rel_exprs)
    return AlgebraPresentation(q, rels)


def load_algebra_file(path) -> AlgebraPresentation:
    with open(path, "r", encoding="utf-8") as fh:
        return load_algebra(fh.read())
