"""Reference path reduction for the differential tests.

The ungraded climb: at each length it lists every padded relation
multiple u.r.v that fits, groups every path of every length climbed so
far by (source, target), and row-reduces each of those mixed-length
blocks again.  It re-reduces all of the ideal at every step, so it is
slow, but it knows nothing of the grading.  `clusterchar.quiver` must
return the same nilpotency bound and the same reduction table.
"""

from fractions import Fraction

from clusterchar import linalg
from clusterchar.errors import AlgebraBuildError
from clusterchar.quiver import (
    DEFAULT_BASIS_CAP,
    _RAW_PATH_CAP,
    Path,
    Quiver,
    Relation,
    _validate_relations,
    path_sort_key,
    path_target,
)


def _blocks(q: Quiver, paths_by_len):
    """Group all paths by (source, target) block."""
    blocks: dict[tuple[int, int], list[Path]] = {}
    for ps in paths_by_len:
        for p in ps:
            blocks.setdefault((p.source, path_target(q, p)), []).append(p)
    for key in blocks:
        blocks[key].sort(key=path_sort_key)
    return blocks


def _ideal_rows(q: Quiver, relations: tuple[Relation, ...], paths_by_len):
    """Vectors spanning the relation ideal inside the paths enumerated.

    Every padded multiple u.r.v whose monomials all fit is included:
    pad lengths run over len(u) + len(v) <= length - max monomial of r.
    """
    length = len(paths_by_len) - 1
    rows: dict[tuple[int, int], list[dict[Path, int]]] = {}
    paths_into: dict[int, list[Path]] = {}
    paths_from: dict[int, list[Path]] = {}
    for ps in paths_by_len:
        for p in ps:
            paths_from.setdefault(p.source, []).append(p)
            paths_into.setdefault(path_target(q, p), []).append(p)
    for rel in relations:
        longest = max(len(p.arrows) for _, p in rel)
        src = rel[0][1].source
        tgt = path_target(q, rel[0][1])
        budget = length - longest
        if budget < 0:
            continue
        for v in paths_into.get(src, []):
            if len(v.arrows) > budget:
                continue
            for u in paths_from.get(tgt, []):
                if len(v.arrows) + len(u.arrows) > budget:
                    continue
                vec: dict[Path, int] = {}
                for coeff, p in rel:
                    whole = Path(v.source, v.arrows + p.arrows + u.arrows)
                    vec[whole] = vec.get(whole, 0) + coeff
                vec = {k: c for k, c in vec.items() if c != 0}
                if vec:
                    key = (v.source, path_target(q, u) if u.arrows else tgt)
                    rows.setdefault(key, []).append(vec)
    return rows


def _reduce_paths(q: Quiver, relations: tuple[Relation, ...]):
    """The nilpotency bound and the reduction table, read off the per-block
    echelon forms of the last length climbed: a free (non-pivot) path maps
    to itself, a pivot path to minus the free part of its row."""
    _validate_relations(q, relations)
    out_arrows: dict[int, list[int]] = {i: [] for i in range(q.n)}
    for k, a in enumerate(q.arrows):
        out_arrows[a.source].append(k)
    max_rel_len = max(
        (max(len(p.arrows) for _, p in rel) for rel in relations),
        default=0,
    )

    paths_by_len: list[list[Path]] = [[Path(i, ()) for i in range(q.n)]]
    prev_dim = q.n
    length = 0
    while True:
        length += 1
        paths_by_len.append([
            Path(p.source, p.arrows + (k,))
            for p in paths_by_len[length - 1]
            for k in out_arrows[path_target(q, p)]
        ])
        if sum(len(ps) for ps in paths_by_len) > _RAW_PATH_CAP:
            raise AlgebraBuildError(
                "path enumeration exceeded %d raw paths; "
                "algebra not finite-dimensional at this cap" % _RAW_PATH_CAP
            )
        ideal = _ideal_rows(q, relations, paths_by_len)
        echelon = []
        for key, paths in _blocks(q, paths_by_len).items():
            rows = [[vec.get(p, 0) for p in paths] for vec in ideal.get(key, [])]
            echelon.append((paths, *linalg.row_reduce(rows, len(paths))))
        dim = sum(len(paths) - len(pivots) for paths, _, pivots in echelon)
        if dim > DEFAULT_BASIS_CAP:
            raise AlgebraBuildError(
                "quotient dimension exceeded cap %d; "
                "algebra not finite-dimensional at this cap" % DEFAULT_BASIS_CAP
            )
        # a length contributing nothing ends the climb, but only once
        # every relation has fully entered the ideal span
        if dim == prev_dim and length >= max_rel_len:
            break
        prev_dim = dim

    table: dict[Path, dict[Path, Fraction | int]] = {}
    for paths, red, pivots in echelon:
        pivot_set = set(pivots)
        free = [j for j in range(len(paths)) if j not in pivot_set]
        table.update((paths[j], {paths[j]: 1}) for j in free)
        for row, c in zip(red, pivots):
            table[paths[c]] = {paths[j]: -row[j] for j in free if row[j] != 0}
    return length, table
