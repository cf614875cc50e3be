"""Reference cluster-variable enumerator for the differential tests.

The Laurent-keyed oracle: every seed carries its cluster variables as
Laurent polynomials, every mutation computes the new variable by exact
division, and seeds are identified by the set of their variables.  It
does one division per edge of the exchange graph instead of one per
cluster variable, so it is slow, but it relies on no theorem about
g-vectors.  Seeds visited are counted, and the cap applied, exactly as
`clusterchar.mutation.enumerate_cluster_variables` does.  That oracle
divides only once its search has closed, so a capped run of it does no
Laurent arithmetic; this one divides along every edge up to the cap, and
its capped runs in infinite type grow Laurent polynomials that are
thrown away.
"""

from collections import deque

from clusterchar.errors import ConsistencyError, InputError, NotFiniteTypeError
from clusterchar.mutation import DEFAULT_SEED_CAP, initial_seed, mutate_seed


def enumerate_cluster_variables(b, seed_cap=DEFAULT_SEED_CAP):
    """Breadth-first closure of the initial seed, clusters keyed by their
    variables; a revisited cluster's matrix must be a relabelling of the
    stored one."""
    if seed_cap < 1:
        raise InputError("seed cap must be at least 1, got %d" % seed_cap)
    start = initial_seed(b)
    n = len(start.matrix)
    clusters = {frozenset(start.variables): start}
    # each queued seed carries the direction it was reached along
    queue = deque([(start, None)])
    visited = 1
    while queue:
        s, back = queue.popleft()
        for k in range(n):
            visited += 1
            if visited > seed_cap:
                raise NotFiniteTypeError(
                    "not finite within cap: more than %d seeds" % seed_cap
                )
            if k == back:
                continue  # mutation is an involution: this is the parent seed
            t = mutate_seed(s, k)
            cluster = frozenset(t.variables)
            known = clusters.get(cluster)
            if known is None:
                if len(cluster) < n:
                    raise ConsistencyError("a cluster repeats a variable")
                clusters[cluster] = t
                queue.append((t, k))
            else:
                _check_relabelling(known, t)
    return frozenset().union(*clusters)


def _check_relabelling(known, t):
    position = {v: i for i, v in enumerate(known.variables)}
    perm = [position[v] for v in t.variables]
    if any(
        t.matrix[i][j] != known.matrix[pi][pj]
        for i, pi in enumerate(perm)
        for j, pj in enumerate(perm)
    ):
        raise ConsistencyError(
            "one cluster carries exchange matrices that are not relabellings"
        )
