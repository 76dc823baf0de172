"""References that the pipeline does not run, the tests' oracles for the
kernels it does: `cone_metric` over arbitrary cone points, and
`level_rows`, the grid's rows computed one pair at a time, both of which
`ConeGrid.level_pair`'s distance classes match bit for bit; `ast_shrink`, the
paper's merge step at full strength, through which the tests check the
`eroded` and `merged` kernels that `separate` runs with a moat of its own;
`component_level`, the component level builder as a search over every
pairwise distance with a breadth-first search per probe, which the
spanning-tree cut of `char_seq._component_level` matches member for member;
and `scalar_validate`, a tree's node properties checked one node at a time,
which every tree `tree_embed.build_tree` builds satisfies by construction.
"""

import math

import numpy as np

from conetrees import Family, SeparationPreconditionError


def cone_metric(space, z, t) -> np.ndarray:
    """The (k, k) cone distances of the points (z[i], t[i]): base point
    indices z and radii t >= 0, in the stable half-angle form

        2 * asinh(sqrt(sinh((t - t')/2)**2 + sinh(t) sinh(t') sin(a/2)**2))

    with angle a = pi / diameter * d(z, z').  On a space of diameter 0 the
    cone is a ray, and the distance is |t - t'|."""
    z = np.asarray(z, dtype=int)
    t = np.asarray(t, dtype=float)
    if space.diameter == 0:
        return np.abs(t[:, None] - t[None, :])
    mu = math.pi / space.diameter
    half = 0.5 * mu * space.dist[np.ix_(z, z)]
    sh = np.sinh(t)
    s = np.sinh(0.5 * (t[:, None] - t[None, :])) ** 2 + np.outer(sh, sh) * np.sin(half) ** 2
    return 2.0 * np.arcsinh(np.sqrt(s))


def level_rows(grid, j: int, lo: int = 0, hi: int | None = None,
               start: int = 0) -> np.ndarray:
    """The cone distances of rows [lo, hi) of level j to the grid points
    [start, n_points), a (hi - lo, n_points - start) array, one entry per
    pair: 2*asinh(sqrt(A + B*S)) with A and B at the two points' levels and
    S = sin(a/2)**2 from the n x n base, the apex (level 0, one row) at base
    point 0.  The grid's row kernel before distance classes."""
    n, n_points = grid.space.n, grid.n_points
    t = np.arange(grid.depth + 1) * grid.R
    sh = np.sinh(t)
    a = np.sinh(0.5 * (t[:, None] - t[None, :])) ** 2
    b = np.outer(sh, sh)
    s = np.sin(0.5 * grid.mu * grid.space.dist) ** 2
    s = s[lo:(n if hi is None else hi)] if j else s[:1]
    rows = np.empty((len(s), n_points - start))
    # from the level of column start on, level k's columns from base point
    # z0, one slice of S's rows each; the apex's one column is base point 0
    for k in range((start + n - 1) // n, grid.depth + 1):
        first = grid.index(k, 0)
        z0, width = max(start - first, 0), (n if k else 1)
        part = rows[:, first + z0 - start: first + width - start]
        np.multiply(b[j, k], s[:, z0:width], out=part)
        np.add(a[j, k], part, out=part)
    np.sqrt(rows, out=rows)
    np.arcsinh(rows, out=rows)
    rows *= 2.0
    return rows


def ast_shrink(fam, ghat, s: float, delta: float):
    """One merge step at full strength: erode each member of ``fam`` by 4s,
    then absorb every member of ``ghat`` whose open delta*s neighborhood
    meets that of the eroded core, and grow the union by delta*s.

    Requires delta in (0, 2/3], mesh(ghat) <= 2s, and the open delta*s
    neighborhoods of ghat members pairwise disjoint.
    Each output member is contained in its input member, and every open
    delta*s neighborhood of a ghat member is either inside or disjoint from
    every output member.  Eroded-away members are dropped.
    """
    if not 0 < delta <= 2 / 3:
        raise SeparationPreconditionError(f"delta must be in (0, 2/3], got {delta}")
    if s <= 0:
        raise SeparationPreconditionError(f"step scale must be positive, got {s}")
    if ghat.mesh > 2 * s * (1 + 1e-12):
        raise SeparationPreconditionError(
            f"fine family mesh {ghat.mesh:.6g} exceeds 2s = {2 * s:.6g}"
        )
    hoods = ghat.hoods(delta * s)  # for the check and the merge
    if hoods.sum(axis=0).max(initial=0) > 1:
        raise SeparationPreconditionError(
            f"fine family is not {delta * s:.6g}-disjoint")
    return fam.eroded(4 * s).merged(hoods, delta * s)


def threshold_components(space, t: float) -> list[np.ndarray]:
    """Connected components of the graph linking points at distance <= t."""
    n = space.n
    adj = space.dist <= t
    seen = np.zeros(n, dtype=bool)
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        frontier = np.zeros(n, dtype=bool)
        frontier[start] = True
        comp = np.zeros(n, dtype=bool)
        while frontier.any():
            comp |= frontier
            reach = adj[frontier].any(axis=0)
            frontier = reach & ~comp
        seen |= comp
        comps.append(np.flatnonzero(comp))
    return comps


def component_level(space, scale: float, family_at=None) -> Family:
    """The components at the largest pairwise distance t <= scale whose
    components all have diameter at most the scale, found by a binary
    search over every distinct pairwise distance; threshold 0 gives
    singletons.  ``family_at(t)`` gives the components at threshold t as a
    Family, by default `threshold_components` afresh."""
    if family_at is None:
        def family_at(t):
            return Family(space, threshold_components(space, t))
    iu = np.triu_indices(space.n, k=1)
    cand = np.unique(space.dist[iu])
    cand = cand[cand <= scale]
    best = 0.0
    lo, hi = 0, len(cand) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        if family_at(float(cand[mid])).mesh <= scale:
            best = float(cand[mid])
            lo = mid + 1
        else:
            hi = mid - 1
    return family_at(best)


def threshold_families(space) -> dict:
    """{t: Family of `threshold_components(space, t)`} for t = 0 and every
    distinct pairwise distance, sharing one Family per distinct partition,
    so each mesh is computed once.  Components only merge as t grows, so
    when two thresholds give one partition every threshold between them
    does too: a bisection over the sorted distances runs the breadth-first
    search at only a few of them."""
    dist = np.unique(space.dist[np.triu_indices(space.n, k=1)])
    parts = {}

    def at(i):
        if i not in parts:
            parts[i] = tuple(map(tuple, threshold_components(space, dist[i])))
        return parts[i]

    def fill(lo, hi):
        if hi - lo < 2:
            at(lo), at(hi)
        elif at(lo) == at(hi):
            parts.update(dict.fromkeys(range(lo + 1, hi), parts[lo]))
        else:
            fill(lo, (lo + hi) // 2)
            fill((lo + hi) // 2, hi)

    if len(dist):
        fill(0, len(dist) - 1)
    fams = {p: Family(space, p) for p in set(parts.values())}
    table = {float(dist[i]): fams[p] for i, p in parts.items()}
    table[0.0] = Family(space, threshold_components(space, 0.0))
    return table


def scalar_validate(tree):
    """A rooted tree's node checks one node at a time, on sets: the message
    of the first node whose parent is invalid, not lower in level, or not a
    superset of it, or whose member is empty; None if every node passes."""
    members = [set(u.tolist()) for u in tree.members]
    for u in range(1, tree.n_nodes):
        p = int(tree.parent[u])
        if not 0 <= p < tree.n_nodes:
            return f"node {u} has invalid parent {p}"
        if tree.level[p] >= tree.level[u]:
            return f"node {u} does not descend in level"
        if not members[u] <= members[p]:
            return f"node {u} is not contained in its parent"
        if not members[u]:
            return f"node {u} has an empty member"
    return None
