"""References that the pipeline does not run, the tests' oracles for the
kernels it does: `cone_metric` over arbitrary cone points, which
`ConeGrid.level_rows` matches bit for bit on the grid, and `ast_shrink`,
the paper's merge step at full strength, through which the tests check the
`eroded` and `merged` kernels that `separate` runs with a moat of its own.
"""

import math

import numpy as np

from conetrees import SeparationPreconditionError


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
