"""Quasi-isometry fitting and hyperbolicity measurement.

fit_qi searches a multiplicative constant over a fixed grid and reports the
smallest additive defect.  It takes the pairs as re-iterable blocks and
reads only the least and greatest source distance per target value, which
integer tree metrics make few, merged over the blocks; it groups integer
targets without sorting the pairs.  The blocks are passed over once more
only if an extreme breaks the fitted band, to count the violations.

delta_hyperbolicity measures the base-point four-point defect on the
doubled Gromov products a, in exact integers whenever the input matrix is
integral.  It first runs an exact zero test: the defect is 0 exactly when
every threshold relation [a >= v] is transitive, and a symmetric
transitive relation is an equivalence relation, which one comparison with
the partition by first row entry recognises in O(n**2) per distinct value.
Tree metrics, the pipeline's input, stop there.  Only inputs that fail it
are measured, by the direct O(n**3) scan over the middle point.  The
distinct values are taken from sorted row blocks of at most BLOCK_ENTRIES
entries, merged at the end, so no sorted n x n copy is made.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

LAMBDA_GRID = np.round(np.arange(1.0, 50.0 + 1e-9, 0.05), 2)
# Most entries one row block of a pair matrix holds: 2**21, so 16 MB of
# float64 or 4 MB of int16.
BLOCK_ENTRIES = 1 << 21


def _scan_excess(a: np.ndarray) -> float:
    """max over x, y, w of min(a[x,y], a[y,w]) - a[x,w], one y at a time:
    n passes over an n x n matrix."""
    worst = -np.inf
    for y in range(a.shape[0]):
        c = np.minimum(a[:, y][:, None], a[y][None, :]) - a
        worst = max(worst, float(c.max()))
    return worst


def _thresholds_transitive(a: np.ndarray, values: np.ndarray) -> bool:
    """Whether min(a[x,y], a[y,w]) <= a[x,w] for all x, y, w: whether
    every B_v = [a >= v] is transitive, v over the sorted distinct values.

    The smallest value is skipped, since B_v is all ones there.  For the
    others, label[x] is the first w with B_v[x,w], or x itself when row x
    is empty, and L = [label[x] == label[w]] with the diagonal of the empty
    rows cleared.  If B_v = L, B_v is transitive: equal labels are, and an
    empty row of B_v relates to nothing, so its cleared diagonal ends no
    chain.  Conversely a symmetric transitive B_v is an equivalence
    relation on its non-empty rows (by symmetry, its non-empty columns),
    and the first entry of a row names its class, so B_v = L.  L is
    symmetric, so an asymmetric B_v fails even where it is transitive: a
    False sends the input on to be measured, and only True is a verdict.
    O(n**2) per value, in two reused n x n bool buffers.
    """
    n = a.shape[0]
    b = np.empty((n, n), dtype=bool)
    same = np.empty((n, n), dtype=bool)
    rows = np.arange(n)
    for v in values[1:]:
        np.greater_equal(a, v, out=b)
        label = b.argmax(axis=1).astype(np.min_scalar_type(n - 1))
        empty = np.flatnonzero(~b[rows, label])
        label[empty] = empty
        np.equal(label[:, None], label[None, :], out=same)
        same[empty, empty] = False
        # B_v == L, compared into L's buffer rather than a third table
        np.equal(b, same, out=same)
        if not same.all():
            return False
    return True


def _distinct_sorted(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 2-d array, NaN last: those of each
    sorted row block of at most BLOCK_ENTRIES entries (one row when a row is
    wider), then those of their merge.  On int32 input np.unique takes
    several times as long as a sort."""
    def distinct(flat):
        return flat[np.concatenate(([True], flat[1:] != flat[:-1]))]

    rows = max(1, BLOCK_ENTRIES // max(a.shape[1], 1))
    merged = np.concatenate([distinct(np.sort(a[lo: lo + rows], axis=None))
                             for lo in range(0, a.shape[0], rows)])
    merged.sort()
    return distinct(merged)


def delta_hyperbolicity(d: np.ndarray, base: int = 0) -> float:
    """Base-point hyperbolicity: max over pairs of points x, w of
    max_y min((x|y), (y|w)) - (x|w), floored at 0.

    Works on the doubled products a = 2(.|.), which are exact integers for
    integer input, so genuine tree metrics come out at exactly 0.0: int32
    for input of at most 16 bits, such as the pipeline's trees, and int64
    otherwise.  Entries too large for the int64 arithmetic, and NaN in a,
    raise ValueError.

    The value is 0 exactly when min(a[x,y], a[y,w]) <= a[x,w] for all x,
    y, w, which _thresholds_transitive decides in O(K n**2) for K distinct
    values in a, found by _distinct_sorted in row blocks.  A matrix that
    fails it (delta > 0, or an asymmetric input) is measured by
    _scan_excess.
    """
    d = np.asarray(d)
    n = d.shape[0]
    if n == 0:
        return 0.0
    if np.issubdtype(d.dtype, np.integer):
        if d.dtype.itemsize <= 2:
            row = d[base].astype(np.int32)  # sums of 16-bit entries fit
        else:
            # |a| <= 3 max|d|, and the scan's differences of a twice that
            limit = np.iinfo(np.int64).max // 6
            if max(-int(d.min()), int(d.max())) > limit:
                raise ValueError(f"delta_hyperbolicity: entries beyond {limit} "
                                 "in size would overflow int64")
            d = d.astype(np.int64, copy=False)
            row = d[base]
        a = row[:, None] + row[None, :]
        a -= d
    else:
        a = d[base][:, None] + d[base][None, :] - d
    values = _distinct_sorted(a)
    if np.isnan(values[-1]):  # NaN sorts last
        raise ValueError("delta_hyperbolicity: the doubled Gromov products "
                         "hold NaN")
    if _thresholds_transitive(a, values):
        return 0.0
    return max(0.0, _scan_excess(a) / 2.0)


@dataclass(frozen=True)
class QIReport:
    """Best multiplicative constant found and its additive defect."""

    lam: float
    sigma: float
    n_pairs: int
    violations: int
    details: dict = field(default_factory=dict)

    def __repr__(self):
        tag = "[PASS]" if self.violations == 0 else "[FAIL]"
        return (
            f"{tag} QIReport(lam={self.lam:g}, sigma={self.sigma:.6g}, "
            f"pairs={self.n_pairs}, violations={self.violations})"
        )


def _sigma_curve(values: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 lambdas: np.ndarray) -> np.ndarray:
    sig = np.zeros(len(lambdas))
    for v, least, most in zip(values, lo, hi):
        np.maximum(sig, v - lambdas * least, out=sig)
        np.maximum(sig, most / lambdas - v, out=sig)
    return sig


def _extremes(ds: np.ndarray, dt: np.ndarray):
    """The distinct values v of dt as floats, ascending, and the least and
    greatest ds over the pairs with dt == v.  Integer dt whose range holds
    at most one value per pair is grouped by offset from its minimum,
    without sorting the pairs; any other dt by np.unique."""
    if (np.issubdtype(dt.dtype, np.integer)
            and int(dt.max()) - int(dt.min()) < dt.size):
        base = int(dt.min())
        codes = np.subtract(dt, base, dtype=np.intp)
        present = np.flatnonzero(np.bincount(codes))
        values = (present + base).astype(float)
    else:
        values, codes = np.unique(np.asarray(dt, dtype=float),
                                  return_inverse=True)
        present = np.arange(len(values))
    lo = np.full(present[-1] + 1, np.inf)
    hi = np.full(present[-1] + 1, -np.inf)
    with np.errstate(invalid="ignore"):  # fit_qi refuses a NaN extreme
        np.minimum.at(lo, codes, ds)
        np.maximum.at(hi, codes, ds)
    return values, lo[present], hi[present]


def _aligned(block):
    """One (ds, dt) block as flat aligned arrays, ds as floats."""
    ds, dt = block
    ds = np.asarray(ds, dtype=float).ravel()
    dt = np.asarray(dt).ravel()
    if ds.shape != dt.shape:
        raise ValueError("ds and dt must align")
    return ds, dt


def _block_extremes(block):
    """One block's pair count and `_extremes`, None for an empty block."""
    ds, dt = _aligned(block)
    return ds.size, _extremes(ds, dt) if ds.size else None


def fit_qi(blocks) -> QIReport:
    """Fit dt into [ds/lam - sigma, lam*ds + sigma] over LAMBDA_GRID.

    blocks is a re-iterable of (ds, dt): source and target distances of
    some of the pairs, as aligned arrays; arrays held in memory are passed
    as [(ds, dt)].  Everything is read from the least and greatest ds per dt
    value, of which there are few for integer tree metrics, taken per block
    and merged: sigma(lam) = max over values v of v - lam*lo_v, hi_v/lam - v
    and 0, ties on sigma pick the smallest lam, and sigma_upper and
    sigma_lower are the two maxima at the winner.  Each bound at the winner
    is monotone in ds under rounding, so a value's pairs all hold it exactly
    when its extreme does, and these numbers equal the per-pair ones bit for
    bit, however the pairs are split.  Only when an extreme breaks a bound
    are the blocks iterated a second time, to count the violations exactly;
    a one-shot iterator would come back empty then, so it is refused with
    TypeError.  A NaN or infinite distance raises ValueError.
    """
    if iter(blocks) is blocks:
        raise TypeError("fit_qi needs re-iterable blocks, such as a list, "
                        "not a one-shot iterator")
    # map binds no name to a block, so each is freed before the next is made
    per_block = list(map(_block_extremes, blocks))
    n_pairs = sum(size for size, _ in per_block)
    parts = [ext for _, ext in per_block if ext is not None]
    if not parts:
        raise ValueError("cannot fit an empty pair set")
    # the blocks' least and greatest ds per value, taken together: per block
    # and value lo <= hi, so the least of them is the least lo and the
    # greatest the greatest hi, the extremes over all the pairs
    block_values = np.concatenate([p[0] for p in parts])
    values, lo, hi = _extremes(
        np.concatenate([p[1] for p in parts] + [p[2] for p in parts]),
        np.concatenate([block_values, block_values]))
    # a NaN or inf distance reaches the merged extremes whatever block it
    # sits in
    if not (np.isfinite(values).all() and np.isfinite(lo).all()
            and np.isfinite(hi).all()):
        raise ValueError("fit_qi: the distances hold NaN or inf")
    curve = _sigma_curve(values, lo, hi, LAMBDA_GRID)
    best = int(curve.argmin())
    lam = float(LAMBDA_GRID[best])
    sigma = float(curve[best])
    tol = 1e-9 * (1.0 + sigma + lam)
    violations = 0
    if np.any((values > lam * lo + sigma + tol)
              | (values < hi / lam - sigma - tol)):
        def broken(block):
            ds, dt = _aligned(block)
            dtf = dt.astype(float)
            return int(np.count_nonzero(
                (dtf > lam * ds + sigma + tol) | (dtf < ds / lam - sigma - tol)))

        violations = sum(map(broken, blocks))
    return QIReport(
        lam=lam,
        sigma=sigma,
        n_pairs=n_pairs,
        violations=violations,
        details={
            "lambda_grid": [float(LAMBDA_GRID[0]), float(LAMBDA_GRID[-1]),
                            len(LAMBDA_GRID)],
            "dt_values": len(values),
            "sigma_upper": float(np.max(values - lam * lo)),
            "sigma_lower": float(np.max(hi / lam - values)),
        },
    )
