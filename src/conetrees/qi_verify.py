"""Quasi-isometry fitting and hyperbolicity measurement.

fit_qi searches a multiplicative constant over a fixed grid and reports the
smallest additive defect.  delta_hyperbolicity measures the base-point
four-point defect on the doubled Gromov products a, in exact integers
whenever the input matrix is integral.  Inputs whose a takes at most
THRESHOLD_MAX_VALUES distinct values, as tree metrics at the root do
(2*lca in {0, 2, ..., 2*depth}), take a threshold (max,min)-product: one
float32 0/1 matrix product per value, in place of n passes over an n x n
matrix.  Other inputs take the direct scan over the middle point, which
also serves the tests as the reference.  Both compute the same number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .metric_core import FiniteMetricSpace

LAMBDA_GRID = np.round(np.arange(1.0, 50.0 + 1e-9, 0.05), 2)

# Distinct doubled Gromov products up to which delta_hyperbolicity takes the
# threshold product.  On a 2-vCPU x86-64 host with one BLAS thread, per n**3
# the scan costs 1.0-1.3 ns and the product 0.010-0.017 ns per value on
# random integer l1 metrics (n = 400 and 769), so break-even lies near
# K = 70-120; 32 leaves room for a slower BLAS.
THRESHOLD_MAX_VALUES = 32
# Rows per threshold product; bounds its buffers at ROW_BLOCK x n.
ROW_BLOCK = 128


def gromov_product(d: np.ndarray, x: int, y: int, base: int) -> float:
    """(x|y) with respect to the base point."""
    return 0.5 * float(d[x, base] + d[y, base] - d[x, y])


def _scan_excess(a: np.ndarray) -> float:
    """max over x, y, w of min(a[x,y], a[y,w]) - a[x,w], one y at a time:
    n passes over an n x n matrix."""
    worst = -np.inf
    for y in range(a.shape[0]):
        c = np.minimum(a[:, y][:, None], a[y][None, :]) - a
        worst = max(worst, float(c.max()))
    return worst


def _threshold_excess(a: np.ndarray, key: np.ndarray, values: np.ndarray) -> float:
    """The same maximum as _scan_excess, by thresholds.

    With B_v = [a >= v], M[x,w] = max_y min(a[x,y], a[y,w]) is at least v
    exactly when (B_v B_v)[x,w] > 0, so the maximum of M - a is the maximum
    over values v of v - min{a[x,w] : (B_v B_v)[x,w] > 0}.  key[x] is the
    largest entry in row or column x, and must be non-increasing: the rows
    and columns of B_v that are not all zero then form a leading block.  The
    smallest value is skipped, since B_v is all ones there and contributes
    exactly 0.  Products run ROW_BLOCK rows at a time into reused buffers,
    so M is never held.
    """
    n = a.shape[0]
    buf_b = np.empty(n * n, dtype=np.float32)
    buf_c = np.empty(min(n, ROW_BLOCK) * n, dtype=np.float32)
    buf_m = np.empty(buf_c.size, dtype=bool)
    worst = 0
    for v in values[1:]:
        k = int(np.count_nonzero(key >= v))
        b = buf_b[:k * k].reshape(k, k)
        np.greater_equal(a[:k, :k], v, out=b)
        for lo in range(0, k, ROW_BLOCK):
            hi = min(k, lo + ROW_BLOCK)
            c = buf_c[:(hi - lo) * k].reshape(hi - lo, k)
            reach = buf_m[:c.size].reshape(c.shape)
            np.matmul(b[lo:hi], b, out=c)
            np.greater(c, 0, out=reach)
            worst = max(worst, v - np.min(a[lo:hi, :k], where=reach, initial=v))
    return float(worst)


def delta_hyperbolicity(d: np.ndarray, base: int = 0) -> float:
    """Base-point hyperbolicity: max over pairs of points x, w of
    max_y min((x|y), (y|w)) - (x|w), floored at 0.

    Works on the doubled products a = 2(.|.), which are exact integers for
    integer input, so genuine tree metrics come out at exactly 0.0.  With
    K distinct values in a, K <= THRESHOLD_MAX_VALUES selects the threshold
    (max,min)-product (Fournier, Ismail & Vigneron, IPL 2015): K - 1 float32
    0/1 matrix products, whose counts are exact below 2**24 points.  Larger
    K selects the direct scan over y.  Both paths only compare, select and
    subtract entries of a, so they return the same number bit for bit, for
    float input as well.
    """
    d = np.asarray(d)
    n = d.shape[0]
    if n == 0:
        return 0.0
    if np.issubdtype(d.dtype, np.integer):
        row = d[base].astype(np.int32)  # sums of narrower types would wrap
        a = (row[:, None] + row[None, :] - d).astype(np.int32, copy=False)
    else:
        a = d[base][:, None] + d[base][None, :] - d
    # sorted distinct values; on int32 input np.unique takes several times
    # as long as this sort
    flat = np.sort(a, axis=None)
    values = flat[np.concatenate(([True], flat[1:] != flat[:-1]))]
    del flat
    if len(values) > THRESHOLD_MAX_VALUES:
        worst = _scan_excess(a)
    else:
        key = np.maximum(a.max(axis=0), a.max(axis=1))
        order = np.argsort(-key, kind="stable")
        a = a[np.ix_(order, order)]  # drops the unpermuted matrix
        worst = _threshold_excess(a, key[order], values)
    return max(0.0, worst / 2.0)


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


def _sigma_curve(ds_by_dt_min: dict, ds_by_dt_max: dict, lambdas: np.ndarray) -> np.ndarray:
    sig = np.zeros(len(lambdas))
    for v, lo in ds_by_dt_min.items():
        sig = np.maximum(sig, v - lambdas * lo)
    for v, hi in ds_by_dt_max.items():
        sig = np.maximum(sig, hi / lambdas - v)
    return np.maximum(sig, 0.0)


def fit_qi(ds: np.ndarray, dt: np.ndarray,
           lambdas: np.ndarray | None = None) -> QIReport:
    """Fit dt into [ds/lam - sigma, lam*ds + sigma] over a lambda grid.

    ds are source distances, dt target distances, as flat aligned arrays.
    When dt takes few distinct values (integer tree metrics), only the
    extreme ds per dt value matter, which this uses losslessly.  Ties on
    sigma pick the smallest lambda; every pair is re-checked at the winner.
    """
    ds = np.asarray(ds, dtype=float).ravel()
    dt = np.asarray(dt).ravel()
    if ds.shape != dt.shape:
        raise ValueError("ds and dt must align")
    if ds.size == 0:
        raise ValueError("cannot fit an empty pair set")
    if lambdas is None:
        lambdas = LAMBDA_GRID
    lambdas = np.asarray(lambdas, dtype=float)
    values, inverse = np.unique(np.asarray(dt, dtype=float), return_inverse=True)
    lo = np.full(len(values), np.inf)
    hi = np.full(len(values), -np.inf)
    np.minimum.at(lo, inverse, ds)
    np.maximum.at(hi, inverse, ds)
    by_min = {float(v): float(l) for v, l in zip(values, lo)}
    by_max = {float(v): float(h) for v, h in zip(values, hi)}
    curve = _sigma_curve(by_min, by_max, lambdas)
    best = int(curve.argmin())
    lam = float(lambdas[best])
    sigma = float(curve[best])
    dtf = dt.astype(float)
    tol = 1e-9 * (1.0 + sigma + lam)
    bad = (dtf > lam * ds + sigma + tol) | (dtf < ds / lam - sigma - tol)
    return QIReport(
        lam=lam,
        sigma=sigma,
        n_pairs=int(ds.size),
        violations=int(np.count_nonzero(bad)),
        details={
            "lambda_grid": [float(lambdas[0]), float(lambdas[-1]), len(lambdas)],
            "dt_values": len(values),
            "sigma_upper": float(np.max(dtf - lam * ds)),
            "sigma_lower": float(np.max(ds / lam - dtf)),
        },
    )


def visual_metric_circle(n: int) -> FiniteMetricSpace:
    """The n-point circle with distances sin(angle/2): the visual metric on
    the boundary circle seen from the disk center, i.e. half the chord."""
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    angles = 2.0 * math.pi * np.arange(n) / n
    diff = np.abs(angles[:, None] - angles[None, :])
    diff = np.minimum(diff, 2.0 * math.pi - diff)
    d = np.sin(diff / 2.0)
    np.fill_diagonal(d, 0.0)
    ids = tuple(f"v{i:04d}" for i in range(n))
    meta = {
        "kind": "visual_circle",
        "metric": "chord",
        "radius": 0.5,
        "angles": angles.tolist(),
    }
    return FiniteMetricSpace(dist=d, point_ids=ids, meta=meta)
