"""Certified k-fold coverage via the k-th-nearest-center distance field.

Write d_k(p) for the distance from p to the k-th nearest center of the
periodic set.  Closed disks of radius r cover every point at least k
times exactly when max d_k <= r, and d_k is 1-Lipschitz, so a single
evaluation at the center of a square bounds d_k over the whole square:
d_k(m) from below, d_k(m) + half-diagonal from above.  Branch-and-bound
on those bounds yields a certified enclosure of the covering radius
max d_k without any exact arrangement machinery.  Boxes of one level are
evaluated in a batch; the final bounds do not depend on that ordering.

The same bound prunes the centers each level scans.  If a box with
center m and half-diagonal h survives, every point p of it has
d_k(p) <= d_k(m) + h, so the k nearest centers of p lie within
d_k(m) + 2h of m.  Centers farther than that from every surviving box
center can be dropped before the next level: the kept set still holds
each later query point's k nearest, so every d_k value, and with it
every bound, witness and box count, is the same as with all centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Point
from .lattice import PeriodicConfig, Rect, _translates_array
from .lattice import reduce_basis  # noqa: F401 (unused here; perfbench hooks this name)

STATUS_COVERED = "certified_covered"
STATUS_UNCOVERED = "certified_uncovered"
STATUS_TIGHT = "tight"
STATUS_UNDECIDED = "undecided"

DEFAULT_MAX_BOXES = 10_000_000
# d^2 entries per kernel block (8 MiB of float64), so the memory of one
# block does not grow with k or with the number of centers
_CHUNK_ELEMENTS = 2**20
# relative padding of the pruning radius; far above the rounding error of
# d^2, whose coordinates share the scale of the radius
_PRUNE_SLACK = 1e-9


@dataclass(frozen=True)
class CoverageCertificate:
    k: int
    status: str
    witness: Point | None
    radius_low: float
    radius_high: float

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "status": self.status,
            "witness": None if self.witness is None else [self.witness.x, self.witness.y],
            "radius_low": self.radius_low,
            "radius_high": self.radius_high,
        }


@dataclass(frozen=True)
class CoveringRadius:
    """Enclosure of max d_k with the deepest sampled point as witness."""

    low: float
    high: float
    witness: Point
    boxes: int
    converged: bool


class _CenterField:
    """Cached center enumeration serving batched d_k queries on a rect.

    The reach starts from an estimate of how far one must look to see k
    centers and doubles whenever a query value comes back at the edge of
    what the cache can certify; a doubling enumerates every center within
    the new reach of the rect again.  Between doublings `prune` narrows
    the cache to the centers later queries can still need.
    """

    def __init__(self, config: PeriodicConfig, rect: Rect, k: int):
        self.config = config
        self.rect = rect
        self.k = k
        len_u, len_v = config.reduced.lengths()
        per_center = config.basis.det / len(config.offsets)
        self.reach = math.sqrt(k * per_center / math.pi) + len_u + len_v
        self._rebuild()

    def _rebuild(self) -> None:
        self.centers = _translates_array(self.config, self.rect, self.reach)
        self._d2 = None

    def dk(self, pts: np.ndarray) -> np.ndarray:
        while True:
            vals = self._dk_once(pts)
            if vals.max(initial=0.0) <= self.reach:
                return vals
            self.reach *= 2.0
            self._rebuild()

    def _dk_once(self, pts: np.ndarray) -> np.ndarray:
        cx = self.centers[:, 0]
        cy = self.centers[:, 1]
        rows = max(1, _CHUNK_ELEMENTS // len(cx))
        out = np.empty(len(pts))
        d2 = None
        for start in range(0, len(pts), rows):
            block = pts[start : start + rows]
            d2 = (block[:, 0:1] - cx) ** 2 + (block[:, 1:2] - cy) ** 2
            if self.k == 1:
                kth = d2.min(axis=1)
            else:
                kth = np.partition(d2, self.k - 1, axis=1)[:, self.k - 1]
            out[start : start + rows] = np.sqrt(kth)
        # only a query that fit one block leaves its d^2 for `prune`
        self._d2 = d2 if len(pts) <= rows else None
        return out

    def prune(self, vals: np.ndarray, kept: np.ndarray, half_diag: float) -> None:
        """Drop the centers no point of the kept boxes can have as k-nearest.

        `vals` are the d_k values of the last `dk` query, whose points are
        the centers of boxes with half-diagonal `half_diag`; `kept` masks
        the boxes searched further.  A center stays if it lies within
        d_k(m) + 2 * half_diag of some kept box center m.  Reuses that
        query's d^2, so a query too large for one block prunes nothing.
        """
        if self._d2 is None:
            return
        radius = (vals[kept] + 2.0 * half_diag) * (1.0 + _PRUNE_SLACK)
        near = (self._d2[kept] <= (radius * radius)[:, None]).any(axis=0)
        self.centers = self.centers[near]
        self._d2 = None


def kth_nearest_distance(p: Point, config: PeriodicConfig, k: int) -> float:
    """Distance from p to the k-th nearest center of the periodic set."""
    return float(kth_nearest_distance_batch(np.array([[p.x, p.y]]), config, k)[0])


def kth_nearest_distance_batch(
    points: np.ndarray, config: PeriodicConfig, k: int
) -> np.ndarray:
    """Vectorized d_k over an (N, 2) array of points."""
    _check_k(k)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (N, 2) array")
    rect = Rect(
        float(pts[:, 0].min()),
        float(pts[:, 1].min()),
        float(pts[:, 0].max()),
        float(pts[:, 1].max()),
    )
    return _CenterField(config, rect, k).dk(pts)


def covering_radius(
    config: PeriodicConfig,
    k: int,
    tol: float = 1e-6,
    max_boxes: int = DEFAULT_MAX_BOXES,
) -> CoveringRadius:
    """Certified enclosure of the order-k covering radius max d_k.

    By periodicity the maximum over any region containing a fundamental
    domain is the global maximum, so the search covers the bounding box
    of the reduced fundamental parallelogram with a grid of squares and
    refines.  A surviving box is quartered; one whose upper bound cannot
    beat the best sampled value is dropped.  Stops once high - low <= tol
    or when the next level would take the boxes evaluated past
    `max_boxes`; the root grid (at most 64 boxes) is always evaluated, and
    the bounds stay valid either way.
    """
    _check_k(k)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be positive, got {tol}")
    ux, uy = config.reduced.u
    vx, vy = config.reduced.v
    xs = [0.0, ux, vx, ux + vx]
    ys = [0.0, uy, vy, uy + vy]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    width, height = xmax - xmin, ymax - ymin
    # cap the root grid so a needle-shaped domain cannot explode it;
    # squares overhanging the domain only waste work, never correctness
    side = max(min(width, height), max(width, height) / 64.0, 1e-9)
    nx = max(1, math.ceil(width / side - 1e-9))
    ny = max(1, math.ceil(height / side - 1e-9))
    sx = width / nx
    sy = height / ny
    side = max(sx, sy)
    half = side / 2.0
    cx, cy = np.meshgrid(
        xmin + side * (np.arange(nx) + 0.5),
        ymin + side * (np.arange(ny) + 0.5),
        indexing="ij",
    )
    boxes = np.column_stack([cx.ravel(), cy.ravel()])
    field = _CenterField(
        config, Rect(xmin - half, ymin - half, xmax + half, ymax + half), k
    )

    low = -math.inf
    witness = np.array([xmin, ymin])
    processed = 0
    converged = False
    high = math.inf
    while True:
        vals = field.dk(boxes)
        processed += len(boxes)
        best = int(np.argmax(vals))
        if vals[best] > low:
            low = float(vals[best])
            witness = boxes[best].copy()
        diag = half * math.sqrt(2.0)
        bounds = vals + diag
        survivors = bounds > low
        high = float(bounds[survivors].max()) if survivors.any() else low
        high = max(high, low)
        if high - low <= tol:
            converged = True
            break
        parents = boxes[survivors]
        # the next level quarters every parent; skip it whole rather than
        # let it overshoot the budget
        if processed + 4 * len(parents) > max_boxes:
            break
        field.prune(vals, survivors, diag)
        half /= 2.0
        shift = np.array(
            [[-half, -half], [half, -half], [-half, half], [half, half]]
        )
        boxes = (parents[:, None, :] + shift[None, :, :]).reshape(-1, 2)
    return CoveringRadius(
        low, high, Point(float(witness[0]), float(witness[1])), processed, converged
    )


def verify_k_coverage(
    config: PeriodicConfig,
    k: int,
    tol: float = 1e-6,
    max_boxes: int = DEFAULT_MAX_BOXES,
) -> CoverageCertificate:
    """Certify whether disks of the configured radius k-cover the plane.

    Closed disks: a point on k disk boundaries counts as covered k times.
    A sampled point with d_k above the radius proves non-coverage and
    wins over everything else; otherwise, when both covering-radius
    bounds land within tol of the radius, the covering is reported as
    tight rather than forced to either side.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be positive, got {tol}")
    enclosure = covering_radius(config, k, tol, max_boxes)
    r = config.radius
    if enclosure.low > r:
        status = STATUS_UNCOVERED
    elif abs(enclosure.high - r) <= tol and abs(enclosure.low - r) <= tol:
        status = STATUS_TIGHT
    elif enclosure.high <= r:
        status = STATUS_COVERED
    else:
        status = STATUS_UNDECIDED
    return CoverageCertificate(
        k, status, enclosure.witness, enclosure.low, enclosure.high
    )


def _check_k(k: int) -> None:
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
