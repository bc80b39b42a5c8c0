"""Certified k-fold coverage via the k-th-nearest-center distance field.

Write d_k(p) for the distance from p to the k-th nearest center of the
periodic set.  Closed disks of radius r cover every point at least k
times exactly when max d_k <= r, and d_k is 1-Lipschitz, so a single
evaluation at the center of a square bounds d_k over the whole square:
d_k(m) from below, d_k(m) + half-diagonal from above.  Branch-and-bound
on those bounds yields a certified enclosure of the covering radius
max d_k without any exact arrangement machinery.  Boxes of one level are
evaluated in a batch; the final bounds do not depend on that ordering.

d_k is lattice-periodic, so its maximum over the closed reduced
parallelogram is the global one.  The root boxes tile that cell alone:
a grid over its bounding box, at least four boxes across, drops every box
that misses the cell.  Boxes over the rest of the bounding box would carry
1.5 to 2.5 copies of every deep hole down the levels: on random skewed
cells at tol 1e-9 the culled root evaluates 43% fewer boxes.

The same bound prunes the centers each level scans.  If a box with
center m and half-diagonal h survives, every point p of it has
d_k(p) <= d_k(m) + h, so the k nearest centers of p lie within
d_k(m) + 2h of m.  Centers farther than that from every surviving box
center can be dropped before the next level: the kept set still holds
each later query point's k nearest, so every d_k value, and with it
every bound, witness and box count, is the same as with all centers.
A center field therefore prunes only where it pays: after a level whose
query fit one kernel block, whose d^2 it reuses, and only while it holds
more than _PRUNE_MIN centers.
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
# a center field this small is not pruned: a pass over the level's d^2
# costs more than it saves on the levels below
_PRUNE_MIN = 16
# root boxes across the short side of the reduced cell's bounding box, and
# at most along its long side, so a needle-shaped cell cannot explode the
# root.  Against one box across, 4 cut the boxes of tol-1e-9 searches on
# random skewed cells by 43% and their time by about 29%; 6 and 8 cut a
# little more, but grew the root, which every search evaluates whatever
# its budget, from at most 60 boxes to 132 and 238 on the same cells
_ROOT_SHORT = 4
_ROOT_LONG = 64
# relative widening of a root box's (s, t) interval before it is tested
# against the cell; far above the rounding of s and t, which is below
# 1e-13 of the interval's half width
_CULL_SLACK = 1e-9
# the four children of a box, as multiples of the child half side, shaped
# (coordinate, 1, child) for boxes held as rows x and y
_SIGN_ROWS = np.array([[[-1.0, 1.0, -1.0, 1.0]], [[-1.0, -1.0, 1.0, 1.0]]])


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

    The centers are held as two contiguous coordinate columns, `cx` and
    `cy`: every center within the reach R = sqrt(k * det / (n * pi)) + D
    of the rect, where det and D = |u| + |v| come from the reduced basis
    u, v and n is the offset count, plus a margin of 1e-12 * scale that
    absorbs rounding, that of the query points included.  R bounds d_k at
    every point p of the rect, so the cache holds the k nearest centers
    of every query.  Proof: D >= diam(P) for the reduced parallelogram P.
    The half-open translates of P tile the plane, and each holds exactly
    n centers.  The translates that meet the disk B(p, R - D) cover it,
    so there are at least pi (R - D)^2 / det = k / n of them; they hold at
    least k centers, each within R - D + diam(P) <= R of p.

    The cache is bounded.  For a W x H rect, the translates of P placed at
    the centers of one offset are disjoint and lie in a box of sides
    W + 2R + D and H + 2R + D, so the field holds at most
    n (W + 2R + D) (H + 2R + D) / det centers, with R taken with its
    margin: for large k about 4 k / pi, linear in k.  `prune` only
    narrows the cache, to the centers later queries can still need.
    """

    def __init__(self, config: PeriodicConfig, rect: Rect, k: int):
        self.k = k
        len_u, len_v = config.reduced.lengths()
        per_center = config.basis.det / len(config.offsets)
        self.reach = math.sqrt(k * per_center / math.pi) + len_u + len_v
        self.set_centers(*_translates_array(config, rect, self.reach).T)

    def set_centers(self, cx: np.ndarray, cy: np.ndarray) -> None:
        self.cx = cx
        self.cy = cy
        # query rows per kernel block
        self._rows = max(1, _CHUNK_ELEMENTS // len(cx))
        self._d2 = None

    def dk(self, pts: np.ndarray) -> np.ndarray:
        """d_k at each row of the (N, 2) array `pts`, all inside the rect."""
        x, y = pts[:, 0:1], pts[:, 1:2]
        rows = self._rows
        if len(pts) <= rows:
            # only a query that fits one block leaves its d^2 for `prune`
            self._d2 = _square_sum(x - self.cx, y - self.cy)
            return np.sqrt(_kth_smallest(self._d2, self.k))
        self._d2 = None
        out = np.empty(len(pts))
        for start in range(0, len(pts), rows):
            block = slice(start, start + rows)
            d2 = _square_sum(x[block] - self.cx, y[block] - self.cy)
            out[block] = np.sqrt(_kth_smallest(d2, self.k))
        return out

    def prune(self, vals: np.ndarray, kept: np.ndarray, half_diag: float) -> None:
        """Drop the centers no point of the kept boxes can have as k-nearest.

        `vals` are the d_k values of the last `dk` query, whose points are
        the centers of boxes with half-diagonal `half_diag`; `kept` holds
        the indices of the boxes searched further.  A center stays if it
        lies within d_k(m) + 2 * half_diag of some kept box center m.
        Reuses that query's d^2, so a query too large for one block prunes
        nothing, and neither does a field of at most _PRUNE_MIN centers.
        """
        if self._d2 is None or len(self.cx) <= _PRUNE_MIN:
            return
        radius = (vals.take(kept)[:, None] + 2.0 * half_diag) * (1.0 + _PRUNE_SLACK)
        near = (self._d2.take(kept, axis=0) <= radius * radius).any(axis=0)
        self.set_centers(self.cx[near], self.cy[near])


def _square_sum(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """dx^2 + dy^2, computed in place: both arguments are overwritten."""
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def _kth_smallest(d2: np.ndarray, k: int) -> np.ndarray:
    if k == 1:
        return d2.min(axis=1)
    return np.partition(d2, k - 1, axis=1)[:, k - 1]


def kth_nearest_distance(p: Point, config: PeriodicConfig, k: int) -> float:
    """Distance from p to the k-th nearest center of the periodic set."""
    _check_k(k)
    field = _CenterField(config, Rect(p.x, p.y, p.x, p.y), k)
    return float(field.dk(np.array([[p.x, p.y]]))[0])


def kth_nearest_distance_batch(
    points: np.ndarray, config: PeriodicConfig, k: int
) -> np.ndarray:
    """Vectorized d_k over an (N, 2) array of points.

    The points are grouped by the translate of the reduced parallelogram
    that holds them, and each group is served by a center field over its
    own bounding box, so far-apart points never share one enumeration.
    Points keep their coordinates: each value equals that of a one-point
    call bit for bit.
    """
    _check_k(k)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (N, 2) array")
    if not len(pts):
        return np.empty(0)
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    ux, uy = config.reduced.u
    vx, vy = config.reduced.v
    det = config.reduced.det
    x, y = pts[:, 0], pts[:, 1]
    # the cell (floor s, floor t) of each point; sorted by cell, the rows
    # of one cell are a run
    cell_s = np.floor((x * vy - y * vx) / det)
    cell_t = np.floor((y * ux - x * uy) / det)
    order = np.lexsort((cell_t, cell_s))
    cell_s, cell_t = cell_s[order], cell_t[order]
    runs = ((cell_s[1:] != cell_s[:-1]) | (cell_t[1:] != cell_t[:-1])).nonzero()[0] + 1
    out = np.empty(len(pts))
    for rows in np.split(order, runs):
        part = pts[rows]
        rect = Rect(
            float(part[:, 0].min()),
            float(part[:, 1].min()),
            float(part[:, 0].max()),
            float(part[:, 1].max()),
        )
        out[rows] = _CenterField(config, rect, k).dk(part)
    return out


def _root_grid(config: PeriodicConfig) -> tuple[np.ndarray, float, Rect]:
    """Root boxes that tile the closed reduced parallelogram.

    A grid of squares over the parallelogram's bounding box, at least
    _ROOT_SHORT across its short side and at most _ROOT_LONG along its
    long side, keeps only the squares that meet the parallelogram.  The
    closed parallelogram holds a point of every orbit of the lattice and
    each of its points lies in a kept square, so the maximum of d_k over
    the kept squares is the global maximum.

    Returns the box centers as an (n, 2) array with contiguous columns,
    their half side, and the bounding box of the kept boxes: every box
    center of a search lies in it, so it is the rect the center field
    must serve.
    """
    ux, uy = config.reduced.u
    vx, vy = config.reduced.v
    det = config.reduced.det
    xs = [0.0, ux, vx, ux + vx]
    ys = [0.0, uy, vy, uy + vy]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    width, height = xmax - xmin, ymax - ymin
    side = max(min(width, height) / _ROOT_SHORT, max(width, height) / _ROOT_LONG, 1e-9)
    nx = max(1, math.ceil(width / side - 1e-9))
    ny = max(1, math.ceil(height / side - 1e-9))
    sx = width / nx
    sy = height / ny
    side = max(sx, sy)
    half = side / 2.0
    # x-major order, as in a meshgrid with "ij" indexing; the rows of the
    # (2, n) array are the contiguous columns of the (n, 2) view returned
    grid = np.empty((2, nx, ny))
    grid[0] = (xmin + side * (np.arange(nx) + 0.5))[:, None]
    grid[1] = ymin + side * (np.arange(ny) + 0.5)
    x, y = grid.reshape(2, -1)
    # lattice coordinates of each center by the closed-form inverse of the
    # reduced basis, and the half width of each box's (s, t) interval
    s = (x * vy - y * vx) / det
    t = (y * ux - x * uy) / det
    ds = half * (abs(vx) + abs(vy)) / det * (1.0 + _CULL_SLACK)
    dt = half * (abs(ux) + abs(uy)) / det * (1.0 + _CULL_SLACK)
    keep = (s + ds >= 0.0) & (s - ds <= 1.0) & (t + dt >= 0.0) & (t - dt <= 1.0)
    x, y = x[keep], y[keep]
    rect = Rect(
        float(x.min()) - half,
        float(y.min()) - half,
        float(x.max()) + half,
        float(y.max()) + half,
    )
    return np.stack((x, y)).T, half, rect


def covering_radius(
    config: PeriodicConfig,
    k: int,
    tol: float = 1e-6,
    max_boxes: int = DEFAULT_MAX_BOXES,
) -> CoveringRadius:
    """Certified enclosure of the order-k covering radius max d_k.

    By periodicity the maximum over any region containing a fundamental
    domain is the global maximum, so the search covers the closed reduced
    parallelogram with the squares of `_root_grid` and refines.  A
    surviving box is quartered; one whose upper bound cannot beat the best
    sampled value is dropped.  Stops once high - low <= tol or when the
    next level would take the boxes evaluated past `max_boxes`; the root
    grid (at most _ROOT_SHORT * _ROOT_LONG = 256 boxes) is always
    evaluated, and the bounds stay valid either way.
    """
    _check_k(k)
    _check_tol(tol)
    boxes, half, rect = _root_grid(config)
    field = _CenterField(config, rect, k)
    # the level's box centers as rows x and y; the kernel reads the
    # (n, 2) view `cols.T`
    cols = boxes.T
    low = -math.inf
    witness = cols[:, 0]
    processed = 0
    converged = False
    while True:
        vals = field.dk(cols.T)
        processed += len(vals)
        best = int(vals.argmax())
        top = float(vals[best])
        if top > low:
            low = top
            # `cols` is rebound, never written, so the column can be kept
            witness = cols[:, best]
        diag = half * math.sqrt(2.0)
        # rounding is monotone, so top + diag is the largest bound, and
        # it survives exactly when any bound does
        high = max(top + diag, low)
        if high - low <= tol:
            converged = True
            break
        survivors = (vals + diag > low).nonzero()[0]
        # the next level quarters every parent; skip it whole rather than
        # let it overshoot the budget
        if processed + 4 * len(survivors) > max_boxes:
            break
        field.prune(vals, survivors, diag)
        half /= 2.0
        parents = cols.take(survivors, axis=1)[:, :, None]
        cols = (parents + _SIGN_ROWS * half).reshape(2, -1)
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
    wins over everything else; next, an upper bound at or below the
    radius proves coverage.  Otherwise, when both covering-radius bounds
    land within tol of the radius, the covering is reported as tight
    rather than forced to either side.
    """
    _check_tol(tol)
    enclosure = covering_radius(config, k, tol, max_boxes)
    r = config.radius
    if enclosure.low > r:
        status = STATUS_UNCOVERED
    elif enclosure.high <= r:
        status = STATUS_COVERED
    elif abs(enclosure.high - r) <= tol and abs(enclosure.low - r) <= tol:
        status = STATUS_TIGHT
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


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be positive, got {tol}")
