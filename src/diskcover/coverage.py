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

Searches of many configurations, such as an optimizer's start grid, run
in lockstep through `_covering_radius_many`: one frontier holds every
configuration's boxes, each configuration's rows contiguous and in the
order of a single search, so the fixed per-level cost is paid once per
level rather than once per configuration.  Each configuration keeps its
own center field, pruning and reach doublings, and its own stop rules,
so every enclosure, witness and box count equals that of its own
`covering_radius` call.  The one-configuration loop stays separate: it
is the reference the batched engine is tested against, and a batch of
one took 2.5 to 2.9 times as long as `covering_radius` on single
searches at tol 1e-4 and 1e-9.
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
# d^2 entries per block of a lockstep search (512 KiB), which holds whole
# configurations and splits its levels into many blocks anyway; blocks of
# this size stay in cache and ran a 504-config start grid about 10% faster
# than blocks of _CHUNK_ELEMENTS, with half the peak memory
_BATCH_ELEMENTS = 2**16
# relative padding of the pruning radius; far above the rounding error of
# d^2, whose coordinates share the scale of the radius
_PRUNE_SLACK = 1e-9
# the four children of a box, as multiples of the child half side
_SIGNS = np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])


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
        self.set_centers(_translates_array(self.config, self.rect, self.reach))

    def set_centers(self, centers: np.ndarray) -> None:
        self.centers = centers
        # contiguous coordinate columns for the kernel
        self.cx = np.ascontiguousarray(centers[:, 0])
        self.cy = np.ascontiguousarray(centers[:, 1])
        self._d2 = None

    def dk(self, pts: np.ndarray) -> np.ndarray:
        while True:
            vals = self._dk_once(pts)
            if vals.max(initial=0.0) <= self.reach:
                return vals
            self.reach *= 2.0
            self._rebuild()

    def _dk_once(self, pts: np.ndarray) -> np.ndarray:
        rows = max(1, _CHUNK_ELEMENTS // len(self.cx))
        out = np.empty(len(pts))
        d2 = None
        for start in range(0, len(pts), rows):
            block = pts[start : start + rows]
            d2 = _square_sum(block[:, 0:1] - self.cx, block[:, 1:2] - self.cy)
            out[start : start + rows] = np.sqrt(_kth_smallest(d2, self.k))
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
        self.set_centers(self.centers[near])


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


class _PaddedCenters:
    """Center sets of many configurations as rows padded with inf.

    A pad is farther than any real center, so it never changes the k-th
    smallest distance of a row that holds k real centers, and a row that
    holds fewer reads inf, which sends its configuration to a reach
    doubling.
    """

    def __init__(self, sets: list[np.ndarray]):
        self.size = np.array([len(s) for s in sets])
        self.x = np.full((len(sets), int(self.size.max())), np.inf)
        self.y = np.full_like(self.x, np.inf)
        for i, centers in enumerate(sets):
            self.store(i, centers)

    def squared_distances(self, pts: np.ndarray, ids: np.ndarray, width: int) -> np.ndarray:
        """d^2 from each point to the first `width` centers of config ids[row]."""
        dx = self.x[ids, :width]
        dy = self.y[ids, :width]
        return _square_sum(
            np.subtract(pts[:, 0:1], dx, out=dx), np.subtract(pts[:, 1:2], dy, out=dy)
        )

    def load(self, i: int) -> np.ndarray:
        n = self.size[i]
        return np.column_stack((self.x[i, :n], self.y[i, :n]))

    def store(self, i: int, centers: np.ndarray) -> None:
        n = len(centers)
        if n > self.x.shape[1]:
            grow = np.full((len(self.x), n - self.x.shape[1]), np.inf)
            self.x = np.hstack((self.x, grow))
            self.y = np.hstack((self.y, grow))
        self.x[i, :n], self.x[i, n:] = centers[:, 0], np.inf
        self.y[i, :n], self.y[i, n:] = centers[:, 1], np.inf
        self.size[i] = n

    def keep(self, ids: np.ndarray, near: np.ndarray) -> None:
        """Keep, in order, the centers of configs `ids` that `near` marks."""
        width = near.shape[1]
        order = np.argsort(~near, axis=1, kind="stable")
        size = near.sum(axis=1)
        tail = np.arange(width) >= size[:, None]
        for arr in (self.x, self.y):
            part = np.take_along_axis(arr[ids, :width], order, axis=1)
            part[tail] = np.inf
            arr[ids, :width] = part
        self.size[ids] = size


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


def _root_grid(config: PeriodicConfig) -> tuple[np.ndarray, float, Rect]:
    """Root boxes over the bounding box of the reduced parallelogram.

    Returns the box centers, their half side, and the rect the center
    field must serve.  The grid is capped at 64 boxes along the long side
    so a needle-shaped domain cannot explode it; squares overhanging the
    domain only waste work, never correctness.
    """
    ux, uy = config.reduced.u
    vx, vy = config.reduced.v
    xs = [0.0, ux, vx, ux + vx]
    ys = [0.0, uy, vy, uy + vy]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    width, height = xmax - xmin, ymax - ymin
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
    return boxes, half, Rect(xmin - half, ymin - half, xmax + half, ymax + half)


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
    _check_tol(tol)
    boxes, half, rect = _root_grid(config)
    field = _CenterField(config, rect, k)
    low = -math.inf
    witness = boxes[0]
    processed = 0
    converged = False
    while True:
        vals = field.dk(boxes)
        processed += len(boxes)
        best = int(np.argmax(vals))
        if vals[best] > low:
            low = float(vals[best])
            # `boxes` is rebound, never written, so the row can be kept
            witness = boxes[best]
        diag = half * math.sqrt(2.0)
        bounds = vals + diag
        # the largest bound survives exactly when any bound does
        high = max(float(bounds.max()), low)
        if high - low <= tol:
            converged = True
            break
        survivors = bounds > low
        parents = boxes[survivors]
        # the next level quarters every parent; skip it whole rather than
        # let it overshoot the budget
        if processed + 4 * len(parents) > max_boxes:
            break
        field.prune(vals, survivors, diag)
        half /= 2.0
        boxes = (parents[:, None, :] + _SIGNS * half).reshape(-1, 2)
    return CoveringRadius(
        low, high, Point(float(witness[0]), float(witness[1])), processed, converged
    )


def _covering_radius_many(
    configs: list[PeriodicConfig],
    k: int,
    tol: float = 1e-6,
    max_boxes: int = DEFAULT_MAX_BOXES,
) -> list[CoveringRadius]:
    """`covering_radius` of every configuration, searched in lockstep.

    Element i equals `covering_radius(configs[i], k, tol, max_boxes)`
    field for field.  Each level evaluates the frontier of all unfinished
    configurations in kernel blocks of whole configurations; every block
    holds at most _BATCH_ELEMENTS d^2 entries and prunes from its own
    d^2, as a single search does when its level fits one block.  A
    configuration whose level alone is larger than a block, or whose
    values pass its reach, finishes that level through its own center
    field, exactly as in `covering_radius`.
    """
    _check_k(k)
    _check_tol(tol)
    if not configs:
        return []
    roots = [_root_grid(config) for config in configs]
    fields = [_CenterField(config, rect, k) for config, (_, _, rect) in zip(configs, roots)]
    pad = _PaddedCenters([field.centers for field in fields])
    reach = np.array([field.reach for field in fields])
    half = np.array([root[1] for root in roots])
    low = np.full(len(configs), -math.inf)
    high = np.empty(len(configs))
    witness = np.empty((len(configs), 2))
    processed = np.zeros(len(configs), dtype=np.int64)
    converged = np.zeros(len(configs), dtype=bool)

    # the frontier: config ids, each one's row count, and the rows
    ids = np.arange(len(configs))
    counts = np.array([len(root[0]) for root in roots])
    boxes = np.concatenate([root[0] for root in roots])
    while len(ids):
        ends = np.cumsum(counts)
        next_ids, next_counts, next_boxes = [], [], []
        for a, b, fits in _kernel_blocks(counts, pad.size[ids]):
            g_ids, g_counts = ids[a:b], counts[a:b]
            pts = boxes[ends[a] - counts[a] : ends[b - 1]]
            starts = np.concatenate(([0], np.cumsum(g_counts)[:-1]))
            if fits:
                width = int(pad.size[g_ids].max())
                d2 = pad.squared_distances(pts, np.repeat(g_ids, g_counts), width)
                vals = np.sqrt(_kth_smallest(d2, k))
                top = np.maximum.reduceat(vals, starts)
                # values past the reach, pads included, double the reach
                own = top > reach[g_ids]
            else:
                vals = np.empty(len(pts))
                own = np.ones(1, dtype=bool)
            for j in np.flatnonzero(own):
                i = g_ids[j]
                rows = slice(starts[j], starts[j] + g_counts[j])
                if fits:
                    # the first query at this reach is done: go on from
                    # the doubling `dk` would make next
                    fields[i].reach *= 2.0
                    fields[i]._rebuild()
                else:
                    fields[i].set_centers(pad.load(i))
                vals[rows] = fields[i].dk(pts[rows])
                reach[i] = fields[i].reach
            if own.any():
                top = np.maximum.reduceat(vals, starts)

            processed[g_ids] += g_counts
            # the first maximal row of each config, as np.argmax picks it
            rowno = np.arange(len(vals))
            first = np.minimum.reduceat(
                np.where(vals == np.repeat(top, g_counts), rowno, len(vals)), starts
            )
            up = top > low[g_ids]
            low[g_ids[up]] = top[up]
            witness[g_ids[up]] = pts[first[up]]
            g_low = low[g_ids]
            diag = half[g_ids] * math.sqrt(2.0)
            bounds = vals + np.repeat(diag, g_counts)
            g_high = np.maximum(np.maximum.reduceat(bounds, starts), g_low)
            high[g_ids] = g_high
            done = g_high - g_low <= tol
            converged[g_ids[done]] = True
            survivors = bounds > np.repeat(g_low, g_counts)
            kids = np.add.reduceat(survivors, starts, dtype=np.int64)
            go = ~done & (processed[g_ids] + 4 * kids <= max_boxes)
            if not go.any():
                continue

            batch = go & ~own
            if batch.any():
                rows = survivors & np.repeat(batch, g_counts)
                radius = (vals[rows] + 2.0 * np.repeat(diag, g_counts)[rows]) * (
                    1.0 + _PRUNE_SLACK
                )
                near = d2[rows] <= (radius * radius)[:, None]
                kid_starts = np.concatenate(([0], np.cumsum(kids[batch])[:-1]))
                pad.keep(g_ids[batch], np.logical_or.reduceat(near, kid_starts, axis=0))
            for j in np.flatnonzero(go & own):
                i = g_ids[j]
                rows = slice(starts[j], starts[j] + g_counts[j])
                fields[i].prune(vals[rows], survivors[rows], diag[j])
                pad.store(i, fields[i].centers)

            half[g_ids[go]] /= 2.0
            parents = pts[survivors & np.repeat(go, g_counts)]
            shift = np.repeat(half[g_ids[go]], kids[go])[:, None, None]
            next_boxes.append((parents[:, None, :] + _SIGNS * shift).reshape(-1, 2))
            next_ids.append(g_ids[go])
            next_counts.append(4 * kids[go])
        if not next_ids:
            break
        ids = np.concatenate(next_ids)
        counts = np.concatenate(next_counts)
        boxes = np.concatenate(next_boxes)
    return [
        CoveringRadius(
            float(low[i]),
            float(high[i]),
            Point(float(witness[i, 0]), float(witness[i, 1])),
            int(processed[i]),
            bool(converged[i]),
        )
        for i in range(len(configs))
    ]


def _kernel_blocks(counts: np.ndarray, sizes: np.ndarray):
    """Split a frontier into runs of whole configs, one kernel block each.

    Yields (a, b, fits) for the configs a..b-1 of the frontier: with
    `fits`, their rows padded to their widest center set hold at most
    _BATCH_ELEMENTS entries; without it, config a alone holds more, and
    its own center field runs its level as a single search would.
    """
    cap = max(1, _BATCH_ELEMENTS // int(sizes.max()))
    ends = np.cumsum(counts)
    a = 0
    while a < len(counts):
        if counts[a] * sizes[a] > _BATCH_ELEMENTS:
            yield a, a + 1, False
            a += 1
            continue
        b = int(np.searchsorted(ends, ends[a] - counts[a] + cap, side="right"))
        b = max(a + 1, b)
        yield a, b, True
        a = b


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
    _check_tol(tol)
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


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be positive, got {tol}")
