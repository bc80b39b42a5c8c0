"""Certified k-fold coverage via the k-th-nearest-center distance field.

Write d_k(p) for the distance from p to the k-th nearest center of the
periodic set.  Closed disks of radius r cover every point at least k
times exactly when max d_k <= r, and d_k is 1-Lipschitz, so a single
evaluation at the center of a square bounds d_k over the whole square:
d_k(m) from below, d_k(m) + half-diagonal from above.  Branch-and-bound
on those bounds narrows the boxes that can hold the maximum, and an exact
finish at the vertices of the order-k Voronoi diagram ends it (below).
Boxes of one level are evaluated in a batch; the final bounds do not
depend on that ordering.

Every point set of a search is held as rows x and y of one (2, N) array:
the root boxes, each level's box centers, the center field, the ring
centers and the finish's circumcenters, from one stage to the next
without conversion.  A shallow search works on a few dozen points, so the
number of numpy calls sets its time, not the array sizes: work on x and
y alike is one call on both rows, and reductions call the ufuncs, not
the ndarray methods that wrap them in Python.  The root grid, a few
dozen boxes culled one at a time, is built in plain floats and enters
numpy as one array.

The finish.  max d_k is attained at a vertex of the order-k Voronoi
diagram (Lee 1982): at a maximizer v at least three centers lie at
distance d_k(v), and no half-plane through v holds them all, or moving v
away from them would raise d_k; so v is their circumcenter.  Every
dropped box has d_k <= low, and only a v with d_k(v) > low can raise the
maximum above low.  If such a v lies in a surviving box with center m and
half-diagonal h, its centers lie at distance d_k(v) from v and |v - m| <=
h, so |c - m| lies in [d_k(v) - h, d_k(v) + h].  d_k is 1-Lipschitz, so
d_k(v) is within h of d_k(m), and d_k(v) > low: the centers lie in the
ring |c - m| in [max(d_k(m) - 2h, low - h), d_k(m) + 2h].  Hence max d_k
= max(low, d_k at the circumcenters of ring triples that lie in surviving
boxes).  Once no surviving box has more than _FINISH_CAP ring centers, all
their triples are solved in one pass, and d_k at each in-box
circumcenter bounds the maximum from both sides: the point is real, so
its value (less the evaluation error) is a lower bound, and the exact
vertex lies within the circumcenter's a-posteriori error bound of it, so
its value plus that bound is an upper bound (Moore 1966).  Every bound carries an explicit
rounding allowance, so an enclosure narrower than float resolution is
never claimed.

d_k is lattice-periodic, so its maximum over the closed reduced
parallelogram is the global one.  The root boxes tile that cell alone:
a grid over its bounding box, at least four boxes across, drops every box
that misses the cell.  Boxes over the rest of the bounding box would carry
1.5 to 2.5 copies of every deep hole down the levels: on random skewed
cells at tol 1e-9 the culled root evaluates 43% fewer boxes.

The search starts from every center within a reach of the root boxes
that bounds d_k everywhere plus the root ring's 2h: the lesser of an
area bound and the lattice's covering radius plus the length of a few
lattice vectors (`_CenterField`), so each root ring is whole.  The same
Lipschitz bound prunes the centers each level scans.  If a box with
center m and half-diagonal h survives, every point p of it has
d_k(p) <= d_k(m) + h, so the k nearest centers of p lie within
d_k(m) + 2h of m.  Centers farther than that from every surviving box
center can be dropped before the next level: the kept set still holds
each later query point's k nearest, so every d_k value, and with it
every bound, witness and box count, is the same as with all centers.
Every level prunes its field, in the same pass over the level's d^2 that
counts the ring centers of the finish.
"""

from __future__ import annotations

import functools
import itertools
import math

from ._lazy import lazy_numpy
from .geometry import Point, Record, _check_k, _check_tol
from .lattice import PeriodicConfig, Rect, _lattice_reach, _translates_array
from .lattice import reduce_basis  # noqa: F401 (unused here; perfbench hooks this name)

np = lazy_numpy()

STATUS_COVERED = "certified_covered"
STATUS_UNCOVERED = "certified_uncovered"
STATUS_TIGHT = "tight"
STATUS_UNDECIDED = "undecided"

DEFAULT_MAX_BOXES = 10_000_000
# d^2 entries per kernel block (8 MiB of float64, summed in place from a
# 16 MiB array of x and y differences), so the memory of one block does
# not grow with k or with the number of centers
_CHUNK_ELEMENTS = 2**20
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
# the finish runs once no surviving box has more ring centers than this;
# it solves all C(8, 3) = 56 triples of each box, in blocks of boxes whose
# triangles' 6 coordinates each stay under _CHUNK_ELEMENTS in all
_FINISH_CAP = 8
_FINISH_BOXES = _CHUNK_ELEMENTS // (6 * math.comb(_FINISH_CAP, 3))

# unit roundoff of float64
_U = 2.0**-53
# bound on the error of a computed d_k, in units of _U times the field's
# coordinate scale: the rounding of the center positions, of d^2 and its
# square root (3 u d_k), and of the sums that widen a bound by it.  Each
# reduced basis vector is a lattice vector correctly rounded
# (`reduce_basis`), so a center i u + j v + p is off by at most
# 4 u (|i u| + |j v|) + u |c| per coordinate, and |i u| + |j v| <=
# 2 |i u + j v| for a reduced basis: at most about 13 u scale
_EVAL_ULPS = 32.0


# the constant arrays below are built on first use, so that importing the
# package loads no numpy


@functools.cache
def _sign_rows() -> np.ndarray:
    # the four children of a box, as multiples of the child half side,
    # shaped (coordinate, 1, child) for boxes held as rows x and y
    return np.array([[[-1.0, 1.0, -1.0, 1.0]], [[-1.0, -1.0, 1.0, 1.0]]])


@functools.cache
def _triples() -> tuple[np.ndarray, np.ndarray]:
    # the finish's index triples into a box's ring centers, each ascending,
    # so a triple exists in a box exactly when its last index is below the
    # box's ring count; shaped (vertex, triple), with the last row apart
    rows = np.array(list(itertools.combinations(range(_FINISH_CAP), 3))).T.copy()
    return rows, rows[2]


class CoverageCertificate(Record):
    _fields = ("k", "status", "witness", "radius_low", "radius_high")

    def to_dict(self) -> dict:
        out = dict(zip(self._fields, self._values()))
        if self.witness is not None:
            out["witness"] = [self.witness.x, self.witness.y]
        return out


class CoveringRadius(Record):
    """Enclosure of max d_k with the deepest sampled point as witness.

    `low` is d_k at the witness less the field's evaluation error;
    `boxes` counts every d_k evaluation, box centers and finish
    candidates alike.  A closed-form decision (`covering_radius` with
    `decide`) samples no point: its witness is None, `low` the area bound
    A, `high` the lattice reach L and `boxes` 0.
    """

    _fields = ("low", "high", "witness", "boxes", "converged")

    def certificate(self, k: int, r: float, tol: float) -> CoverageCertificate:
        """The verdict on k-fold coverage by disks of radius r.

        A sampled point with d_k above r proves non-coverage and wins over
        everything else; next, an upper bound at or below r proves
        coverage.  Otherwise, when both bounds land within tol of r, the
        covering is reported as tight rather than forced to either side.
        """
        if self.low > r:
            status = STATUS_UNCOVERED
        elif self.high <= r:
            status = STATUS_COVERED
        elif abs(self.high - r) <= tol and abs(self.low - r) <= tol:
            status = STATUS_TIGHT
        else:
            status = STATUS_UNDECIDED
        return CoverageCertificate(k, status, self.witness, self.low, self.high)


class _CenterField:
    """Cached center enumeration serving batched d_k queries on a rect.

    The centers are held as rows x and y of the (2, N) array `centers`:
    every center within the reach R of the rect, plus a margin of
    1e-12 * scale that absorbs rounding, that of the query points
    included.  R is the lesser of two bounds on d_k over the rect, so the
    cache holds the k nearest centers of every query.

    The area reach A = sqrt(k * det / (n * pi)) + D, where det and
    D = |u| + |v| come from the reduced basis u, v and n is the offset
    count.  Proof: D >= diam(P) for the reduced parallelogram P.  The
    half-open translates of P tile the plane, and each holds exactly n
    centers.  The translates that meet the disk B(p, A - D) cover it, so
    there are at least pi (A - D)^2 / det = k / n of them; they hold at
    least k centers, each within A - D + diam(P) <= A of p.

    The lattice reach `_lattice_reach` + 2 h, widened by 1e-9 of itself
    and by 2 eval_error for rounding, holds ceil(k / n) centers of each
    offset, k in all.  h is the root boxes' half-diagonal that
    `covering_radius` passes: a root box's ring reaches d_k(m) + 2 h from
    its center m, so the field holds every center of every ring.

    The cache is bounded.  For a W x H rect, the translates of P placed at
    the centers of one offset are disjoint and lie in a box of sides
    W + 2R + D and H + 2R + D, so the field holds at most
    n (W + 2R + D) (H + 2R + D) / det centers, with R taken with its
    margin: for large k about 4 k / pi, linear in k.  `ring` only
    narrows the cache, to the centers later queries can still need.

    `eval_error` bounds the error of every d_k the field computes at a
    point of the rect, and of a sum of such a value with a bound of the
    same scale: _EVAL_ULPS units of roundoff times the coordinate scale,
    the largest rect coordinate plus the largest offset coordinate plus
    the area reach A.  A bounds every coordinate the computation meets,
    and it is kept whatever R is, so that R moves no bound by a bit.
    """

    def __init__(self, config: PeriodicConfig, rect: Rect, k: int, diag_root: float = 0.0):
        self.k = k
        reduced = config.reduced
        len_u, len_v = reduced.lengths()
        count = len(config.offsets)
        area = math.sqrt(k * (reduced.det / count) / math.pi) + len_u + len_v
        corner = max(abs(rect.xmin), abs(rect.xmax), abs(rect.ymin), abs(rect.ymax))
        offset = max([abs(c) for p in config.offsets for c in (p.x, p.y)])
        self.eval_error = _EVAL_ULPS * _U * (corner + offset + area)
        # ceil(k / n) centers of each offset, k in all, and the root ring
        lattice = _lattice_reach(reduced, -(-k // count)) + 2.0 * diag_root
        self.reach = min(area, lattice * (1.0 + 1e-9) + 2.0 * self.eval_error)
        self.set_centers(_translates_array(config, rect, self.reach).T)

    def set_centers(self, centers: np.ndarray) -> None:
        self.centers = centers
        # query rows per kernel block
        self._rows = max(1, _CHUNK_ELEMENTS // centers.shape[1])
        self._d2 = None

    def dk(self, cols: np.ndarray) -> np.ndarray:
        """d_k at the points held as rows x and y of `cols`, all inside the rect."""
        rows = self._rows
        count = cols.shape[1]
        if count <= rows:
            # only a query that fits one block leaves its d^2 for `ring`
            self._d2 = _squared_distances(cols, self.centers)
            return np.sqrt(_kth_smallest(self._d2, self.k))
        self._d2 = None
        out = np.empty(count)
        for start in range(0, count, rows):
            block = slice(start, start + rows)
            d2 = _squared_distances(cols[:, block], self.centers)
            out[block] = np.sqrt(_kth_smallest(d2, self.k))
        return out

    def ring(
        self, cols: np.ndarray, kept: np.ndarray, inner: np.ndarray, outer: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """The centers in each kept point's ring, then prune to the kept rings.

        `cols` holds the points of the last `dk` query as rows x and y,
        `kept` the ascending indices of those searched further, and
        `inner` and `outer` one ring per kept point.  When no ring holds
        more than _FINISH_CAP centers, returns each kept point's ring
        count and the ring centers as rows x and y: one run per kept point,
        in the order of `kept`, each in the field's order; else None.

        Then drops every center farther than `outer` from all kept
        points: with outer at least d_k(m) + 2h for a box of center m and
        half-diagonal h, every later query point of the box keeps its k
        nearest.  Reads the query's d^2 when it fit one kernel block and
        recomputes the kept rows block by block otherwise, bit for bit the
        same, so the result does not depend on the blocking.
        """
        lo2 = inner * inner
        hi2 = outer * outer
        centers = self.centers
        found: list | None = []
        for start in range(0, len(kept), self._rows):
            block = kept[start : start + self._rows]
            if self._d2 is not None:
                d2 = self._d2.take(block, axis=0)
            else:
                d2 = _squared_distances(cols.take(block, axis=1), centers)
            span = slice(start, start + len(block))
            hit = d2 <= hi2[span, None]
            # the centers within some kept point's outer radius
            if start:
                near |= np.logical_or.reduce(hit, axis=0)
            else:
                near = np.logical_or.reduce(hit, axis=0)
            if found is None:
                continue
            hit &= d2 >= lo2[span, None]
            count = np.add.reduce(hit, axis=1)
            if count[count.argmax()] > _FINISH_CAP:
                found = None
                continue
            # each hit's column, row by row, from the cheaper flat nonzero
            columns = hit.ravel().nonzero()[0] % hit.shape[1]
            found.append((count, centers.take(columns, axis=1)))
        self.set_centers(centers.take(near.nonzero()[0], axis=1))
        if found is None:
            return None
        if len(found) == 1:
            return found[0]
        counts, runs = zip(*found)
        return np.concatenate(counts), np.concatenate(runs, axis=1)


def _squared_distances(pts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(x - cx)^2 + (y - cy)^2 from each point to each center.

    Both arguments hold their points as rows x and y; the result has one
    row per point.  x and y are subtracted in one operation, into a
    (2, P, C) array whose first row is squared and summed in place and
    returned.
    """
    d = pts[:, :, None] - centers[:, None, :]
    d *= d
    d2 = d[0]
    d2 += d[1]
    return d2


def _kth_smallest(d2: np.ndarray, k: int) -> np.ndarray:
    if k == 1:
        return np.minimum.reduce(d2, axis=1)
    # the method on a copy: np.partition is the same with a Python wrapper
    part = d2.copy()
    part.partition(k - 1, axis=1)
    return part[:, k - 1]


def kth_nearest_distance(p: Point, config: PeriodicConfig, k: int) -> float:
    """Distance from p to the k-th nearest center of the periodic set."""
    return float(kth_nearest_distance_batch(np.array([[p.x, p.y]]), config, k)[0])


def kth_nearest_distance_batch(
    points: np.ndarray, config: PeriodicConfig, k: int
) -> np.ndarray:
    """Vectorized d_k over an (N, 2) array of points.

    The points are grouped by the translate of the reduced parallelogram
    that holds them, and each group is served by a center field over its
    own bounding box, so far-apart points never share one enumeration.
    Points keep their coordinates: each value is bit for bit the one the
    point gets alone, which is `kth_nearest_distance`.
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
    cols = pts.T
    x, y = cols
    # the cell (floor s, floor t) of each point; sorted by cell, the rows
    # of one cell are a run
    cell_s = np.floor((x * vy - y * vx) / det)
    cell_t = np.floor((y * ux - x * uy) / det)
    order = np.lexsort((cell_t, cell_s))
    cell_s, cell_t = cell_s[order], cell_t[order]
    runs = ((cell_s[1:] != cell_s[:-1]) | (cell_t[1:] != cell_t[:-1])).nonzero()[0] + 1
    out = np.empty(len(pts))
    for rows in np.split(order, runs):
        part = cols.take(rows, axis=1)
        rect = Rect(*part.min(axis=1).tolist(), *part.max(axis=1).tolist())
        out[rows] = _CenterField(config, rect, k).dk(part)
    return out


def _root_grid(config: PeriodicConfig) -> tuple[np.ndarray, float, Rect]:
    """Root boxes that tile the closed reduced parallelogram.

    A grid of squares over the parallelogram's bounding box, at least
    _ROOT_SHORT across its short side and at most _ROOT_LONG along its
    long side, keeps only the squares that meet the parallelogram.  The
    closed parallelogram holds a point of every orbit of the lattice and
    each of its points lies in a kept square, so the maximum of d_k over
    the kept squares is the global maximum.  The grid and its cull run in
    plain floats, box by box in x-major order: a typical root of a few
    dozen boxes costs less that way than as a dozen numpy calls.

    Returns the box centers as rows x and y, their half side, and the
    bounding box of the kept boxes: every box center of a search lies in
    it, so it is the rect the center field must serve.
    """
    (ux, uy), (vx, vy), det = config.reduced.u, config.reduced.v, config.reduced.det
    xmin, xmax = min(0.0, ux, vx, ux + vx), max(0.0, ux, vx, ux + vx)
    ymin, ymax = min(0.0, uy, vy, uy + vy), max(0.0, uy, vy, uy + vy)
    width, height = xmax - xmin, ymax - ymin
    side = max(min(width, height) / _ROOT_SHORT, max(width, height) / _ROOT_LONG)
    nx = max(1, math.ceil(width / side - 1e-9))
    ny = max(1, math.ceil(height / side - 1e-9))
    sx = width / nx
    sy = height / ny
    side = max(sx, sy)
    half = side / 2.0
    # the half width of each box's interval in lattice coordinates (s, t)
    ws = half * (abs(vx) + abs(vy)) / det * (1.0 + _CULL_SLACK)
    wt = half * (abs(ux) + abs(uy)) / det * (1.0 + _CULL_SLACK)
    # each row's y with its products y vx and y ux
    rows = [(y, y * vx, y * ux) for y in [ymin + side * (j + 0.5) for j in range(ny)]]
    xs: list[float] = []
    ys: list[float] = []
    # x-major order, as in a meshgrid with "ij" indexing; (s, t) of each
    # center by the closed-form inverse of the reduced basis
    for i in range(nx):
        x = xmin + side * (i + 0.5)
        xvy, xuy = x * vy, x * uy
        for y, yvx, yux in rows:
            s = (xvy - yvx) / det
            if s + ws >= 0.0 and s - ws <= 1.0:
                t = (yux - xuy) / det
                if t + wt >= 0.0 and t - wt <= 1.0:
                    xs.append(x)
                    ys.append(y)
    left, right, low, high = xs[0], xs[-1], min(ys), max(ys)
    return np.array([xs, ys]), half, Rect(left - half, low - half, right + half, high + half)


def _circumcenters(tri: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Circumcenters of the triangles a, b, c, with their error bounds.

    `tri` holds the vertices as (coordinate, vertex, triangle): rows x and
    y of a, b and c.  Returns the computed circumcenters q as rows x and y,
    a bound e_q on the distance from each to the exact circumcenter v of
    the float vertices, and a lower bound on each circumradius.  A triangle
    too close to collinear to bound has e_q = inf, and a collinear one a
    huge, infinite or nan circumradius bound.  Call it under np.errstate,
    since collinear triangles divide by zero.

    v solves M (v - a) = r, where the rows of M are the edges B = b - a
    and C = c - a and r = (|B|^2, |C|^2) / 2.  The residual rho = M (q - a)
    - r of the two bisector equations at q is computed with a bound on its
    own rounding, and v - q = -M^-1 rho with ||M^-1|| <= ||M||_F / |det M|,
    so |q - v| <= ||M||_F |rho| / |det M|, with |det M| bounded from below
    by the computed determinant less its rounding bound.  The circumradius
    is |B| |C| |B - C| / (2 |det M|), bounded from below with |det M|
    bounded from above.  Each rounding bound is at least twice the
    first-order error it covers.

    Paired terms, such as the x and y of a point or the two bisector
    equations, are computed by one operation on stacked rows; each element
    still goes through the formula's operations in the same order.
    """
    a = tri[:, 0]
    # (coordinate, edge, triangle): the edges B = b - a and C = c - a, and
    # the same four rows flat as bx, cx, by, cy
    edge = tri[:, 1:] - tri[:, :1]
    flat = edge.reshape(4, tri.shape[2])
    opposite = tri[:, 2] - tri[:, 1]
    norm = edge * edge
    # |B|^2 and |C|^2
    norm = norm[0] + norm[1]
    # bx cy and by cx
    cross = flat[0::2] * flat[3::-2]
    det = cross[0] - cross[1]
    size = np.abs(cross)
    det_err = 8.0 * _U * (size[0] + size[1])
    half_inv = 0.5 / det
    # (cy |B|^2 - by |C|^2, bx |C|^2 - cx |B|^2) scaled, from a
    q = a + (flat[3::-3] * norm - flat[2:0:-1] * norm[::-1]) * half_inv
    # residuals of the two bisector equations at the float point q, from
    # the products (bx wx, cx wx) and (by wy, cy wy) with w = q - a
    prod = edge * (q - a)[:, None]
    rho = np.abs(prod[0] + prod[1] - 0.5 * norm) * (1.0 + 2.0 * _U)
    size = np.abs(prod)
    rho += 8.0 * _U * (size[0] + size[1] + norm)
    rho *= rho
    abs_det = np.abs(det)
    floor = abs_det - det_err
    error = np.sqrt((norm[0] + norm[1]) * (rho[0] + rho[1])) / floor
    error *= 1.0 + 16.0 * _U
    error = np.where(floor > 0.0, error, math.inf)
    opposite *= opposite
    radius = np.sqrt(norm[0] * norm[1] * (opposite[0] + opposite[1]))
    radius /= 2.0 * (abs_det + det_err)
    radius *= 1.0 - 16.0 * _U
    return q, error, radius


def _finish_candidates(
    boxes: np.ndarray,
    half: float,
    outer: np.ndarray,
    pad: float,
    ring: tuple[np.ndarray, np.ndarray],
    budget: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The in-box circumcenters of every box's ring triples.

    `boxes` holds the box centers as rows x and y, `half` their half side
    and `outer` their outer ring radii; `ring` is `_CenterField.ring`'s
    result for them, so a box's ring centers are the run that starts at
    the sum of the counts of the boxes before it.  A triple is dropped
    when its circumradius provably exceeds the outer radius, or its
    circumcenter lies farther than its error bound plus `pad` outside the
    box; each kept circumcenter is clamped into its box, which moves it no
    farther from an exact vertex in the box.  Returns the points as rows x
    and y and their error bounds.  The triples are solved in blocks of
    _FINISH_BOXES boxes, so only the kept points take memory beyond a
    block, and the blocks stop at the one whose kept points pass `budget`:
    the points returned then number more than `budget`, and the caller
    skips the finish without the triples of the blocks after it.
    """
    count, centers = ring
    triples, last = _triples()
    start = count.cumsum() - count
    found = []
    total = 0
    for lo in range(0, len(count), _FINISH_BOXES):
        box, triple = (last < count[lo : lo + _FINISH_BOXES, None]).nonzero()
        if lo:
            box += lo
        # vertex, triangle
        index = start.take(box) + triples.take(triple, axis=1)
        mid = boxes.take(box, axis=1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            q, error, radius = _circumcenters(centers.take(index, axis=1))
            inside = np.abs(q - mid) <= half + pad + error
            keep = ((radius <= outer.take(box)) & inside[0] & inside[1]).nonzero()[0]
        mid = mid.take(keep, axis=1)
        q = np.minimum(np.maximum(q.take(keep, axis=1), mid - half), mid + half)
        found.append((q, error.take(keep)))
        total += len(keep)
        if total > budget:
            break
    if len(found) == 1:
        return found[0]
    q, error = zip(*found)
    return np.concatenate(q, axis=1), np.concatenate(error)


def covering_radius(
    config: PeriodicConfig,
    k: int,
    tol: float = 1e-6,
    max_boxes: int = DEFAULT_MAX_BOXES,
    *,
    decide: bool = False,
) -> CoveringRadius:
    """Certified enclosure of the order-k covering radius max d_k.

    By periodicity the maximum over any region containing a fundamental
    domain is the global maximum, so the search covers the closed reduced
    parallelogram with the squares of `_root_grid` and refines.  A
    surviving box is quartered; one whose upper bound cannot beat the best
    sampled value is dropped.  After each level, once no surviving box
    has more than _FINISH_CAP centers in its ring, the exact finish of the
    module docstring evaluates d_k at the in-box circumcenters of their
    triples.  With e the field's evaluation error and e_q a circumcenter's
    error bound, low = max d_k sampled - e, at box centers and
    circumcenters alike, and high is the least of max(d_k + half-diagonal)
    + e over the level's boxes and max(low, d_k + e + e_q) over the
    finish's circumcenters.

    Stops once high - low <= tol (converged) or, with `decide`, once the
    enclosure lies wholly on one side of the configured radius r: low > r
    or high <= r (Moore 1966).  With `decide`, the closed-form enclosure
    A <= max d_k <= L of `_CenterField`'s proofs comes first: A the area
    bound sqrt(k det / (n pi)) and L `_lattice_reach` for ceil(k / n)
    copies, both of the reduced basis and each moved out by 1e-9 of
    itself.  When L <= r it is returned as it is, with no witness and 0
    boxes, and `converged` is high - low <= tol as everywhere; an L that
    overflowed is inf and decides nothing.  Past it, both tests run after
    each level's bounds and after each finish.  A decided stop ends the
    converged search's sequence of levels early: every low and high on
    the way is a certified bound of max d_k, so the decided enclosure is
    sound, and it contains the converged one up to the rounding of high,
    which each level recomputes.  A finish wider than tol runs one more
    level and tries again only while it has a circumcenter whose e_q
    alone exceeds tol and its high fell since the last try; otherwise it
    stops unconverged, as when tol is below the rounding floor e_q + 2e
    of the vertex.  The search also stops unconverged once the
    half-diagonal is at most e.  Wherever it stops, `converged` is
    high - low <= tol.

    `boxes` counts every d_k evaluation, finish candidates included.  A
    level or a finish that would take it past `max_boxes` is skipped whole
    and the search stops there, unconverged; the root grid (at most
    _ROOT_SHORT * _ROOT_LONG = 256 boxes) is always evaluated, and the
    bounds stay valid either way.
    """
    _check_k(k)
    _check_tol(tol)
    r = config.radius
    if decide:
        # the closed-form enclosure of `_CenterField`: A <= max d_k <= L
        reduced = config.reduced
        count = len(config.offsets)
        high = _lattice_reach(reduced, -(-k // count)) * (1.0 + 1e-9)
        if high <= r:
            low = math.sqrt(k * (reduced.det / count) / math.pi) * (1.0 - 1e-9)
            return CoveringRadius(low, high, None, 0, high - low <= tol)
    # the level's box centers as rows x and y
    cols, half, rect = _root_grid(config)
    # the field holds every center of a root box's ring
    field = _CenterField(config, rect, k, half * math.sqrt(2.0))
    err = field.eval_error
    # the first level raises top from -inf, and with it sets the witness
    top = -math.inf
    processed = 0
    finish_high = math.inf
    while True:
        vals = field.dk(cols)
        processed += len(vals)
        best = int(vals.argmax())
        level_top = float(vals[best])
        if level_top > top:
            top = level_top
            # `cols` is rebound, never written, so the column can be kept
            witness = cols[:, best]
        low = top - err
        diag = half * math.sqrt(2.0)
        # a box's upper bound is its d_k + spread; rounding is monotone, so
        # level_top + spread is the largest, and it survives exactly when
        # any bound does
        spread = diag + err
        high = min(max(level_top + spread, low), finish_high)
        if high - low <= tol or decide and (low > r or high <= r):
            break
        survivors = (vals + spread > low).nonzero()[0]
        # the ring of each surviving box, from no lower than low - diag,
        # widened by err, which is far above the relative rounding of d^2
        # and of the ring radii
        kept = vals.take(survivors)
        outer = kept + 2.0 * diag + err
        inner = np.maximum(kept - 2.0 * diag - err, max(low - diag - err, 0.0))
        ring = field.ring(cols, survivors, inner, outer)
        parents = cols.take(survivors, axis=1)
        if ring is not None:
            pts, error = _finish_candidates(
                parents, half, outer, err, ring, max_boxes - processed
            )
            if processed + pts.shape[1] > max_boxes:
                break
            processed += pts.shape[1]
            dks = field.dk(pts)
            upper = dks + err + error
            # with no circumcenter in a surviving box, max d_k = low
            tried = low
            if len(dks):
                best = int(dks.argmax())
                if dks[best] > top:
                    top = float(dks[best])
                    witness = pts[:, best]
                low = top - err
                tried = max(low, float(upper[upper.argmax()]))
            high = min(high, tried)
            if high - low <= tol or decide and (low > r or high <= r):
                break
            # a finish refines only where a circumcenter's own error
            # blocks tol, and only while refining narrows it
            if tried >= finish_high or not (error[upper > low + tol] > tol).any():
                break
            finish_high = tried
        # the next level quarters every parent; skip it whole rather than
        # let it overshoot the budget
        if processed + 4 * len(survivors) > max_boxes or diag <= err:
            break
        half /= 2.0
        cols = (parents[:, :, None] + _sign_rows() * half).reshape(2, -1)
    # every other stop follows a test that found high - low > tol
    converged = high - low <= tol
    return CoveringRadius(low, high, Point(*witness.tolist()), processed, converged)


def verify_k_coverage(
    config: PeriodicConfig,
    k: int,
    tol: float = 1e-6,
    max_boxes: int = DEFAULT_MAX_BOXES,
) -> CoverageCertificate:
    """Certify whether disks of the configured radius k-cover the plane.

    Closed disks: a point on k disk boundaries counts as covered k times.
    The verdict is `CoveringRadius.certificate`'s, on the enclosure of a
    search that stops as soon as that enclosure decides it (`decide`):
    a certified verdict may come with an enclosure wider than tol, which
    `covering_radius` alone narrows further.  When the lattice reach L
    of the closed-form enclosure is at most r, the verdict is covered
    with no search: no witness, radius_low the area bound A and
    radius_high L.

    Soundness: the search stops at its first bound with low > r or
    high <= r, and every bound it computes is certified, low <= max d_k
    <= high for any low and high it meets.  So the verdict is the
    converged search's.  After a stop on low > r, which the certificate
    tests first, the converged search keeps that low or a higher one.
    After a stop on high <= r no later low can exceed r, and later highs
    only fall, but for the rounding of the level bound, which each level
    recomputes: only an r within that rounding of high could see the
    converged search call tight what this one proves covered.  A search
    that meets neither test runs to its end, so tight and undecided
    enclosures are the converged search's bit for bit.  L, like every
    high, is a certified upper bound, so L <= r proves coverage, and the
    precedence puts a proof of coverage before tight.  The converged
    search can call tight or undecided a radius r >= L only when its high
    ends above r, that is more than L - max d_k above the maximum, which
    tol allows but the exact finish seldom leaves.
    """
    k = _check_k(k)
    cover = covering_radius(config, k, tol, max_boxes, decide=True)
    return cover.certificate(k, config.radius, tol)

