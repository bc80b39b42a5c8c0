"""Periodic center sets: lattice bases, reduction, enumeration.

A configuration is a lattice spanned by two basis vectors plus a set of
translate offsets and a common disk radius.  Each offset is stored moved
by whole lattice vectors into the half-open fundamental parallelogram
{s*u + t*v : s, t in [0,1)}, up to the rounding of s and t, and one that
lies there already is stored as given.  So a configuration is a fixed
point of its own constructor: rebuilt from its fields or its JSON, it is
the same bit for bit.  Only where rounding moves s or t by a whole cell,
on bases skewed past |v| / |u| of about 1e8, can the wrap end at its
bound of 16 passes short of that.
"""

from __future__ import annotations

import itertools
import json
import math

from ._lazy import lazy_numpy
from .geometry import Point, Record

np = lazy_numpy()

DET_TOL = 1e-12
SEPARATION_TOL = 1e-9
_MAX_REDUCTION_STEPS = 256
# lattice points one center enumeration may visit (64 MiB of float64
# pairs); only bases far too skewed for their scale ask for more
_MAX_ENUMERATED_POINTS = 2**22
# up to this many offsets the separation check measures every pair: to
# 8 that costs no more than its buckets (measured), above it more
_ONE_BUCKET_MAX = 8


class ConfigFormatError(ValueError):
    """Raised when a serialized configuration cannot be parsed."""


class Basis(Record):
    # and det, u[0] v[1] - u[1] v[0] made positive by the constructor
    _fields = ("u", "v")

    def __init__(self, u, v) -> None:
        ux, uy, vx, vy = float(u[0]), float(u[1]), float(v[0]), float(v[1])
        det = ux * vy - uy * vx
        # finite squares need finite components
        if not all(map(math.isfinite, (det, ux * ux + uy * uy, vx * vx + vy * vy))):
            if not all(map(math.isfinite, (ux, uy, vx, vy))):
                raise ValueError("basis vectors must be finite")
            raise ValueError("basis overflows the float range")
        if det < 0.0:
            # -v spans the same lattice; keep orientation positive
            vx, vy, det = -vx, -vy, -det
        if det <= DET_TOL:
            raise ValueError("degenerate lattice")
        self.__dict__.update(u=(ux, uy), v=(vx, vy), det=det)

    def lengths(self) -> tuple[float, float]:
        # |u| and |v|, derived on first use and kept, out of eq, hash and
        # repr like det
        lengths = self.__dict__.get("_lengths")
        if lengths is None:
            lengths = self.__dict__["_lengths"] = (math.hypot(*self.u), math.hypot(*self.v))
        return lengths


def reduce_basis(basis: Basis) -> Basis:
    """Lagrange-Gauss reduction of a planar basis.

    The reduced basis spans the same lattice and the same determinant,
    with |u| <= |v| and |dot(u, v)| <= |u|^2 / 2, both up to rounding.
    Each of its vectors is the correctly rounded value of an exact integer
    combination of the given u and v, so no step moves the lattice.

    The reduction runs in plain floats, every dot product as
    x0 * y0 + x1 * y1, so the result does not depend on how a
    linear-algebra library rounds.  A float step v - mu * u is exact when u and v are exact
    lattice vectors, mu is a power of two and the subtraction leaves no
    remainder; with a remainder it is rounded once, which keeps the
    guarantee only while no later step reads it.  A result that relies on
    any other step is discarded for the same reduction in Python integers
    (`_reduce_exactly`), rounded once at the end: on a basis given with
    |v| / |u| of 10^3 and more, the float steps leave the lattice by about
    u |v| / |u| of |u|.

    The float loop decides whether the basis reduces at all, and raises
    ValueError when it stalls: on extremely skewed bases the rounding of
    v - mu * u can undo every step, or |u|^2 can underflow.  It ends at
    mu = 0, or at the first state that comes back two steps later, so no
    answer depends on the step bound, which only raises; a state that
    comes back with |dot(u, v)| above |u|^2 / 2 by more than 1e-9 of it
    raises too.  A basis that ends where it began is returned as it is.
    """
    (ux, uy), (vx, vy) = basis.u, basis.v
    # 2 while a vector is a lattice vector exactly, 1 once it is one rounded
    # once, 0 once it is neither
    grade_u = grade_v = 2
    # the states at the top of the last two steps, the older first, each
    # with its grades
    older = last = (None, None)
    for _ in range(_MAX_REDUCTION_STEPS):
        uu = ux * ux + uy * uy
        vv = vx * vx + vy * vy
        if vv < uu:
            ux, uy, vx, vy, uu = vx, vy, ux, uy, vv
            grade_u, grade_v = grade_v, grade_u
        state = (ux, uy, vx, vy)
        if state == older[0]:
            # each state is a function of the one before, so the loop could
            # only cycle from here.  Rounding flips mu between +1 and -1 on
            # a pair with dot(u, v) at |u|^2 / 2 up to rounding (hexagonal);
            # a state past that, beyond rounding, means the reduction stalled
            if abs(ux * vx + uy * vy) > 0.5 * uu * (1.0 + 1e-9):
                raise ValueError("basis reduction did not converge")
            grade_u, grade_v = older[1]
            break
        ratio = (ux * vx + uy * vy) / uu if uu > 0.0 else math.inf
        if not math.isfinite(ratio):
            # |u|^2 underflowed: the basis is too skewed for float64
            raise ValueError("basis too skewed to reduce in floating point")
        mu = round(ratio)
        if mu == 0:
            break
        older, last = last, (state, (grade_u, grade_v))
        # a power of two times a float is exact, short of an overflow,
        # which the next step raises on
        px, py = mu * ux, mu * uy
        x, y = vx - px, vy - py
        if grade_u < 2 or grade_v < 2 or abs(mu) & (abs(mu) - 1):
            grade_v = 0
        else:
            grade_v = 2 if math.fsum((vx, -px, -x)) == math.fsum((vy, -py, -y)) == 0.0 else 1
        vx, vy = x, y
    else:
        raise ValueError("basis reduction did not converge")
    if state == (*basis.u, *basis.v):
        return basis
    if not (grade_u and grade_v):
        return _reduce_exactly(basis)
    return Basis((ux, uy), (vx, vy))


def _reduce_exactly(basis: Basis) -> Basis:
    """Lagrange-Gauss reduction of `basis` in Python integers.

    The four coordinates, as integers over their common power-of-two
    denominator, reduce without rounding, and each reduced coordinate is
    rounded once, by the correctly rounded integer division.  mu rounds
    halves up, so a pair with dot(u, v) = |u|^2 / 2 takes one step to
    -|u|^2 / 2 and stops.
    """
    ratios = [c.as_integer_ratio() for c in (*basis.u, *basis.v)]
    scale = max(d for _, d in ratios)
    ux, uy, vx, vy = [n * (scale // d) for n, d in ratios]
    while True:
        uu = ux * ux + uy * uy
        if vx * vx + vy * vy < uu:
            ux, uy, vx, vy = vx, vy, ux, uy
            uu = ux * ux + uy * uy
        mu = (2 * (ux * vx + uy * vy) + uu) // (2 * uu)
        if mu == 0:
            return Basis((ux / scale, uy / scale), (vx / scale, vy / scale))
        vx, vy = vx - mu * ux, vy - mu * uy


def _lattice_reach(reduced: Basis, copies: int = 1) -> float:
    """rho + lam: every point has `copies` distinct centers of each offset
    within this distance, for at most 7 copies; inf for more, and where
    rounding leaves rho below half the triangle's longest side.

    rho, the lattice's covering radius, is the circumradius of the
    triangle (0, u, v) of the reduced basis, v replaced by -v where
    dot(u, v) < 0; lam is 0, |u|, |v| or |u - v| for copies <= 1, 3, 5, 7.
    The triangle is non-obtuse, so it holds its circumcenter (so rho <=
    max(|u|, |v|)) and each of its points lies within rho of a vertex.  It
    and its image under q -> u + v - q tile the cell (0, u, u + v, v), so
    every point has a center of each offset within rho, and adding 0,
    +-u, +-v and +-(u - v), of norm at most lam, gives `copies` of them
    within rho + lam.  The circumcenters around a lattice point are the
    vertices of its Voronoi cell, at rho from it, and its relevant vectors
    +-u, +-v and +-(u - v) are the triangles' sides, at most 2 rho long.
    """
    if copies > 7:
        return math.inf
    (ux, uy), (vx, vy) = reduced.u, reduced.v
    if ux * vx + uy * vy < 0.0:
        vx, vy = -vx, -vy
    len_u, len_v = reduced.lengths()
    len_w = math.hypot(ux - vx, uy - vy)
    rho = len_u * len_v * len_w / (2.0 * reduced.det)
    # a circumradius is at least half the longest side, |u - v| here; a
    # value below that, or nan, comes from an over- or underflow and
    # bounds nothing
    if not rho * (1.0 + 1e-9) >= 0.5 * len_w:
        return math.inf
    return rho + (0.0, len_u, len_v, len_w)[copies // 2]


class Rect(Record):
    """Axis-aligned rectangle; degenerate (point or segment) allowed."""

    _fields = ("xmin", "ymin", "xmax", "ymax")

    def __init__(self, xmin: float, ymin: float, xmax: float, ymax: float) -> None:
        if not all(map(math.isfinite, (xmin, ymin, xmax, ymax))):
            raise ValueError("rect bounds must be finite")
        if xmin > xmax or ymin > ymax:
            raise ValueError("rect has negative extent")
        self.__dict__.update(xmin=xmin, ymin=ymin, xmax=xmax, ymax=ymax)


class PeriodicConfig(Record):
    # and reduced, the Lagrange-Gauss reduction of `basis`, derived once
    _fields = ("basis", "offsets", "radius")

    def __init__(self, basis, offsets, radius) -> None:
        if not isinstance(basis, Basis):
            u, v = basis
            basis = Basis(u, v)
        if not (math.isfinite(radius) and radius > 0.0):
            raise ValueError(f"radius must be positive, got {radius}")
        # a plain float, so that the JSON of any real radius serializes
        radius = float(radius)
        offsets = [p if isinstance(p, Point) else Point(p[0], p[1]) for p in offsets]
        if not offsets:
            raise ValueError("at least one offset required")
        (ux, uy), (vx, vy), det = basis.u, basis.v, basis.det
        wrapped = []
        for p in offsets:
            # less i u + j v (i = floor(s), +1 if s - i rounds to 1) till i = j = 0 or a cycle
            x, y, seen = p.x, p.y, []
            while len(seen) < 16:
                s, t = (x * vy - y * vx) / det, (y * ux - x * uy) / det
                if not (math.isfinite(s) and math.isfinite(t)):
                    raise ValueError("offset overflows the float range in lattice coordinates")
                i, j = math.floor(s) + (s % 1.0 >= 1.0), math.floor(t) + (t % 1.0 >= 1.0)
                if not (i or j) or (x, y) in seen:
                    break
                seen, x, y = [*seen, (x, y)], x - (i * ux + j * vx), y - (i * uy + j * vy)
            wrapped.append(Point(x + 0.0, y + 0.0))
        offsets = tuple(wrapped)
        reduced = reduce_basis(basis)
        if len(offsets) > 1 and _min_periodic_gap(offsets, reduced) <= SEPARATION_TOL:
            raise ValueError("offsets coincide modulo the lattice")
        self.__dict__.update(basis=basis, offsets=offsets, radius=radius, reduced=reduced)

    @property
    def det(self) -> float:
        return self.basis.det

    def scaled(self, factor: float) -> "PeriodicConfig":
        """This configuration with every length times `factor`.

        A power of two scales every stored number exactly, offsets too:
        the wrap then computes the same s, t and lattice vectors, each
        length times the factor, unless a number leaves the normal range.
        """
        if not (math.isfinite(factor) and factor > 0.0):
            raise ValueError(f"scale factor must be positive, got {factor}")
        ux, uy = self.basis.u
        vx, vy = self.basis.v
        return PeriodicConfig(
            Basis((factor * ux, factor * uy), (factor * vx, factor * vy)),
            tuple(Point(factor * p.x, factor * p.y) for p in self.offsets),
            factor * self.radius,
        )

    def to_dict(self) -> dict:
        return {
            "u": [self.basis.u[0], self.basis.u[1]],
            "v": [self.basis.v[0], self.basis.v[1]],
            "offsets": [[p.x, p.y] for p in self.offsets],
            "radius": self.radius,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "PeriodicConfig":
        if not isinstance(data, dict):
            raise ConfigFormatError("config must be a JSON object")
        missing = {"u", "v", "offsets", "radius"} - set(data)
        if missing:
            raise ConfigFormatError(f"config missing fields: {sorted(missing)}")
        offsets = data["offsets"]
        if not isinstance(offsets, (list, tuple)) or not offsets:
            raise ConfigFormatError("field 'offsets' must be a non-empty list of pairs")
        pairs = [("each offset", p) for p in offsets]
        pairs += [("field 'u'", data["u"]), ("field 'v'", data["v"])]
        for what, pair in pairs:
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise ConfigFormatError(f"{what} must be a pair of numbers")
        # the structure holds; now the numbers, offsets first, then the
        # radius, u and v
        pairs.insert(-2, ("field 'radius'", (data["radius"],)))
        for what, leaves in pairs:
            if not all(map(_number, leaves)):
                raise ConfigFormatError(f"{what} must be numeric")
        try:
            return cls(Basis(data["u"], data["v"]), offsets, data["radius"])
        except (ValueError, OverflowError) as exc:
            # OverflowError: an int beyond the float range
            raise ConfigFormatError(str(exc)) from exc

    @classmethod
    def from_json(cls, text: str) -> "PeriodicConfig":
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # a JSONDecodeError, an int of more digits than Python converts,
            # or nesting deeper than the decoder's recursion
            raise ConfigFormatError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(data)


def _number(value) -> bool:
    # a JSON number: an int or a float, and never a bool, Python's or
    # numpy's, though float() reads one as 0 or 1
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _min_periodic_gap(offsets: tuple[Point, ...], reduced: Basis) -> float:
    """Least distance between two offsets modulo the lattice of `reduced`,
    for more than `_ONE_BUCKET_MAX` offsets only when it is at most
    `SEPARATION_TOL`; otherwise some value above `SEPARATION_TOL`.

    Each difference, at coordinates (s, t) in the reduced basis, is moved
    into the cell {a*u + b*v : a, b in [0, 1]} by subtracting
    floor(s)*u + floor(t)*v, and its nearest lattice point is then a
    corner of that cell.  The cell splits along its shorter diagonal into
    two triangles which, with their translates, triangulate the lattice,
    and for a reduced basis no angle of them exceeds 90 degrees.  So each
    Voronoi edge joins the circumcenters of the two triangles on its dual
    edge, inside them, and only the Voronoi cells of a triangle's own
    corners reach into it.  A difference that the rounding of s and t
    leaves a distance e off the cell gets a gap at most 2e too large.
    Up to `_ONE_BUCKET_MAX` offsets every pair is measured, and above it
    the pairs `_near_pairs` gives, which hold every pair within the
    separation tolerance.
    """
    ux, uy = reduced.u
    vx, vy = reduced.v
    wx, wy = ux + vx, uy + vy
    det = reduced.det
    pairs = (
        itertools.combinations(offsets, 2)
        if len(offsets) <= _ONE_BUCKET_MAX
        else _near_pairs(offsets, reduced)
    )
    best = math.inf
    for p, q in pairs:
        dx, dy = p.x - q.x, p.y - q.y
        s = (dx * vy - dy * vx) / det
        t = (dy * ux - dx * uy) / det
        if not (math.isfinite(s) and math.isfinite(t)):
            raise ValueError("offset overflows the float range in lattice coordinates")
        s, t = math.floor(s), math.floor(t)
        dx -= s * ux + t * vx
        dy -= s * uy + t * vy
        ex, ey = dx - wx, dy - wy
        best = min(
            best,
            dx * dx + dy * dy,
            (dx - ux) * (dx - ux) + (dy - uy) * (dy - uy),
            (dx - vx) * (dx - vx) + (dy - vy) * (dy - vy),
            ex * ex + ey * ey,
        )
    return math.sqrt(best)


def _near_pairs(offsets: tuple[Point, ...], reduced: Basis):
    """Pairs of offsets, the earlier one first, among them every pair whose
    gap as `_min_periodic_gap` computes it is at most `SEPARATION_TOL`.

    Each offset goes to one of ms x mt buckets by its coordinates (s, t) in
    the reduced basis, taken cyclically, and only offsets in the same or
    adjacent buckets are paired.  A pair whose computed gap is at most
    the tolerance lies within r of a lattice copy, where r adds to the
    tolerance 1e-12 of the magnitudes the gap is computed from, far above
    its rounding.  Across a distance r, s changes by at most r|v|/det and
    t by at most r|u|/det, and a bucket is at least twice that wide, which
    also covers the rounding of each offset's own coordinates.  So the
    least gap over these pairs is that over all pairs, bit for bit,
    whenever it is within the tolerance.  Coordinates so large that the
    (s, t) of a difference could overflow give all pairs instead, so that
    the overflow error is the all-pairs loop's.
    """
    ux, uy = reduced.u
    vx, vy = reduced.v
    det = reduced.det
    m = max(abs(p.x) + abs(p.y) for p in offsets)
    # |s| and |t| of every difference stay below big / det
    big = 2.0 * m * (abs(ux) + abs(uy) + abs(vx) + abs(vy))
    if not big < 2.0**1000 * min(1.0, det):
        yield from itertools.combinations(offsets, 2)
        return
    lu, lv = reduced.lengths()
    r = SEPARATION_TOL + 1e-12 * (m + lu + lv)
    ms = max(1, int(0.5 * det / (r * lv)))
    mt = max(1, int(0.5 * det / (r * lu)))
    # the steps to the adjacent buckets, each bucket once however few
    steps_s, steps_t = (0, 1, -1)[: min(ms, 3)], (0, 1, -1)[: min(mt, 3)]
    buckets: dict[tuple[int, int], list[Point]] = {}
    for q in offsets:
        a = math.floor((q.x * vy - q.y * vx) / det * ms) % ms
        b = math.floor((q.y * ux - q.x * uy) / det * mt) % mt
        for i in steps_s:
            for j in steps_t:
                for p in buckets.get(((a + i) % ms, (b + j) % mt), ()):
                    yield p, q
        buckets.setdefault((a, b), []).append(q)


def _index_ranges(
    config: PeriodicConfig, rect: Rect, margin: float
) -> tuple[int, int, int, int]:
    """Lattice-index bounds (lo_i, hi_i, lo_j, hi_j) of the centers near `rect`.

    Every center within `margin` of `rect` is p + i*u + j*v for an offset
    p and lo_i <= i <= hi_i, lo_j <= j <= hi_j in the reduced basis (u, v).
    The bounds follow from mapping the expanded rect's corners and the
    offsets through the inverse of the reduced basis, once each, and
    subtracting; padding by one absorbs rounding.  Raises
    ValueError when those ranges are not finite, span more than
    _MAX_ENUMERATED_POINTS centers or reach an index of magnitude 2**53.
    """
    (ux, uy), (vx, vy), det = config.reduced.u, config.reduced.v, config.reduced.det
    # lattice coordinates (s, t) of the expanded rect's corners and of the
    # offsets, by the closed-form inverse of the 2x2 basis matrix; a
    # corner's less an offset's differ from those of their difference by
    # rounding alone
    s, t = [], []
    for x in (rect.xmin - margin, rect.xmax + margin):
        for y in (rect.ymin - margin, rect.ymax + margin):
            s.append((x * vy - y * vx) / det)
            t.append((y * ux - x * uy) / det)
    ps = [(p.x * vy - p.y * vx) / det for p in config.offsets]
    pt = [(p.y * ux - p.x * uy) / det for p in config.offsets]
    low_s, high_s = min(s) - max(ps), max(s) - min(ps)
    low_t, high_t = min(t) - max(pt), max(t) - min(pt)
    # the inputs too, since min and max can pass over a nan
    if not all(map(math.isfinite, (*s, *t, *ps, *pt, low_s, high_s, low_t, high_t))):
        raise ValueError("center enumeration overflows the float range")
    # exact Python ints, so no range can wrap before the budget check
    lo_i, hi_i = math.floor(low_s) - 1, math.ceil(high_s) + 1
    lo_j, hi_j = math.floor(low_t) - 1, math.ceil(high_t) + 1
    count = len(config.offsets) * (hi_i - lo_i + 1) * (hi_j - lo_j + 1)
    if count > _MAX_ENUMERATED_POINTS:
        raise ValueError(f"center enumeration needs more than {_MAX_ENUMERATED_POINTS} points")
    # from 2**53 on a float lattice coordinate has no fractional part left,
    # so no center position could be placed, and an index is no longer
    # exact in the float ranges of `_translates_array`
    if max(-lo_i, hi_i, -lo_j, hi_j) >= 2**53:
        raise ValueError("center enumeration needs lattice indices of 2**53 or more")
    return lo_i, hi_i, lo_j, hi_j


def _keep_radius(config: PeriodicConfig, margin: float) -> float:
    # a center is kept within margin plus a rounding allowance of the rect
    return margin + 1e-12 * max(1.0, margin, *config.reduced.lengths())


def _translates_array(config: PeriodicConfig, rect: Rect, margin: float) -> np.ndarray:
    """All centers within `margin` of `rect`, as an (N, 2) array.

    The columns of the array are contiguous.  Rows are offset-major, then
    by index i, then j, within the ranges of `_index_ranges`, which raises
    its ValueError here too.
    """
    lo_i, hi_i, lo_j, hi_j = _index_ranges(config, rect, margin)
    (ux, uy), (vx, vy) = config.reduced.u, config.reduced.v
    # rows x and y of the basis vectors, the rect's corners and the
    # offsets, as columns of one array
    const = np.array(
        [ux, vx, rect.xmin, rect.xmax, *[p.x for p in config.offsets]]
        + [uy, vy, rect.ymin, rect.ymax, *[p.y for p in config.offsets]]
    ).reshape(2, -1, 1)
    # rows x and y of every lattice point i*u + j*v, i-major, then of it
    # plus every offset, offset-major; the indices are exact in float64
    # below 2**53, so float ranges spare the multiplications a cast
    pts = np.arange(float(lo_i), hi_i + 1.0)[:, None] * const[:, 0:1]
    pts = pts + np.arange(float(lo_j), hi_j + 1.0) * const[:, 1:2]
    pts = (pts.reshape(2, 1, -1) + const[:, 4:]).reshape(2, -1)
    # each center less its nearest point of the rect: its x and y distance
    # outside the rect, up to sign
    gap = pts - np.minimum(np.maximum(pts, const[:, 2]), const[:, 3])
    gap *= gap
    keep = (gap[0] + gap[1] <= _keep_radius(config, margin) ** 2).nonzero()[0]
    return pts.take(keep, axis=1).T


def _translates(
    config: PeriodicConfig, rect: Rect, margin: float
) -> list[tuple[float, float]]:
    """`_translates_array`'s centers, bit for bit and in its order, as pairs.

    Plain floats for the stages that never compute with an array: each
    coordinate is (i*u + j*v) + p in the same operations as the array
    routine, so both routines keep exactly the same centers.
    """
    lo_i, hi_i, lo_j, hi_j = _index_ranges(config, rect, margin)
    ux, uy = config.reduced.u
    vx, vy = config.reduced.v
    xmin, ymin, xmax, ymax = rect.xmin, rect.ymin, rect.xmax, rect.ymax
    bound = _keep_radius(config, margin) ** 2
    lattice = [
        (i * ux + j * vx, i * uy + j * vy)
        for i in range(lo_i, hi_i + 1)
        for j in range(lo_j, hi_j + 1)
    ]
    out = []
    for p in config.offsets:
        px, py = p.x, p.y
        for lx, ly in lattice:
            x = lx + px
            y = ly + py
            # the array routine's max(xmin - x, 0, x - xmax), without a call
            gx = xmin - x if x < xmin else x - xmax if x > xmax else 0.0
            gy = ymin - y if y < ymin else y - ymax if y > ymax else 0.0
            if gx * gx + gy * gy <= bound:
                out.append((x, y))
    return out


def enumerate_centers(
    config: PeriodicConfig, rect: Rect, margin: float
) -> list[Point]:
    """Centers within `margin` of `rect`, sorted by x then y."""
    if not (math.isfinite(margin) and margin >= 0.0):
        raise ValueError(f"margin must be non-negative, got {margin}")
    return [Point(x, y) for x, y in sorted(_translates(config, rect, margin))]
