"""Periodic center sets: lattice bases, reduction, enumeration.

A configuration is a lattice spanned by two basis vectors plus a set of
translate offsets and a common disk radius.  Offsets are stored wrapped
into the half-open fundamental parallelogram {s*u + t*v : s, t in [0,1)},
so equality of configurations modulo the lattice is equality of fields.
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
    with |u| <= |v| and |dot(u, v)| <= |u|^2 / 2.  Raises ValueError when
    the reduction stalls: on extremely skewed bases the rounding of
    v - mu * u can undo every step, or |u|^2 can underflow.  Every dot
    product is x0 * y0 + x1 * y1 in plain floats, so the result does not
    depend on how a linear-algebra library rounds.  The loop ends at
    mu = 0, or at the first state that comes back two steps later, so no
    answer depends on the step bound, which only raises.  A basis that
    ends where it began is returned as it is.
    """
    (ux, uy), (vx, vy) = basis.u, basis.v
    # the states at the top of the last two steps, the older first
    older = last = None
    for _ in range(_MAX_REDUCTION_STEPS):
        uu = ux * ux + uy * uy
        vv = vx * vx + vy * vy
        if vv < uu:
            ux, uy, vx, vy, uu = vx, vy, ux, uy, vv
        state = (ux, uy, vx, vy)
        if state == older:
            # each state is a function of the one before, so the loop could
            # only cycle from here.  Rounding flips mu between +1 and -1 on
            # a pair with dot(u, v) at |u|^2 / 2 up to rounding (hexagonal);
            # any other mu means the reduction stalled
            if abs(mu) > 1:
                raise ValueError("basis reduction did not converge")
            break
        ratio = (ux * vx + uy * vy) / uu if uu > 0.0 else math.inf
        if not math.isfinite(ratio):
            # |u|^2 underflowed: the basis is too skewed for float64
            raise ValueError("basis too skewed to reduce in floating point")
        mu = round(ratio)
        if mu == 0:
            break
        vx, vy = vx - mu * ux, vy - mu * uy
        older, last = last, state
    else:
        raise ValueError("basis reduction did not converge")
    if state == (*basis.u, *basis.v):
        return basis
    return Basis((ux, uy), (vx, vy))


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
            s = (p.x * vy - p.y * vx) / det
            t = (p.y * ux - p.x * uy) / det
            if not (math.isfinite(s) and math.isfinite(t)):
                raise ValueError("offset overflows the float range in lattice coordinates")
            s -= math.floor(s)
            t -= math.floor(t)
            if s >= 1.0:
                s = 0.0
            if t >= 1.0:
                t = 0.0
            wrapped.append(Point(s * ux + t * vx, s * uy + t * vy))
        offsets = tuple(wrapped)
        reduced = reduce_basis(basis)
        if len(offsets) > 1 and _min_periodic_gap(offsets, reduced) <= SEPARATION_TOL:
            raise ValueError("offsets coincide modulo the lattice")
        self.__dict__.update(basis=basis, offsets=offsets, radius=radius, reduced=reduced)

    @property
    def det(self) -> float:
        return self.basis.det

    def scaled(self, factor: float) -> "PeriodicConfig":
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
    """Least distance between two offsets modulo the lattice of `reduced`.

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
    """
    ux, uy = reduced.u
    vx, vy = reduced.v
    wx, wy = ux + vx, uy + vy
    det = reduced.det
    best = math.inf
    for p, q in itertools.combinations(offsets, 2):
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
