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
import struct
from dataclasses import dataclass, field

from ._lazy import lazy_numpy
from .geometry import Point

np = lazy_numpy()

DET_TOL = 1e-12
SEPARATION_TOL = 1e-9
_MAX_REDUCTION_STEPS = 256
# lattice points one center enumeration may visit (64 MiB of float64
# pairs); only bases far too skewed for their scale ask for more
_MAX_ENUMERATED_POINTS = 2**22
# the bits of a reduction state (u, v), which key its cycle detection
_STATE_BITS = struct.Struct("4d")


class ConfigFormatError(ValueError):
    """Raised when a serialized configuration cannot be parsed."""


@dataclass(frozen=True)
class Basis:
    u: tuple[float, float]
    v: tuple[float, float]

    def __post_init__(self) -> None:
        u = (float(self.u[0]), float(self.u[1]))
        v = (float(self.v[0]), float(self.v[1]))
        if not all(math.isfinite(t) for t in (*u, *v)):
            raise ValueError("basis vectors must be finite")
        det = u[0] * v[1] - u[1] * v[0]
        squares = (u[0] * u[0] + u[1] * u[1], v[0] * v[0] + v[1] * v[1])
        if not all(math.isfinite(t) for t in (det, *squares)):
            raise ValueError("basis overflows the float range")
        if det < 0.0:
            # -v spans the same lattice; keep orientation positive
            v = (-v[0], -v[1])
            det = -det
        if det <= DET_TOL:
            raise ValueError("degenerate lattice")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def det(self) -> float:
        return self.u[0] * self.v[1] - self.u[1] * self.v[0]

    def lengths(self) -> tuple[float, float]:
        return (math.hypot(*self.u), math.hypot(*self.v))


def reduce_basis(basis: Basis) -> Basis:
    """Lagrange-Gauss reduction of a planar basis.

    The reduced basis spans the same lattice and the same determinant,
    with |u| <= |v| and |dot(u, v)| <= |u|^2 / 2.  Raises ValueError when
    the reduction stalls: on extremely skewed bases the rounding of
    v - mu * u can undo every step, or |u|^2 can underflow.  Every dot
    product is x0 * y0 + x1 * y1 in plain floats, so the result does not
    depend on how a linear-algebra library rounds.
    """
    (ux, uy), (vx, vy) = basis.u, basis.v
    mu = 0
    # per step: the state it started from, keyed by its bits, and its mu
    seen: dict[bytes, int] = {}
    states: list[tuple[float, float, float, float]] = []
    mus: list[int] = []
    for step in range(_MAX_REDUCTION_STEPS):
        state = _STATE_BITS.pack(ux, uy, vx, vy)
        if state in seen:
            # the remaining steps repeat a cycle: jump to the state and the
            # mu the step bound ends at, keeping the bound's parity
            first = seen[state]
            period = step - first
            ux, uy, vx, vy = states[first + (_MAX_REDUCTION_STEPS - first) % period]
            mu = mus[first + (_MAX_REDUCTION_STEPS - 1 - first) % period]
            break
        seen[state] = step
        states.append((ux, uy, vx, vy))
        uu = ux * ux + uy * uy
        vv = vx * vx + vy * vy
        if vv < uu:
            ux, uy, vx, vy, uu = vx, vy, ux, uy, vv
        ratio = (ux * vx + uy * vy) / uu if uu > 0.0 else math.inf
        if not math.isfinite(ratio):
            # |u|^2 underflowed: the basis is too skewed for float64
            raise ValueError("basis too skewed to reduce in floating point")
        mu = round(ratio)
        mus.append(mu)
        if mu == 0:
            break
        vx, vy = vx - mu * ux, vy - mu * uy
    # a nonzero mu means the step bound was reached (or jumped to).  On a
    # reduced pair with dot(u, v) within an ulp of |u|^2 / 2 (hexagonal)
    # rounding flips mu between +1 and -1 for good; any other mu at the
    # step bound means the reduction stalled
    if abs(mu) > 1:
        raise ValueError("basis reduction did not converge")
    if ux * ux + uy * uy > vx * vx + vy * vy:
        ux, uy, vx, vy = vx, vy, ux, uy
    return Basis((ux, uy), (vx, vy))


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle; degenerate (point or segment) allowed."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        if not all(
            math.isfinite(t) for t in (self.xmin, self.ymin, self.xmax, self.ymax)
        ):
            raise ValueError("rect bounds must be finite")
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise ValueError("rect has negative extent")

    def distance_to(self, x: float, y: float) -> float:
        dx = max(self.xmin - x, 0.0, x - self.xmax)
        dy = max(self.ymin - y, 0.0, y - self.ymax)
        return math.hypot(dx, dy)


@dataclass(frozen=True)
class PeriodicConfig:
    basis: Basis
    offsets: tuple[Point, ...]
    radius: float
    # Lagrange-Gauss reduction of `basis`, derived once per configuration
    reduced: Basis = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.basis, Basis):
            u, v = self.basis
            object.__setattr__(self, "basis", Basis(tuple(u), tuple(v)))
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError(f"radius must be positive, got {self.radius}")
        offs = tuple(
            p if isinstance(p, Point) else Point(p[0], p[1]) for p in self.offsets
        )
        if not offs:
            raise ValueError("at least one offset required")
        offs = tuple(self._wrap(p) for p in offs)
        object.__setattr__(self, "offsets", offs)
        object.__setattr__(self, "reduced", reduce_basis(self.basis))
        if len(offs) > 1 and _min_periodic_gap(offs, self.reduced) <= SEPARATION_TOL:
            raise ValueError("offsets coincide modulo the lattice")

    def _wrap(self, p: Point) -> Point:
        ux, uy = self.basis.u
        vx, vy = self.basis.v
        det = self.basis.det
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
        return Point(s * ux + t * vx, s * uy + t * vy)

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

        def pair(name: str) -> tuple[float, float]:
            val = data[name]
            if not (isinstance(val, (list, tuple)) and len(val) == 2):
                raise ConfigFormatError(f"field {name!r} must be a pair of numbers")
            try:
                return (float(val[0]), float(val[1]))
            except (TypeError, ValueError) as exc:
                raise ConfigFormatError(f"field {name!r} must be numeric") from exc

        offsets = data["offsets"]
        if not isinstance(offsets, (list, tuple)) or not offsets:
            raise ConfigFormatError("field 'offsets' must be a non-empty list of pairs")
        pts = []
        for entry in offsets:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
                raise ConfigFormatError("each offset must be a pair of numbers")
            try:
                pts.append(Point(float(entry[0]), float(entry[1])))
            except (TypeError, ValueError) as exc:
                raise ConfigFormatError("each offset must be numeric") from exc
        try:
            radius = float(data["radius"])
        except (TypeError, ValueError) as exc:
            raise ConfigFormatError("field 'radius' must be numeric") from exc
        try:
            return cls(Basis(pair("u"), pair("v")), tuple(pts), radius)
        except ConfigFormatError:
            raise
        except ValueError as exc:
            raise ConfigFormatError(str(exc)) from exc

    @classmethod
    def from_json(cls, text: str) -> "PeriodicConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigFormatError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(data)


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
    The bounds follow from mapping the expanded rect's corners through the
    inverse of the reduced basis; padding by one absorbs rounding.  Raises
    ValueError when those ranges are not finite, span more than
    _MAX_ENUMERATED_POINTS centers or reach an index of magnitude 2**53.
    """
    ux, uy = config.reduced.u
    vx, vy = config.reduced.v
    det = config.reduced.det
    # lattice coordinates (s, t) of each corner of the expanded rect minus
    # each offset, by the closed-form inverse of the 2x2 basis matrix
    s, t = [], []
    for p in config.offsets:
        for x in (rect.xmin - margin - p.x, rect.xmax + margin - p.x):
            for y in (rect.ymin - margin - p.y, rect.ymax + margin - p.y):
                s.append((x * vy - y * vx) / det)
                t.append((y * ux - x * uy) / det)
    if not all(map(math.isfinite, s + t)):
        raise ValueError("center enumeration overflows the float range")
    # exact Python ints, so no range can wrap before the budget check
    lo_i, hi_i = math.floor(min(s)) - 1, math.ceil(max(s)) + 1
    lo_j, hi_j = math.floor(min(t)) - 1, math.ceil(max(t)) + 1
    count = len(config.offsets) * (hi_i - lo_i + 1) * (hi_j - lo_j + 1)
    if count > _MAX_ENUMERATED_POINTS:
        raise ValueError(
            f"center enumeration needs more than {_MAX_ENUMERATED_POINTS} points"
        )
    # from 2**53 on a float lattice coordinate has no fractional part left,
    # so no center position could be placed; np.arange would also leave int64
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
    ux, uy = config.reduced.u
    vx, vy = config.reduced.v
    ox = np.array([p.x for p in config.offsets])
    oy = np.array([p.y for p in config.offsets])
    ii = np.arange(lo_i, hi_i + 1)[:, None]
    jj = np.arange(lo_j, hi_j + 1)
    # rows x and y of every offset plus every lattice point i*u + j*v,
    # offset-major, then i, then j
    pts = np.empty((2, len(ox), (hi_i - lo_i + 1) * (hi_j - lo_j + 1)))
    np.add((ii * ux + jj * vx).reshape(1, -1), ox[:, None], out=pts[0])
    np.add((ii * uy + jj * vy).reshape(1, -1), oy[:, None], out=pts[1])
    pts = pts.reshape(2, -1)
    gx = np.maximum(np.maximum(rect.xmin - pts[0], 0.0), pts[0] - rect.xmax)
    gy = np.maximum(np.maximum(rect.ymin - pts[1], 0.0), pts[1] - rect.ymax)
    keep = gx * gx + gy * gy <= _keep_radius(config, margin) ** 2
    return pts[:, keep].T


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
