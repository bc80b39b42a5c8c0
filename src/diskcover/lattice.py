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
from dataclasses import dataclass, field

import numpy as np

from .geometry import Point

DET_TOL = 1e-12
SEPARATION_TOL = 1e-9
_MAX_REDUCTION_STEPS = 256
# lattice points one center enumeration may visit (64 MiB of float64
# pairs); only bases far too skewed for their scale ask for more
_MAX_ENUMERATED_POINTS = 2**22
# lattice shifts (i, j), |i|, |j| <= 2, for the offset-separation check
_SHIFT_I, _SHIFT_J = (
    g.ravel() for g in np.meshgrid(np.arange(-2.0, 3.0), np.arange(-2.0, 3.0), indexing="ij")
)


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
    v - mu * u can undo every step, or |u|^2 can underflow.
    """
    u = np.array(basis.u, dtype=float)
    v = np.array(basis.v, dtype=float)
    mu = 0
    # per step: the state it started from, keyed by its bits, and its mu
    seen: dict[bytes, int] = {}
    states: list[tuple[np.ndarray, np.ndarray]] = []
    mus: list[int] = []
    for step in range(_MAX_REDUCTION_STEPS):
        state = u.tobytes() + v.tobytes()
        if state in seen:
            # the remaining steps repeat a cycle: jump to the state and the
            # mu the step bound ends at, keeping the bound's parity
            first = seen[state]
            period = step - first
            u, v = states[first + (_MAX_REDUCTION_STEPS - first) % period]
            mu = mus[first + (_MAX_REDUCTION_STEPS - 1 - first) % period]
            break
        seen[state] = step
        states.append((u, v))
        if v @ v < u @ u:
            u, v = v, u
        uu = float(u @ u)
        ratio = float(u @ v) / uu if uu > 0.0 else math.inf
        if not math.isfinite(ratio):
            # |u|^2 underflowed: the basis is too skewed for float64
            raise ValueError("basis too skewed to reduce in floating point")
        mu = round(ratio)
        mus.append(mu)
        if mu == 0:
            break
        v = v - mu * u
    # a nonzero mu means the step bound was reached (or jumped to).  On a
    # reduced pair with dot(u, v) within an ulp of |u|^2 / 2 (hexagonal)
    # rounding flips mu between +1 and -1 for good; any other mu at the
    # step bound means the reduction stalled
    if abs(mu) > 1:
        raise ValueError("basis reduction did not converge")
    if u @ u > v @ v:
        u, v = v, u
    return Basis((u[0], u[1]), (v[0], v[1]))


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
    """Least distance between two offsets over the shifts of `reduced`.

    The shifts are i*u + j*v with |i|, |j| <= 2.
    """
    z = np.array([complex(p.x, p.y) for p in offsets])
    a, b = np.array(list(itertools.combinations(range(len(z)), 2))).T
    # points as complex numbers: (difference + i*u) + j*v for every
    # pair and shift, and abs() is the hypotenuse
    gap = (z[a] - z[b])[:, None] + _SHIFT_I * complex(*reduced.u) + _SHIFT_J * complex(*reduced.v)
    return float(np.abs(gap).min())


def _translates_array(config: PeriodicConfig, rect: Rect, margin: float) -> np.ndarray:
    """All centers within `margin` of `rect`, as an (N, 2) array.

    Integer ranges follow from mapping the expanded rect's corners
    through the inverse of the reduced basis; padding by one absorbs
    rounding.  Raises ValueError when those ranges are not finite or span
    more than _MAX_ENUMERATED_POINTS centers.
    """
    u = np.array(config.reduced.u)
    v = np.array(config.reduced.v)
    minv = np.linalg.inv(np.column_stack([u, v]))
    corners = np.array(
        [
            [rect.xmin - margin, rect.ymin - margin],
            [rect.xmax + margin, rect.ymin - margin],
            [rect.xmax + margin, rect.ymax + margin],
            [rect.xmin - margin, rect.ymax + margin],
        ]
    )
    offsets = np.array([[p.x, p.y] for p in config.offsets])
    shifted = corners[None, :, :] - offsets[:, None, :]
    coords = shifted.reshape(-1, 2) @ minv.T
    if not np.isfinite(coords).all():
        raise ValueError("center enumeration overflows the float range")
    # exact Python ints, so no range can wrap before the budget check
    lo = [math.floor(c) - 1 for c in coords.min(axis=0)]
    hi = [math.ceil(c) + 1 for c in coords.max(axis=0)]
    count = len(offsets) * (hi[0] - lo[0] + 1) * (hi[1] - lo[1] + 1)
    if count > _MAX_ENUMERATED_POINTS:
        raise ValueError(
            f"center enumeration needs more than {_MAX_ENUMERATED_POINTS} points"
        )
    ii, jj = np.meshgrid(
        np.arange(lo[0], hi[0] + 1), np.arange(lo[1], hi[1] + 1), indexing="ij"
    )
    lattice_pts = ii.reshape(-1, 1) * u + jj.reshape(-1, 1) * v
    pts = (lattice_pts[None, :, :] + offsets[:, None, :]).reshape(-1, 2)
    dx = np.maximum(np.maximum(rect.xmin - pts[:, 0], 0.0), pts[:, 0] - rect.xmax)
    dy = np.maximum(np.maximum(rect.ymin - pts[:, 1], 0.0), pts[:, 1] - rect.ymax)
    scale = max(1.0, margin, *config.reduced.lengths())
    keep = dx * dx + dy * dy <= (margin + 1e-12 * scale) ** 2
    return pts[keep]


def enumerate_centers(
    config: PeriodicConfig, rect: Rect, margin: float
) -> list[Point]:
    """Centers within `margin` of `rect`, sorted by x then y."""
    if not (math.isfinite(margin) and margin >= 0.0):
        raise ValueError(f"margin must be non-negative, got {margin}")
    pts = _translates_array(config, rect, margin)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    return [Point(float(x), float(y)) for x, y in pts[order]]
