"""Planar primitives: points, circles, convex polygons.

This module's primitives use two tolerance regimes.  REP_TOL guards
representation-level degeneracies (coincident points, collinear triples,
zero determinants).  GEOM_TOL is the default for geometric coincidence
tests such as "does this intersection point equal q".  Each use scales
its tolerance by the size of the figure at hand, mostly by max(1, size),
so below scale 1 most act as absolute lengths.
"""

from __future__ import annotations

import math
import operator

REP_TOL = 1e-12
GEOM_TOL = 1e-9


def _check_tol(tol: float) -> None:
    # a caller's tolerance: positive and finite
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be positive, got {tol}")


def _check_k(k, most: int | None = None) -> int:
    # a caller's fold k: an int or numpy integer, never a bool, from 1 up
    # to most; returned as a plain int
    if not isinstance(k, bool):
        try:
            k = operator.index(k)
        except TypeError:
            pass
        else:
            if k >= 1 and (most is None or k <= most):
                return k
    wanted = "a positive integer" if most is None else f"an integer in [1, {most}]"
    raise ValueError(f"k must be {wanted}, got {k!r}")


class Record:
    """Immutable value compared, hashed and printed by the names in `_fields`.

    A subclass declares its fields once, in `_fields`, and the shared
    constructor stores them, by position or by name, straight into the
    instance dict, since assignment raises; a missing, extra or unknown
    field raises TypeError.  A subclass that validates or canonicalizes
    its fields has its own `__init__`, which stores them the same way.
    Records are equal only to records of the same class, hash as the tuple
    of their fields, and print as `Name(field=value, ...)`; anything else
    in the dict is derived and left out of all three.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self, *values, **named) -> None:
        fields = self._fields
        self.__dict__.update(zip(fields, values))
        if named or len(values) != len(fields):
            # keywords give exactly the fields after the positional ones
            if len(values) > len(fields) or set(named) != set(fields[len(values):]):
                raise TypeError(f"{type(self).__qualname__} takes the fields {fields}, got "
                                f"{len(values)} by position and {sorted(named)} by name")
            self.__dict__.update(named)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Point(Record):
    _fields = ("x", "y")

    def __init__(self, x, y) -> None:
        x, y = float(x), float(y)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"non-finite point ({x}, {y})")
        self.__dict__.update(x=x, y=y)

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


class Circle(Record):
    _fields = ("center", "radius")

    def __init__(self, center: Point, radius: float) -> None:
        if not (math.isfinite(radius) and radius > 0.0):
            raise ValueError(f"radius must be positive, got {radius}")
        self.__dict__.update(center=center, radius=radius)


class ConvexPolygon(Record):
    """Strictly convex polygon with counter-clockwise vertices.

    Construction canonicalizes the boundary: orientation is flipped to
    counter-clockwise if needed, consecutive vertices closer than REP_TOL
    (relative to the span) are fused, and collinear vertices are dropped.
    What remains must be strictly convex.  The boundary then starts at its
    least (y, x) vertex, so a cycle of vertices gives the same polygon
    whichever vertex it is listed from.
    """

    _fields = ("vertices",)

    def __init__(self, vertices) -> None:
        pts = [p if isinstance(p, Point) else Point(p[0], p[1]) for p in vertices]
        if len(pts) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        if _signed_area(pts) < 0.0:
            pts.reverse()
        span = max(
            max(p.x for p in pts) - min(p.x for p in pts),
            max(p.y for p in pts) - min(p.y for p in pts),
        )
        eps = REP_TOL * max(1.0, span)
        pts = _merge_close(pts, eps)
        pts = _drop_collinear(pts, eps * max(1.0, span))
        if len(pts) < 3:
            raise ValueError("degenerate polygon (all vertices collinear)")
        for i, b in enumerate(pts):
            a = pts[i - 1]
            c = pts[(i + 1) % len(pts)]
            if _cross(a, b, c) <= 0.0:
                raise ValueError("polygon is not strictly convex")
        start = min(range(len(pts)), key=lambda i: (pts[i].y, pts[i].x))
        self.__dict__["vertices"] = tuple(pts[start:] + pts[:start])

    @property
    def area(self) -> float:
        return _signed_area(list(self.vertices))

    def __repr__(self) -> str:
        return f"ConvexPolygon({list(self.vertices)!r})"


def _signed_area(pts: list[Point]) -> float:
    # shoelace formula; positive for counter-clockwise boundaries
    acc = 0.0
    for i, p in enumerate(pts):
        q = pts[(i + 1) % len(pts)]
        acc += p.x * q.y - q.x * p.y
    return 0.5 * acc


def _cross(a: Point, b: Point, c: Point) -> float:
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def _merge_close(pts: list[Point], eps: float) -> list[Point]:
    out: list[Point] = []
    for p in pts:
        if out and p.distance_to(out[-1]) <= eps:
            continue
        out.append(p)
    if len(out) > 1 and out[0].distance_to(out[-1]) <= eps:
        out.pop()
    return out

def _drop_collinear(pts: list[Point], eps_area: float) -> list[Point]:
    changed = True
    while changed and len(pts) > 2:
        changed = False
        out = []
        n = len(pts)
        for i, b in enumerate(pts):
            a = pts[i - 1]
            c = pts[(i + 1) % n]
            if abs(_cross(a, b, c)) <= eps_area:
                changed = True
                continue
            out.append(b)
        pts = out
    return pts


def circle_circle_intersections(c1: Circle, c2: Circle) -> list[Point]:
    """Intersection points of two circles.

    Returns [] for disjoint or nested circles, one point at tangency
    (within REP_TOL), otherwise two points sorted by x then y.  Raises
    for coincident circles, whose intersection is not a finite set.
    """
    x1, y1, r1 = c1.center.x, c1.center.y, c1.radius
    x2, y2, r2 = c2.center.x, c2.center.y, c2.radius
    d = math.hypot(x2 - x1, y2 - y1)
    eps = REP_TOL * max(1.0, r1, r2, d)
    if d <= eps and abs(r1 - r2) <= eps:
        raise ValueError("degenerate: coincident circles")
    if d > r1 + r2 + eps or d < abs(r1 - r2) - eps:
        return []
    # foot of the radical axis along the center line, then half-chord
    a = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d)
    h_sq = r1 * r1 - a * a
    h = math.sqrt(h_sq) if h_sq > 0.0 else 0.0
    ux, uy = (x2 - x1) / d, (y2 - y1) / d
    mx, my = x1 + a * ux, y1 + a * uy
    if h <= eps:
        return [Point(mx, my)]
    p = Point(mx - h * uy, my + h * ux)
    q = Point(mx + h * uy, my - h * ux)
    return sorted([p, q], key=lambda t: (t.x, t.y))


def circumcircle(a: Point, b: Point, c: Point) -> Circle:
    """Circle through three non-collinear points."""
    diam_sq = max(
        (a.x - b.x) ** 2 + (a.y - b.y) ** 2,
        (b.x - c.x) ** 2 + (b.y - c.y) ** 2,
        (c.x - a.x) ** 2 + (c.y - a.y) ** 2,
    )
    area = 0.5 * abs(_cross(a, b, c))
    if area < REP_TOL * diam_sq:
        raise ValueError("collinear points have no circumcircle")
    d = 2.0 * (a.x * (b.y - c.y) + b.x * (c.y - a.y) + c.x * (a.y - b.y))
    na, nb, nc = (
        a.x * a.x + a.y * a.y,
        b.x * b.x + b.y * b.y,
        c.x * c.x + c.y * c.y,
    )
    ux = (na * (b.y - c.y) + nb * (c.y - a.y) + nc * (a.y - b.y)) / d
    uy = (na * (c.x - b.x) + nb * (a.x - c.x) + nc * (b.x - a.x)) / d
    center = Point(ux, uy)
    return Circle(center, center.distance_to(a))


def johnson_check(q: Point, centers: tuple[Point, Point, Point], r: float) -> float:
    """Circumradius of the three pairwise second intersections.

    Given three circles of equal radius r passing through the common
    point q, each pair meets again at one more point; the circle through
    those three points has radius r as well.  Returns that circumradius
    so callers can compare it against r.
    """
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError(f"radius must be positive, got {r}")
    if len(centers) != 3:
        raise ValueError("exactly three centers required")
    scale = max(1.0, r)
    for ctr in centers:
        if abs(ctr.distance_to(q) - r) > GEOM_TOL * scale:
            raise ValueError("not concurrent: a center is not at distance r from q")
    for i in range(3):
        for j in range(i + 1, 3):
            if centers[i].distance_to(centers[j]) <= GEOM_TOL * scale:
                raise ValueError("degenerate: coincident centers")
    circles = [Circle(ctr, r) for ctr in centers]
    seconds = []
    for i in range(3):
        for j in range(i + 1, 3):
            pts = circle_circle_intersections(circles[i], circles[j])
            far = max(pts, key=lambda p: p.distance_to(q), default=None)
            if far is None or far.distance_to(q) <= GEOM_TOL * scale:
                raise ValueError("degenerate tangency: circles touch only at q")
            seconds.append(far)
    return circumcircle(*seconds).radius
