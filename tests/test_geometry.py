import math

import numpy as np
import pytest

from diskcover import (
    Circle,
    ConvexPolygon,
    Point,
    circle_circle_intersections,
    circumcircle,
    johnson_check,
)


class TestPoint:
    def test_coerces_to_float(self):
        p = Point(np.float64(1.5), 2)
        assert type(p.x) is float and type(p.y) is float
        assert p.as_tuple() == (1.5, 2.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Point(math.nan, 0.0)
        with pytest.raises(ValueError):
            Point(0.0, math.inf)

    def test_distance(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == 5.0


class TestCircle:
    def test_requires_positive_radius(self):
        with pytest.raises(ValueError):
            Circle(Point(0, 0), 0.0)
        with pytest.raises(ValueError):
            Circle(Point(0, 0), -1.0)


class TestConvexPolygon:
    def test_canonical_ccw(self):
        cw = ConvexPolygon([(0, 0), (0, 1), (1, 1), (1, 0)])
        ccw = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert cw.area == pytest.approx(1.0, abs=1e-15)
        for poly in (cw, ccw):
            # Counter-clockwise: positive shoelace sum regardless of input order.
            verts = poly.vertices
            signed = sum(
                verts[i].x * verts[(i + 1) % 4].y - verts[(i + 1) % 4].x * verts[i].y
                for i in range(4)
            )
            assert signed > 0
        assert {p.as_tuple() for p in cw.vertices} == {p.as_tuple() for p in ccw.vertices}

    def test_drops_collinear_and_duplicate_vertices(self):
        poly = ConvexPolygon([(0, 0), (0.5, 0), (1, 0), (1, 1), (1, 1), (0, 1)])
        assert len(poly.vertices) == 4

    def test_rejects_nonconvex(self):
        with pytest.raises(ValueError, match="convex"):
            ConvexPolygon([(0, 0), (2, 0), (1, 0.2), (2, 2), (0, 2)])

    def test_rejects_too_few_vertices(self):
        with pytest.raises(ValueError):
            ConvexPolygon([(0, 0), (1, 0)])

    def test_area_triangle(self):
        poly = ConvexPolygon([(0, 0), (2, 0), (0, 3)])
        assert poly.area == pytest.approx(3.0, abs=1e-15)


class TestCircleIntersections:
    def test_two_points_sorted(self):
        pts = circle_circle_intersections(Circle(Point(0, 0), 1), Circle(Point(1, 0), 1))
        assert len(pts) == 2
        assert pts[0].as_tuple() == pytest.approx((0.5, -math.sqrt(3) / 2))
        assert pts[1].as_tuple() == pytest.approx((0.5, math.sqrt(3) / 2))
        assert (pts[0].x, pts[0].y) <= (pts[1].x, pts[1].y)

    def test_external_tangency_single_point(self):
        pts = circle_circle_intersections(Circle(Point(0, 0), 1), Circle(Point(2, 0), 1))
        assert len(pts) == 1
        assert pts[0].as_tuple() == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_disjoint_and_nested_empty(self):
        assert circle_circle_intersections(Circle(Point(0, 0), 1), Circle(Point(5, 0), 1)) == []
        assert circle_circle_intersections(Circle(Point(0, 0), 3), Circle(Point(0.5, 0), 1)) == []

    def test_coincident_rejected(self):
        with pytest.raises(ValueError, match="coincident"):
            circle_circle_intersections(Circle(Point(0, 0), 1), Circle(Point(0, 0), 1))

    def test_random_pairs_lie_on_both_circles(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            c0 = Circle(Point(*rng.uniform(-5, 5, 2)), float(rng.uniform(0.2, 4)))
            c1 = Circle(Point(*rng.uniform(-5, 5, 2)), float(rng.uniform(0.2, 4)))
            if c0.center.distance_to(c1.center) < 1e-9:
                continue
            for p in circle_circle_intersections(c0, c1):
                assert p.distance_to(c0.center) == pytest.approx(c0.radius, abs=1e-9)
                assert p.distance_to(c1.center) == pytest.approx(c1.radius, abs=1e-9)


class TestCircumcircle:
    def test_equilateral_unit(self):
        s = math.sqrt(3)
        c = circumcircle(Point(0, 0), Point(s, 0), Point(s / 2, 1.5))
        assert c.radius == pytest.approx(1.0, abs=1e-12)
        assert c.center.as_tuple() == pytest.approx((s / 2, 0.5), abs=1e-12)

    def test_right_triangle_hypotenuse_diameter(self):
        c = circumcircle(Point(0, 0), Point(4, 0), Point(0, 3))
        assert c.radius == pytest.approx(2.5, abs=1e-12)
        assert c.center.as_tuple() == pytest.approx((2.0, 1.5), abs=1e-12)

    def test_collinear_rejected(self):
        with pytest.raises(ValueError, match="collinear"):
            circumcircle(Point(0, 0), Point(1, 1), Point(2, 2))

    def test_random_triples_equidistant(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            pts = [Point(*rng.uniform(-10, 10, 2)) for _ in range(3)]
            area = abs(
                (pts[1].x - pts[0].x) * (pts[2].y - pts[0].y)
                - (pts[2].x - pts[0].x) * (pts[1].y - pts[0].y)
            )
            if area < 1e-3:
                continue
            c = circumcircle(*pts)
            for p in pts:
                assert p.distance_to(c.center) == pytest.approx(c.radius, rel=1e-10)


def _concurrent_triple(rng: np.random.Generator) -> tuple[Point, list[Point], float]:
    """Three circles of radius r through q, pairwise well separated."""
    r = float(rng.uniform(0.1, 10.0))
    q = Point(*rng.uniform(-5, 5, 2))
    while True:
        angles = np.sort(rng.uniform(0.0, 2 * math.pi, 3))
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * math.pi]]))
        if gaps.min() >= math.radians(5.0):
            break
    centers = [Point(q.x + r * math.cos(a), q.y + r * math.sin(a)) for a in angles]
    return q, centers, r


class TestJohnsonCheck:
    def test_returns_common_radius(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            q, centers, r = _concurrent_triple(rng)
            assert johnson_check(q, centers, r) == pytest.approx(r, rel=1e-9)

    def test_rejects_non_concurrent(self):
        q = Point(0, 0)
        centers = [Point(1, 0), Point(0, 1), Point(-1.5, 0)]
        with pytest.raises(ValueError, match="concurrent"):
            johnson_check(q, centers, 1.0)

    def test_rejects_coincident_centers(self):
        q = Point(0, 0)
        centers = [Point(1, 0), Point(1, 0), Point(0, 1)]
        with pytest.raises(ValueError, match="coincident"):
            johnson_check(q, centers, 1.0)

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            johnson_check(Point(0, 0), [Point(1, 0), Point(0, 1)], 1.0)
