import math

import numpy as np
import pytest

from diskcover import (
    Basis,
    PeriodicConfig,
    Point,
    covering_radius,
    kth_nearest_distance,
    kth_nearest_distance_batch,
    triangle_pattern,
    verify_k_coverage,
)
from helpers import grid_covering_radii, random_config

SQUARE = PeriodicConfig(Basis((1, 0), (0, 1)), [(0, 0)], radius=1.0)


class TestKthNearestDistance:
    def test_integer_lattice_at_origin(self):
        # Distances from a lattice point: 0, then four at 1, then four at sqrt 2.
        assert kth_nearest_distance(Point(0, 0), SQUARE, 1) == pytest.approx(0.0, abs=1e-12)
        for k in (2, 3, 4, 5):
            assert kth_nearest_distance(Point(0, 0), SQUARE, k) == pytest.approx(1.0, abs=1e-12)
        for k in (6, 7, 8, 9):
            assert kth_nearest_distance(Point(0, 0), SQUARE, k) == pytest.approx(
                math.sqrt(2), abs=1e-12
            )

    def test_integer_lattice_deep_hole(self):
        p = Point(0.5, 0.5)
        for k in (1, 2, 3, 4):
            assert kth_nearest_distance(p, SQUARE, k) == pytest.approx(
                math.sqrt(0.5), abs=1e-12
            )
        assert kth_nearest_distance(p, SQUARE, 5) == pytest.approx(
            math.sqrt(2.5), abs=1e-12
        )

    def test_monotone_in_k(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            cfg = random_config(rng)
            p = Point(*rng.uniform(-2, 2, 2))
            vals = [kth_nearest_distance(p, cfg, k) for k in range(1, 7)]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(47)
        cfg = random_config(rng)
        pts = rng.uniform(-3, 3, (64, 2))
        batch = kth_nearest_distance_batch(pts, cfg, 3)
        for row, got in zip(pts, batch):
            assert got == pytest.approx(
                kth_nearest_distance(Point(row[0], row[1]), cfg, 3), abs=1e-12
            )

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            kth_nearest_distance(Point(0, 0), SQUARE, 0)
        with pytest.raises(ValueError):
            kth_nearest_distance(Point(0, 0), SQUARE, True)
        with pytest.raises(ValueError):
            kth_nearest_distance(Point(0, 0), SQUARE, 2.0)

    def test_lipschitz_pairs(self):
        rng = np.random.default_rng(53)
        cfg = random_config(rng)
        a = rng.uniform(-3, 3, (2000, 2))
        b = a + rng.normal(0, 0.3, (2000, 2))
        da = kth_nearest_distance_batch(a, cfg, 2)
        db = kth_nearest_distance_batch(b, cfg, 2)
        gaps = np.hypot(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1])
        assert np.all(np.abs(da - db) <= gaps + 1e-9)


class TestCoveringRadius:
    def test_square_lattice_first_order(self):
        r = covering_radius(SQUARE, 1, tol=1e-7)
        assert r.converged
        assert r.low <= math.sqrt(0.5) <= r.high
        assert r.high - r.low <= 1e-7

    def test_honeycomb_second_order_is_one(self):
        r = covering_radius(triangle_pattern(), 2, tol=1e-6)
        assert r.converged
        assert r.low == pytest.approx(1.0, abs=1e-6)
        assert r.high == pytest.approx(1.0, abs=1e-5)

    def test_honeycomb_third_order(self):
        r = covering_radius(triangle_pattern(), 3, tol=1e-6)
        assert 0.5 * (r.low + r.high) == pytest.approx(math.sqrt(7) / 2, abs=1e-5)

    def test_witness_attains_low(self):
        cfg = random_config(np.random.default_rng(59))
        r = covering_radius(cfg, 2, tol=1e-5)
        at_witness = kth_nearest_distance(r.witness, cfg, 2)
        assert at_witness == pytest.approx(r.low, abs=1e-12)

    def test_bounds_ordered_and_box_count_positive(self):
        r = covering_radius(SQUARE, 2, tol=1e-5)
        assert r.low <= r.high
        assert r.boxes > 0

    def test_scale_equivariance(self):
        rng = np.random.default_rng(61)
        cfg = random_config(rng)
        s = 2.375
        r1 = covering_radius(cfg, 2, tol=1e-7)
        r2 = covering_radius(cfg.scaled(s), 2, tol=s * 1e-7)
        assert r2.low == pytest.approx(s * r1.low, abs=s * 2e-7)

    def test_box_cap_yields_unconverged(self):
        # Asymmetric lattice so no box center hits the deep hole exactly
        # (the unit square converges in a handful of boxes that way).
        cfg = PeriodicConfig(Basis((1.07, 0), (0.33, 0.91)), [(0, 0)], radius=1.0)
        r = covering_radius(cfg, 2, tol=1e-12, max_boxes=50)
        assert not r.converged
        assert r.low <= r.high

    def test_agrees_with_dense_grid(self):
        rng = np.random.default_rng(67)
        for _ in range(3):
            cfg = random_config(rng)
            oracle = grid_covering_radii(cfg, (1, 2, 3))
            for k in (1, 2, 3):
                r = covering_radius(cfg, k, tol=1e-5)
                mid = 0.5 * (r.low + r.high)
                assert mid == pytest.approx(oracle[k], abs=2e-3)


class TestVerifyKCoverage:
    def test_honeycomb_statuses_by_radius(self):
        base = triangle_pattern()
        grown = PeriodicConfig(base.basis, base.offsets, radius=1.05)
        shrunk = PeriodicConfig(base.basis, base.offsets, radius=0.95)
        assert verify_k_coverage(base, 2, tol=1e-6).status == "tight"
        assert verify_k_coverage(grown, 2, tol=1e-6).status == "certified_covered"
        cert = verify_k_coverage(shrunk, 2, tol=1e-6)
        assert cert.status == "certified_uncovered"
        assert kth_nearest_distance(cert.witness, shrunk, 2) > shrunk.radius
        # A coarse enclosure that still brackets r within tol: its sampled
        # low bound 0.998 > r already proves non-coverage.
        near = PeriodicConfig(base.basis, base.offsets, radius=0.997)
        cert = verify_k_coverage(near, 2, tol=1e-2)
        assert cert.radius_low > near.radius
        assert cert.status == "certified_uncovered"
        assert kth_nearest_distance(cert.witness, near, 2) > near.radius

    def test_certificate_fields(self):
        cert = verify_k_coverage(triangle_pattern(), 2, tol=1e-6)
        assert cert.k == 2
        assert cert.radius_low <= cert.radius_high
        d = cert.to_dict()
        assert d["status"] == "tight"
        assert d["k"] == 2

    def test_undecided_when_budget_tiny(self):
        cfg = PeriodicConfig(Basis((1.07, 0), (0.33, 0.91)), [(0, 0)], radius=1.0)
        probe = covering_radius(cfg, 2, tol=1e-12, max_boxes=50)
        assert not probe.converged
        # A disk radius strictly inside the open enclosure cannot be
        # certified either way under the same budget.
        mid = 0.5 * (probe.low + probe.high)
        capped = PeriodicConfig(cfg.basis, cfg.offsets, radius=mid)
        cert = verify_k_coverage(capped, 2, tol=1e-12, max_boxes=50)
        assert cert.status == "undecided"

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            verify_k_coverage(SQUARE, 0)
