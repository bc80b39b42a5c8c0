import math

import numpy as np
import pytest

from diskcover import coverage
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
from helpers import grid_covering_radii, random_config, skewed_config

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

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_box_budget_caps_the_frontier(self, k):
        # A level that would pass the budget is skipped whole, so the count
        # never overshoots it; only the root grid is evaluated regardless.
        cfg = skewed_config(np.random.default_rng(71 + k), 3)
        exact = covering_radius(cfg, k, tol=1e-10)
        assert exact.converged
        root = covering_radius(cfg, k, tol=1e-12, max_boxes=1).boxes
        assert 1 <= root <= 64
        for budget in (1, 10, 50, 100, 333, 1000, 5000, 20000):
            r = covering_radius(cfg, k, tol=1e-12, max_boxes=budget)
            assert r.boxes <= max(budget, root)
            assert r.low <= exact.high and exact.low <= r.high
            assert kth_nearest_distance(r.witness, cfg, k) == pytest.approx(r.low, abs=1e-12)

    def test_agrees_with_dense_grid(self):
        rng = np.random.default_rng(67)
        for _ in range(3):
            cfg = random_config(rng)
            oracle = grid_covering_radii(cfg, (1, 2, 3))
            for k in (1, 2, 3):
                r = covering_radius(cfg, k, tol=1e-5)
                mid = 0.5 * (r.low + r.high)
                assert mid == pytest.approx(oracle[k], abs=2e-3)


def _critical_configs():
    """Classical patterns at their critical radius: (config, k), radius 1."""
    s3 = math.sqrt(3.0)
    x = 0.7
    y = math.sqrt(1.0 - x * x) + 1.0
    return [
        (PeriodicConfig(Basis((s3, 0.0), (s3 / 2.0, 1.5)), [(0, 0), (0, 1)], 1.0), 2),
        (PeriodicConfig(Basis((1.0, 0.0), (0.0, 1.0)), [(0, 0)], 1.0), 2),
        (PeriodicConfig(Basis((1.0, 0.0), (0.0, 0.5)), [(0, 0)], 1.0), 4),
        (PeriodicConfig(Basis((2.0 * x, 0.0), (x, y)), [(0, 0), (0, 0.8 * y)], 1.0), 2),
    ]


def _moved(config: PeriodicConfig, phi: float, shift) -> PeriodicConfig:
    rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    offsets = [tuple(rot @ (p.x, p.y) + shift) for p in config.offsets]
    basis = (tuple(rot @ config.basis.u), tuple(rot @ config.basis.v))
    return PeriodicConfig(basis, offsets, config.radius)


class TestCenterPruning:
    """Pruned center sets must not change a single bit of the search."""

    @staticmethod
    def _assert_low_exact(cfg, k, tol=1e-9):
        r = covering_radius(cfg, k, tol=tol)
        # the batch query scans every center within its own reach, unpruned
        fresh = kth_nearest_distance_batch(np.array([[r.witness.x, r.witness.y]]), cfg, k)
        assert r.low == fresh[0]
        return r

    def test_low_is_unpruned_dk_at_witness_on_skewed_configs(self):
        rng = np.random.default_rng(71)
        for k in range(1, 9):
            for n in range(1, 9):
                self._assert_low_exact(skewed_config(rng, n), k)

    def test_low_is_unpruned_dk_at_witness_on_critical_cases(self):
        for cfg, k in _critical_configs():
            for moved in (cfg, _moved(cfg, 0.83, (-1.7, 2.4))):
                r = self._assert_low_exact(moved, k)
                assert r.converged
                assert r.low <= 1.0 + 1e-9 and r.high >= 1.0 - 1e-9

    @pytest.mark.parametrize(
        "cfg, k, tol, low, high, boxes",
        [
            # values recorded before centers were pruned
            (triangle_pattern(), 2, 1e-9, 0.9999999997671694, 1.000000000754986, 2754),
            (SQUARE, 3, 1e-8, 1.1180339837518933, 1.1180339890202493, 1637),
            (
                PeriodicConfig(
                    Basis((1.0, 0.0), (2.3, 0.37)), [(0, 0), (0.4, 0.1), (1.9, 0.3)], 1.0
                ),
                5,
                1e-9,
                0.49127877717591223,
                0.4912787780930263,
                14302,
            ),
        ],
    )
    def test_pinned_enclosures(self, cfg, k, tol, low, high, boxes):
        r = covering_radius(cfg, k, tol=tol)
        assert (r.low, r.high, r.boxes) == (low, high, boxes)

    def test_reach_doubling_after_pruning(self, monkeypatch):
        cfg = skewed_config(np.random.default_rng(73), 3)
        k = 4
        expected = covering_radius(cfg, k, tol=1e-9)
        init = coverage._CenterField.__init__
        dk = coverage._CenterField.dk
        first_vals = []

        def recording_dk(self, pts):
            vals = dk(self, pts)
            first_vals.append(float(vals.max()))
            return vals

        monkeypatch.setattr(coverage._CenterField, "dk", recording_dk)
        covering_radius(cfg, k, tol=1e-9)
        # start below the covering radius but above every root-grid value,
        # so the first doubling comes at a deeper level, after pruning
        start_reach = 0.5 * (first_vals[0] + expected.low)
        assert first_vals[0] < start_reach < expected.low
        calls = []
        full = []

        def short_reach_init(self, *args):
            init(self, *args)
            self.reach = start_reach
            self._rebuild()
            full.append(len(self.centers))

        def logging_dk(self, pts):
            before = (self.reach, len(self.centers))
            vals = dk(self, pts)
            calls.append((*before, self.reach, len(self.centers)))
            return vals

        monkeypatch.setattr(coverage._CenterField, "__init__", short_reach_init)
        monkeypatch.setattr(coverage._CenterField, "dk", logging_dk)
        r = covering_radius(cfg, k, tol=1e-9)
        doublings = [i for i, c in enumerate(calls) if c[2] > c[0]]
        assert doublings and doublings[0] > 0
        _, pruned, _, rebuilt = calls[doublings[0]]
        assert pruned < full[0] < rebuilt
        assert (r.low, r.high, r.witness, r.boxes, r.converged) == (
            expected.low,
            expected.high,
            expected.witness,
            expected.boxes,
            expected.converged,
        )


def _fields(r):
    return (r.low, r.high, r.witness, r.boxes, r.converged)


class TestCoveringRadiusMany:
    """The lockstep search must equal one `covering_radius` call per config."""

    @staticmethod
    def _mixed_batch(seed):
        # 1..8 offsets, twice each, and a needle-shaped cell: root grids of
        # different sizes and center sets of different widths share levels
        rng = np.random.default_rng(seed)
        needle = PeriodicConfig(Basis((1.0, 0.0), (0.3, 3.9)), [(0, 0), (0.5, 1.2)], 1.0)
        cfgs = [skewed_config(rng, n) for _ in range(2) for n in range(1, 9)]
        return cfgs[:8] + [needle, SQUARE] + cfgs[8:]

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_equals_single_search_field_by_field(self, k):
        cfgs = self._mixed_batch(80 + k)
        assert len({len(coverage._root_grid(c)[0]) for c in cfgs}) > 2
        many = coverage._covering_radius_many(cfgs, k, tol=1e-7)
        assert len(many) == len(cfgs)
        for cfg, got in zip(cfgs, many):
            assert _fields(got) == _fields(covering_radius(cfg, k, tol=1e-7))

    def test_batch_of_one_and_empty_batch(self):
        assert coverage._covering_radius_many([], 2, tol=1e-6) == []
        for cfg, k in _critical_configs():
            (got,) = coverage._covering_radius_many([cfg], k, tol=1e-9)
            assert _fields(got) == _fields(covering_radius(cfg, k, tol=1e-9))

    def test_box_budget_stops_each_config_on_its_own(self):
        cfgs = self._mixed_batch(91)
        # a budget one config spends exactly on its way to converging
        budget = covering_radius(cfgs[3], 3, tol=1e-9).boxes
        many = coverage._covering_radius_many(cfgs, 3, tol=1e-9, max_boxes=budget)
        single = [covering_radius(c, 3, tol=1e-9, max_boxes=budget) for c in cfgs]
        assert [_fields(r) for r in many] == [_fields(r) for r in single]
        assert many[3].converged and many[3].boxes == budget
        assert not all(r.converged for r in many)

    def test_kernel_blocks_stay_bounded(self, monkeypatch):
        # a small block forces many blocks per level and configs whose level
        # alone is larger than a block, which run through their own field
        chunk = 4000
        cfgs = self._mixed_batch(93)
        expected = [_fields(covering_radius(c, 4, tol=1e-8)) for c in cfgs]
        monkeypatch.setattr(coverage, "_CHUNK_ELEMENTS", chunk)
        monkeypatch.setattr(coverage, "_BATCH_ELEMENTS", chunk)
        square_sum = coverage._square_sum
        sizes = []

        def recording(dx, dy):
            sizes.append(dx.size)
            return square_sum(dx, dy)

        monkeypatch.setattr(coverage, "_square_sum", recording)
        many = coverage._covering_radius_many(cfgs, 4, tol=1e-8)
        assert [_fields(r) for r in many] == expected
        assert max(sizes) <= chunk

    def test_reach_doubling_in_one_config_of_a_batch(self, monkeypatch):
        cfgs = self._mixed_batch(95)
        target = cfgs[5]
        k = 4
        expected = [_fields(covering_radius(c, k, tol=1e-9)) for c in cfgs]
        # start below the covering radius but above every root-grid value,
        # so the doubling comes at a deeper level, after pruning
        boxes, _, rect = coverage._root_grid(target)
        root_max = float(coverage._CenterField(target, rect, k).dk(boxes).max())
        start_reach = 0.5 * (root_max + expected[5][0])
        assert root_max < start_reach < expected[5][0]
        init = coverage._CenterField.__init__
        rebuild = coverage._CenterField._rebuild
        rebuilds = []

        def short_reach_init(self, config, *args):
            init(self, config, *args)
            if config is target:
                self.reach = start_reach
                self._rebuild()

        def logging_rebuild(self):
            rebuilds.append(self.config is target)
            rebuild(self)

        monkeypatch.setattr(coverage._CenterField, "__init__", short_reach_init)
        monkeypatch.setattr(coverage._CenterField, "_rebuild", logging_rebuild)
        many = coverage._covering_radius_many(cfgs, k, tol=1e-9)
        assert [_fields(r) for r in many] == expected
        # one build per config and the shortened one, then the doublings,
        # all of the target
        doublings = rebuilds[len(cfgs) + 1 :]
        assert doublings and all(doublings)


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
