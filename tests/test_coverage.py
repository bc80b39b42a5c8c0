import hashlib
import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from diskcover import coverage
from diskcover.coverage import DEFAULT_MAX_BOXES
from diskcover.lattice import Rect, _translates_array
from diskcover import (
    Basis,
    PeriodicConfig,
    Point,
    covering_radius,
    enumerate_centers,
    kth_nearest_distance,
    kth_nearest_distance_batch,
    triangle_pattern,
    verify_k_coverage,
)
from helpers import (
    child_env,
    circumcenter_covering_radius,
    exact_lattice_covering_radius_squared,
    finish_reference,
    grid_covering_radii,
    optimizer_start_configs,
    random_config,
    root_grid_reference,
    skewed_config,
)

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

    def test_batch_of_no_points(self):
        out = kth_nearest_distance_batch(np.empty((0, 2)), SQUARE, 2)
        assert out.shape == (0,) and out.dtype == np.float64
        with pytest.raises(ValueError, match="points must be"):
            kth_nearest_distance_batch(np.empty((0, 3)), SQUARE, 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_batch_rejects_non_finite_points(self, bad):
        pts = np.array([[0.5, 0.5], [0.25, bad]])
        with pytest.raises(ValueError, match="points must be finite"):
            kth_nearest_distance_batch(pts, SQUARE, 2)

    def test_far_apart_points(self):
        # each group of points gets its own center field, so two points
        # thousands of cells apart need no enumeration between them
        pts = np.array([[0.5, 0.5], [3000.5, 3000.5]])
        assert kth_nearest_distance_batch(pts, SQUARE, 1).tolist() == [math.sqrt(0.5)] * 2

    @pytest.mark.parametrize("x", [1e300, -1e300, 2.0**53, -(2.0**53)])
    def test_far_query_point_raises_value_error(self, x):
        # lattice indices of 2**53 or more are rejected before any numpy
        # range is built from them
        match = "lattice indices of 2\\*\\*53"
        with pytest.raises(ValueError, match=match):
            kth_nearest_distance(Point(x, 0.5), SQUARE, 1)
        with pytest.raises(ValueError, match=match):
            kth_nearest_distance_batch(np.array([[0.5, 0.5], [x, 0.5]]), SQUARE, 1)
        with pytest.raises(ValueError, match=match):
            enumerate_centers(SQUARE, Rect(0.5, x, 0.5, x), 1.0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_batch_equals_one_point_calls_bit_for_bit(self, k):
        rng = np.random.default_rng(113 + k)
        cfg = skewed_config(rng, 3)
        # points spread over +-1e4, a cluster sharing a few cells, and a
        # repeated point
        pts = np.vstack(
            (rng.uniform(-1e4, 1e4, (60, 2)), rng.uniform(-2.0, 2.0, (60, 2)), [[7.25, -3.5]] * 3)
        )
        batch = kth_nearest_distance_batch(pts, cfg, k)
        single = [kth_nearest_distance(Point(x, y), cfg, k) for x, y in pts]
        assert batch.tolist() == single

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

    @pytest.mark.parametrize("m", range(-10, 151, 10))
    def test_power_of_two_scale_equivariance_is_exact(self, m):
        # a power of two scales every operation of the search exactly, so
        # the search at 2^m is the unit search, bit for bit, times 2^m
        rng = np.random.default_rng(67)
        configs = [triangle_pattern(), SQUARE, *(skewed_config(rng, n) for n in (1, 2, 3, 5))]
        configs += [random_config(rng) for _ in range(4)]
        f = 2.0**m
        for n, cfg in enumerate(configs):
            k, tol = 1 + n % 4, (1e-6, 1e-9)[n % 2]
            unit, scaled = covering_radius(cfg, k, tol), covering_radius(cfg.scaled(f), k, f * tol)
            assert (scaled.low, scaled.high, scaled.witness.x, scaled.witness.y) == (
                f * unit.low, f * unit.high, f * unit.witness.x, f * unit.witness.y
            )
            assert (scaled.boxes, scaled.converged) == (unit.boxes, unit.converged)
            status = verify_k_coverage(cfg, k, tol).status
            assert verify_k_coverage(cfg.scaled(f), k, f * tol).status == status

    @pytest.mark.parametrize(
        "m", [0, pytest.param(200, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 13"))]
    )
    def test_honeycomb_below_its_radius_is_uncovered_at_any_scale(self, m):
        # the honeycomb's two-fold covering radius is 1; at 2^200 the
        # circumradius bound of the finish overflows, and the search
        # certifies coverage by disks of radius 0.95
        unit = triangle_pattern()
        cfg = PeriodicConfig(unit.basis, unit.offsets, 0.95).scaled(2.0**m)
        assert verify_k_coverage(cfg, 2, 1e-6 * 2.0**m).status == "certified_uncovered"

    def test_box_cap_yields_unconverged(self):
        # Asymmetric lattice so no box center hits the deep hole exactly
        # (the unit square converges in a handful of boxes that way).  A
        # budget of 30 stops the search before its finish, which converges
        # in 43 boxes
        cfg = PeriodicConfig(Basis((1.07, 0), (0.33, 0.91)), [(0, 0)], radius=1.0)
        r = covering_radius(cfg, 2, tol=1e-12, max_boxes=30)
        assert not r.converged
        assert r.low <= r.high
        assert r.boxes <= 30

    @pytest.mark.parametrize(
        "basis, ks, exact",
        [
            # the maximum sits on 12 co-circular centers: at sqrt(12.5) from
            # the square lattice's deep hole, at sqrt(7) from a point of the
            # hexagonal one
            (Basis((1, 0), (0, 1)), range(33, 38), math.sqrt(12.5)),
            (Basis((1, 0), (0.5, math.sqrt(3) / 2)), range(20, 25), math.sqrt(7)),
        ],
        ids=["square", "hexagonal"],
    )
    def test_converges_at_a_level_with_no_finish(self, monkeypatch, basis, ks, exact):
        # more co-circular centers than _FINISH_CAP keep every ring from the
        # finish, so the search converges on the level bound alone
        finishes = []
        monkeypatch.setattr(
            coverage, "_finish_candidates", lambda *args: finishes.append(args)
        )
        cfg = PeriodicConfig(basis, [(0, 0)], radius=1.0)
        for k in ks:
            r = covering_radius(cfg, k, tol=1e-6)
            assert r.converged
            assert r.low <= exact <= r.high
        assert finishes == []

    def test_finish_candidates_count_in_the_budget(self):
        # the finish's circumcenters are counted as boxes: a budget one
        # short of the converged count skips the finish whole
        cfg = PeriodicConfig(Basis((1.07, 0), (0.33, 0.91)), [(0, 0)], radius=1.0)
        full = covering_radius(cfg, 2, tol=1e-12)
        assert full.converged
        assert covering_radius(cfg, 2, tol=1e-12, max_boxes=full.boxes) == full
        cut = covering_radius(cfg, 2, tol=1e-12, max_boxes=full.boxes - 1)
        assert not cut.converged
        assert cut.boxes < full.boxes
        assert cut.low <= full.high and full.low <= cut.high

    def test_finish_in_blocks_of_one_box(self, monkeypatch):
        # the finish solves its triples in blocks of boxes: one box at a
        # time it solves the same triangles and gives the same enclosures,
        # converged and cut short by the budget alike
        cfg = PeriodicConfig(Basis((1.07, 0), (0.33, 0.91)), [(0, 0)], radius=1.0)
        full = covering_radius(cfg, 2, tol=1e-12)
        cut = covering_radius(cfg, 2, tol=1e-12, max_boxes=full.boxes - 1)
        circumcenters = coverage._circumcenters
        solved = []

        def recording(tri):
            solved.append(tri.shape[2])
            return circumcenters(tri)

        monkeypatch.setattr(coverage, "_circumcenters", recording)
        assert covering_radius(cfg, 2, tol=1e-12) == full
        (whole,) = solved
        monkeypatch.setattr(coverage, "_FINISH_BOXES", 1)
        solved.clear()
        assert covering_radius(cfg, 2, tol=1e-12) == full
        assert len(solved) > 1 and sum(solved) == whole
        assert covering_radius(cfg, 2, tol=1e-12, max_boxes=full.boxes - 1) == cut
        assert not cut.converged

    def test_finish_block_constants(self):
        # every box of a finish block solves at most C(_FINISH_CAP, 3)
        # triangles of 6 coordinates each, so a block's vertices stay within
        # one kernel block; _triples holds each triple once, ascending
        cap, boxes = coverage._FINISH_CAP, coverage._FINISH_BOXES
        assert 6 * math.comb(cap, 3) * boxes <= coverage._CHUNK_ELEMENTS
        triples, last = coverage._triples()
        assert triples.shape == (3, math.comb(cap, 3))
        assert len({tuple(t) for t in triples.T.tolist()}) == math.comb(cap, 3)
        assert (triples[0] < triples[1]).all() and (triples[1] < triples[2]).all()
        assert (last == triples[2]).all() and last.max() == cap - 1

    def test_finish_stops_at_the_block_past_the_budget(self, monkeypatch):
        # one box per block, the finish stops at the block whose kept points
        # pass the remaining budget of 6, 11 or 18 boxes and solves none of
        # the 42 triangles after it; the search then stops where it did
        # when every block was solved, with the enclosure recorded then.
        # At 42 boxes the last block is the one that passes.  Before the
        # finish ring was bounded below by low - diag and _FINISH_CAP went
        # from 6 to 8, the counts were 16, 34 and 45
        cfg = PeriodicConfig(Basis((1.07, 0), (0.33, 0.91)), [(0, 0)], radius=1.0)
        circumcenters = coverage._circumcenters
        solved = []

        def recording(tri):
            solved.append(tri.shape[2])
            return circumcenters(tri)

        monkeypatch.setattr(coverage, "_circumcenters", recording)
        monkeypatch.setattr(coverage, "_FINISH_BOXES", 1)
        cut = (0.8950366612602946, 1.0559034539802619, Point(0.40874999999999995, 0.79625))
        for max_boxes, triangles in ((30, 16), (35, 31), (42, 42)):
            solved.clear()
            r = covering_radius(cfg, 2, tol=1e-12, max_boxes=max_boxes)
            assert sum(solved) == triangles
            assert (r.low, r.high, r.witness, r.boxes, r.converged) == (*cut, 24, False)

    @pytest.mark.parametrize("tol", [1e-15, 1e-16])
    def test_rounding_floor_is_not_converged(self, tol, monkeypatch):
        # below the rounding floor of its bounds the finish stops with its
        # own enclosure, unconverged; the true radius 1 stays inside it
        finish = coverage._finish_candidates
        tried = []

        def recording_finish(*args):
            pts, error = finish(*args)
            tried.append((pts.T, error))
            return pts, error

        monkeypatch.setattr(coverage, "_finish_candidates", recording_finish)
        cfg = triangle_pattern()
        r = covering_radius(cfg, 2, tol=tol)
        assert not r.converged
        assert r.low <= 1.0 <= r.high
        assert r.low <= 1.0 + 1e-14
        _, _, rect = coverage._root_grid(cfg)
        e_eval = coverage._CenterField(cfg, rect, 2).eval_error
        pts, error = tried[-1]
        at_witness = (pts[:, 0] == r.witness.x) & (pts[:, 1] == r.witness.y)
        assert at_witness.any()
        assert r.high - r.low >= error[at_witness].min() + 2.0 * e_eval

    def test_ill_conditioned_finish_refines(self, monkeypatch):
        # a finish whose circumcenters cannot resolve tol runs one more
        # level and tries again; one that never narrows stops unconverged
        cfg = skewed_config(np.random.default_rng(131), 3)
        plain = covering_radius(cfg, 2, tol=1e-9)
        circumcenters = coverage._circumcenters
        calls = []

        def blurred(*args, always):
            q, error, radius = circumcenters(*args)
            calls.append(q.shape[1])
            if always or len(calls) == 1:
                error = np.maximum(error, 1e-3)
            return q, error, radius

        monkeypatch.setattr(coverage, "_circumcenters", lambda *a: blurred(*a, always=False))
        once = covering_radius(cfg, 2, tol=1e-9)
        assert len(calls) == 2 and once.converged
        assert once.boxes > plain.boxes
        assert abs(once.low - plain.low) <= 1e-9 and abs(once.high - plain.high) <= 1e-9
        calls.clear()
        monkeypatch.setattr(coverage, "_circumcenters", lambda *a: blurred(*a, always=True))
        stuck = covering_radius(cfg, 2, tol=1e-9)
        assert len(calls) == 2 and not stuck.converged
        assert stuck.low <= plain.high and plain.low <= stuck.high

    def test_circumcenter_error_bound(self, monkeypatch):
        # |q - v| <= e_q against the exact rational circumcenter v of the
        # float vertices, for the finish's own triangles on skewed configs
        # and for constructed near-collinear and near-coincident ones; the
        # circumradius bound never exceeds the exact circumradius
        circumcenters = coverage._circumcenters
        triangles = []

        def recording(tri):
            # as rows ax, ay, bx, by, cx, cy
            triangles.append(tri.transpose(1, 0, 2).reshape(6, -1))
            return circumcenters(tri)

        monkeypatch.setattr(coverage, "_circumcenters", recording)
        rng = np.random.default_rng(137)
        for k in range(1, 7):
            for n in (1, 3, 6):
                covering_radius(skewed_config(rng, n), k, tol=1e-9)
        monkeypatch.undo()
        built = []
        for _ in range(40):
            a = rng.uniform(-3.0, 3.0, 2)
            u = rng.normal(size=2)
            u /= np.hypot(*u)
            side = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
            normal = np.array([-u[1], u[0]])
            for t in (1e-3, 1e-8, 1e-13, 1e-16):
                # c nearly on the line through a and b
                built.append((a, a + side * u, a + 2.0 * side * u + t * side * normal))
                # b nearly on top of a
                built.append((a, a + t * side * u, a + side * normal))
        triangles.append(np.array(built).transpose(1, 2, 0).reshape(6, -1))
        checked = 0
        for tri in triangles:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                (qx, qy), error, radius = circumcenters(tri.reshape(3, 2, -1).transpose(1, 0, 2))
            for i in range(tri.shape[1]):
                ax, ay, bx, by, cx, cy = (Fraction(float(value)) for value in tri[:, i])
                bx, by, cx, cy = bx - ax, by - ay, cx - ax, cy - ay
                det = bx * cy - by * cx
                if det == 0:
                    # collinear: no circumcenter, any radius bound holds
                    continue
                bb, cc = bx * bx + by * by, cx * cx + cy * cy
                vx = (cy * bb - by * cc) / (2 * det)
                vy = (bx * cc - cx * bb) / (2 * det)
                assert Fraction(float(radius[i])) ** 2 <= vx * vx + vy * vy
                if error[i] < math.inf:
                    gap = (Fraction(float(qx[i])) - ax - vx) ** 2
                    gap += (Fraction(float(qy[i])) - ay - vy) ** 2
                    assert gap <= Fraction(float(error[i])) ** 2
                    checked += 1
        assert checked > 1000

    def test_finish_matches_brute_force_reference(self, monkeypatch):
        # every finish of the optimizer's start searches and of skewed
        # configs at k = 1..8, recounted box by box from the unpruned field
        # and solved triple by triple in plain floats, bit for bit and in
        # the same order
        ring = coverage._CenterField.ring
        finish = coverage._finish_candidates
        levels = []

        def recording_ring(self, cols, kept, inner, outer):
            found = ring(self, cols, kept, inner, outer)
            if found is not None:
                levels.append([cols.take(kept, axis=1).T.tolist(), inner.tolist()])
            return found

        def recording_finish(boxes, half, outer, pad, found, budget):
            pts, error = finish(boxes, half, outer, pad, found, budget)
            levels[-1] += [outer.tolist(), half, pad, list(zip(*pts.tolist(), error.tolist()))]
            return pts, error

        monkeypatch.setattr(coverage._CenterField, "ring", recording_ring)
        monkeypatch.setattr(coverage, "_finish_candidates", recording_finish)
        rng = np.random.default_rng(139)
        cases = [(cfg, k, 1e-4) for cfg, k in optimizer_start_configs()]
        cases += [(skewed_config(rng, n), k, 1e-9) for k in range(1, 9) for n in (1, 3, 6)]
        finishes = candidates = 0
        for cfg, k, tol in cases:
            levels.clear()
            covering_radius(cfg, k, tol=tol)
            _, root_half, rect = coverage._root_grid(cfg)
            field = coverage._CenterField(cfg, rect, k, root_half * math.sqrt(2.0))
            centers = field.centers.T.tolist()
            for boxes, inner, outer, half, pad, got in levels:
                want = finish_reference(centers, boxes, inner, outer, half, pad)
                assert [tuple(map(float.hex, row)) for row in got] == [
                    tuple(map(float.hex, row)) for row in want
                ]
                finishes += 1
                candidates += len(got)
        assert finishes >= len(cases) and candidates > 5000

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

    def test_kernel_blocks_stay_bounded(self, monkeypatch):
        # a level larger than one block is split into blocks of at most
        # _CHUNK_ELEMENTS d^2 entries, and the split changes no result
        def fields(r):
            return (r.low, r.high, r.witness, r.boxes, r.converged)

        chunk = 4000
        cfg = skewed_config(np.random.default_rng(97), 8)
        expected = covering_radius(cfg, 8, tol=1e-8)
        # at 600 entries a block, a ring over several blocks returns its
        # centers: the per-block runs are joined
        small = [
            (skewed_config(np.random.default_rng(97), n), k)
            for n in (1, 2, 3, 8)
            for k in (1, 2, 3, 8)
        ]
        small_expected = [fields(covering_radius(c, k, tol=1e-8)) for c, k in small]
        monkeypatch.setattr(coverage, "_CHUNK_ELEMENTS", chunk)
        squared_distances = coverage._squared_distances
        dk = coverage._CenterField.dk
        sizes = []
        levels = []

        def recording_squared_distances(pts, centers):
            d2 = squared_distances(pts, centers)
            sizes.append(d2.size)
            return d2

        def recording_dk(self, cols):
            levels.append(cols.shape[1] * self.centers.shape[1])
            return dk(self, cols)

        monkeypatch.setattr(coverage, "_squared_distances", recording_squared_distances)
        monkeypatch.setattr(coverage._CenterField, "dk", recording_dk)
        r = covering_radius(cfg, 8, tol=1e-8)
        assert max(levels) > chunk
        assert max(sizes) <= chunk
        assert (r.low, r.high, r.witness, r.boxes, r.converged) == (
            expected.low,
            expected.high,
            expected.witness,
            expected.boxes,
            expected.converged,
        )

        ring = coverage._CenterField.ring
        joined = []

        def counting_ring(self, cols, kept, inner, outer):
            blocks = -(-len(kept) // self._rows)
            found = ring(self, cols, kept, inner, outer)
            if blocks > 1 and found is not None:
                joined.append(blocks)
            return found

        monkeypatch.setattr(coverage, "_CHUNK_ELEMENTS", 600)
        monkeypatch.setattr(coverage._CenterField, "ring", counting_ring)
        assert [fields(covering_radius(c, k, tol=1e-8)) for c, k in small] == small_expected
        assert len(joined) >= 1

    def test_matches_circumcenter_oracle(self):
        # d_k peaks at the circumcenter of a center triple; the oracle sizes
        # its window from the start reach alone and evaluates every
        # circumcenter in the reduced cell exactly
        rng = np.random.default_rng(109)
        for _ in range(12):
            cfg = random_config(rng)
            allowance = 1e-12 * max(1.0, *cfg.reduced.lengths())
            for k in (1, 2, 3):
                exact = circumcenter_covering_radius(cfg, k)
                r = covering_radius(cfg, k, tol=1e-10)
                assert r.converged
                assert r.low - allowance <= exact <= r.high + allowance

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


def _moved(config: PeriodicConfig, phi: float, shift, scale: float = 1.0) -> PeriodicConfig:
    """config rotated by phi and scaled about the origin, then shifted."""
    rot = scale * np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    offsets = [tuple(rot @ (p.x, p.y) + shift) for p in config.offsets]
    basis = (tuple(rot @ config.basis.u), tuple(rot @ config.basis.v))
    return PeriodicConfig(basis, offsets, scale * config.radius)


def _root_cells(rng: np.random.Generator) -> list[PeriodicConfig]:
    """Skewed, random, critical and needle-shaped cells for the root grid.

    The needles are 1 wide and up to 1000 high, so `_ROOT_LONG` sets their
    box size.
    """
    cfgs = [skewed_config(rng, int(rng.integers(1, 5))) for _ in range(60)]
    cfgs += [random_config(rng) for _ in range(30)]
    cfgs += [cfg for cfg, _ in _critical_configs()]
    for height in (3.9, 30.0, 250.0, 1000.0):
        needle = PeriodicConfig(Basis((1.0, 0.0), (0.3, height)), [(0, 0)], 1.0)
        cfgs += [needle, _moved(needle, 0.61, (0.0, 0.0)), _moved(needle, 2.2, (0.0, 0.0))]
    return cfgs


class TestCenterPruning:
    """Pruned center sets must not change a single bit of the search."""

    @staticmethod
    def _assert_low_exact(cfg, k, tol=1e-9):
        r = covering_radius(cfg, k, tol=tol)
        # the batch query scans every center within its own reach, unpruned;
        # low is its value less the search field's evaluation error
        fresh = kth_nearest_distance_batch(np.array([[r.witness.x, r.witness.y]]), cfg, k)
        _, _, rect = coverage._root_grid(cfg)
        assert r.low == fresh[0] - coverage._CenterField(cfg, rect, k).eval_error
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
        "cfg, k, tol, low, high, pinned",
        [
            # (low, high) recorded before centers were pruned, when the root
            # covered the reduced cell's bounding box, then (low, high,
            # boxes) recorded with the exact finish; the branch-and-bound
            # alone, with the root culled to the cell, gave (0.9999999997671694,
            # 1.000000000754986, 2012), (1.1180339837518933,
            # 1.1180339890202493, 1632) and (0.49127877717591234,
            # 0.4912787780501625, 9644).  The third took 503 boxes before the
            # finish ring was bounded below by low - diag and _FINISH_CAP
            # went from 6 to 8
            (
                triangle_pattern(),
                2,
                1e-9,
                0.9999999997671694,
                1.000000000754986,
                (0.9999999999999689, 1.0000000000000415, 49),
            ),
            (
                SQUARE,
                3,
                1e-8,
                1.1180339837518933,
                1.1180339890202493,
                (1.1180339887498807, 1.118033988749922, 68),
            ),
            (
                PeriodicConfig(
                    Basis((1.0, 0.0), (2.3, 0.37)), [(0, 0), (0.4, 0.1), (1.9, 0.3)], 1.0
                ),
                5,
                1e-9,
                0.49127877717591223,
                0.4912787780930263,
                (0.49127877721715674, 0.4912787772171978, 253),
            ),
        ],
    )
    def test_pinned_enclosures(self, cfg, k, tol, low, high, pinned):
        r = covering_radius(cfg, k, tol=tol)
        assert (r.low, r.high, r.boxes) == pinned
        # the finish and the culled root move the enclosure only within tol
        assert r.low <= high and low <= r.high
        assert abs(r.low - low) <= tol and abs(r.high - high) <= tol

    def test_pinned_digest_on_skewed_configs(self):
        # every field of 129 searches, recorded with the exact finish: k 1..8
        # x 1..8 offsets at two tolerances, then one search cut by its box
        # budget.  Against the branch-and-bound alone (digest
        # d4325555...5c3279, the cut at 400 boxes) every enclosure overlaps
        # its old one, and each end of the 128 converged searches moved by at
        # most 0.90 tol; against the bounding-box root before it (digest
        # 0d5179fe...8ddc53c) they moved by at most 0.46 tol.  Against the
        # finish with ring centers from d_k(m) - 2h and a cap of 6 (digest
        # 1f1cc6f5...ca2f7fb) no enclosure moved; 106 box counts and 2
        # witnesses did
        def fields(r):
            return (r.low, r.high, r.witness.x, r.witness.y, r.boxes, r.converged)

        rng = np.random.default_rng(79)
        cases = [(skewed_config(rng, n), k) for k in range(1, 9) for n in range(1, 9)]
        rows = [
            fields(covering_radius(cfg, k, tol=tol))
            for tol in (1e-4, 1e-9)
            for cfg, k in cases
        ]
        cfg, k = cases[45]
        cut = covering_radius(cfg, k, tol=1e-12, max_boxes=200)
        assert not cut.converged
        rows.append(fields(cut))
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == "9463653a43139b42fd2f9a9e406c8cb8eb0e0d8ea562f767a8a16afc3264668a"

    def test_pinned_digest_on_optimizer_starts(self):
        # every field of the 264 tol-1e-4 searches of the optimizer's start
        # grids (single lattice k = 1..4, then pattern_b), recorded before
        # the search held its point sets in one (2, N) layout; the history
        # digests of the optimizer tests see only `high`.  Against the
        # finish with ring centers from d_k(m) - 2h and a cap of 6 (digest
        # 8deaf746...55f883) 4 enclosures moved, each overlapping its old
        # one and by at most 3.2e-15 relative
        rows = [
            (r.low, r.high, r.witness.x, r.witness.y, r.boxes, r.converged)
            for r in (covering_radius(cfg, k, tol=1e-4) for cfg, k in optimizer_start_configs())
        ]
        assert len(rows) == 264
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == "21b24ed4dd1a08b4279cc84185e224eab041e790e33c6b13d85826546b181b6c"

    def test_pruning_changes_no_search(self, monkeypatch):
        # with the unpruned field put back after every `ring`, the searches
        # of the two pinned digests give the same fields, bit for bit
        rng = np.random.default_rng(79)
        cases = [(skewed_config(rng, n), k) for k in range(1, 9) for n in range(1, 9)]
        searches = [(cfg, k, tol, DEFAULT_MAX_BOXES) for tol in (1e-4, 1e-9) for cfg, k in cases]
        searches.append((*cases[45], 1e-12, 200))
        searches += [(cfg, k, 1e-4, DEFAULT_MAX_BOXES) for cfg, k in optimizer_start_configs()]

        def run():
            return [
                (r.low, r.high, r.witness, r.boxes, r.converged)
                for r in (
                    covering_radius(cfg, k, tol=tol, max_boxes=budget)
                    for cfg, k, tol, budget in searches
                )
            ]

        pruned = run()
        ring = coverage._CenterField.ring
        dropped = []

        def unpruned_ring(self, cols, kept, inner, outer):
            centers = self.centers
            found = ring(self, cols, kept, inner, outer)
            dropped.append(centers.shape[1] - self.centers.shape[1])
            self.set_centers(centers)
            return found

        monkeypatch.setattr(coverage._CenterField, "ring", unpruned_ring)
        assert run() == pruned
        assert sum(map(bool, dropped)) > len(searches)

    def test_start_reach_bounds_dk(self):
        # d_k against every center within 3R of the rect, at points sampled
        # over the root boxes and at the rect's corners: a value below 3R is
        # exact, and it must be below the start reach R and equal the field's
        rng = np.random.default_rng(101)
        cases = [(random_config(rng, 8), int(rng.integers(1, 13))) for _ in range(24)]
        cases += [(skewed_config(rng, n), k) for k in range(1, 13) for n in range(1, 9)]
        cases += _critical_configs()
        for cfg, k in cases:
            boxes, half, rect = coverage._root_grid(cfg)
            field = coverage._CenterField(cfg, rect, k)
            corners = [(x, y) for x in (rect.xmin, rect.xmax) for y in (rect.ymin, rect.ymax)]
            jitter = rng.uniform(-half, half, (32 * boxes.shape[1], 2))
            pts = np.vstack((np.repeat(boxes.T, 32, axis=0) + jitter, corners))
            centers = _translates_array(cfg, rect, 3.0 * field.reach)
            d2 = (pts[:, 0:1] - centers[:, 0]) ** 2 + (pts[:, 1:2] - centers[:, 1]) ** 2
            brute = np.sqrt(np.partition(d2, k - 1, axis=1)[:, k - 1])
            assert brute.max() < field.reach
            assert np.array_equal(field.dk(pts.T), brute)
        # the lattice reach: rho, the lattice's covering radius, plus the
        # m-th shortest lattice vector, m = ceil(k / n) and 0 the first,
        # bounds d_k at the certified witness and at 200 random points of
        # the cell, with d_k over every center within the area reach; the
        # field keeps the k nearest of each and its reach never passes the
        # area reach.  On the 1 x 2.4 rectangle at k = 5, rho + |u| falls
        # 7% short of max d_k, and rho + |v| holds
        hexagonal = PeriodicConfig(Basis((1.0, 0.0), (0.5, math.sqrt(0.75))), [(0, 0)], 1.0)
        rectangle = PeriodicConfig(Basis((1.0, 0.0), (0.0, 2.4)), [(0, 0)], 1.0)
        cases = [(skewed_config(rng, n), k) for k in range(1, 9) for n in range(1, 9)]
        cases += _critical_configs() + [(rectangle, 5)]
        cases += [(cfg, k) for cfg in (hexagonal, triangle_pattern()) for k in range(1, 9)]
        lattice_bounded = 0
        for cfg, k in cases:
            boxes, half, rect = coverage._root_grid(cfg)
            field = coverage._CenterField(cfg, rect, k)
            u, v = np.array(cfg.reduced.u), np.array(cfg.reduced.v)
            steps = range(-4, 5)
            lengths = sorted(np.hypot(*(i * u + j * v)) for i in steps for j in steps)
            area = math.sqrt(k * cfg.det / len(cfg.offsets) / math.pi)
            area += sum(cfg.reduced.lengths())
            assert field.reach <= area * (1.0 + 1e-12)
            one = PeriodicConfig(cfg.reduced, [(0, 0)], 1.0)
            rho = covering_radius(one, 1, tol=1e-12).high
            witness = covering_radius(cfg, k, tol=1e-9).witness
            st = rng.uniform(0.0, 1.0, (200, 2))
            pts = np.vstack(([[witness.x, witness.y]], st[:, :1] * u + st[:, 1:] * v))
            centers = _translates_array(cfg, rect, area)
            d2 = (pts[:, 0:1] - centers[:, 0]) ** 2 + (pts[:, 1:2] - centers[:, 1]) ** 2
            brute = np.sqrt(np.partition(d2, k - 1, axis=1)[:, k - 1])
            assert brute.max() < field.reach
            assert np.array_equal(field.dk(pts.T), brute)
            copies = -(-k // len(cfg.offsets))
            if copies <= 7:
                assert brute.max() <= (rho + lengths[copies - 1]) * (1.0 + 1e-12)
                lattice_bounded += 1
        assert lattice_bounded > 60

    def test_root_rect_holds_every_root_box(self):
        # the rect is the union of the root boxes, so every box center of a
        # search lies in it, and it is never wider than the reduced cell's
        # bounding box padded by a half side
        rng = np.random.default_rng(103)
        cfgs = [skewed_config(rng, int(rng.integers(1, 9))) for _ in range(200)]
        cfgs += [random_config(rng, 8) for _ in range(100)]
        cfgs += [cfg for cfg, _ in _critical_configs()]
        for cfg in cfgs:
            boxes, half, rect = coverage._root_grid(cfg)
            ulp = 1e-12 * max(1.0, *cfg.reduced.lengths())
            x, y = boxes
            assert x.min() - half == pytest.approx(rect.xmin, abs=ulp)
            assert x.max() + half == pytest.approx(rect.xmax, abs=ulp)
            assert y.min() - half == pytest.approx(rect.ymin, abs=ulp)
            assert y.max() + half == pytest.approx(rect.ymax, abs=ulp)
            (ux, uy), (vx, vy) = cfg.reduced.u, cfg.reduced.v
            width = max(0.0, ux, vx, ux + vx) - min(0.0, ux, vx, ux + vx)
            height = max(0.0, uy, vy, uy + vy) - min(0.0, uy, vy, uy + vy)
            assert rect.xmax - rect.xmin <= width + 2.0 * half + ulp
            assert rect.ymax - rect.ymin <= height + 2.0 * half + ulp

    def test_root_boxes_hold_the_whole_cell(self):
        # every point of the closed reduced cell lies in a kept root box:
        # its corners, points on its edges and random interior points
        rng = np.random.default_rng(127)
        cfgs = _root_cells(rng)
        edge = rng.uniform(0.0, 1.0, 16)
        zeros, ones = np.zeros(16), np.ones(16)
        st = np.vstack(
            (
                [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                np.stack((edge, zeros), axis=1),
                np.stack((edge, ones), axis=1),
                np.stack((zeros, edge), axis=1),
                np.stack((ones, edge), axis=1),
                rng.uniform(0.0, 1.0, (64, 2)),
            )
        )
        for cfg in cfgs:
            boxes, half, _ = coverage._root_grid(cfg)
            assert 1 <= boxes.shape[1] <= 4 * 64
            u, v = np.array(cfg.reduced.u), np.array(cfg.reduced.v)
            pts = st[:, :1] * u + st[:, 1:] * v
            ulp = 1e-12 * max(1.0, *cfg.reduced.lengths())
            gap = np.maximum(
                np.abs(pts[:, None, 0] - boxes[0]), np.abs(pts[:, None, 1] - boxes[1])
            )
            assert (gap.min(axis=1) <= half + ulp).all()

    def test_root_grid_matches_the_array_reference(self):
        # the plain-float grid, cull and rect give the array computation's
        # boxes, half side and rect bit for bit, in the same x-major order
        cfgs = _root_cells(np.random.default_rng(127))
        cfgs += [cfg for cfg, _ in optimizer_start_configs()]
        for cfg in cfgs:
            boxes, half, rect = coverage._root_grid(cfg)
            want_boxes, want_half, want_rect = root_grid_reference(cfg)
            assert boxes.shape == want_boxes.shape
            assert boxes.tobytes() == want_boxes.tobytes()
            assert half.hex() == want_half.hex()
            assert [getattr(rect, f).hex() for f in ("xmin", "ymin", "xmax", "ymax")] == [
                getattr(want_rect, f).hex() for f in ("xmin", "ymin", "xmax", "ymax")
            ]

    def test_center_cache_bound(self):
        # the reduced cell placed at each center of one offset gives disjoint
        # translates, all in a box of sides W + 2R + |u| + |v| and
        # H + 2R + |u| + |v| for a W x H rect, R with its enumeration margin
        rng = np.random.default_rng(107)
        for k in range(1, 9):
            for n in range(1, 9):
                cfg = skewed_config(rng, n)
                _, _, rect = coverage._root_grid(cfg)
                field = coverage._CenterField(cfg, rect, k)
                reach = field.reach + 1e-12 * max(1.0, field.reach)
                pad = 2.0 * reach + sum(cfg.reduced.lengths())
                width, height = rect.xmax - rect.xmin, rect.ymax - rect.ymin
                bound = n * (width + pad) * (height + pad) / abs(cfg.reduced.det)
                assert 0 < field.centers.shape[1] <= bound


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
        # A coarse enclosure that still brackets r within tol: with r just
        # below its sampled low bound, low > r already proves non-coverage
        # and wins over tight.
        coarse = covering_radius(base, 2, tol=1e-2)
        near = PeriodicConfig(base.basis, base.offsets, radius=coarse.low - 1e-4)
        cert = verify_k_coverage(near, 2, tol=1e-2)
        assert (cert.radius_low, cert.radius_high) == (coarse.low, coarse.high)
        assert abs(cert.radius_high - near.radius) <= 1e-2
        assert cert.radius_low > near.radius
        assert cert.status == "certified_uncovered"
        assert kth_nearest_distance(cert.witness, near, 2) > near.radius

    def test_covered_beats_tight(self):
        # high <= r proves k-coverage even when both bounds lie within tol
        # of r; only low > r comes before it
        base = triangle_pattern()
        e = covering_radius(base, 2, tol=1e-6)
        at_high = PeriodicConfig(base.basis, base.offsets, radius=e.high)
        cert = verify_k_coverage(at_high, 2, tol=1e-6)
        assert abs(e.high - e.low) <= 1e-6
        assert cert.status == "certified_covered"
        assert cert.radius_high <= at_high.radius

    def test_certificate_fields(self):
        cert = verify_k_coverage(triangle_pattern(), 2, tol=1e-6)
        assert cert.k == 2
        assert cert.radius_low <= cert.radius_high
        d = cert.to_dict()
        assert d["status"] == "tight"
        assert d["k"] == 2
        # a numpy integer k is kept as the plain int it names
        same = verify_k_coverage(triangle_pattern(), np.int64(2), tol=1e-6)
        assert json.dumps(same.to_dict()) == json.dumps(d)

    def test_critical_cases_stay_tight_under_motion(self):
        # each classical pattern at its critical radius, under 40 seeded
        # rotations, scalings in [1/2, 2] and shifts in [-3, 3]^2: the
        # rounding of the moved centers lands on both sides of r, and the
        # evaluation error in low keeps every verdict tight
        rng = np.random.default_rng(139)
        statuses = []
        for cfg, k in _critical_configs():
            for _ in range(40):
                phi = rng.uniform(0.0, 2.0 * math.pi)
                scale = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
                moved = _moved(cfg, phi, rng.uniform(-3.0, 3.0, 2), scale)
                statuses.append(verify_k_coverage(moved, k, tol=1e-9).status)
        assert statuses == ["tight"] * 160

    def test_verdict_is_the_converged_searchs(self):
        # verify's search stops once its enclosure decides the verdict, or
        # decides coverage in closed form before it starts; the search run
        # to tol must give the same status from an enclosure inside the
        # decided one, in no fewer boxes, and the same fields bit for bit
        # when the verdict is tight or undecided
        def bits(r):
            floats = (r.low, r.high, r.witness.x, r.witness.y)
            return tuple(x.hex() for x in floats) + (r.boxes, r.converged)

        rng = np.random.default_rng(149)
        cases = [(skewed_config(rng, n), k) for k in range(1, 9) for n in range(1, 9)]
        cases += [(random_config(rng, 8), k) for k in range(1, 9) for _ in range(8)]
        # a coarse tol leaves levels whose enclosures lie within tol of r
        cases = [(cfg, k, tol, DEFAULT_MAX_BOXES) for tol in (1e-3, 1e-9) for cfg, k in cases]
        cases += [(cfg, k, 1e-9, DEFAULT_MAX_BOXES) for cfg, k in _critical_configs()]
        # cut by the budget before its finish, as in test_box_cap_yields_unconverged
        capped = PeriodicConfig(Basis((1.07, 0), (0.33, 0.91)), [(0, 0)], radius=1.0)
        cases.append((capped, 2, 1e-12, 30))
        statuses = []
        early = 0
        for cfg, k, tol, budget in cases:
            # every config of a case wraps cfg.offsets into the cell once, so
            # all of them hold the same offsets, bit for bit
            def at(r):
                return PeriodicConfig(cfg.basis, cfg.offsets, r)

            full = covering_radius(at(cfg.radius), k, tol, budget)
            mid = 0.5 * (full.low + full.high)
            # the config's own radius, then the middle of the enclosure and
            # 1e-12 of it and tol away on either side
            radii = [cfg.radius, mid, mid * (1.0 - 1e-12), mid * (1.0 + 1e-12)]
            for r in radii + [mid - tol, mid + tol]:
                at_r = at(r)
                cert = verify_k_coverage(at_r, k, tol, budget)
                assert cert.status == full.certificate(k, r, tol).status
                decided = covering_radius(at_r, k, tol, budget, decide=True)
                assert decided.certificate(k, r, tol) == cert
                assert decided.low <= full.low and full.high <= decided.high
                assert decided.boxes <= full.boxes
                if cert.status in ("tight", "undecided"):
                    assert bits(decided) == bits(full)
                if cert.status == "certified_uncovered":
                    assert kth_nearest_distance(cert.witness, at_r, k) > r
                statuses.append(cert.status)
                early += decided.boxes < full.boxes
        assert {s: statuses.count(s) for s in set(statuses)} == {
            "certified_covered": 640,
            "certified_uncovered": 656,
            "tight": 264,
            "undecided": 6,
        }
        # the covered and uncovered verdicts that stopped early: 64 of them
        # are decided in closed form, 6 of which ran the whole search before
        assert early == 251

    def test_closed_form_decisions_are_the_converged_searchs(self):
        # verify's search starts with the closed form A <= max d_k <= L and
        # decides coverage at once when L <= r; the search run to tol must
        # then call the same radius covered from an enclosure inside [A, L],
        # and the decision must scale bit for bit with a power of two
        rng = np.random.default_rng(151)
        cases = [(skewed_config(rng, n), k) for k in range(1, 9) for n in range(1, 9)]
        cases += [(random_config(rng, 8), k) for k in range(1, 9) for _ in range(8)]
        cases += _critical_configs()
        decided = []
        for cfg, k in cases:
            def at(r, f=1.0):
                return PeriodicConfig(cfg.basis, cfg.offsets, r).scaled(f)

            closed = covering_radius(at(1e300), k, 1e-9, decide=True)
            if closed.boxes:
                # L is inf past 7 copies of each offset
                assert k > 7 * len(cfg.offsets)
                continue
            assert closed.witness is None
            full = covering_radius(cfg, k, 1e-9)
            # L itself, the next float above it, and the config's own radius
            for r in (closed.high, math.nextafter(closed.high, math.inf), cfg.radius):
                cert = verify_k_coverage(at(r), k, 1e-9)
                ours = covering_radius(at(r), k, 1e-9, decide=True)
                if ours.boxes:
                    assert r < closed.high
                    continue
                decided.append(r == cfg.radius)
                assert (ours.low, ours.high, ours.converged) == (
                    closed.low, closed.high, closed.converged
                )
                assert ours.converged == (ours.high - ours.low <= 1e-9)
                assert cert.status == full.certificate(k, r, 1e-9).status == "certified_covered"
                assert cert.witness is None
                assert (cert.radius_low, cert.radius_high) == (ours.low, ours.high)
                assert ours.low <= full.low and full.high <= ours.high
            below = math.nextafter(closed.high, 0.0)
            for m in range(-10, 151, 10):
                f = 2.0**m
                scaled = covering_radius(at(closed.high, f), k, f * 1e-9, decide=True)
                assert (scaled.low, scaled.high) == (f * closed.low, f * closed.high)
                assert scaled.witness is None
                assert (scaled.boxes, scaled.converged) == (0, closed.converged)
                # no closed form below L: the search evaluates its root
                short = covering_radius(at(below, f), k, f * 1e-9, max_boxes=1, decide=True)
                assert short.boxes > 0
        # the 130 cases with a finite L at L and above it, 55 of them at
        # their own radius too
        assert (decided.count(False), decided.count(True)) == (2 * 130, 55)

    def test_a_shrunk_lattice_reach_contradicts_the_search(self, monkeypatch):
        # the closed form is only as sound as L: 1% off it, it certifies
        # coverage at radii the converged search proves uncovered
        rng = np.random.default_rng(151)
        cases = [(skewed_config(rng, n), k) for k in range(1, 5) for n in range(1, 5)]
        fulls = [covering_radius(cfg, k, 1e-9) for cfg, k in cases]
        reach = coverage._lattice_reach
        monkeypatch.setattr(
            coverage, "_lattice_reach", lambda reduced, copies=1: 0.99 * reach(reduced, copies)
        )
        contradicted = 0
        for (cfg, k), full in zip(cases, fulls):
            big = PeriodicConfig(cfg.basis, cfg.offsets, 1e300)
            r = covering_radius(big, k, 1e-9, decide=True).high
            cert = verify_k_coverage(PeriodicConfig(cfg.basis, cfg.offsets, r), k, 1e-9)
            assert cert.status == "certified_covered"
            contradicted += full.certificate(k, r, 1e-9).status == "certified_uncovered"
        assert contradicted > 0

    def test_undecided_when_budget_tiny(self):
        cfg = PeriodicConfig(Basis((1.07, 0), (0.33, 0.91)), [(0, 0)], radius=1.0)
        # a budget of 30 stops before the finish, as in
        # test_box_cap_yields_unconverged
        probe = covering_radius(cfg, 2, tol=1e-12, max_boxes=30)
        assert not probe.converged
        # A disk radius strictly inside the open enclosure cannot be
        # certified either way under the same budget.
        mid = 0.5 * (probe.low + probe.high)
        capped = PeriodicConfig(cfg.basis, cfg.offsets, radius=mid)
        cert = verify_k_coverage(capped, 2, tol=1e-12, max_boxes=30)
        assert cert.status == "undecided"

    def test_rejects_bad_k(self):
        for k in (0, True, np.True_, 2.0):
            with pytest.raises(ValueError):
                verify_k_coverage(SQUARE, k)

    def test_accepts_a_numpy_integer_k(self):
        assert covering_radius(SQUARE, np.int64(2)) == covering_radius(SQUARE, 2)


# a basis given with |v| / |u| = 1.4e10, whose float reduction left the
# lattice and certified disks of radius 0.83160231 as a covering, with
# radius_high 0.8316021601136125; its covering radius is 0.8316027703190051
SHEARED = {"u": [1.293266676093484, 0.24900154773122402],
           "v": [18116544389.559875, 3488103171.1062884],
           "offsets": [[0.0, 0.0]], "radius": 0.8316023126648487}


def _sheared_bases(rng: np.random.Generator, per: int):
    """`per` seeded bases for each e = 1..12, v = m u + c u rotated by 90
    degrees, with m in [10^e, 10^(e + 1)) and c in [1/2, 2]."""
    for e in range(1, 13):
        for _ in range(per):
            phi = rng.uniform(0.0, 2.0 * math.pi)
            scale = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
            ux, uy = scale * math.cos(phi), scale * math.sin(phi)
            m = 10.0 ** (e + rng.uniform(0.0, 1.0))
            c = rng.uniform(0.5, 2.0)
            yield Basis((ux, uy), (m * ux - c * uy, m * uy + c * ux))


class TestShearedBases:
    """Single lattices given far from reduced, against their covering
    radius R computed exactly (`exact_lattice_covering_radius_squared`)."""

    def test_enclosure_holds_the_exact_covering_radius(self):
        for basis in _sheared_bases(np.random.default_rng(157), 20):
            r2 = exact_lattice_covering_radius_squared(basis)
            cover = covering_radius(PeriodicConfig(basis, [(0.0, 0.0)], 1.0), 1, tol=1e-12)
            assert Fraction(cover.low) ** 2 <= r2 <= Fraction(cover.high) ** 2
            # neither side of R certified as the other
            exact = math.sqrt(r2)
            below = PeriodicConfig(basis, [(0.0, 0.0)], exact * (1.0 - 1e-9))
            above = PeriodicConfig(basis, [(0.0, 0.0)], exact * (1.0 + 1e-9))
            assert verify_k_coverage(below, 1, 1e-12).status != "certified_covered"
            assert verify_k_coverage(above, 1, 1e-12).status != "certified_uncovered"

    def test_reproducer_is_not_certified_covered(self):
        r2 = exact_lattice_covering_radius_squared(Basis(SHEARED["u"], SHEARED["v"]))
        assert SHEARED["radius"] < math.sqrt(r2)
        proc = subprocess.run(
            [sys.executable, "-m", "diskcover", "verify", "--k", "1"],
            input=json.dumps(SHEARED), capture_output=True, text=True, timeout=120,
            env=child_env(),
        )
        assert proc.returncode == 0
        cert = json.loads(proc.stdout)
        assert cert["status"] == "certified_uncovered"
        assert Fraction(cert["radius_low"]) ** 2 <= r2 <= Fraction(cert["radius_high"]) ** 2
