import math

import numpy as np
import pytest

from diskcover import (
    Basis,
    ConvexPolygon,
    PeriodicConfig,
    all_cells_congruent,
    congruence_signature,
    pattern_b,
    tangent_pattern_c,
    triangle_pattern,
    voronoi_cell,
)
from diskcover import voronoi
from diskcover.lattice import _lattice_reach
from helpers import random_config, skewed_config


class TestVoronoiCell:
    def test_square_lattice_cell_is_unit_square(self):
        cfg = PeriodicConfig(Basis((1, 0), (0, 1)), [(0, 0)], radius=1.0)
        cell = voronoi_cell(cfg, 0)
        assert len(cell.polygon.vertices) == 4
        assert cell.polygon.area == pytest.approx(1.0, abs=1e-12)
        xs = sorted(p.x for p in cell.polygon.vertices)
        assert xs == pytest.approx([-0.5, -0.5, 0.5, 0.5], abs=1e-9)

    def test_hexagonal_lattice_cell_is_regular_hexagon(self):
        b = Basis((1, 0), (0.5, math.sqrt(3) / 2))
        cfg = PeriodicConfig(b, [(0, 0)], radius=1.0)
        cell = voronoi_cell(cfg, 0)
        assert len(cell.polygon.vertices) == 6
        assert cell.polygon.area == pytest.approx(b.det, abs=1e-12)
        verts = cell.polygon.vertices
        n = len(verts)
        sides = [verts[i].distance_to(verts[(i + 1) % n]) for i in range(n)]
        assert max(sides) - min(sides) < 1e-9

    def test_honeycomb_cell_is_equilateral_triangle(self):
        cfg = triangle_pattern()
        for idx in range(2):
            cell = voronoi_cell(cfg, idx)
            verts = cell.polygon.vertices
            assert len(verts) == 3
            sides = sorted(
                verts[i].distance_to(verts[(i + 1) % 3]) for i in range(3)
            )
            assert sides == pytest.approx([math.sqrt(3)] * 3, abs=1e-9)
            assert cell.polygon.area == pytest.approx(cfg.det / 2, abs=1e-9)

    def test_site_recorded(self):
        cfg = triangle_pattern()
        cell = voronoi_cell(cfg, 1)
        assert cell.site.as_tuple() == pytest.approx(
            (cfg.offsets[1].x, cfg.offsets[1].y)
        )

    def test_bad_index_rejected(self):
        cfg = triangle_pattern()
        with pytest.raises((IndexError, ValueError)):
            voronoi_cell(cfg, 5)

    def test_cells_tile_fundamental_domain(self):
        # Areas of the per-offset cells must add up to the period area.
        rng = np.random.default_rng(31)
        for _ in range(20):
            cfg = random_config(rng)
            total = sum(
                voronoi_cell(cfg, i).polygon.area
                for i in range(len(cfg.offsets))
            )
            assert total == pytest.approx(cfg.det, abs=1e-8)

    def test_cell_starts_at_its_least_vertex(self):
        # so the voronoi JSON and the SVG do not depend on clip order
        rng = np.random.default_rng(1372)
        for _ in range(20):
            cfg = random_config(rng)
            for i in range(len(cfg.offsets)):
                verts = voronoi_cell(cfg, i).polygon.vertices
                assert verts[0] == min(verts, key=lambda p: (p.y, p.x))
                assert ConvexPolygon(verts[2:] + verts[:2]).vertices == verts


def _apply_motion(
    poly: ConvexPolygon, angle: float, tx: float, ty: float, reflect: bool
) -> ConvexPolygon:
    ca, sa = math.cos(angle), math.sin(angle)
    pts = []
    for p in poly.vertices:
        x, y = (p.x, -p.y) if reflect else (p.x, p.y)
        pts.append((ca * x - sa * y + tx, sa * x + ca * y + ty))
    return ConvexPolygon(pts)


class TestCongruenceSignature:
    def test_identical_cells_share_signature(self):
        cfg = triangle_pattern()
        s0 = congruence_signature(voronoi_cell(cfg, 0))
        s1 = congruence_signature(voronoi_cell(cfg, 1))
        assert s0 == s1

    def test_different_shapes_differ(self):
        square = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        rect = ConvexPolygon([(0, 0), (2, 0), (2, 0.5), (0, 0.5)])
        assert congruence_signature(square) != congruence_signature(rect)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(37)
        base = voronoi_cell(triangle_pattern(), 0).polygon
        ref = congruence_signature(base)
        for _ in range(250):
            moved = _apply_motion(
                base,
                float(rng.uniform(0, 2 * math.pi)),
                float(rng.uniform(-10, 10)),
                float(rng.uniform(-10, 10)),
                bool(rng.integers(0, 2)),
            )
            assert congruence_signature(moved) == ref

    def test_vertex_relabelling_invariance(self):
        verts = [(0, 0), (2, 0), (2.5, 1), (1, 2), (-0.5, 1)]
        a = ConvexPolygon(verts)
        b = ConvexPolygon(verts[2:] + verts[:2])
        assert congruence_signature(a) == congruence_signature(b)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0])
    def test_rejects_non_finite_or_non_positive_tol(self, tol):
        cell = voronoi_cell(triangle_pattern(), 0)
        with pytest.raises(ValueError, match="tolerance must be positive"):
            congruence_signature(cell, tol)

    def test_rejects_tol_too_small_to_quantize(self):
        # edge / tol overflows to inf, which has no integer to round to
        cell = voronoi_cell(triangle_pattern(), 0)
        with pytest.raises(ValueError, match="too small"):
            congruence_signature(cell, 5e-324)


class TestAllCellsCongruent:
    def test_single_offset_always_congruent(self):
        cfg = PeriodicConfig(Basis((1.3, 0), (0.4, 0.9)), [(0, 0)], radius=1.0)
        ok, classes = all_cells_congruent(cfg)
        assert ok and len(classes) == 1

    def test_two_offsets_congruent_by_central_symmetry(self):
        # Cells of a two-point periodic set are exchanged by the point
        # reflection through the midpoint of the two sites.
        rng = np.random.default_rng(41)
        for _ in range(10):
            cfg = random_config(rng, max_offsets=1)
            a = cfg.basis.u
            cand = (0.37 * a[0] + 0.11, 0.53)
            cfg2 = PeriodicConfig(cfg.basis, [(0.0, 0.0), cand], radius=1.0)
            ok, classes = all_cells_congruent(cfg2)
            assert ok and len(classes) == 1
        # the pattern_b family: the optimizer's start grid, then random
        # feasible triples
        triples = []
        for x in np.linspace(0.3, 1.0, 8):
            y_max = math.sqrt(1.0 - x * x) + 1.0
            for y in (0.5 * y_max, 0.8 * y_max, y_max):
                triples += [(x, y, y * dfrac) for dfrac in (0.4, 0.7, 1.0)]
        for _ in range(8):
            x = rng.uniform(0.1, 1.0)
            y = rng.uniform(0.15, math.sqrt(1.0 - x * x) + 1.0)
            triples.append((x, y, rng.uniform(0.05 * y, 1.95 * y)))
        for x, y, d in triples:
            ok, classes = all_cells_congruent(pattern_b(x, y, d))
            assert ok and len(classes) == 1, (x, y, d)

    def test_honeycomb_congruent(self):
        ok, classes = all_cells_congruent(triangle_pattern())
        assert ok and len(classes) == 1

    def test_asymmetric_three_offsets_not_congruent(self):
        cfg = PeriodicConfig(
            Basis((3, 0), (0, 1)),
            [(0, 0), (0.5, 0), (1.7, 0.4)],
            radius=1.0,
        )
        ok, classes = all_cells_congruent(cfg)
        assert not ok
        assert len(classes) >= 2


def _cutoff_configs():
    # seeded pattern_b triples in the range the command line is given, tame
    # random configurations, skewed lattices of 1 to 8 offsets, and reduced
    # bases (1, 0), (b, c) with |v| up to 4.6, skewed by an integer multiple
    # of u, rotated and scaled by 1e-3 to 1e3, where the clip tolerance's
    # floor of 1e-12 dominates the small ones
    rng = np.random.default_rng(1410)
    configs = [triangle_pattern()]
    for _ in range(80):
        x = rng.uniform(0.4, 1.0)
        y = (math.sqrt(1.0 - x * x) + 1.0) * rng.uniform(0.5, 1.0)
        configs.append(pattern_b(x, y, y * rng.uniform(0.2, 1.8)))
    configs += [random_config(rng) for _ in range(80)]
    for seed in range(10):
        configs += [skewed_config(np.random.default_rng(seed), n) for n in range(1, 9)]
    while len(configs) < 400:
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        length = rng.uniform(1.0, 4.6)
        b = rng.uniform(-0.5, 0.5)
        c = math.sqrt(length * length - b * b)
        b += rng.integers(-3, 4)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        cos, sin = scale * math.cos(angle), scale * math.sin(angle)
        u, v = (cos, sin), (b * cos - c * sin, b * sin + c * cos)
        offsets = [
            (s * u[0] + t * v[0], s * u[1] + t * v[1])
            for s, t in rng.uniform(0.0, 1.0, size=(rng.integers(1, 7), 2))
        ]
        try:
            configs.append(PeriodicConfig(Basis(u, v), offsets, radius=scale))
        except ValueError:
            continue  # offsets coincide modulo the lattice
    return configs


def test_reach_cutoff_gives_the_cells_of_twice_the_margin(monkeypatch):
    # the module docstring proves that centers beyond the cutoff of about
    # 2 rho never cut a cell; the honeycomb's relevant vectors have length
    # sqrt(3) rho, so a cutoff of 1.5 rho fails here
    translates = voronoi._translates
    for cfg in _cutoff_configs():
        near = [repr(voronoi_cell(cfg, i)) for i in range(len(cfg.offsets))]
        with monkeypatch.context() as patch:
            patch.setattr(
                voronoi, "_translates", lambda c, rect, margin: translates(c, rect, 2.0 * margin)
            )
            wide = [repr(voronoi_cell(cfg, i)) for i in range(len(cfg.offsets))]
        assert near == wide


def test_every_cell_lies_within_the_reach_bound():
    # the module docstring proves that every cell lies within rho of its
    # site, up to the clip tolerance, and rho <= span, so the start square
    # of half-width 4 * span never survives; voronoi_cell relies on that
    # and does not check it
    rng = np.random.default_rng(1411)
    configs = [triangle_pattern(), tangent_pattern_c("a"), tangent_pattern_c("b", 0.6)]
    for _ in range(60):
        # the range of the pattern_b triples the command line is given
        x = rng.uniform(0.4, 1.0)
        y = (math.sqrt(1.0 - x * x) + 1.0) * rng.uniform(0.5, 1.0)
        configs.append(pattern_b(x, y, y * rng.uniform(0.2, 1.8)))
    for seed in range(8):
        configs += [skewed_config(np.random.default_rng(seed), n) for n in range(1, 9)]
    configs += [random_config(rng) for _ in range(60)]
    for cfg in configs:
        rho = _lattice_reach(cfg.reduced)
        # the clip tolerance of voronoi_cell
        eps = 1e-12 * max(1.0, 8.0 * max(cfg.reduced.lengths()))
        assert rho <= max(cfg.reduced.lengths())
        for i in range(len(cfg.offsets)):
            cell = voronoi_cell(cfg, i)
            reach = max(p.distance_to(cell.site) for p in cell.polygon.vertices)
            assert reach <= rho + eps
