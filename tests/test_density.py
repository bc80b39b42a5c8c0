import json
import math

import numpy as np
import pytest

from diskcover import (
    Basis,
    PeriodicConfig,
    cell_density,
    config_density,
    density_report,
    kershner_theta,
    known_value,
    known_values,
    toth_lower_bound,
    triangle_pattern,
    voronoi_cell,
)
from helpers import random_config

THETA = math.pi / (3 * math.sqrt(3) / 2)


class TestKershnerTheta:
    def test_exact_formula(self):
        assert kershner_theta() == THETA
        assert abs(kershner_theta() - 2 * math.pi / math.sqrt(27)) < 1e-15

    def test_six_decimal_value(self):
        assert f"{kershner_theta():.6f}" == "1.209200"


class TestConfigDensity:
    def test_honeycomb_is_twice_theta(self):
        assert config_density(triangle_pattern()) == pytest.approx(2 * THETA, abs=1e-15)

    def test_unit_square_lattice(self):
        cfg = PeriodicConfig(Basis((1, 0), (0, 1)), [(0, 0)], radius=1.0)
        assert config_density(cfg) == pytest.approx(math.pi, abs=1e-15)

    def test_scale_invariance(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            cfg = random_config(rng)
            s = float(rng.uniform(0.1, 10.0))
            assert config_density(cfg.scaled(s)) == pytest.approx(
                config_density(cfg), rel=1e-12
            )


class TestCellDensity:
    def test_honeycomb_cell(self):
        cfg = triangle_pattern()
        cell = voronoi_cell(cfg, 0)
        assert cell_density(cell, cfg.radius) == pytest.approx(2 * THETA, abs=1e-12)

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_a_bad_radius(self, radius):
        cell = voronoi_cell(triangle_pattern(), 0)
        with pytest.raises(ValueError, match="radius must be positive"):
            cell_density(cell, radius)


class TestTothBound:
    def test_first_order_equals_theta(self):
        assert toth_lower_bound(1) == pytest.approx(THETA, abs=1e-15)

    def test_second_order_closed_form(self):
        # (pi/3) / sin(pi/6) = 2 pi / 3
        assert toth_lower_bound(2) == pytest.approx(2 * math.pi / 3, abs=1e-15)
        assert f"{toth_lower_bound(2):.6f}" == "2.094395"
        assert toth_lower_bound(np.int64(2)) == toth_lower_bound(2)

    def test_increasing_in_k(self):
        vals = [toth_lower_bound(k) for k in range(1, 8)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_k(self):
        for k in (0, True, np.True_, 2.0):
            with pytest.raises(ValueError):
                toth_lower_bound(k)


class TestKnownValues:
    def test_table_contents(self):
        table = known_values()
        assert table["theta"] == pytest.approx(THETA, abs=1e-15)
        assert table["2theta"] == pytest.approx(2 * THETA, abs=1e-15)
        assert table["blundon_2"] == pytest.approx(2.0 * THETA, abs=1e-12)
        assert table["blundon_3"] == pytest.approx(2.841 * THETA, abs=1e-12)
        assert table["blundon_4"] == pytest.approx(3.608 * THETA, abs=1e-12)
        assert table["danzer_low"] == pytest.approx(2.094, abs=1e-12)
        assert table["danzer_high"] == pytest.approx(2.347, abs=1e-12)

    def test_lookup_and_aliases(self):
        assert known_value("theta") == known_values()["theta"]
        assert known_value("2theta") == known_values()["2theta"]
        # keys only: the Greek spellings are not accepted
        for name in ("θ", "2θ", "nope"):
            with pytest.raises(ValueError, match="unknown"):
                known_value(name)

    def test_danzer_brackets_toth(self):
        # The two-fold window starts essentially at the Toth bound.
        assert known_value("danzer_low") <= toth_lower_bound(2)
        assert toth_lower_bound(2) < known_value("danzer_high")


class TestDensityReport:
    def test_honeycomb_report(self):
        rep = density_report(triangle_pattern(), 2)
        assert rep.k == 2
        assert rep.density == pytest.approx(2 * THETA, abs=1e-12)
        assert rep.normalized == pytest.approx(2.0, abs=1e-12)
        assert rep.toth_bound == pytest.approx(2 * math.pi / 3, abs=1e-12)
        assert rep.meets_toth
        d = rep.to_dict()
        assert set(d) >= {"k", "density", "normalized", "toth_bound", "meets_toth"}
        # a numpy integer k is kept as the plain int it names
        same = density_report(triangle_pattern(), np.int64(2))
        assert json.dumps(same.to_dict()) == json.dumps(d)
