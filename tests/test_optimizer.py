import hashlib
import math

import pytest

import diskcover.optimize
from diskcover import (
    Basis,
    PeriodicConfig,
    golden_section,
    kershner_theta,
    optimal_scaled_density,
    optimize_pattern_b,
    optimize_single_lattice,
    pattern_b_density_bound,
)

THETA = kershner_theta()


class TestGoldenSection:
    def test_quadratic_minimum(self):
        x, fx = golden_section(lambda t: (t - 2.0) ** 2, 0.0, 5.0, tol=1e-10)
        assert x == pytest.approx(2.0, abs=1e-8)
        assert fx == pytest.approx(0.0, abs=1e-15)

    def test_maximize(self):
        # Near the flat top the offset constant absorbs the quadratic term,
        # so the bracket can drift within the float plateau of width ~1e-8.
        x, fx = golden_section(lambda t: -((t - 1.0) ** 2) + 3, -2.0, 4.0, tol=1e-10, maximize=True)
        assert x == pytest.approx(1.0, abs=1e-6)
        assert fx == pytest.approx(3.0, abs=1e-12)

    def test_recovers_pattern_b_optimum(self):
        x, fx = golden_section(pattern_b_density_bound, 0.05, 0.999, tol=1e-9)
        assert x == pytest.approx(math.sqrt(3) / 2, abs=1e-7)
        assert fx == pytest.approx(2 * THETA, abs=1e-12)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            golden_section(lambda t: t, 1.0, 1.0, tol=1e-8)


class TestOptimalScaledDensity:
    def test_square_lattice_first_order(self):
        cfg = PeriodicConfig(Basis((1, 0), (0, 1)), [(0, 0)], radius=1.0)
        # Scaling the unit square grid so its circumradius sqrt(1/2) becomes
        # the disk radius gives density pi/2.
        assert optimal_scaled_density(cfg, 1, tol=1e-7) == pytest.approx(
            math.pi / 2, abs=1e-5
        )

    def test_radius_independent(self):
        a = PeriodicConfig(Basis((1, 0), (0, 1)), [(0, 0)], radius=0.3)
        b = PeriodicConfig(Basis((1, 0), (0, 1)), [(0, 0)], radius=2.7)
        va = optimal_scaled_density(a, 2, tol=1e-6)
        vb = optimal_scaled_density(b, 2, tol=1e-6)
        assert va == pytest.approx(vb, rel=1e-9)


class TestOptimizeSingleLattice:
    def test_first_order_finds_hexagonal(self):
        res = optimize_single_lattice(1, budget=4000, tol=1e-4, seed=0)
        assert res.density == pytest.approx(THETA, rel=5e-3)
        assert res.certificate.status in ("tight", "certified_covered")
        assert res.evaluations <= 4000

    def test_reproducible_for_fixed_seed(self):
        a = optimize_single_lattice(2, budget=2500, tol=1e-4, seed=7)
        b = optimize_single_lattice(2, budget=2500, tol=1e-4, seed=7)
        assert a.density == b.density
        assert a.history == b.history

    def test_history_contains_final_density(self):
        res = optimize_single_lattice(1, budget=2500, tol=1e-4, seed=3)
        best_seen = min(v for _, v in res.history)
        assert res.density <= best_seen + 1e-6
        assert res.evaluations == len(res.history)

    def test_memoized_objective_keeps_history(self, monkeypatch):
        calls = []
        radius = diskcover.optimize.covering_radius

        def counted(*args, **kwargs):
            calls.append(args)
            return radius(*args, **kwargs)

        monkeypatch.setattr(diskcover.optimize, "covering_radius", counted)
        res = optimize_single_lattice(1, budget=1000, tol=1e-4, seed=7)
        # history recorded before the objective was memoized
        digest = hashlib.sha256(repr(res.history).encode()).hexdigest()
        assert digest == "c8d0f13fc7f293f7c8b3af0db461d1d14291ad14910f34f2f3d2757b03a99dfa"
        assert res.evaluations == len(res.history) == 1000
        # one call per distinct clipped point; repeats and the winner's
        # final radius are read from the memo
        assert len(calls) <= len({params for params, _ in res.history})
        assert len(calls) < 0.8 * res.evaluations

    def test_history_csv(self):
        res = optimize_single_lattice(1, budget=2000, tol=1e-4, seed=1)
        lines = res.history_csv().strip().splitlines()
        assert lines[0] == "eval_index," + ",".join(res.param_names) + ",density"
        assert len(lines) == len(res.history) + 1

    def test_result_dict(self):
        res = optimize_single_lattice(1, budget=2000, tol=1e-4, seed=1)
        d = res.to_dict()
        assert set(d) >= {"density", "config", "certificate", "evaluations", "converged"}

    def test_rejects_bad_fold_or_budget(self):
        with pytest.raises(ValueError):
            optimize_single_lattice(0)
        with pytest.raises(ValueError):
            optimize_single_lattice(7)
        with pytest.raises(ValueError):
            optimize_single_lattice(2, budget=10)


class TestGridPhase:
    @pytest.mark.parametrize(
        "search, grid_size",
        [
            (lambda: optimize_single_lattice(2, budget=1000, tol=1e-4, seed=7), 504),
            (lambda: optimize_pattern_b(budget=1000, tol=1e-4, seed=7), 72),
        ],
    )
    def test_grid_is_one_batched_search(self, monkeypatch, search, grid_size):
        module = diskcover.optimize
        radius, many, minimize = module.covering_radius, module._covering_radius_many, module.minimize
        single, batched, before_refine = [], [], []

        def counted(*args, **kwargs):
            single.append(args)
            return radius(*args, **kwargs)

        def counted_many(configs, *args, **kwargs):
            batched.append(len(configs))
            return many(configs, *args, **kwargs)

        def first_refine(*args, **kwargs):
            if not before_refine:
                before_refine.append((len(single), list(batched)))
            return minimize(*args, **kwargs)

        monkeypatch.setattr(module, "covering_radius", counted)
        monkeypatch.setattr(module, "_covering_radius_many", counted_many)
        monkeypatch.setattr(module, "minimize", first_refine)
        res = search()
        # the whole grid in one lockstep call, no single search before the
        # first refinement, and none of the later phases batched
        assert before_refine == [(0, [grid_size])]
        assert batched == [grid_size]
        assert single and res.evaluations == len(res.history) > grid_size


class TestOptimizePatternB:
    def test_recovers_honeycomb(self):
        res = optimize_pattern_b(budget=4000, tol=1e-4, seed=0)
        assert res.density == pytest.approx(2 * THETA, abs=5e-3)
        assert res.param_names == ("x", "y", "d")
        assert res.certificate.status in ("tight", "certified_covered")

    def test_evaluations_within_budget(self):
        # the scale-pinning evaluation comes out of the budget, not on top
        res = optimize_pattern_b(budget=1000, tol=1e-4, seed=0)
        assert res.evaluations <= 1000
        assert res.evaluations == len(res.history)

    def test_reproducible(self):
        a = optimize_pattern_b(budget=2000, tol=1e-4, seed=5)
        b = optimize_pattern_b(budget=2000, tol=1e-4, seed=5)
        assert a.density == b.density
