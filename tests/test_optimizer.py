import contextlib
import hashlib
import math

import numpy as np
import pytest

import diskcover.optimize
from diskcover import (
    Basis,
    CoveringRadius,
    PeriodicConfig,
    Point,
    kershner_theta,
    optimal_scaled_density,
    optimize_pattern_b,
    optimize_single_lattice,
)

THETA = kershner_theta()


def _quadratic(x):
    return float((x[0] - 1.0) ** 2 + 3.0 * (x[1] + 0.5) ** 2 + 0.1 * x[2] ** 2)


def _rosenbrock(x):
    return float(sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _plateau(x):
    # flat steps: trial points tie with the worst vertex, so the simplex
    # shrinks, and the start simplex's values (2, 2, 1, 1) meet the
    # unstable argsort
    return float(math.floor(25.0 * (2.0 * abs(x[0]) + abs(x[1] - 1.25) + abs(x[2] + 0.75))))


def _walled(x):
    # inf beyond a wall the start simplex already crosses
    return math.inf if x[1] > 1.25 else _quadratic(x)


class _Capped(Exception):
    """Raised by a test objective in place of the call past its cap."""


class TestNelderMead:
    """The in-repo port makes scipy's Nelder-Mead calls, bit for bit."""

    # in n dimensions the start simplex takes n + 1 calls, so caps 1..n
    # stop inside it; on the 3-D plateau cap 13 stops inside a shrink (see
    # below); no descent here reaches cap 10**6, so it compares the whole
    # of each
    @pytest.mark.parametrize("cap", [1, 2, 3, 8, 13, 200, 10**6])
    @pytest.mark.parametrize("objective", [_quadratic, _rosenbrock, _plateau, _walled])
    def test_same_calls_as_scipy(self, objective, cap):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        start = (0.0, 1.2, -0.7)
        # the pattern_b dimension, then the single-lattice one: the same
        # objectives on the plane through the 3-D start where x[2] = -0.7
        for x0 in (start, start[:2]):

            def recorded(calls):
                def f(x):
                    # the port has no call limit: the objective enforces it
                    if len(calls) >= cap:
                        raise _Capped
                    value = objective(np.append(x, start[len(x) :]))
                    calls.append((repr(x.tolist()), repr(value)))
                    return value

                return f

            ours, theirs = [], []
            with contextlib.suppress(_Capped):
                diskcover.optimize.minimize(recorded(ours), x0)
            scipy_optimize.minimize(
                recorded(theirs),
                np.asarray(x0),
                method="Nelder-Mead",
                options={
                    "xatol": diskcover.optimize._XATOL,
                    "fatol": diskcover.optimize._FATOL,
                    "maxfev": cap,
                },
            )
            assert ours == theirs
            assert len(ours) <= cap

    def test_cap_stops_inside_a_shrink(self):
        points = []

        def f(x):
            if len(points) >= 13:
                raise _Capped
            points.append(x.copy())
            return _plateau(x)

        with pytest.raises(_Capped):
            diskcover.optimize.minimize(f, (0.0, 1.2, -0.7))
        *earlier, a, b = points

        def halfway(x, p):
            # x lies halfway between p and an earlier point
            return any(np.allclose(2.0 * x - p, q, rtol=0.0, atol=1e-15) for q in earlier)

        # the last two calls move two vertices halfway to the best one; the
        # shrink's third call would pass the cap
        assert len(points) == 13
        assert any(halfway(a, p) and halfway(b, p) for p in earlier)


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
        res = optimize_single_lattice(1, budget=4000, tol=1e-4)
        assert res.density == pytest.approx(THETA, rel=5e-3)
        assert res.certificate.status in ("tight", "certified_covered")
        assert res.evaluations <= 4000

    def test_reproducible_for_fixed_seed(self):
        # the search has no random step, so the inert seed changes nothing
        a = optimize_single_lattice(2, budget=2500, tol=1e-4, seed=7)
        b = optimize_single_lattice(2, budget=2500, tol=1e-4, seed=123456789)
        assert a.to_dict() == b.to_dict()
        assert a.history == b.history

    def test_history_contains_final_density(self):
        res = optimize_single_lattice(1, budget=2500, tol=1e-4)
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
        res = optimize_single_lattice(1, budget=1000, tol=1e-4)
        # history recorded with the refinements stopped after the first that
        # lowers nothing: here the first.  Refinements from the 5 best grid
        # points gave 30f71065...2a0c2b52a5c0d in 533 evaluations, of which
        # this history is the first 125.  With the 60-point seeded polish
        # that followed them it was 3897fef9...b4d88f2e in 593 evaluations:
        # that history, then the polish points.  Older pins, all with the
        # polish: numpy's dot products in basis reduction gave
        # e242452d...c1c0aed, also in 593, where a reduction tie resolved
        # the other way.  The branch-and-bound without the exact finish gave
        # 220b13ef...21fac485 in 755 with the 6 x 8 start grid.  The 21 x 24
        # grid spent all 1000 evaluations and gave c09d6573...7323fe91 with
        # the root culled to the reduced cell, and c8d0f13f...b03a99dfa with
        # the bounding-box root, recorded before the objective was memoized
        digest = hashlib.sha256(repr(res.history).encode()).hexdigest()
        assert digest == "ec557614bef38ce65316206abc100b0c7a56306506ac52750a08d446e22f99cf"
        assert res.evaluations == len(res.history) == 125
        # one call per distinct clipped point; repeats and the winner's
        # final radius are read from the memo
        assert len(calls) <= len({params for params, _ in res.history})
        assert len(calls) < 0.8 * res.evaluations

    def test_history_csv(self):
        res = optimize_single_lattice(1, budget=2000, tol=1e-4)
        lines = res.history_csv().strip().splitlines()
        assert lines[0] == "eval_index," + ",".join(res.param_names) + ",density"
        assert len(lines) == len(res.history) + 1

    def test_result_dict(self):
        res = optimize_single_lattice(1, budget=2000, tol=1e-4)
        d = res.to_dict()
        assert set(d) >= {"density", "config", "certificate", "evaluations", "converged"}

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize(
        # the winners of the 21 x 24 start grid that the 6 x 8 grid replaced
        "k, before",
        [(5, 5.428407248328219), (6, 6.583950573853938)],
    )
    def test_higher_fold_winners_hold(self, k, before, seed):
        # seed is inert: the search has no random step
        assert optimize_single_lattice(k, seed=seed).density <= before * (1 + 1e-9)

    def test_rejects_bad_fold_or_budget(self):
        with pytest.raises(ValueError):
            optimize_single_lattice(0)
        with pytest.raises(ValueError):
            optimize_single_lattice(7)
        with pytest.raises(ValueError):
            optimize_single_lattice(True)
        with pytest.raises(ValueError):
            optimize_single_lattice(2, budget=10)


# winners at tol 1e-4 and the default budget, recorded before the seeded
# random polish was deleted; it never moved one
WINNERS = {
    1: "6416a9f158741e24330382b19328f583d83ecf70517ff0009eceee9011b1a595",
    2: "6820c809418d017e2fdc5e9563e0f76846996c9c2ed6ec06c9c35249f0b571c7",
    3: "86936cc4bd680c41f4c0d5f0a8f3367ba268e2a63ba58dd758b97e47be1d0bad",
    4: "9e4724c5462f245ac645ec9a79b5e4f3fba2b9814258f13e710b45268b001a91",
    5: "3c361c7e7af15e192df9eb61d3b9098ebda1127cc48cd878909eb1cc58306c87",
    6: "4ff50769265547f2f7d5dd78023e893daa1ab98b6115e4f40b4e8ad6edec4e3b",
    "pattern_b": "dcaa83ffac7d6b296beb6ce60c00c7c67582fa5a271fca96fb0fd608baa8e2c7",
}


@pytest.mark.parametrize("case", list(WINNERS))
def test_pinned_winners(case):
    if case == "pattern_b":
        res = optimize_pattern_b(tol=1e-4)
    else:
        res = optimize_single_lattice(case, tol=1e-4)
    winner = (res.density, res.best_config.to_dict(), res.certificate.to_dict(), res.converged)
    assert hashlib.sha256(repr(winner).encode()).hexdigest() == WINNERS[case]


# every (params, value) of the benchmark's five searches at tol 1e-4 and
# the default budget, with the evaluation count; 1218 evaluations in all
HISTORIES = {
    1: (125, "ec557614bef38ce65316206abc100b0c7a56306506ac52750a08d446e22f99cf"),
    2: (354, "5ae9e83595ebc62604ecc3f52663e159c2d04efe2aae7cd60bbfb156201c8855"),
    3: (286, "3b1bcb0908ab80b157328d594992100500dc58d019752b21c564f3b1b85b3d61"),
    4: (128, "774ea350886708ecb08eebb1b1169de0545c800be6f7cc3c3b2db73b1007e734"),
    "pattern_b": (325, "3f7d03ce2a28c565fdff343f82f196d6196b6d045cec1905bb137173eeb57572"),
}


@pytest.mark.parametrize("case", list(HISTORIES))
def test_pinned_histories(case):
    if case == "pattern_b":
        res = optimize_pattern_b(tol=1e-4)
    else:
        res = optimize_single_lattice(case, tol=1e-4)
    digest = hashlib.sha256(repr(res.history).encode()).hexdigest()
    assert (res.evaluations, digest) == HISTORIES[case]


# refinements per pinned search: the last one is the first that finds
# nothing lower than the values before it
REFINEMENTS = {1: 1, 2: 2, 3: 2, 4: 1, 5: 3, 6: 1, "pattern_b": 2}


@pytest.mark.parametrize("case", list(REFINEMENTS))
def test_refinements_per_search(monkeypatch, case):
    module = diskcover.optimize
    minimize, refinements = module.minimize, []

    def counted(func, x0):
        refinements.append(x0)
        return minimize(func, x0)

    monkeypatch.setattr(module, "minimize", counted)
    if case == "pattern_b":
        optimize_pattern_b(tol=1e-4)
    else:
        optimize_single_lattice(case, tol=1e-4)
    assert len(refinements) == REFINEMENTS[case]


def test_fifth_fold_converges_in_a_small_budget():
    # with refinements from the 5 best grid points it spent all 1000
    # evaluations on the same winner and reported converged False
    res = optimize_single_lattice(5, budget=1000)
    assert res.density == 5.428161882165825
    assert res.evaluations == 651
    assert res.converged is True


class TestStopRule:
    """Refinements start from the grid points in order of value, best
    first, and stop after the first that lowers nothing or at the budget."""

    # scrambled, so that the order of the starts shows; the objective pi / p
    # falls as p grows
    GRID = [(1.0 + (3 * i % 10) / 10,) for i in range(10)]
    # points a stub refinement evaluates unless the budget stops it
    REFINE = 300

    def run(self, monkeypatch, improving, pin=None):
        """`_multistart` at budget 1000 with a stub `minimize` whose first
        `improving` refinements evaluate REFINE points; returns the result,
        the starts, and the evaluations each refinement made."""
        module = diskcover.optimize
        starts, made = [], []

        def refine(func, x0):
            starts.append(tuple(x0))
            made.append(0)
            if len(starts) > improving:
                # its own start again: nothing lower
                func(np.array(x0))
                made[-1] += 1
                return
            # every point lies beyond all those evaluated before it
            for i in range(self.REFINE):
                func(np.array([2.0 * len(starts) + i / self.REFINE]))
                made[-1] += 1

        def build(params):
            return PeriodicConfig(Basis((1.0, 0.0), (0.0, params[0])), [(0.0, 0.0)], 1.0)

        monkeypatch.setattr(module, "minimize", refine)
        # the winner's certificate is built from the memoized enclosure
        enclosure = CoveringRadius(1.0, 1.0, Point(0.0, 0.0), boxes=1, converged=True)
        monkeypatch.setattr(module, "covering_radius", lambda *a: enclosure)
        res = module._multistart(("p",), 1, self.GRID, tuple, build, 1000, 1e-4, pin)
        return res, starts, made

    @pytest.mark.parametrize(
        # caps: the evaluations each refinement made before it returned or
        # the objective refused the one past the budget
        "improving, caps, evaluations",
        [
            (0, [1], 11),
            (2, [300, 300, 1], 611),
            # every refinement improves: the fourth gets the 90 evaluations
            # left, and the budget ends the search
            (99, [300, 300, 300, 90], 1000),
        ],
    )
    def test_stops_at_the_first_refinement_without_gain(
        self, monkeypatch, improving, caps, evaluations
    ):
        res, starts, made = self.run(monkeypatch, improving)
        assert made == caps
        assert starts == sorted(self.GRID, reverse=True)[: len(caps)]
        assert res.evaluations == len(res.history) == evaluations <= 1000
        assert res.converged is (evaluations < 1000)

    def test_pin_evaluation_is_reserved_from_a_binding_budget(self, monkeypatch):
        # the refinements keep improving, so they spend all but the one
        # evaluation held back for the pin, which comes last
        res, _, made = self.run(monkeypatch, 99, pin=lambda best: (best[0] / 2,))
        assert made == [300, 300, 300, 89]
        assert res.evaluations == len(res.history) == 1000
        (winner,), _ = min(res.history[:-1], key=lambda entry: entry[1])
        assert res.history[-1] == ((winner / 2,), math.pi / (winner / 2))
        assert res.converged is False


class TestGridPhase:
    @pytest.mark.parametrize(
        "search, grid_size",
        [
            (lambda: optimize_single_lattice(2, budget=1000, tol=1e-4), 48),
            (lambda: optimize_pattern_b(budget=1000, tol=1e-4), 72),
        ],
    )
    def test_grid_goes_through_the_one_driver(self, monkeypatch, search, grid_size):
        module = diskcover.optimize
        radius, minimize = module.covering_radius, module.minimize
        searched, before_refine = [], []

        def counted(config, *args, **kwargs):
            searched.append(repr(config))
            return radius(config, *args, **kwargs)

        def first_refine(*args, **kwargs):
            if not before_refine:
                before_refine.append(list(searched))
            return minimize(*args, **kwargs)

        monkeypatch.setattr(module, "covering_radius", counted)
        monkeypatch.setattr(module, "minimize", first_refine)
        res = search()
        # one search per distinct clipped grid point before the first
        # refinement, each through covering_radius
        (grid,) = before_refine
        assert len(grid) == len(set(grid)) == grid_size
        assert res.evaluations == len(res.history) > grid_size


class TestOptimizePatternB:
    def test_recovers_honeycomb(self):
        res = optimize_pattern_b(budget=4000, tol=1e-4)
        assert res.density == pytest.approx(2 * THETA, abs=5e-3)
        assert res.param_names == ("x", "y", "d")
        assert res.certificate.status in ("tight", "certified_covered")

    def test_evaluations_within_budget(self):
        # the scale-pinning evaluation comes out of the budget, not on top
        res = optimize_pattern_b(budget=1000, tol=1e-4)
        assert res.evaluations <= 1000
        assert res.evaluations == len(res.history)

    def test_reproducible(self):
        a = optimize_pattern_b(budget=2000, tol=1e-4)
        b = optimize_pattern_b(budget=2000, tol=1e-4)
        assert a.density == b.density
