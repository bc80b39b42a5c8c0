"""Density minimization over covering configurations.

The disk radius never enters the search directly: for fixed centers the
cheapest certified k-cover scales the disks to the certified upper bound
of the order-k covering radius, giving the objective n * pi * R^2 / det.
Both searches run one multi-start driver: a coarse grid, then simplex
refinements from its points in order of value, best first, until one
finds nothing lower than the values before it.  The objective holds
the one evaluation budget: the call that would pass it raises, which
ends the refinement under way and with it the search.  It has no random
step, so a run is a pure function of the family, k, budget and tol.  The
simplex step is `minimize`, a Nelder-Mead port kept here so the package
needs numpy alone.  It keeps its simplex and values in Python lists of
floats, whose arithmetic rounds as numpy's elementwise operations do, and
calls numpy only to order the values, since its unstable argsort decides
ties, and to hand each point to the objective as an array.
"""

from __future__ import annotations

import io
import math
from functools import reduce
from operator import add, itemgetter

from ._lazy import lazy_numpy
from .coverage import CoveringRadius, covering_radius
from .coverage import verify_k_coverage  # noqa: F401 (unused here; perfbench hooks this name)
from .density import config_density, scaled_density
from .geometry import Point, Record, _check_k
from .lattice import Basis, PeriodicConfig
from .patterns import pattern_b
from .voronoi import all_cells_congruent  # noqa: F401 (unused here; perfbench hooks this name)

np = lazy_numpy()

MAX_FOLD = 6
_C_MAX = 3.5


class OptimizationResult(Record):
    _fields = ("best_config", "density", "certificate", "history", "converged",
               "param_names")
    # the one mutable record, and so unhashable
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    @property
    def evaluations(self) -> int:
        return len(self.history)

    def to_dict(self) -> dict:
        return {
            "density": self.density,
            "config": self.best_config.to_dict(),
            "certificate": self.certificate.to_dict(),
            "evaluations": self.evaluations,
            "converged": self.converged,
            "param_names": list(self.param_names),
        }

    def history_csv(self) -> str:
        buf = io.StringIO()
        buf.write("eval_index," + ",".join(self.param_names) + ",density\n")
        for i, (params, dens) in enumerate(self.history):
            cols = ",".join(repr(p) for p in params)
            buf.write(f"{i},{cols},{dens!r}\n")
        return buf.getvalue()


# Nelder-Mead stops once every vertex is within _XATOL of the best one in
# each coordinate and every value within _FATOL of the best value
_XATOL = 1e-7
_FATOL = 1e-10


class _OutOfEvaluations(Exception):
    """Raised in place of the objective call that would pass the budget."""


def minimize(func, x0) -> None:
    """Nelder-Mead simplex descent on `func` from `x0`.

    Nelder & Mead (1965) as the standard non-adaptive implementation in
    SciPy runs it: reflection 1, expansion 2, contraction 1/2, shrink 1/2,
    a start simplex that scales each coordinate by 1.05 (or sets it to
    0.00025 where it is 0), a re-sort by value after every step, and a stop
    once `_XATOL` and `_FATOL` both hold.  It calls `func` on the same
    points in the same order, bit for bit, which the tests check where
    that library is installed.  It has no call limit of its own: the
    caller bounds the calls through `func`, whose exception ends the
    descent, and reads the outcome from what `func` records, so nothing
    is returned.
    """

    def by_value(sim, fsim):
        # argsort's default kind, as in the reference: it is not stable,
        # and the order it gives ties decides which vertex moves next
        order = np.array(fsim).argsort().tolist()
        return [sim[i] for i in order], [fsim[i] for i in order]

    x0 = [float(x) for x in x0]
    n = len(x0)
    step = [1.05 * x if x != 0 else 0.00025 for x in x0]
    sim = [x0] + [x0[:i] + step[i : i + 1] + x0[i + 1 :] for i in range(n)]
    sim, fsim = by_value(sim, [func(np.array(x)) for x in sim])

    while not (
        all(abs(a - b) <= _XATOL for x in sim[1:] for a, b in zip(x, sim[0]))
        and all(abs(fsim[0] - f) <= _FATOL for f in fsim[1:])
    ):
        # the centroid of all but the worst vertex, summed in vertex order as
        # numpy sums the rows of the reference
        xbar = [reduce(add, col) / n for col in zip(*sim[:-1])]
        worst = sim[-1]
        xr = [2 * b - w for b, w in zip(xbar, worst)]
        fxr = func(np.array(xr))
        if fxr < fsim[0]:
            xe = [3 * b - 2 * w for b, w in zip(xbar, worst)]
            fxe = func(np.array(xe))
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                # outside contraction
                xc = [1.5 * b - 0.5 * w for b, w in zip(xbar, worst)]
                fxc = func(np.array(xc))
                accept = fxc <= fxr
            else:
                # inside contraction
                xc = [0.5 * b + 0.5 * w for b, w in zip(xbar, worst)]
                fxc = func(np.array(xc))
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:
                best = sim[0]
                for j in range(1, n + 1):
                    sim[j] = [a + 0.5 * (x - a) for a, x in zip(best, sim[j])]
                    fsim[j] = func(np.array(sim[j]))
        sim, fsim = by_value(sim, fsim)


def optimal_scaled_density(
    config: PeriodicConfig, k: int, tol: float = 1e-6
) -> float:
    """Density after shrinking the disks to the certified k-cover radius."""
    return scaled_density(config, covering_radius(config, k, tol).high)


def _multistart(
    param_names: tuple[str, ...], k: int, grid, clip, build, budget: int,
    tol: float, pin=None,
) -> OptimizationResult:
    """Grid scan, then simplex refinements until one gains nothing, then the pin.

    `clip` maps raw parameters into the family's feasible box and `build`
    turns clipped parameters into a unit-radius configuration; every
    evaluation is the scaled density of that configuration.  The grid
    points, best first, start one `minimize` run each.  The refinements
    stop after the first whose least value is not strictly below every
    value before it, or when the objective refuses the call that would
    pass the budget.  `pin`, when given, moves the winner along a ray the
    objective is constant on; its one evaluation is reserved from the
    budget up front; the budget of at least 1000 holds every grid.  The
    objective is memoized on the clipped parameters, since the simplex and
    the clip revisit points; every evaluation still counts and enters the
    history.  The winner, the first least value in the history, is
    reported with its disks shrunk to the certified covering radius and
    its certificate read from the memoized enclosure, so no clipped
    parameters are searched twice.
    """
    k = _check_k(k, MAX_FOLD)
    if budget < 1000:
        raise ValueError(f"budget must be at least 1000, got {budget}")
    # clipped parameters -> (scaled density, enclosure of the covering radius)
    memo: dict[tuple[float, ...], tuple[float, CoveringRadius]] = {}
    history: list[tuple[tuple[float, ...], float]] = []
    limit = budget - (pin is not None)

    def evaluate(params) -> float:
        if len(history) >= limit:
            raise _OutOfEvaluations
        params = tuple(map(float, params))
        key = clip(params)
        if key not in memo:
            config = build(key)
            enclosure = covering_radius(config, k, tol)
            memo[key] = (scaled_density(config, enclosure.high), enclosure)
        history.append((params, memo[key][0]))
        return memo[key][0]

    for params in grid:
        evaluate(params)
    for params, _ in sorted(history, key=itemgetter(1)):
        start = len(history)
        best_before = min(value for _, value in history)
        try:
            minimize(evaluate, params)
        except _OutOfEvaluations:
            break
        if min(value for _, value in history[start:]) >= best_before:
            break

    best = clip(min(history, key=itemgetter(1))[0])
    if pin is not None:
        best = pin(best)
        limit = budget
        evaluate(best)
        best = clip(best)
    # the winner was evaluated, so its enclosure is in the memo
    enclosure = memo[best][1]
    bare = build(best)
    config = PeriodicConfig(bare.basis, bare.offsets, enclosure.high)
    return OptimizationResult(
        best_config=config,
        density=config_density(config),
        certificate=enclosure.certificate(k, config.radius, tol),
        history=history,
        converged=len(history) < budget,
        param_names=param_names,
    )


def optimize_single_lattice(
    k: int, budget: int = 20000, tol: float = 1e-4, seed: int = 0
) -> OptimizationResult:
    """Minimize scaled density over single-offset lattices.

    Lattice shapes are parametrized by the reduced basis (1, 0), (b, c)
    with 0 <= b <= 1/2 and c >= sqrt(1 - b^2); every planar lattice is a
    scaled copy of one of these, and the objective is scale-invariant.
    `seed` is unused: the search has no random step.
    """

    def c_min(b):
        return math.sqrt(1.0 - b * b)

    def clip(params):
        b = min(max(params[0], 0.0), 0.5)
        return b, min(max(params[1], c_min(b)), _C_MAX)

    def build(params):
        return PeriodicConfig(Basis((1.0, 0.0), params), (Point(0.0, 0.0),), 1.0)

    # 6 x 8 starts reached the winners of a 21 x 24 grid at tol 1e-4: bit
    # for bit for k = 1, 4, 5, 6, within 3e-16 relative for k = 3, and
    # 4.1e-6 to 6.9e-6 lower for k = 2, while 4 x 6, 8 x 10 and 3 x 4 ended
    # 1.1e-5 to 2e-5 worse on k = 3 or 5
    grid = [
        (b, c)
        for b in np.linspace(0.0, 0.5, 6)
        for c in np.linspace(c_min(b), _C_MAX, 8)
    ]
    return _multistart(("b", "c"), k, grid, clip, build, budget, tol)


def optimize_pattern_b(
    budget: int = 20000, tol: float = 1e-4, seed: int = 0
) -> OptimizationResult:
    """Minimize scaled two-cover density over the pattern_b family.

    Every triple meets the congruent-cell condition: the point reflection
    through (0, d/2), the midpoint of the two offsets, maps the centrally
    symmetric base lattice onto its translate by (0, d) and back, so it
    swaps the two translate classes and with them their Voronoi cells.
    The objective is invariant under rescaling (x, y, d), so the winning
    ray is reported at its feasibility boundary y = sqrt(1 - x^2) + 1,
    which pins the scale.  `seed` is unused: the search has no random step.
    """

    def y_max(x):
        # x <= 1 in the clip and the start grid, so 1 - x^2 >= 0 in floats
        return math.sqrt(1.0 - x * x) + 1.0

    def clip(params):
        x = min(max(params[0], 0.1), 1.0)
        y = min(max(params[1], 0.15), y_max(x))
        return x, y, min(max(params[2], 0.05 * y), 1.95 * y)

    def pin(params):
        x, y, d = params
        lam = 2.0 * y / (x * x + y * y)
        return lam * x, lam * y, lam * d

    grid = [
        (x, y, y * dfrac)
        for x in np.linspace(0.3, 1.0, 8)
        for y in (y_max(x) * yfrac for yfrac in (0.5, 0.8, 1.0))
        for dfrac in (0.4, 0.7, 1.0)
    ]
    return _multistart(
        ("x", "y", "d"), 2, grid, clip, lambda p: pattern_b(*p), budget,
        tol, pin,
    )
