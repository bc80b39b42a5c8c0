"""Density minimization over covering configurations.

The disk radius never enters the search directly: for fixed centers the
cheapest certified k-cover scales the disks to the certified upper bound
of the order-k covering radius, giving the objective n * pi * R^2 / det.
Both searches run one multi-start driver: a coarse grid, simplex
refinements of its best points, and a small seeded random polish at the
end; with a fixed seed the whole run is deterministic.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .coverage import CoverageCertificate, covering_radius, verify_k_coverage
from .density import config_density
from .geometry import Point
from .lattice import Basis, PeriodicConfig
from .patterns import pattern_b
from .voronoi import all_cells_congruent  # noqa: F401 (unused here; perfbench hooks this name)

MAX_FOLD = 6
_C_MAX = 3.5


@dataclass
class OptimizationResult:
    best_config: PeriodicConfig
    density: float
    certificate: CoverageCertificate
    evaluations: int
    history: list[tuple[tuple[float, ...], float]]
    converged: bool
    param_names: tuple[str, ...]

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


def optimal_scaled_density(
    config: PeriodicConfig, k: int, tol: float = 1e-6
) -> float:
    """Density after shrinking the disks to the certified k-cover radius."""
    enclosure = covering_radius(config, k, tol)
    n = len(config.offsets)
    return n * math.pi * enclosure.high**2 / config.basis.det


def golden_section(
    f, a: float, b: float, tol: float = 1e-10, maximize: bool = False
) -> tuple[float, float]:
    """Golden-section search on [a, b] for a unimodal objective."""
    if not b > a:
        raise ValueError("empty interval")
    sign = -1.0 if maximize else 1.0
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = sign * f(c), sign * f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = sign * f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = sign * f(d)
    x = (a + b) / 2.0
    return x, f(x)


class _Search:
    """Shared bookkeeping: evaluation budget, history, memoized best."""

    def __init__(self, objective, budget: int):
        self.objective = objective
        self.budget = budget
        self.history: list[tuple[tuple[float, ...], float]] = []
        self.best_params: tuple[float, ...] | None = None
        self.best_value = math.inf

    @property
    def evaluations(self) -> int:
        return len(self.history)

    @property
    def remaining(self) -> int:
        return self.budget - self.evaluations

    def __call__(self, params) -> float:
        params = tuple(float(p) for p in params)
        value = self.objective(params)
        self.history.append((params, value))
        if value < self.best_value:
            self.best_value = value
            self.best_params = params
        return value

    def refine(self, start, max_evals: int) -> None:
        cap = min(max_evals, self.remaining)
        if cap < 8:
            return
        minimize(
            lambda p: self(p),
            np.asarray(start, dtype=float),
            method="Nelder-Mead",
            options={
                "xatol": 1e-7,
                "fatol": 1e-10,
                "maxfev": cap,
                "maxiter": 10 * cap,
            },
        )

    def polish(self, rng: np.random.Generator, sigma, rounds: int) -> None:
        sigma = np.asarray(sigma, dtype=float)
        for _ in range(rounds):
            if self.remaining < 1 or self.best_params is None:
                return
            cand = np.asarray(self.best_params) + rng.normal(0.0, 1.0, len(sigma)) * sigma
            self(cand)


def _multistart(
    param_names: tuple[str, ...], k: int, grid, clip, build, starts: int,
    refine_cap: int, budget: int, tol: float, seed: int, pin=None,
) -> OptimizationResult:
    """Grid scan, simplex refinement of the best starts, seeded polish.

    `clip` maps raw parameters into the family's feasible box and `build`
    turns clipped parameters into a unit-radius configuration; every
    evaluation is the scaled density of that configuration.  `pin`, when
    given, moves the winner along a ray the objective is constant on; its
    one evaluation is reserved from the budget up front.  The winner is
    reported with its disks shrunk to the certified covering radius.
    """
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= MAX_FOLD:
        raise ValueError(f"k must be an integer in [1, {MAX_FOLD}], got {k!r}")
    if budget < 1000:
        raise ValueError(f"budget must be at least 1000, got {budget}")
    rng = np.random.default_rng(seed)
    search = _Search(
        lambda params: optimal_scaled_density(build(clip(params)), k, tol),
        budget - (pin is not None),
    )
    for params in grid:
        if search.remaining <= 0:
            break
        search(params)
    for params, _ in sorted(search.history, key=lambda item: item[1])[:starts]:
        search.refine(params, refine_cap)
    search.polish(rng, sigma=(2e-3,) * len(param_names), rounds=60)

    best = clip(search.best_params)
    if pin is not None:
        best = pin(best)
        search(best)
        best = clip(best)
    bare = build(best)
    radius = covering_radius(bare, k, tol).high
    config = PeriodicConfig(bare.basis, bare.offsets, radius)
    return OptimizationResult(
        best_config=config,
        density=config_density(config),
        certificate=verify_k_coverage(config, k, tol),
        evaluations=search.evaluations,
        history=search.history,
        converged=search.evaluations < budget,
        param_names=param_names,
    )


def optimize_single_lattice(
    k: int, budget: int = 20000, tol: float = 1e-4, seed: int = 0
) -> OptimizationResult:
    """Minimize scaled density over single-offset lattices.

    Lattice shapes are parametrized by the reduced basis (1, 0), (b, c)
    with 0 <= b <= 1/2 and c >= sqrt(1 - b^2); every planar lattice is a
    scaled copy of one of these, and the objective is scale-invariant.
    """

    def c_min(b):
        return math.sqrt(max(1.0 - b * b, 0.0))

    def clip(params):
        b = min(max(params[0], 0.0), 0.5)
        return b, min(max(params[1], c_min(b)), _C_MAX)

    def build(params):
        return PeriodicConfig(Basis((1.0, 0.0), params), (Point(0.0, 0.0),), 1.0)

    grid = [
        (b, c)
        for b in np.linspace(0.0, 0.5, 21)
        for c in np.linspace(c_min(b), _C_MAX, 24)
    ]
    return _multistart(("b", "c"), k, grid, clip, build, 5, 700, budget, tol, seed)


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
    which pins the scale.
    """

    def y_max(x):
        return math.sqrt(max(1.0 - x * x, 0.0)) + 1.0

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
        ("x", "y", "d"), 2, grid, clip, lambda p: pattern_b(*p), 4, 900,
        budget, tol, seed, pin,
    )
