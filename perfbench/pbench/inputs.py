"""Seeded input generators for the three workloads.

Inputs are plain data (dicts, tuples, argv lists) built from the seed with
numpy's generator alone; nothing here imports diskcover, so the program
under test never shapes its own inputs.  Every workload is cut into
rounds, its stratified unit of work: round i of seed s is a pure function
of (s, i), so the same seed always yields the same inputs and every round
holds the same mix of input classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# stream tags keep the three workloads' generators independent
_OPTIMIZE, _CERTIFY, _CLI = 1, 2, 3

CERTIFY_KS = tuple(range(1, 9))
CERTIFY_OFFSET_COUNTS = tuple(range(1, 9))
CERTIFY_TOL = 1e-9
CRITICAL_FAMILIES = ("honeycomb", "square_grid", "half_grid", "pattern_b_boundary")

PATTERNS = ("triangle", "pattern_b", "pattern_c_a", "pattern_c_b")
CLI_KINDS = ("verify", "radius", "density", "voronoi", "bounds", "render")
RENDER_OUT = "{out}"


def _rng(stream: int, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([stream, seed, index])


# ---------------------------------------------------------------- optimize

@dataclass(frozen=True)
class OptimizeCase:
    mode: str  # "single" or "pattern_b"
    k: int
    seed: int


def optimize_round(seed: int, index: int) -> list[OptimizeCase]:
    """k = 1..4 single-lattice searches, then the pattern_b search."""
    call_seed = int(_rng(_OPTIMIZE, seed, index).integers(2**31))
    cases = [OptimizeCase("single", k, call_seed) for k in (1, 2, 3, 4)]
    cases.append(OptimizeCase("pattern_b", 2, call_seed))
    return cases


# ----------------------------------------------------------------- certify

@dataclass(frozen=True)
class CertifyCase:
    config: dict
    k: int
    family: str  # "random" or one of CRITICAL_FAMILIES

    @property
    def critical(self) -> bool:
        return self.family != "random"


def certify_round(seed: int, index: int) -> list[CertifyCase]:
    """One random op per (k, offset count) class plus one per critical family.

    Every round, and so every seed, draws the same count per class; the
    order within a round is shuffled.
    """
    rng = _rng(_CERTIFY, seed, index)
    cases = [
        _random_case(rng, k, n) for k in CERTIFY_KS for n in CERTIFY_OFFSET_COUNTS
    ]
    cases += [_critical_case(rng, family) for family in CRITICAL_FAMILIES]
    return [cases[i] for i in rng.permutation(len(cases))]


def _random_case(rng: np.random.Generator, k: int, n: int) -> CertifyCase:
    """Skewed lattice with n well-separated offsets and a radius near d_k.

    The shape is drawn as a reduced basis (1, 0), (b, c) with aspect c up
    to about 4.6, then sheared by an integer multiple of u (so the basis
    as given is not reduced), rotated and scaled.  The radius is a random
    multiple of the k-fold area scale sqrt(k det / (n pi)), which yields a
    mix of covered and uncovered verdicts.
    """
    while True:
        b = rng.uniform(0.0, 0.5)
        c = math.sqrt(1.0 - b * b) * math.exp(rng.uniform(0.0, math.log(4.0)))
        shear = int(rng.integers(-2, 3))
        rot = _rotation(rng)
        u = rot @ np.array([1.0, 0.0])
        v_reduced = rot @ np.array([b, c])
        v = v_reduced + shear * u
        det = abs(u[0] * v[1] - u[1] * v[0])
        st = rng.uniform(0.0, 1.0, (n, 2))
        offsets = st[:, :1] * u + st[:, 1:] * v
        if _min_separation(offsets, u, v_reduced) >= 0.1 * math.sqrt(det / n):
            break
    radius = math.sqrt(k * det / (n * math.pi)) * rng.uniform(0.9, 2.0)
    return CertifyCase(_config(u, v, offsets, radius), k, "random")


def _critical_case(rng: np.random.Generator, family: str) -> CertifyCase:
    """A configuration whose order-k covering radius equals its disk radius.

    Each is a classical pattern at its critical radius moved by a seeded
    rotation, scaling and translation, so the verdict must be tight.
    """
    s3 = math.sqrt(3.0)
    if family == "honeycomb":
        u, v, offs, k = (s3, 0.0), (s3 / 2.0, 1.5), [(0.0, 0.0), (0.0, 1.0)], 2
    elif family == "square_grid":
        u, v, offs, k = (1.0, 0.0), (0.0, 1.0), [(0.0, 0.0)], 2
    elif family == "half_grid":
        u, v, offs, k = (1.0, 0.0), (0.0, 0.5), [(0.0, 0.0)], 4
    else:
        x = rng.uniform(0.5, 0.95)
        y = math.sqrt(1.0 - x * x) + 1.0
        d = y * rng.uniform(0.3, 1.2)
        u, v, offs, k = (2.0 * x, 0.0), (x, y), [(0.0, 0.0), (0.0, d)], 2
    rot = _rotation(rng)
    shift = rng.uniform(-3.0, 3.0, 2)
    moved = np.asarray(offs) @ rot.T + shift
    scale = float(np.hypot(*rot[:, 0]))
    return CertifyCase(
        _config(rot @ np.asarray(u), rot @ np.asarray(v), moved, scale), k, family
    )


def _rotation(rng: np.random.Generator) -> np.ndarray:
    """Rotation by a random angle times a random scale in [1/2, 2]."""
    phi = rng.uniform(0.0, 2.0 * math.pi)
    s = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
    return s * np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])


def _min_separation(offsets: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """Least distance between two offsets modulo the lattice (u, v reduced)."""
    if len(offsets) < 2:
        return math.inf
    i, j = np.triu_indices(len(offsets), 1)
    diff = offsets[i] - offsets[j]
    a, b = np.meshgrid(np.arange(-2, 3), np.arange(-2, 3))
    shifts = a.reshape(-1, 1) * u + b.reshape(-1, 1) * v
    return float(np.hypot(*(diff[:, None, :] + shifts[None, :, :]).T).min())


def _config(u, v, offsets, radius: float) -> dict:
    return {
        "u": [float(u[0]), float(u[1])],
        "v": [float(v[0]), float(v[1])],
        "offsets": [[float(x), float(y)] for x, y in offsets],
        "radius": float(radius),
    }


# --------------------------------------------------------------------- cli

@dataclass(frozen=True)
class CliCase:
    kind: str
    stages: tuple[tuple[str, ...], ...]  # argv after `python -m diskcover`


def cli_round(seed: int, index: int) -> list[CliCase]:
    """One pipeline of each kind, in seeded order with seeded arguments."""
    rng = _rng(_CLI, seed, index)
    cases = [_cli_case(rng, kind) for kind in CLI_KINDS]
    return [cases[i] for i in rng.permutation(len(cases))]


def _cli_case(rng: np.random.Generator, kind: str) -> CliCase:
    k = str(int(rng.integers(1, 5)))
    if kind == "bounds":
        return CliCase(kind, (("bounds", "--k", str(int(rng.integers(1, 7)))),))
    pattern = _pattern_argv(rng)
    if kind in ("verify", "radius"):
        tol = str(rng.choice(("1e-4", "1e-6")))
        consumer = (kind, "--k", k, "--tol", tol)
    elif kind == "density":
        consumer = ("density", "--k", k)
    elif kind == "voronoi":
        consumer = ("voronoi", "--congruence", "--tol", "1e-6")
    else:
        consumer = ("render", "--out", RENDER_OUT, "--size", str(rng.choice(("320", "640"))))
    return CliCase(kind, (pattern, consumer))


def _pattern_argv(rng: np.random.Generator) -> tuple[str, ...]:
    name = str(rng.choice(PATTERNS))
    if name != "pattern_b":
        return ("pattern", "--name", name)
    x = rng.uniform(0.4, 1.0)
    y = (math.sqrt(1.0 - x * x) + 1.0) * rng.uniform(0.5, 1.0)
    d = y * rng.uniform(0.2, 1.8)
    params = (("--x", x), ("--y", y), ("--d", d))
    return ("pattern", "--name", name, *(a for f, val in params for a in (f, repr(float(val)))))
