"""Constructors for the named periodic covering patterns.

All patterns emit unit-radius disks; densities follow from the lattice
geometry alone.  The two-parameter-family bound pattern_b_density_bound
gives the least density any two-fold covering from that family can have
at a given column half-spacing x.
"""

from __future__ import annotations

import math

from .geometry import Point, Record
from .lattice import Basis, PeriodicConfig

PATTERN_NAMES = ("triangle", "pattern_b", "pattern_c_a", "pattern_c_b")


def triangle_pattern() -> PeriodicConfig:
    """Unit-radius disks on the vertices of the unit-edge hexagonal tiling.

    Two translate classes per period; every center has three nearest
    neighbors at distance 1 and the Voronoi cells are congruent
    equilateral triangles with circumradius 1.
    """
    s3 = math.sqrt(3.0)
    return PeriodicConfig(
        Basis((s3, 0.0), (s3 / 2.0, 1.5)),
        (Point(0.0, 0.0), Point(0.0, 1.0)),
        1.0,
    )


def pattern_b(x: float, y: float, d: float) -> PeriodicConfig:
    """Two interleaved stacks of evenly spaced unit disks.

    The base lattice has basis (2x, 0), (x, y); the second stack is the
    first translated by (0, d).  Feasibility keeps every disk within
    reach of its diagonal neighbors: y can exceed sqrt(1 - x^2) + 1 only
    by giving up double coverage, so such parameters are rejected.
    """
    for name, val in (("x", x), ("y", y), ("d", d)):
        if not math.isfinite(val):
            raise ValueError(f"infeasible pattern parameters ({name} not finite)")
    if not 0.0 < x <= 1.0:
        raise ValueError("infeasible pattern parameters (x outside (0, 1])")
    if y <= 0.0 or y > math.sqrt(1.0 - x * x) + 1.0 + 1e-12:
        raise ValueError("infeasible pattern parameters (y exceeds sqrt(1-x^2)+1)")
    if not 0.0 < d < 2.0 * y:
        raise ValueError("infeasible pattern parameters (d outside (0, 2y))")
    return PeriodicConfig(
        Basis((2.0 * x, 0.0), (x, y)),
        (Point(0.0, 0.0), Point(0.0, d)),
        1.0,
    )


def pattern_b_density_bound(x: float) -> float:
    """Least two-cover density of the pattern_b family at given x."""
    if not (math.isfinite(x) and 0.0 < x <= 1.0):
        raise ValueError(f"domain: x must lie in (0, 1], got {x}")
    return math.pi / (x * (math.sqrt(1.0 - x * x) + 1.0))


def tangent_pattern_c(variant: str = "a", spacing: float = 1.0) -> PeriodicConfig:
    """Grid of unit disks with unit horizontal pitch and tangent pairs.

    Centers two columns apart sit at distance 2, so their disks are
    tangent.  Variant "a" is the square grid, where a vertical tangent
    pair meets every horizontal one at the same point; variant "b" takes
    a vertical spacing of at most 1 (default 1), which for any smaller
    spacing leaves the horizontal family as the only tangencies.  Cell
    area is the vertical spacing, so the density pi / spacing is lowest,
    exactly pi, at the default.
    """
    if variant == "a":
        return PeriodicConfig(Basis((1.0, 0.0), (0.0, 1.0)), (Point(0.0, 0.0),), 1.0)
    if variant != "b":
        raise ValueError(f"unknown pattern_c variant {variant!r}")
    if not (math.isfinite(spacing) and 0.0 < spacing <= 1.0):
        raise ValueError("infeasible pattern parameters (vertical spacing outside (0, 1])")
    return PeriodicConfig(Basis((1.0, 0.0), (0.0, spacing)), (Point(0.0, 0.0),), 1.0)


class PatternSpec(Record):
    """Named pattern plus its parameters, as given on the command line."""

    _fields = ("name", "x", "y", "d")

    def __init__(self, name: str, x: float | None = None, y: float | None = None,
                 d: float | None = None) -> None:
        if name not in PATTERN_NAMES:
            raise ValueError(f"unknown pattern {name!r}")
        params = (x, y, d)
        if name == "pattern_b":
            if any(p is None for p in params):
                raise ValueError("pattern_b requires x, y, and d")
        elif any(p is not None for p in params):
            raise ValueError(f"pattern {name!r} takes no parameters")
        self.__dict__.update(name=name, x=x, y=y, d=d)

    def build(self) -> PeriodicConfig:
        if self.name == "triangle":
            return triangle_pattern()
        if self.name == "pattern_b":
            return pattern_b(self.x, self.y, self.d)
        return tangent_pattern_c(self.name.removeprefix("pattern_c_"))
