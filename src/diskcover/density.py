"""Covering densities and the classical reference values.

Density of a periodic configuration is total disk area per unit of
fundamental-domain area: n * pi * r^2 / det.  The classical constants
are computed from their defining expressions, never hard-coded: the
one-cover optimum is pi over the area of the regular hexagon inscribed
in the unit circle.
"""

from __future__ import annotations

import math

from .geometry import Record, _check_k
from .lattice import PeriodicConfig

HEXAGON_AREA = 3.0 * math.sqrt(3.0) / 2.0


def kershner_theta() -> float:
    """Minimum density of a one-fold covering by congruent disks."""
    return math.pi / HEXAGON_AREA


def config_density(config: PeriodicConfig) -> float:
    return scaled_density(config, config.radius)


def scaled_density(config: PeriodicConfig, radius: float) -> float:
    """Density of config's centers with disks of the given radius."""
    return len(config.offsets) * math.pi * radius**2 / config.basis.det


def cell_density(cell, radius: float) -> float:
    """Disk area over the area of `cell`, a `VoronoiCell`: the per-cell
    share of the density."""
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"radius must be positive, got {radius}")
    return math.pi * radius**2 / cell.polygon.area


def toth_lower_bound(k: int) -> float:
    """Lower bound (pi/3) / sin(pi / (3k)) for k-fold covering density."""
    k = _check_k(k)
    return (math.pi / 3.0) / math.sin(math.pi / (3.0 * k))


_BLUNDON_MULTIPLIERS = {1: 1.0, 2: 2.0, 3: 2.841, 4: 3.608}
_DANZER_TWOFOLD = (2.094, 2.347)


def known_values() -> dict[str, float]:
    """Reference densities: the one-cover optimum, the exact two-cover
    optimum for congruent-cell configurations, Blundon's lattice optima,
    and Danzer's two-fold enclosure."""
    theta = kershner_theta()
    return {
        "theta": theta,
        "2theta": 2.0 * theta,
        "blundon_2": _BLUNDON_MULTIPLIERS[2] * theta,
        "blundon_3": _BLUNDON_MULTIPLIERS[3] * theta,
        "blundon_4": _BLUNDON_MULTIPLIERS[4] * theta,
        "danzer_low": _DANZER_TWOFOLD[0],
        "danzer_high": _DANZER_TWOFOLD[1],
    }


def known_value(name: str) -> float:
    """Look up a reference density by its `known_values` key."""
    table = known_values()
    if name not in table:
        raise ValueError(f"unknown reference value {name!r}")
    return table[name]


class DensityReport(Record):
    _fields = ("k", "density", "normalized", "toth_bound", "meets_toth")

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "density": self.density,
            "normalized": self.normalized,
            "toth_bound": self.toth_bound,
            "meets_toth": self.meets_toth,
        }


def density_report(config: PeriodicConfig, k: int) -> DensityReport:
    """Config density alongside the order-k lower bound.

    `normalized` is density in units of the one-cover optimum.  The
    comparison against the bound allows 1e-9 of slack so densities that
    sit exactly on it report as meeting it.
    """
    k = _check_k(k)
    dens = config_density(config)
    bound = toth_lower_bound(k)
    return DensityReport(
        k=k,
        density=dens,
        normalized=dens / kershner_theta(),
        toth_bound=bound,
        meets_toth=dens >= bound - 1e-9,
    )
