"""Output checks; an op that breaks any of them counts as failed.

The rules are generic consequences of what a certificate claims, so they
hold for every input rather than for known answers only:

- a verdict agrees with its enclosure: radius_low > r proves the disks do
  not k-cover (certified_uncovered), and radius_high <= r proves they do
  (certified_covered or tight);
- an uncovered witness really is uncovered: d_k(witness) > r;
- a configuration at its critical radius comes back tight;
- optimizer densities land within the acceptance tolerances of the known
  optima.
"""

from __future__ import annotations

import math

THETA = math.pi / (3.0 * math.sqrt(3.0) / 2.0)

COVERED = "certified_covered"
UNCOVERED = "certified_uncovered"
TIGHT = "tight"
UNDECIDED = "undecided"

# known optimum and allowed relative error per single-lattice order k
LATTICE_OPTIMA = {
    1: (THETA, 1e-3),
    2: (2.0 * THETA, 1e-2),
    3: (2.841 * THETA, 1e-2),
    4: (3.608 * THETA, 1e-2),
}
PATTERN_B_OPTIMUM = 2.0 * THETA
PATTERN_B_ABS_TOL = 1e-2


def certificate_problems(cert: dict, radius: float, kth_at=None, critical=False) -> list[str]:
    """Rule violations of one certificate in its `to_dict` form.

    `kth_at(x, y)` evaluates d_k; when given, an uncovered witness is
    checked against it.
    """
    status = cert["status"]
    low, high = cert["radius_low"], cert["radius_high"]
    problems = []
    if status not in (COVERED, UNCOVERED, TIGHT, UNDECIDED):
        problems.append(f"unknown status {status!r}")
    if not low <= high:
        problems.append(f"empty enclosure [{low!r}, {high!r}]")
    if low > radius and status != UNCOVERED:
        problems.append(f"low {low!r} > r {radius!r} but status {status}")
    if high <= radius and status not in (COVERED, TIGHT):
        problems.append(f"high {high!r} <= r {radius!r} but status {status}")
    if status == UNCOVERED:
        witness = cert["witness"]
        if witness is None:
            problems.append("uncovered without a witness")
        elif kth_at is not None:
            dk = kth_at(witness[0], witness[1])
            if not dk > radius:
                problems.append(f"witness d_k {dk!r} <= r {radius!r}")
    if critical and status != TIGHT:
        problems.append(f"critical case came back {status}")
    return problems


def density_problems(mode: str, k: int, density: float) -> list[str]:
    """Whether an optimizer density reproduces the known optimum."""
    if mode == "pattern_b":
        if abs(density - PATTERN_B_OPTIMUM) <= PATTERN_B_ABS_TOL:
            return []
        return [f"pattern_b density {density!r} not within {PATTERN_B_ABS_TOL} of 2 theta"]
    target, rel = LATTICE_OPTIMA[k]
    if abs(density - target) <= rel * target:
        return []
    return [f"k={k} density {density!r} not within {rel:.0e} of {target!r}"]
