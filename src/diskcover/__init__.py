"""Construct, verify, and optimize k-fold disk coverings of the plane.

Every public name is importable from the package itself, but importing
the package loads none of its submodules: a name, or a submodule, loads
its module on first use (PEP 562), so each command pays only for the
modules it runs.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "coverage": (
        "STATUS_COVERED", "STATUS_TIGHT", "STATUS_UNCOVERED", "STATUS_UNDECIDED",
        "CoverageCertificate", "CoveringRadius", "covering_radius",
        "kth_nearest_distance", "kth_nearest_distance_batch", "verify_k_coverage",
    ),
    "density": (
        "DensityReport", "cell_density", "config_density", "density_report",
        "kershner_theta", "known_value", "known_values", "toth_lower_bound",
    ),
    "geometry": (
        "Circle", "ConvexPolygon", "Point", "circle_circle_intersections",
        "circumcircle", "johnson_check",
    ),
    "lattice": (
        "Basis", "ConfigFormatError", "PeriodicConfig", "Rect", "enumerate_centers",
        "reduce_basis",
    ),
    "optimize": (
        "OptimizationResult", "optimal_scaled_density", "optimize_pattern_b",
        "optimize_single_lattice",
    ),
    "patterns": (
        "PATTERN_NAMES", "PatternSpec", "pattern_b", "pattern_b_density_bound",
        "tangent_pattern_c", "triangle_pattern",
    ),
    "render": ("render_svg",),
    "voronoi": (
        "CongruenceSignature", "VoronoiCell", "all_cells_congruent",
        "congruence_signature", "voronoi_cell",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        # importing a submodule binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    # bound once, so later reads skip this function
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
