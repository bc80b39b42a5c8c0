"""Construct, verify, and optimize k-fold disk coverings of the plane."""

from .coverage import (
    STATUS_COVERED,
    STATUS_TIGHT,
    STATUS_UNCOVERED,
    STATUS_UNDECIDED,
    CoverageCertificate,
    CoveringRadius,
    covering_radius,
    kth_nearest_distance,
    kth_nearest_distance_batch,
    verify_k_coverage,
)
from .density import (
    DensityReport,
    cell_density,
    config_density,
    density_report,
    kershner_theta,
    known_value,
    known_values,
    toth_lower_bound,
)
from .geometry import (
    Circle,
    ConvexPolygon,
    Point,
    circle_circle_intersections,
    circumcircle,
    johnson_check,
)
from .lattice import (
    Basis,
    ConfigFormatError,
    PeriodicConfig,
    Rect,
    enumerate_centers,
    reduce_basis,
)
from .optimize import (
    OptimizationResult,
    optimal_scaled_density,
    optimize_pattern_b,
    optimize_single_lattice,
)
from .patterns import (
    PATTERN_NAMES,
    PatternSpec,
    pattern_b,
    pattern_b_density_bound,
    tangent_pattern_c,
    triangle_pattern,
)
from .render import render_svg
from .voronoi import (
    CongruenceSignature,
    VoronoiCell,
    all_cells_congruent,
    congruence_signature,
    voronoi_cell,
)

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "Circle",
    "ConfigFormatError",
    "CongruenceSignature",
    "ConvexPolygon",
    "CoverageCertificate",
    "CoveringRadius",
    "DensityReport",
    "OptimizationResult",
    "PATTERN_NAMES",
    "PatternSpec",
    "PeriodicConfig",
    "Point",
    "Rect",
    "STATUS_COVERED",
    "STATUS_TIGHT",
    "STATUS_UNCOVERED",
    "STATUS_UNDECIDED",
    "VoronoiCell",
    "all_cells_congruent",
    "cell_density",
    "circle_circle_intersections",
    "circumcircle",
    "config_density",
    "congruence_signature",
    "covering_radius",
    "density_report",
    "enumerate_centers",
    "johnson_check",
    "kershner_theta",
    "known_value",
    "known_values",
    "kth_nearest_distance",
    "kth_nearest_distance_batch",
    "optimal_scaled_density",
    "optimize_pattern_b",
    "optimize_single_lattice",
    "pattern_b",
    "pattern_b_density_bound",
    "reduce_basis",
    "render_svg",
    "tangent_pattern_c",
    "toth_lower_bound",
    "triangle_pattern",
    "verify_k_coverage",
    "voronoi_cell",
]
