"""Voronoi cells of periodic configurations, with congruence classes.

Cells are cut by half-plane clipping against nearby centers, nearest
first, starting from a square of half-width 4 * span around the site,
where span = max(|u|, |v|) of the reduced basis (u, v).  Only centers
within _CUTOFF_SPANS * span = 2 * span of the site are clipped against,
and that cutoff drops none that cuts:

- A site's cell lies inside the Voronoi cell of its own lattice, site +
  L, since the other offsets only add competitors.  Choose v's sign so
  that u . v >= 0.  For a reduced basis, 0 <= u . v <= |u|^2 / 2 and
  |u| <= |v|, so no angle of the Delaunay triangle (0, u, v) exceeds 90
  degrees, and the circumradius of that lattice cell is the triangle's
  circumradius R = L / (2 sin A), where L is the longest side and A, the
  largest angle, lies between 60 and 90 degrees, so sin A >= sqrt(3)/2.
  The sides are |u|, |v| and |u - v|, and |u - v|^2 <= |u|^2 + |v|^2, so
  L <= sqrt(2) * span and R <= sqrt(2/3) * span.
- The lattice cell is cut out by its Voronoi-relevant vectors, which are
  among +-u, +-v and +-(u - v), all within sqrt(2) * span of the site.
- The clip loop stops at the first center farther than twice the current
  polygon's reach, since its bisector cannot cut.  Once every center
  within 2 * span is clipped, the relevant vectors are among them, so
  the reach is at most sqrt(2/3) * span (up to the clip tolerance), and
  the next center, beyond 2 * span > 2 * sqrt(2/3) * span, stops the loop.

So every cell lies within sqrt(2/3) * span of its site, up to the clip
tolerance, well inside the start square: a test checks that bound on
every vertex, and nothing checks it at run time.  Any larger cutoff clips
the same centers in the same order and gives the same cell, bit for bit.
A congruence signature is a plain tuple: the (edge length, interior
angle) sequence of a cell, each value rounded to a whole number of tol
steps, taken at its least rotation in either orientation, so a rigid
motion, reflections included, leaves it unchanged.  Equal signatures
mean cells congruent within tol.  The converse does not hold: congruent
cells whose values land on either side of a rounding boundary get two
signatures, and so two classes.
"""

from __future__ import annotations

import math
from operator import itemgetter

from .geometry import ConvexPolygon, Point, Record, _check_tol, _merge_close
from .lattice import PeriodicConfig, Rect, _translates
from .lattice import reduce_basis  # noqa: F401 (unused here; perfbench hooks this name)

CONGRUENCE_TOL = 1e-6
# neighbors within this many spans of the site are clipped against; the
# module docstring proves that 2 drops no center that cuts the cell
_CUTOFF_SPANS = 2.0


class VoronoiCell(Record):
    _fields = ("site", "polygon")


def voronoi_cell(config: PeriodicConfig, offset_index: int) -> VoronoiCell:
    """Voronoi cell of one offset's center within the full periodic set."""
    if not 0 <= offset_index < len(config.offsets):
        raise ValueError(f"offset index {offset_index} out of range")
    site = config.offsets[offset_index]
    span = max(config.reduced.lengths())
    half = 4.0 * span
    # the clip tolerance scales with span, not with the cutoff
    eps = 1e-12 * max(1.0, 8.0 * span)

    near = _translates(
        config, Rect(site.x, site.y, site.x, site.y), _CUTOFF_SPANS * span
    )
    neighbors = []
    for qx, qy in near:
        dist = math.hypot(qx - site.x, qy - site.y)
        if dist > eps:
            neighbors.append((dist, qx, qy))
    # a stable sort by distance alone: centers at equal distance keep the
    # enumeration order, and with it the order they are clipped in
    neighbors.sort(key=itemgetter(0))

    poly = [
        (site.x - half, site.y - half),
        (site.x + half, site.y - half),
        (site.x + half, site.y + half),
        (site.x - half, site.y + half),
    ]
    for dist, qx, qy in neighbors:
        # bisectors from centers beyond twice the current reach cannot cut
        reach = max(math.hypot(px - site.x, py - site.y) for px, py in poly)
        if dist > 2.0 * reach:
            break
        nx, ny = (qx - site.x) / dist, (qy - site.y) / dist
        rhs = nx * 0.5 * (site.x + qx) + ny * 0.5 * (site.y + qy)
        poly = _clip_halfplane(poly, nx, ny, rhs, eps)
        if len(poly) < 3:
            raise ValueError("cell clipped away; inconsistent configuration")
    cleaned = _merge_close([Point(x, y) for x, y in poly], 1e-9 * max(1.0, span))
    return VoronoiCell(site, ConvexPolygon(cleaned))


def _clip_halfplane(pts, nx, ny, rhs, eps):
    # Sutherland-Hodgman step for the half-plane n . p <= rhs
    out = []
    n = len(pts)
    for i in range(n):
        sx, sy = pts[i]
        ex, ey = pts[(i + 1) % n]
        s_in = nx * sx + ny * sy <= rhs + eps
        e_in = nx * ex + ny * ey <= rhs + eps
        if s_in != e_in:
            ds = nx * sx + ny * sy - rhs
            de = nx * ex + ny * ey - rhs
            t = ds / (ds - de)
            out.append((sx + t * (ex - sx), sy + t * (ey - sy)))
        if e_in:
            out.append((ex, ey))
    return out


def congruence_signature(
    cell: VoronoiCell | ConvexPolygon, tol: float = CONGRUENCE_TOL
) -> tuple:
    """Signature invariant under rigid motions, reflections included."""
    _check_tol(tol)
    poly = cell.polygon if isinstance(cell, VoronoiCell) else cell
    verts = poly.vertices
    forward = _quantized_pairs(verts, tol)
    backward = _quantized_pairs(verts[::-1], tol)
    # the least rotation of either orientation
    return min(seq[i:] + seq[:i] for seq in (forward, backward) for i in range(len(seq)))


def _quantized_pairs(verts, tol):
    n = len(verts)
    pairs = []
    for i in range(n):
        prev, here, nxt = verts[i - 1], verts[i], verts[(i + 1) % n]
        edge = here.distance_to(nxt)
        ax, ay = prev.x - here.x, prev.y - here.y
        bx, by = nxt.x - here.x, nxt.y - here.y
        dot = ax * bx + ay * by
        norm = math.hypot(ax, ay) * math.hypot(bx, by)
        angle = math.acos(max(-1.0, min(1.0, dot / norm)))
        steps = (edge / tol, angle / tol)
        if not all(map(math.isfinite, steps)):
            raise ValueError(f"congruence tolerance {tol} is too small for this cell")
        pairs.append((round(steps[0]), round(steps[1])))
    return tuple(pairs)


def all_cells_congruent(
    config: PeriodicConfig, tol: float = CONGRUENCE_TOL
) -> tuple[bool, list[tuple]]:
    """Whether every offset's cell is congruent; distinct classes returned."""
    cells = (voronoi_cell(config, i) for i in range(len(config.offsets)))
    # the distinct signatures, in the order of the offsets they first come from
    classes = list(dict.fromkeys(congruence_signature(cell, tol) for cell in cells))
    return (len(classes) == 1, classes)
