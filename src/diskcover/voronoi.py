"""Voronoi cells of periodic configurations, with congruence classes.

Cells are cut by half-plane clipping against nearby centers, nearest
first, starting from a square of half-width 4 * span around the site,
where span = max(|u|, |v|) of the reduced basis (u, v).  Only centers
within 2 rho (1 + 1e-9) + 16 eps of the site are clipped against, where
rho is the lattice's covering radius (`lattice._lattice_reach`) and eps
the clip tolerance.  A site's cell lies in the Voronoi cell of its own
lattice, which lies within rho of the site and is cut out by relevant
vectors of length at most 2 rho.  The clip loop stops at the first
center farther than twice the current polygon's reach, as its bisector
cannot cut.  Once every center within the cutoff is clipped, the polygon
lies in the lattice cell widened by eps, whose vertices move by at most
sqrt(2) eps (adjacent relevant vectors meet at the angles of a
non-obtuse triangle), so the next center stops the loop.  Every cell
lies within rho <= span of its site, up to the clip tolerance, so the
start square never survives; a test checks that bound, and any larger
cutoff gives the same cell, bit for bit.

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
from .lattice import PeriodicConfig, Rect, _lattice_reach, _translates
from .lattice import reduce_basis  # noqa: F401 (unused here; perfbench hooks this name)

CONGRUENCE_TOL = 1e-6


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
    # the module docstring proves that this cutoff drops no center that cuts
    cutoff = 2.0 * _lattice_reach(config.reduced) * (1.0 + 1e-9) + 16.0 * eps

    near = _translates(config, Rect(site.x, site.y, site.x, site.y), cutoff)
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
    # step i of the reversed boundary is edge n - 2 - i and angle n - 1 - i,
    # bit for bit: hypot ignores sign, and the dot and norm products commute
    backward = [(pairs[n - 2 - i][0], pairs[n - 1 - i][1]) for i in range(n)]
    # the least rotation of either orientation
    return tuple(min(seq[i:] + seq[:i] for seq in (pairs, backward) for i in range(n)))


def all_cells_congruent(
    config: PeriodicConfig, tol: float = CONGRUENCE_TOL
) -> tuple[bool, list[tuple]]:
    """Whether every offset's cell is congruent; distinct classes returned."""
    cells = (voronoi_cell(config, i) for i in range(len(config.offsets)))
    # the distinct signatures, in the order of the offsets they first come from
    classes = list(dict.fromkeys(congruence_signature(cell, tol) for cell in cells))
    return (len(classes) == 1, classes)
