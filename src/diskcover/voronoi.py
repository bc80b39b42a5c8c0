"""Voronoi cells of periodic configurations, with congruence classes.

Cells are cut by half-plane clipping against nearby centers.  With a
reduced basis, every bisector that can touch the cell comes from a center
within 8 * max(|u|, |v|) of the site, and the cell itself fits inside a
square of half-width 4 * max(|u|, |v|); both cutoffs are deliberately
generous.  Congruence is decided on quantized (edge length, interior
angle) sequences, canonical over cyclic rotation and reflection, so a
signature is a plain tuple comparison away from any rigid motion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ConvexPolygon, Point, _merge_close
from .lattice import PeriodicConfig, Rect, _translates_array
from .lattice import reduce_basis  # noqa: F401 (unused here; perfbench hooks this name)

CONGRUENCE_TOL = 1e-6


@dataclass(frozen=True)
class VoronoiCell:
    site: Point
    polygon: ConvexPolygon


@dataclass(frozen=True)
class CongruenceSignature:
    """Canonical quantized (edge, angle) sequence of a convex polygon."""

    pairs: tuple[tuple[int, int], ...]
    tol: float


def voronoi_cell(config: PeriodicConfig, offset_index: int) -> VoronoiCell:
    """Voronoi cell of one offset's center within the full periodic set."""
    if not 0 <= offset_index < len(config.offsets):
        raise ValueError(f"offset index {offset_index} out of range")
    site = config.offsets[offset_index]
    span = max(config.reduced.lengths())
    half = 4.0 * span
    cutoff = 8.0 * span
    eps = 1e-12 * max(1.0, cutoff)

    neighbors = _translates_array(config, Rect(site.x, site.y, site.x, site.y), cutoff)
    d = np.hypot(neighbors[:, 0] - site.x, neighbors[:, 1] - site.y)
    order = np.argsort(d, kind="stable")
    neighbors, d = neighbors[order], d[order]
    keep = d > eps
    neighbors, d = neighbors[keep], d[keep]

    poly = [
        (site.x - half, site.y - half),
        (site.x + half, site.y - half),
        (site.x + half, site.y + half),
        (site.x - half, site.y + half),
    ]
    for (qx, qy), dist in zip(neighbors, d):
        # bisectors from centers beyond twice the current reach cannot cut
        reach = max(math.hypot(px - site.x, py - site.y) for px, py in poly)
        if dist > 2.0 * reach:
            break
        nx, ny = (qx - site.x) / dist, (qy - site.y) / dist
        rhs = nx * 0.5 * (site.x + qx) + ny * 0.5 * (site.y + qy)
        poly = _clip_halfplane(poly, nx, ny, rhs, eps)
        if len(poly) < 3:
            raise ValueError("cell clipped away; inconsistent configuration")

    for px, py in poly:
        if max(abs(px - site.x), abs(py - site.y)) >= half - 1e-9 * half:
            raise ValueError("unbounded cell at the chosen cutoff")
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
        if s_in and e_in:
            out.append((ex, ey))
        elif s_in and not e_in:
            out.append(_line_hit(sx, sy, ex, ey, nx, ny, rhs))
        elif not s_in and e_in:
            out.append(_line_hit(sx, sy, ex, ey, nx, ny, rhs))
            out.append((ex, ey))
    return out


def _line_hit(sx, sy, ex, ey, nx, ny, rhs):
    ds = nx * sx + ny * sy - rhs
    de = nx * ex + ny * ey - rhs
    t = ds / (ds - de)
    return (sx + t * (ex - sx), sy + t * (ey - sy))


def congruence_signature(
    cell: VoronoiCell | ConvexPolygon, tol: float = CONGRUENCE_TOL
) -> CongruenceSignature:
    """Signature invariant under rigid motions, reflections included."""
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    poly = cell.polygon if isinstance(cell, VoronoiCell) else cell
    verts = list(poly.vertices)
    forward = _quantized_pairs(verts, tol)
    backward = _quantized_pairs(list(reversed(verts)), tol)
    best = min(
        min(_rotations(forward)),
        min(_rotations(backward)),
    )
    return CongruenceSignature(best, tol)


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
        pairs.append((round(edge / tol), round(angle / tol)))
    return tuple(pairs)


def _rotations(seq):
    n = len(seq)
    return [seq[i:] + seq[:i] for i in range(n)]


def all_cells_congruent(
    config: PeriodicConfig, tol: float = CONGRUENCE_TOL
) -> tuple[bool, list[CongruenceSignature]]:
    """Whether every offset's cell is congruent; distinct classes returned."""
    classes: list[CongruenceSignature] = []
    for i in range(len(config.offsets)):
        sig = congruence_signature(voronoi_cell(config, i), tol)
        if sig not in classes:
            classes.append(sig)
    return (len(classes) == 1, classes)
