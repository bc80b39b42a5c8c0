"""Deterministic SVG rendering of periodic disk configurations.

Draws a 3 x 3 block of fundamental domains: translucent disks, center
dots, per-offset Voronoi cells repeated across the block, and the
fundamental parallelogram outlined on top.  Output depends only on the
configuration, so renders are byte-for-byte reproducible.
"""

from __future__ import annotations

from .lattice import PeriodicConfig, Rect, enumerate_centers
from .voronoi import voronoi_cell

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
_DISK_OPACITY = 0.3


def _fmt(value: float) -> str:
    out = f"{value:.4f}"
    return "0.0000" if out == "-0.0000" else out


def render_svg(config: PeriodicConfig, size: int = 640) -> str:
    """SVG of `config` whose longer side is `size` pixels, at least 1."""
    if size < 1:
        raise ValueError(f"size must be at least 1, got {size}")
    ux, uy = config.basis.u
    vx, vy = config.basis.v
    # the corners of the 3 x 3 block of domains; the view is the block
    # widened by r
    xs = [i * ux + j * vx for i in (-1.0, 2.0) for j in (-1.0, 2.0)]
    ys = [i * uy + j * vy for i in (-1.0, 2.0) for j in (-1.0, 2.0)]
    block = Rect(min(xs), min(ys), max(xs), max(ys))
    r = config.radius
    xmin, xmax = block.xmin - r, block.xmax + r
    ymin, ymax = block.ymin - r, block.ymax + r
    span = max(xmax - xmin, ymax - ymin)
    scale = size / span
    width = (xmax - xmin) * scale
    height = (ymax - ymin) * scale

    def to_svg(x: float, y: float) -> tuple[float, float]:
        return ((x - xmin) * scale, (ymax - y) * scale)

    centers = enumerate_centers(config, block, r)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<rect width="{_fmt(width)}" height="{_fmt(height)}" fill="white"/>',
    ]
    for p in centers:
        x, y = to_svg(p.x, p.y)
        parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r * scale)}" '
            f'fill="#1f77b4" fill-opacity="{_DISK_OPACITY}" stroke="none"/>'
        )
    cells = [voronoi_cell(config, i) for i in range(len(config.offsets))]
    for idx, cell in enumerate(cells):
        color = _PALETTE[idx % len(_PALETTE)]
        for i in (-1, 0, 1):
            for j in (-1, 0, 1):
                dx = i * ux + j * vx
                dy = i * uy + j * vy
                pts = " ".join(
                    "{},{}".format(*map(_fmt, to_svg(p.x + dx, p.y + dy)))
                    for p in cell.polygon.vertices
                )
                parts.append(
                    f'<polygon points="{pts}" fill="none" '
                    f'stroke="{color}" stroke-width="1"/>'
                )
    for p in centers:
        x, y = to_svg(p.x, p.y)
        parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.5" fill="#222222"/>'
        )
    domain = [(0.0, 0.0), (ux, uy), (ux + vx, uy + vy), (vx, vy)]
    pts = " ".join("{},{}".format(*map(_fmt, to_svg(x, y))) for x, y in domain)
    parts.append(
        f'<polygon points="{pts}" fill="none" stroke="#000000" '
        f'stroke-width="2" stroke-dasharray="6,4"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts)
