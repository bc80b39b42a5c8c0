"""Independent oracles used to cross-check library results.

Everything here is deliberately naive: direct translate enumeration and
dense sampling, sharing no code with the package internals.  `child_env`
lets a test's child interpreter import the package from this checkout.
"""

from __future__ import annotations

import itertools
import math
import os
from fractions import Fraction
from pathlib import Path

import numpy as np

from diskcover import Basis, PeriodicConfig, Point, pattern_b

SRC = str(Path(__file__).resolve().parents[1] / "src")


def child_env() -> dict[str, str]:
    """This process's environment with the checkout's `src` first on
    PYTHONPATH, so `python -m diskcover` in a child runs the tested code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return env


def oracle_centers(config: PeriodicConfig, reach: float) -> np.ndarray:
    """Every center within `reach` of the fundamental parallelogram, brute force.

    Translate indices are bounded through the row-spacing identity
    dist(line(v), u) = det/|v|, so the window provably contains every
    center at distance <= reach from any point of the parallelogram.  Of
    the window, the centers within `reach` of both strips 0 <= s <= 1 and
    0 <= t <= 1 in lattice coordinates (s, t) are kept: the parallelogram
    is their intersection, so that holds every center within `reach` of
    it.  The distance to a strip is its excess in s times det/|v|, in t
    times det/|u|.
    """
    u = np.array(config.basis.u, dtype=float)
    v = np.array(config.basis.v, dtype=float)
    det = abs(u[0] * v[1] - u[1] * v[0])
    offs = np.array([(p.x, p.y) for p in config.offsets], dtype=float)
    pad = reach + np.abs(offs).max(initial=0.0) + np.linalg.norm(u) + np.linalg.norm(v)
    imax = int(math.ceil(pad * np.linalg.norm(v) / det)) + 1
    jmax = int(math.ceil(pad * np.linalg.norm(u) / det)) + 1
    ii, jj = np.meshgrid(np.arange(-imax, imax + 1), np.arange(-jmax, jmax + 1), indexing="ij")
    base = ii[..., None] * u + jj[..., None] * v
    pts = (base[:, :, None, :] + offs[None, None, :, :]).reshape(-1, 2)
    s = (pts[:, 0] * v[1] - pts[:, 1] * v[0]) / det
    t = (pts[:, 1] * u[0] - pts[:, 0] * u[1]) / det
    gap_s = np.maximum(np.maximum(-s, s - 1.0), 0.0) * (det / np.linalg.norm(v))
    gap_t = np.maximum(np.maximum(-t, t - 1.0), 0.0) * (det / np.linalg.norm(u))
    return pts[(gap_s <= reach) & (gap_t <= reach)]


def _dist2_matrix(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # |p - c|^2 expanded so the cross term runs through BLAS.
    g = points @ centers.T
    g *= -2.0
    g += (points**2).sum(axis=1)[:, None]
    g += (centers**2).sum(axis=1)[None, :]
    np.maximum(g, 0.0, out=g)
    return g


def _kth_distances(points: np.ndarray, centers: np.ndarray, k: int) -> np.ndarray:
    out = np.empty(len(points))
    step = 16384
    for lo in range(0, len(points), step):
        d2 = _dist2_matrix(points[lo : lo + step], centers)
        out[lo : lo + step] = np.sqrt(np.partition(d2, k - 1, axis=1)[:, k - 1])
    return out


def _multi_kth_distances(
    points: np.ndarray, centers: np.ndarray, ks: tuple[int, ...]
) -> dict[int, np.ndarray]:
    kmax = max(ks)
    out = {k: np.empty(len(points)) for k in ks}
    step = 16384
    for lo in range(0, len(points), step):
        d2 = _dist2_matrix(points[lo : lo + step], centers)
        head = np.partition(d2, kmax - 1, axis=1)[:, :kmax]
        head.sort(axis=1)
        for k in ks:
            out[k][lo : lo + step] = np.sqrt(head[:, k - 1])
    return out


def grid_covering_radii(
    config: PeriodicConfig, ks: tuple[int, ...], delta: float = 0.005
) -> dict[int, float]:
    """Max over the plane of the k-th nearest-center distance, by dense sampling.

    Samples the fundamental parallelogram at spacing <= delta along each
    basis direction, then refines every cell that could still hold the true
    maximum (sample >= best - spacing allowance, justified by the 1-Lipschitz
    bound) at successively finer spacing.  All requested orders share one
    distance pass over the base grid.
    """
    u = np.array(config.basis.u, dtype=float)
    v = np.array(config.basis.v, dtype=float)
    kmax = max(ks)

    # Coarse probe to size the center window; probe spacing error is well
    # under the margin added to the reach.
    probe = grid_points(u, v, 16)
    span = max(np.linalg.norm(u), np.linalg.norm(v))
    wide = oracle_centers(config, reach=6.0 * span)
    d0 = float(_kth_distances(probe, wide, kmax).max())
    centers = oracle_centers(config, reach=d0 + 0.15 * span)

    nu = max(2, int(math.ceil(np.linalg.norm(u) / delta)))
    nv = max(2, int(math.ceil(np.linalg.norm(v) / delta)))
    pts = grid_points(u, v, nu, nv)
    base = _multi_kth_distances(pts, centers, ks)
    spacing0 = max(np.linalg.norm(u) / nu, np.linalg.norm(v) / nv)

    result: dict[int, float] = {}
    for k in ks:
        vals = base[k]
        cur = pts
        best = float(vals.max())
        spacing = spacing0
        for _ in range(2):
            keep = cur[vals >= best - 1.5 * spacing]
            if len(keep) > 4000:
                keep = keep[np.argsort(_kth_distances(keep, centers, k))[::-1][:4000]]
            steps = np.linspace(-spacing, spacing, 17)
            dx, dy = np.meshgrid(steps, steps, indexing="ij")
            shifts = np.stack([dx.ravel(), dy.ravel()], axis=1)
            cur = (keep[:, None, :] + shifts[None, :, :]).reshape(-1, 2)
            vals = _kth_distances(cur, centers, k)
            best = max(best, float(vals.max()))
            spacing = spacing / 8.0
        result[k] = best
    return result


def reduced_cell_centers(config: PeriodicConfig, reach: float) -> np.ndarray:
    """All centers within `reach` of the closed reduced parallelogram, brute force.

    The cell is {s*u + t*v : s, t in [0, 1]} for the reduced basis u, v.
    Indices are bounded as in `oracle_centers`, then each center is kept
    when its distance to the cell (zero inside, else to the nearest edge)
    is at most `reach`.
    """
    u = np.array(config.reduced.u, dtype=float)
    v = np.array(config.reduced.v, dtype=float)
    det = abs(u[0] * v[1] - u[1] * v[0])
    offs = np.array([(p.x, p.y) for p in config.offsets], dtype=float)
    pad = reach + np.abs(offs).max(initial=0.0) + 2.0 * (np.linalg.norm(u) + np.linalg.norm(v))
    imax = int(math.ceil(pad * np.linalg.norm(v) / det)) + 1
    jmax = int(math.ceil(pad * np.linalg.norm(u) / det)) + 1
    ii, jj = np.meshgrid(np.arange(-imax, imax + 1), np.arange(-jmax, jmax + 1), indexing="ij")
    base = ii.reshape(-1, 1) * u + jj.reshape(-1, 1) * v
    pts = (base[:, None, :] + offs[None, :, :]).reshape(-1, 2)
    s = (pts[:, 0] * v[1] - pts[:, 1] * v[0]) / det
    t = (pts[:, 1] * u[0] - pts[:, 0] * u[1]) / det
    inside = (s >= 0.0) & (s <= 1.0) & (t >= 0.0) & (t <= 1.0)
    corners = np.array([[0.0, 0.0], u, u + v, v])
    gap = np.full(len(pts), np.inf)
    for a, b in zip(corners, np.roll(corners, -1, axis=0)):
        edge = b - a
        w = np.clip(((pts - a) @ edge) / (edge @ edge), 0.0, 1.0)
        gap = np.minimum(gap, np.linalg.norm(pts - a - w[:, None] * edge, axis=1))
    return pts[inside | (gap <= reach)]


def exact_lattice_covering_radius_squared(basis: Basis) -> Fraction:
    """The squared covering radius of the lattice of `basis`, exactly.

    Lagrange-Gauss reduction runs in `Fraction`s on the given floats, so
    its basis spans their lattice exactly.  With v replaced by -v where
    dot(u, v) < 0, the triangle (0, u, v) of a reduced basis is
    non-obtuse and its circumradius is the covering radius (the vertices
    of a lattice point's Voronoi cell are such circumcenters), so R^2 =
    |u|^2 |v|^2 |u - v|^2 / (4 det^2), a rational.
    """
    (ux, uy), (vx, vy) = [[Fraction(c) for c in w] for w in (basis.u, basis.v)]
    while True:
        uu = ux * ux + uy * uy
        if vx * vx + vy * vy < uu:
            ux, uy, vx, vy = vx, vy, ux, uy
            uu = ux * ux + uy * uy
        mu = round((ux * vx + uy * vy) / uu)
        if mu == 0:
            break
        vx, vy = vx - mu * ux, vy - mu * uy
    if ux * vx + uy * vy < 0:
        vx, vy = -vx, -vy
    det = ux * vy - uy * vx
    sides = (ux * ux + uy * uy) * (vx * vx + vy * vy) * ((ux - vx) ** 2 + (uy - vy) ** 2)
    return sides / (4 * det * det)


def circumcenter_covering_radius(config: PeriodicConfig, k: int) -> float:
    """Max of the k-th nearest-center distance d_k, from center triples.

    At a maximum p of d_k with value rho, fewer than k centers lie inside
    the circle B(p, rho) and the centers E on it must surround p: if E
    lay in an open half-plane through p, or on one line, moving p away
    from them would raise every distance in E and so d_k.  So p is the
    circumcenter of three non-collinear centers within rho of p (Lee
    1982).  rho is at most the reach R = sqrt(k det / (n pi)) + |u| + |v|
    of the reduced basis, so the centers within R of the closed reduced
    cell hold such a triple for a maximum moved into the cell.  Returns
    the largest d_k over the circumcenters of radius at most R in the
    cell, each evaluated against that same window.
    """
    u = np.array(config.reduced.u, dtype=float)
    v = np.array(config.reduced.v, dtype=float)
    det = abs(u[0] * v[1] - u[1] * v[0])
    reach = math.sqrt(k * det / (len(config.offsets) * math.pi))
    reach += np.linalg.norm(u) + np.linalg.norm(v)
    centers = reduced_cell_centers(config, reach)
    slack = 1e-9
    best = -math.inf
    for a in range(len(centers) - 2):
        j, l = np.triu_indices(len(centers) - a - 1, 1)
        p, q, r = centers[a], centers[a + 1 + j], centers[a + 1 + l]
        # circumcenter of p, q, r relative to p
        bx, by = q[:, 0] - p[0], q[:, 1] - p[1]
        cx, cy = r[:, 0] - p[0], r[:, 1] - p[1]
        bb, cc = bx * bx + by * by, cx * cx + cy * cy
        d = 2.0 * (bx * cy - by * cx)
        # collinear triples have no circumcenter
        ok = np.abs(d) > 1e-12 * (bb + cc)
        with np.errstate(divide="ignore", invalid="ignore"):
            ox = (cy * bb - by * cc) / d
            oy = (bx * cc - cx * bb) / d
        ok &= ox * ox + oy * oy <= reach * reach * (1.0 + slack)
        x, y = ox[ok] + p[0], oy[ok] + p[1]
        s = (x * v[1] - y * v[0]) / det
        t = (y * u[0] - x * u[1]) / det
        cell = (s >= -slack) & (s <= 1.0 + slack) & (t >= -slack) & (t <= 1.0 + slack)
        if cell.any():
            pts = np.stack((x[cell], y[cell]), axis=1)
            d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            best = max(best, float(np.sqrt(np.partition(d2, k - 1, axis=1)[:, k - 1]).max()))
    return best


def grid_covering_radius(config: PeriodicConfig, k: int, delta: float = 0.005) -> float:
    return grid_covering_radii(config, (k,), delta)[k]


def grid_points(u: np.ndarray, v: np.ndarray, nu: int, nv: int | None = None) -> np.ndarray:
    nv = nu if nv is None else nv
    s = np.linspace(0.0, 1.0, nu, endpoint=False)
    t = np.linspace(0.0, 1.0, nv, endpoint=False)
    ss, tt = np.meshgrid(s, t, indexing="ij")
    return ss.ravel()[:, None] * u + tt.ravel()[:, None] * v


def random_config(rng: np.random.Generator, max_offsets: int = 4) -> PeriodicConfig:
    """Random tame periodic configuration for cross-checking."""
    a = rng.uniform(0.8, 2.2)
    b = rng.uniform(-a / 2.0, a / 2.0)
    c = rng.uniform(0.8, 2.2)
    n = int(rng.integers(1, max_offsets + 1))

    def periodic_gap(p: tuple[float, float], q: tuple[float, float]) -> float:
        return min(
            math.hypot(p[0] - q[0] + i * a + j * b, p[1] - q[1] + j * c)
            for i in range(-1, 2)
            for j in range(-1, 2)
        )

    offsets = [(0.0, 0.0)]
    while len(offsets) < n:
        cand = (rng.uniform(0.0, a), rng.uniform(0.0, c))
        if all(periodic_gap(cand, o) > 0.2 for o in offsets):
            offsets.append(cand)
    radius = rng.uniform(0.5, 2.0)
    return PeriodicConfig(basis=((a, 0.0), (b, c)), offsets=offsets, radius=radius)


def skewed_config(rng: np.random.Generator, n: int) -> PeriodicConfig:
    """Random skewed lattice, given by a non-reduced basis, with n offsets.

    The reduced shape (1, 0), (b, c) has aspect c up to about 4; it is
    sheared by an integer multiple of u, rotated and scaled, and the
    offsets keep a separation of at least 0.1 sqrt(det / n) modulo the
    lattice.
    """
    while True:
        b = rng.uniform(0.0, 0.5)
        c = math.sqrt(1.0 - b * b) * math.exp(rng.uniform(0.0, math.log(4.0)))
        phi = rng.uniform(0.0, 2.0 * math.pi)
        scale = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        rot = scale * np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        u = rot @ np.array([1.0, 0.0])
        v_reduced = rot @ np.array([b, c])
        v = v_reduced + int(rng.integers(-2, 3)) * u
        det = abs(u[0] * v[1] - u[1] * v[0])
        st = rng.uniform(0.0, 1.0, (n, 2))
        offsets = st[:, :1] * u + st[:, 1:] * v
        shifts = [i * u + j * v_reduced for i in range(-2, 3) for j in range(-2, 3)]
        gap = min(
            (
                float(np.hypot(*(offsets[i] - offsets[j] + s)))
                for i in range(n)
                for j in range(i + 1, n)
                for s in shifts
            ),
            default=math.inf,
        )
        if gap >= 0.1 * math.sqrt(det / n):
            return PeriodicConfig((tuple(u), tuple(v)), [tuple(o) for o in offsets], 1.0)


def min_offset_gap(offsets, basis) -> float:
    """Least distance between two offsets modulo the lattice, by scalar loops.

    For a difference d, a lattice vector w = i*u + j*v beats w = 0 only
    when |w| <= 2|d|, and then |i| = |cross(w, v)| / det <= 2|d||v| / det
    and |j| <= 2|d||u| / det.  The loops scan that window, one more on each
    side against rounding, one `math.hypot` at a time, so no skew of
    `basis` can hide the nearest copy.
    """
    (ux, uy), (vx, vy) = basis.u, basis.v
    det = abs(ux * vy - uy * vx)
    best = math.inf
    for a in range(len(offsets)):
        for b in range(a + 1, len(offsets)):
            dx = offsets[a].x - offsets[b].x
            dy = offsets[a].y - offsets[b].y
            reach = 2.0 * math.hypot(dx, dy) / det
            ni = math.ceil(reach * math.hypot(vx, vy)) + 1
            nj = math.ceil(reach * math.hypot(ux, uy)) + 1
            for i in range(-ni, ni + 1):
                for j in range(-nj, nj + 1):
                    best = min(best, math.hypot(dx + i * ux + j * vx, dy + i * uy + j * vy))
    return best


def optimizer_start_configs() -> list[tuple[PeriodicConfig, int]]:
    """The (config, k) of every start of the optimizer's grids, tol 1e-4 each.

    The 6 x 8 single-lattice grid over (b, c) for k = 1..4, then the 72
    pattern_b starts over (x, y, d) at k = 2: 264 shallow searches of the
    regime the optimizer spends its time in.  Every grid point already lies
    in its family's clip box, so it is evaluated as given.
    """
    cases = []
    for k in range(1, 5):
        for b in np.linspace(0.0, 0.5, 6):
            c_min = math.sqrt(max(1.0 - b * b, 0.0))
            for c in np.linspace(c_min, 3.5, 8):
                basis = Basis((1.0, 0.0), (float(b), float(c)))
                cases.append((PeriodicConfig(basis, (Point(0.0, 0.0),), 1.0), k))
    for x in np.linspace(0.3, 1.0, 8):
        x = float(x)
        y_max = math.sqrt(max(1.0 - x * x, 0.0)) + 1.0
        for y in (y_max * yfrac for yfrac in (0.5, 0.8, 1.0)):
            for dfrac in (0.4, 0.7, 1.0):
                cases.append((pattern_b(x, y, y * dfrac), 2))
    return cases


def root_grid_reference(config: PeriodicConfig):
    """The branch-and-bound root grid, computed on numpy arrays.

    The same grid over the reduced cell's bounding box (the package's
    `_ROOT_SHORT`, `_ROOT_LONG` and `_CULL_SLACK`), with every box center,
    lattice coordinate and cull test computed by numpy on (2, n) rows in
    the operations of the plain-float `_root_grid`, which it is the
    reference for.  Returns the kept box
    centers as rows x and y in x-major order, their half side and the
    bounding box of the kept boxes.
    """
    from diskcover.coverage import _CULL_SLACK, _ROOT_LONG, _ROOT_SHORT
    from diskcover.lattice import Rect

    ux, uy = config.reduced.u
    vx, vy = config.reduced.v
    det = config.reduced.det
    xs = [0.0, ux, vx, ux + vx]
    ys = [0.0, uy, vy, uy + vy]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    width, height = xmax - xmin, ymax - ymin
    side = max(min(width, height) / _ROOT_SHORT, max(width, height) / _ROOT_LONG, 1e-9)
    nx = max(1, math.ceil(width / side - 1e-9))
    ny = max(1, math.ceil(height / side - 1e-9))
    side = max(width / nx, height / ny)
    half = side / 2.0
    grid = np.empty((2, nx, ny))
    offset = side * (np.arange(max(nx, ny)) + 0.5)
    grid[0] = (xmin + offset[:nx])[:, None]
    grid[1] = ymin + offset[:ny]
    grid = grid.reshape(2, -1)
    st = (grid * [[vy], [ux]] - grid[::-1] * [[vx], [uy]]) / det
    width = np.array(
        [
            [half * (abs(vx) + abs(vy)) / det * (1.0 + _CULL_SLACK)],
            [half * (abs(ux) + abs(uy)) / det * (1.0 + _CULL_SLACK)],
        ]
    )
    keep = (st + width >= 0.0) & (st - width <= 1.0)
    grid = grid.take((keep[0] & keep[1]).nonzero()[0], axis=1)
    (left, low), (right, high) = grid.min(axis=1).tolist(), grid.max(axis=1).tolist()
    return grid, half, Rect(left - half, low - half, right + half, high + half)


def finish_reference(centers, boxes, inner, outer, half, pad):
    """The exact finish's candidates of a level, brute force in plain floats.

    `centers` lists every (x, y) of the unpruned center field, `boxes` the
    (x, y) of each surviving box center, `inner` and `outer` their ring
    radii, `half` their half side and `pad` the field's evaluation error.
    Each box's ring is recounted from all centers; its triples are taken by
    `itertools.combinations` and solved one at a time with the circumcenter
    formula and rounding bounds of the finish.  A triple is kept when its
    circumradius bound is at most `outer` and its circumcenter lies within
    `half + pad` plus its error bound of the box center in x and in y; the
    circumcenter is then clamped into the box.  Returns (x, y, e_q) per
    kept triple, box by box.
    """
    out = []
    for (mx, my), lo, hi in zip(boxes, inner, outer):
        ring = [
            (cx, cy)
            for cx, cy in centers
            if lo * lo <= (mx - cx) * (mx - cx) + (my - cy) * (my - cy) <= hi * hi
        ]
        for a, b, c in itertools.combinations(ring, 3):
            qx, qy, error, radius = _circumcenter(a, b, c)
            reach = half + pad + error
            if radius <= hi and abs(qx - mx) <= reach and abs(qy - my) <= reach:
                qx = min(max(qx, mx - half), mx + half)
                qy = min(max(qy, my - half), my + half)
                out.append((qx, qy, error))
    return out


def _divide(a: float, b: float) -> float:
    # a / b with the IEEE result at b = 0, where Python raises
    if b != 0.0:
        return a / b
    if a == 0.0 or math.isnan(a):
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _circumcenter(a, b, c) -> tuple[float, float, float, float]:
    # the finish's circumcenter q, its error bound e_q and the circumradius
    # lower bound of triangle a, b, c, one float operation at a time
    u = 2.0**-53
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    ex, ey = cx - bx, cy - by
    bx, by, cx, cy = bx - ax, by - ay, cx - ax, cy - ay
    bb = bx * bx + by * by
    cc = cx * cx + cy * cy
    cross_1, cross_2 = bx * cy, by * cx
    det = cross_1 - cross_2
    det_err = 8.0 * u * (abs(cross_1) + abs(cross_2))
    half_inv = _divide(0.5, det)
    qx = ax + (cy * bb - by * cc) * half_inv
    qy = ay + (bx * cc - cx * bb) * half_inv
    wx, wy = qx - ax, qy - ay
    p_1, p_2, p_3, p_4 = bx * wx, by * wy, cx * wx, cy * wy
    slack = 1.0 + 2.0 * u
    rho_1 = abs(p_1 + p_2 - 0.5 * bb) * slack + 8.0 * u * (abs(p_1) + abs(p_2) + bb)
    rho_2 = abs(p_3 + p_4 - 0.5 * cc) * slack + 8.0 * u * (abs(p_3) + abs(p_4) + cc)
    floor = abs(det) - det_err
    error = math.inf
    if floor > 0.0:
        error = math.sqrt((bb + cc) * (rho_1 * rho_1 + rho_2 * rho_2)) / floor
        error *= 1.0 + 16.0 * u
    radius = math.sqrt(bb * cc * (ex * ex + ey * ey))
    radius = _divide(radius, 2.0 * (abs(det) + det_err)) * (1.0 - 16.0 * u)
    return qx, qy, error, radius
