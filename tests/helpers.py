"""Independent oracles used to cross-check library results.

Everything here is deliberately naive: direct translate enumeration and
dense sampling, sharing no code with the package internals.
"""

from __future__ import annotations

import math

import numpy as np

from diskcover import PeriodicConfig


def oracle_centers(config: PeriodicConfig, reach: float) -> np.ndarray:
    """All centers within `reach` of the fundamental parallelogram, brute force.

    Translate indices are bounded through the row-spacing identity
    dist(line(v), u) = det/|v|, so the window provably contains every
    center at distance <= reach from any point of the parallelogram.
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
    return pts


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


def min_offset_gap(offsets, reduced) -> float:
    """Least distance between two offsets modulo the lattice, by scalar loops.

    Takes wrapped offsets and a reduced basis, and scans the shifts
    i*u + j*v with |i|, |j| <= 2 one `math.hypot` at a time.
    """
    (ux, uy), (vx, vy) = reduced.u, reduced.v
    best = math.inf
    for a in range(len(offsets)):
        for b in range(a + 1, len(offsets)):
            dx = offsets[a].x - offsets[b].x
            dy = offsets[a].y - offsets[b].y
            for i in range(-2, 3):
                for j in range(-2, 3):
                    best = min(best, math.hypot(dx + i * ux + j * vx, dy + i * uy + j * vy))
    return best
