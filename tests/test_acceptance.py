"""Acceptance checks.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints exactly one PASS/FAIL line (run with -s to stream
them).  A criterion fails the suite if any of its checks fail.
"""

import json
import math
import time

import numpy as np
import pytest

from diskcover import (
    Basis,
    PeriodicConfig,
    Point,
    config_density,
    congruence_signature,
    covering_radius,
    density_report,
    johnson_check,
    kershner_theta,
    kth_nearest_distance_batch,
    known_value,
    optimize_single_lattice,
    pattern_b,
    pattern_b_density_bound,
    tangent_pattern_c,
    toth_lower_bound,
    triangle_pattern,
    verify_k_coverage,
    voronoi_cell,
)
from diskcover.cli import main
from helpers import grid_covering_radii, random_config
from test_voronoi import _apply_motion

THETA = math.pi / (3.0 * math.sqrt(3.0) / 2.0)


class Criterion:
    def __init__(self, num: int, label: str):
        self.num = num
        self.label = label
        self.failures: list[str] = []
        self.closed = False

    def check(self, ok: bool, detail: str) -> None:
        if not ok:
            self.failures.append(detail)

    def done(self, detail: str = "") -> None:
        self.closed = True
        status = "PASS" if not self.failures else "FAIL"
        line = f"acceptance criterion {self.num} [{self.label}]: {status}"
        extra = "; ".join(self.failures) if self.failures else detail
        if extra:
            line += f"  ({extra})"
        print(line)
        assert not self.failures, line


@pytest.fixture()
def crit():
    holder: dict = {}

    def make(num: int, label: str) -> Criterion:
        holder["c"] = Criterion(num, label)
        return holder["c"]

    yield make
    c = holder.get("c")
    if c is not None and not c.closed:
        print(f"acceptance criterion {c.num} [{c.label}]: FAIL (aborted, see traceback)")


def test_criterion_1_kershner_constant(crit, capsys):
    c = crit(1, "Kershner constant")
    theta = kershner_theta()
    c.check(abs(theta - math.pi / (3 * math.sqrt(3) / 2)) <= 1e-9, f"theta={theta!r}")
    c.check(f"{theta:.6f}" == "1.209200", f"display {theta:.6f}")
    code = main(["bounds", "--k", "1"])
    payload = json.loads(capsys.readouterr().out)
    c.check(code == 0, f"bounds exit {code}")
    c.check(abs(payload["theta"] - theta) <= 1e-12, "cli theta mismatch")
    with capsys.disabled():
        c.done(f"theta={theta:.9f}")


def test_criterion_2_honeycomb_two_cover_density(crit, capsys):
    c = crit(2, "two-fold honeycomb density")
    start = time.perf_counter()
    cfg = triangle_pattern()
    dens = config_density(cfg)
    rep = density_report(cfg, 2)
    c.check(abs(dens - 2 * THETA) <= 1e-9, f"density={dens!r}")
    c.check(f"{dens:.6f}" == "2.418399", f"display {dens:.6f}")
    c.check(abs(rep.normalized - 2.0) <= 1e-9, f"normalized={rep.normalized!r}")
    c.check(f"{rep.normalized:.6f}" == "2.000000", f"display {rep.normalized:.6f}")
    cert = verify_k_coverage(cfg, 2, tol=1e-6)
    c.check(cert.status == "tight", f"status={cert.status}")
    c.check(abs(cert.radius_low - 1.0) <= 1e-6, f"low={cert.radius_low!r}")
    c.check(abs(cert.radius_high - 1.0) <= 1e-6, f"high={cert.radius_high!r}")
    elapsed = time.perf_counter() - start
    c.check(elapsed < 10.0, f"took {elapsed:.1f}s")
    with capsys.disabled():
        c.done(f"density={dens:.9f}, status={cert.status}, {elapsed:.2f}s")


def test_criterion_3_johnson_suite(crit, capsys):
    c = crit(3, "equal-circle concurrency suite")
    rng = np.random.default_rng(1000)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        r = float(rng.uniform(0.1, 10.0))
        q = Point(*rng.uniform(-5.0, 5.0, 2))
        while True:
            angles = np.sort(rng.uniform(0.0, 2 * math.pi, 3))
            gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * math.pi]]))
            if gaps.min() >= math.radians(5.0):
                break
        centers = [
            Point(q.x + r * math.cos(a), q.y + r * math.sin(a)) for a in angles
        ]
        got = johnson_check(q, centers, r)
        worst = max(worst, abs(got - r) / r)
    elapsed = time.perf_counter() - start
    c.check(worst < 1e-9, f"worst rel err {worst:.2e}")
    c.check(elapsed < 1.0, f"took {elapsed:.2f}s")
    with capsys.disabled():
        c.done(f"1000 trials, worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_4_pattern_b_bound(crit, capsys):
    c = crit(4, "two-row pattern density bound")
    xs = np.arange(1e-4, 1.0, 1e-4)
    vals = np.array([pattern_b_density_bound(float(x)) for x in xs])
    i = int(np.argmin(vals))
    c.check(abs(vals[i] - 2 * THETA) <= 1e-6, f"min={vals[i]!r}")
    c.check(f"{vals[i]:.6f}" == "2.418399", f"display {vals[i]:.6f}")
    c.check(abs(xs[i] - 0.866025) <= 1e-4, f"argmin x={xs[i]!r}")
    rng = np.random.default_rng(2000)
    worst = 0.0
    for _ in range(100):
        x = float(rng.uniform(0.05, 1.0))
        y = float(rng.uniform(0.1, math.sqrt(1 - x * x) + 1))
        d = float(rng.uniform(0.01 * y, 1.99 * y))
        dens = config_density(pattern_b(x, y, d))
        ref = math.pi / (x * y)
        worst = max(worst, abs(dens - ref) / ref)
    c.check(worst <= 1e-9, f"identity worst rel err {worst:.2e}")
    with capsys.disabled():
        c.done(
            f"min={vals[i]:.7f} at x={xs[i]:.6f}, identity err {worst:.1e}"
        )


def test_criterion_5_tangent_pattern_bound(crit, capsys):
    c = crit(5, "tangent-family patterns stay above pi")
    for variant in ("a", "b"):
        cfg = tangent_pattern_c(variant)
        cert = verify_k_coverage(cfg, 2, tol=1e-6)
        dens = config_density(cfg)
        c.check(
            cert.status in ("tight", "certified_covered"),
            f"variant {variant} status {cert.status}",
        )
        c.check(dens >= math.pi - 1e-9, f"variant {variant} density {dens!r}")
    c.check(math.pi > 2 * THETA, "pi vs 2 theta ordering")
    with capsys.disabled():
        c.done(f"both variants certified at density pi={math.pi:.6f} > 2theta")


def test_criterion_6_toth_bound(crit, capsys):
    c = crit(6, "k-fold lower bound")
    bound = toth_lower_bound(2)
    c.check(abs(bound - 2.094395) <= 1e-6, f"toth(2)={bound!r}")
    c.check(round(bound, 3) == known_value("danzer_low"), f"rounded {round(bound, 3)}")
    certified = [
        (triangle_pattern(), 2),
        (tangent_pattern_c("a"), 2),
        (tangent_pattern_c("b"), 2),
        (triangle_pattern(), 1),
        (PeriodicConfig(Basis((1, 0), (0, 1)), [(0, 0)], radius=0.75), 1),
    ]
    for cfg, k in certified:
        cert = verify_k_coverage(cfg, k, tol=1e-6)
        if cert.status in ("tight", "certified_covered"):
            rep = density_report(cfg, k)
            c.check(
                rep.meets_toth and rep.density >= rep.toth_bound - 1e-9,
                f"k={k} density {rep.density:.6f} below bound {rep.toth_bound:.6f}",
            )
    with capsys.disabled():
        c.done(f"toth(2)={bound:.7f}, certified configs all above their bound")


def test_criterion_7_lattice_optimization(crit, capsys):
    c = crit(7, "single-lattice optima for k=1..4")
    targets = {1: THETA, 2: 2 * THETA, 3: 2.841 * THETA, 4: 3.608 * THETA}
    rel_tol = {1: 1e-3, 2: 1e-2, 3: 1e-2, 4: 1e-2}
    notes = []
    for k in (1, 2, 3, 4):
        start = time.perf_counter()
        res = optimize_single_lattice(k, budget=20000, tol=1e-4, seed=0)
        elapsed = time.perf_counter() - start
        rel = abs(res.density - targets[k]) / targets[k]
        c.check(rel <= rel_tol[k], f"k={k} density {res.density:.6f} off by {rel:.2%}")
        c.check(res.evaluations <= 50000, f"k={k} evaluations {res.evaluations}")
        c.check(elapsed < 300.0, f"k={k} took {elapsed:.0f}s")
        notes.append(f"k={k}: {res.density:.6f} ({rel * 100:+.3f}%, {elapsed:.1f}s)")
    with capsys.disabled():
        c.done("; ".join(notes))


def test_criterion_8_oracle_equivalence(crit, capsys):
    c = crit(8, "certified radius matches dense grid")
    rng = np.random.default_rng(202608)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        cfg = random_config(rng)
        oracle = grid_covering_radii(cfg, (1, 2, 3), delta=0.005)
        for k in (1, 2, 3):
            enclosure = covering_radius(cfg, k, tol=1e-5)
            mid = 0.5 * (enclosure.low + enclosure.high)
            gap = abs(mid - oracle[k])
            worst = max(worst, gap)
            c.check(gap <= 2e-3, f"k={k} gap {gap:.2e}")
    elapsed = time.perf_counter() - start
    c.check(elapsed < 120.0, f"took {elapsed:.0f}s")
    with capsys.disabled():
        c.done(f"20 configs x k=1..3, worst gap {worst:.2e}, {elapsed:.0f}s")


def test_criterion_9_property_suites(crit, capsys):
    c = crit(9, "structural properties")
    rng = np.random.default_rng(3000)

    # 1-Lipschitz distance field, 10^4 point pairs.
    cfg = random_config(rng)
    a = rng.uniform(-4.0, 4.0, (10_000, 2))
    b = a + rng.normal(0.0, 0.5, (10_000, 2))
    da = kth_nearest_distance_batch(a, cfg, 2)
    db = kth_nearest_distance_batch(b, cfg, 2)
    gaps = np.hypot(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1])
    viol = float(np.max(np.abs(da - db) - gaps))
    c.check(viol <= 1e-9, f"Lipschitz violation {viol:.2e}")

    # Density is scale invariant.
    worst = 0.0
    for _ in range(50):
        cfg = random_config(rng)
        s = float(rng.uniform(0.2, 8.0))
        worst = max(
            worst,
            abs(config_density(cfg.scaled(s)) - config_density(cfg))
            / config_density(cfg),
        )
    c.check(worst <= 1e-12, f"density scale drift {worst:.2e}")

    # Covering radius scales with the configuration.
    for _ in range(3):
        cfg = random_config(rng)
        s = float(rng.uniform(0.3, 5.0))
        r1 = covering_radius(cfg, 2, tol=1e-7)
        r2 = covering_radius(cfg.scaled(s), 2, tol=s * 1e-7)
        c.check(
            abs(r2.low - s * r1.low) <= s * 3e-7,
            f"scale equivariance gap {abs(r2.low - s * r1.low):.2e}",
        )

    # Voronoi cells tile the period: areas add to det.
    for _ in range(10):
        cfg = random_config(rng)
        total = sum(
            voronoi_cell(cfg, i).polygon.area
            for i in range(len(cfg.offsets))
        )
        c.check(abs(total - cfg.det) <= 1e-8, f"tiling defect {abs(total - cfg.det):.2e}")

    # Congruence signature survives rigid motions.
    base = voronoi_cell(triangle_pattern(), 0).polygon
    ref = congruence_signature(base)
    bad = 0
    for _ in range(1000):
        moved = _apply_motion(
            base,
            float(rng.uniform(0.0, 2 * math.pi)),
            float(rng.uniform(-20.0, 20.0)),
            float(rng.uniform(-20.0, 20.0)),
            bool(rng.integers(0, 2)),
        )
        if congruence_signature(moved) != ref:
            bad += 1
    c.check(bad == 0, f"{bad} signature mismatches under rigid motions")

    with capsys.disabled():
        c.done("Lipschitz, scaling, tiling, and congruence invariants all hold")
