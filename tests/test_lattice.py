import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskcover import (
    Basis,
    ConfigFormatError,
    PeriodicConfig,
    Point,
    Rect,
    covering_radius,
    enumerate_centers,
    kth_nearest_distance,
    kth_nearest_distance_batch,
    reduce_basis,
    verify_k_coverage,
    voronoi_cell,
)
from diskcover import coverage, lattice, voronoi
from helpers import min_offset_gap

# a rotated honeycomb basis on which mu flips between +1 and -1 at every
# step of the reduction; the pair is reduced already
ROTATED_HONEYCOMB = Basis(
    (2.503729529556902, 1.1055676498193225), (0.29441509443265934, 2.7210772017112004)
)


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1]


def _rotated_hexagon(step: int) -> Basis:
    """Unit hexagonal basis rotated by step / 2000 of a turn."""
    a = 2.0 * math.pi * step / 2000
    b = a + math.pi / 3
    return Basis((math.cos(a), math.sin(a)), (math.cos(b), math.sin(b)))


class TestBasis:
    def test_det_and_orientation(self):
        b = Basis((2, 0), (0.5, 3))
        assert b.det == pytest.approx(6.0, abs=1e-15)
        flipped = Basis((2, 0), (0.5, -3))
        assert flipped.det == pytest.approx(6.0, abs=1e-15)
        assert flipped.v[1] > 0  # second vector negated to keep det positive

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            Basis((1, 0), (2, 0))
        with pytest.raises(ValueError, match="degenerate"):
            Basis((1e-8, 0), (0, 1e-8))

    def test_lengths(self):
        lu, lv = Basis((3, 4), (0, 2)).lengths()
        assert lu == pytest.approx(5.0)
        assert lv == pytest.approx(2.0)


def _shortest_nonzero(b: Basis, bound: int) -> float:
    """Shortest nonzero vector among small integer combinations of b."""
    best = math.inf
    for i, j in itertools.product(range(-bound, bound + 1), repeat=2):
        if i == 0 and j == 0:
            continue
        x = i * b.u[0] + j * b.v[0]
        y = i * b.u[1] + j * b.v[1]
        best = min(best, math.hypot(x, y))
    return best


class TestReduceBasis:
    def test_known_reduction(self):
        r = reduce_basis(Basis((1, 0), (5, 1)))
        lens = sorted(r.lengths())
        assert lens[0] == pytest.approx(1.0, abs=1e-12)
        assert lens[1] == pytest.approx(1.0, abs=1e-12)
        assert _shortest_nonzero(r, 2) == pytest.approx(1.0, abs=1e-12)

    def test_reduced_shape_and_lattice_preserved(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            m = rng.uniform(-5, 5, (2, 2))
            if abs(np.linalg.det(m)) < 0.1:
                continue
            b = Basis(tuple(m[0]), tuple(m[1]))
            r = reduce_basis(b)
            lu, lv = r.lengths()
            # Lagrange-Gauss conditions: |u| <= |v| <= |u +- v|.
            assert lu <= lv + 1e-12
            upv = math.hypot(r.u[0] + r.v[0], r.u[1] + r.v[1])
            umv = math.hypot(r.u[0] - r.v[0], r.u[1] - r.v[1])
            assert lv <= min(upv, umv) + 1e-9
            # First vector is a shortest lattice vector.  Small combinations
            # of the original basis only give an upper bound (the shortest
            # vector can have large coefficients in a skewed basis); in the
            # reduced basis its coefficients are provably small, so a tiny
            # window over the reduced basis is an exact independent check.
            assert lu <= _shortest_nonzero(b, 8) + 1e-9
            assert lu == pytest.approx(_shortest_nonzero(r, 4), rel=1e-9)
            # Same lattice: change of basis is integer with unit determinant.
            old = np.array([b.u, b.v]).T
            new = np.array([r.u, r.v]).T
            t = np.linalg.solve(old, new)
            assert np.allclose(t, np.round(t), atol=1e-6)
            assert abs(abs(np.linalg.det(t)) - 1.0) < 1e-6
            assert r.det == pytest.approx(b.det, rel=1e-9)

    def test_hexagonal_rounding_cycle_is_reduced(self):
        b = ROTATED_HONEYCOMB
        r = reduce_basis(b)
        assert r == b
        assert abs(r.u[0] * r.v[0] + r.u[1] * r.v[1]) == pytest.approx(
            0.5 * (r.u[0] ** 2 + r.u[1] ** 2), rel=1e-12
        )

    def test_repeated_state_ends_the_loop(self, monkeypatch):
        # once a state comes back two steps later the loop can only cycle,
        # so it ends there, not after all 256 steps: on the flip between
        # +1 and -1 and on a stall whose v - mu * u rounds back to v
        steps = []

        def counting_round(ratio):
            steps.append(ratio)
            return round(ratio)

        monkeypatch.setattr(lattice, "round", counting_round, raising=False)
        assert reduce_basis(ROTATED_HONEYCOMB) == ROTATED_HONEYCOMB
        assert len(steps) == 2
        steps.clear()
        with pytest.raises(ValueError, match="did not converge"):
            reduce_basis(Basis((4e-16, 7e-16), (7e29, -4e29)))
        assert len(steps) == 2

    @pytest.mark.parametrize(
        "basis",
        [ROTATED_HONEYCOMB, *map(_rotated_hexagon, (28, 29, 79, 83, 164))],
        ids=["honeycomb", "hexagon28", "hexagon29", "hexagon79", "hexagon83", "hexagon164"],
    )
    def test_cycle_exit_does_not_depend_on_the_step_bound(self, monkeypatch, basis):
        # on each basis rounding flips mu between +1 and -1 for good, so
        # the state the loop ends on must not hang on the bound's parity
        answers = set()
        for steps in (16, 17, 256, 257, 4096):
            monkeypatch.setattr(lattice, "_MAX_REDUCTION_STEPS", steps)
            r = reduce_basis(basis)
            answers.add(tuple(map(float.hex, (*r.u, *r.v))))
        assert len(answers) == 1
        assert round(_dot(r.u, r.v) / _dot(r.u, r.u)) != 0

    def test_raises_when_reduction_does_not_converge(self):
        # |v| / |u| ~ 1e45, and the rounded products of dot(u, v) leave
        # -1/32: mu ~ 5e28, yet v - mu * u rounds back to v at every step,
        # where the unreduced basis used to come back silently after the bound
        skewed = {"u": [4e-16, 7e-16], "v": [7e29, -4e29], "offsets": [[0, 0]], "radius": 1.0}
        with pytest.raises(ValueError, match="did not converge"):
            reduce_basis(Basis(tuple(skewed["u"]), tuple(skewed["v"])))
        with pytest.raises(ConfigFormatError, match="did not converge"):
            PeriodicConfig.from_dict(skewed)

    def test_binary_orthogonal_skewed_basis_reduces_at_once(self):
        # 2e-16 = 2 * 1e-16 and 2e29 = 4e29 / 2 in binary, so the products
        # of dot(u, v) cancel exactly and mu = 0 at the first step; only a
        # fused multiply-add left a residual here that stalled the reduction
        basis = Basis((1e-16, 2e-16), (4e29, -2e29))
        assert basis.u[0] * basis.v[0] + basis.u[1] * basis.v[1] == 0.0
        assert reduce_basis(basis) == basis

    @pytest.mark.parametrize(
        "u, v",
        [
            # |u|^2 underflows to 0 on the input basis
            ((1e-163, 0.0), (1e153, 1e153)),
            # both inputs are normal; their difference (1e-164, 0) is not
            ((1e-158, 1e153), (1.000001e-158, 1e153)),
        ],
    )
    def test_raises_when_squared_length_underflows(self, u, v):
        with pytest.raises(ValueError, match="too skewed"):
            reduce_basis(Basis(u, v))


class TestPeriodicConfig:
    def test_wraps_offsets_into_fundamental_cell(self):
        cfg = PeriodicConfig(Basis((1, 0), (0, 1)), [(2.25, -0.5)], radius=1.0)
        assert cfg.offsets[0].as_tuple() == pytest.approx((0.25, 0.5), abs=1e-12)

    def test_accepts_raw_basis_tuples(self):
        cfg = PeriodicConfig(((1, 0), (0, 1)), [(0, 0)], radius=1.0)
        assert isinstance(cfg.basis, Basis)
        assert cfg.det == pytest.approx(1.0)

    def test_rejects_coincident_offsets_mod_lattice(self):
        with pytest.raises(ValueError, match="coincide"):
            PeriodicConfig(Basis((1, 0), (0, 1)), [(0.1, 0.1), (1.1, 2.1)], radius=1.0)

    def test_rejects_coincident_offsets_on_skewed_basis(self):
        # 1e-11 apart modulo the lattice, on opposite edges of the skewed
        # cell, so their raw difference is (5, 1), far outside the reduced one
        offsets = [(0.3 + 5e-12, 1e-12), (5.3 - 5e-12, 1 - 1e-12)]
        with pytest.raises(ValueError, match="coincide"):
            PeriodicConfig(Basis((1, 0), (5, 1)), offsets, radius=1.0)

    @pytest.mark.parametrize("factor, rejected", [(1.0 - 1e-6, True), (1.0 + 1e-6, False)])
    def test_separation_tolerance_boundary(self, factor, rejected):
        # a small cell keeps the wrapping error far below the 1e-15 margin
        basis = Basis((1e-3, 0.0), (0.3e-3, 1.1e-3))
        gap = lattice.SEPARATION_TOL * factor
        for p in ((0.0, 0.0), (0.49e-3, 0.33e-3)):
            for phi in np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False):
                q = (p[0] + gap * math.cos(phi), p[1] + gap * math.sin(phi))
                wrapped = [PeriodicConfig(basis, [x], 1.0).offsets[0] for x in (p, q)]
                brute = min_offset_gap(wrapped, reduce_basis(basis))
                assert (brute <= lattice.SEPARATION_TOL) == rejected
                if rejected:
                    with pytest.raises(ValueError, match="coincide"):
                        PeriodicConfig(basis, [p, q], 1.0)
                else:
                    PeriodicConfig(basis, [p, q], 1.0)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError, match="radius"):
            PeriodicConfig(Basis((1, 0), (0, 1)), [(0, 0)], radius=0.0)

    def test_stores_a_numpy_radius_as_a_plain_float(self):
        cfg = PeriodicConfig(Basis((1, 0), (0, 1)), [(0, 0)], np.float32(1.0))
        assert type(cfg.radius) is float
        assert json.loads(cfg.to_json())["radius"] == 1.0
        # validated as before the conversion: a string is still refused
        with pytest.raises(TypeError):
            PeriodicConfig(Basis((1, 0), (0, 1)), [(0, 0)], "1.0")

    def test_scaled(self):
        cfg = PeriodicConfig(Basis((1, 0), (0, 1)), [(0.25, 0.25)], radius=0.8)
        doubled = cfg.scaled(2.0)
        assert doubled.det == pytest.approx(4.0)
        assert doubled.radius == pytest.approx(1.6)
        assert doubled.offsets[0].as_tuple() == pytest.approx((0.5, 0.5))

    def test_json_round_trip(self):
        cfg = PeriodicConfig(Basis((1.5, 0), (0.5, 2)), [(0, 0), (1, 1)], radius=1.25)
        back = PeriodicConfig.from_json(cfg.to_json())
        assert back.basis.u == pytest.approx(cfg.basis.u)
        assert back.basis.v == pytest.approx(cfg.basis.v)
        assert back.radius == cfg.radius
        assert len(back.offsets) == 2

    def test_to_dict_is_json_serialisable(self):
        cfg = PeriodicConfig(Basis((1, 0), (0, 1)), [(0.5, 0.5)], radius=1.0)
        text = json.dumps(cfg.to_dict())
        assert '"radius"' in text

    @pytest.mark.parametrize(
        "payload",
        [
            "not json at all",
            "[]",
            '{"basis": [[1, 0]], "offsets": [[0, 0]], "radius": 1}',
            '{"basis": [[1, 0], [0, 1]], "radius": 1}',
            '{"basis": [[1, 0], [0, 1]], "offsets": [[0, 0]], "radius": "big"}',
            '{"basis": [[1, 0], [0, "x"]], "offsets": [[0, 0]], "radius": 1}',
            '{"basis": [[1, 0], [0, 1]], "offsets": [[0, 0, 0]], "radius": 1}',
            # |v|^2 overflows, and so would the offset's lattice coordinates
            '{"u": [4.72e16, 85532.1], "v": [1.55e224, -4.28e16],'
            ' "offsets": [[-1.797e308, -5e-324]], "radius": 1e-6}',
            # det overflows
            '{"u": [1e200, 0], "v": [0, 1e200], "offsets": [[0, 0]], "radius": 1}',
            # the basis is fine, the offset's lattice coordinates overflow
            '{"u": [1e-5, 0], "v": [0, 1e-5], "offsets": [[1e308, 0]], "radius": 1}',
        ],
    )
    def test_malformed_json_raises_config_error(self, payload):
        with pytest.raises(ConfigFormatError):
            PeriodicConfig.from_json(payload)

    def test_config_error_is_value_error(self):
        assert issubclass(ConfigFormatError, ValueError)

    def test_carries_its_reduced_basis(self):
        a = PeriodicConfig(Basis((1, 0), (5, 1)), [(0, 0), (2.5, 0.5)], radius=1.0)
        b = PeriodicConfig(Basis((1, 0), (5, 1)), [(0, 0), (2.5, 0.5)], radius=1.0)
        assert a.reduced == reduce_basis(a.basis)
        assert a.reduced != a.basis
        # derived, so invisible to equality, hash, repr and serialisation
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash((a.basis, a.offsets, a.radius))
        assert repr(a) == (
            f"PeriodicConfig(basis={a.basis!r}, offsets={a.offsets!r}, radius={a.radius!r})"
        )
        assert a.to_dict() == {
            "u": [1.0, 0.0],
            "v": [5.0, 1.0],
            "offsets": [[0.0, 0.0], [2.5, 0.5]],
            "radius": 1.0,
        }
        with pytest.raises(TypeError):
            PeriodicConfig(a.basis, a.offsets, a.radius, a.reduced)

    def test_consumers_reuse_the_reduced_basis(self, monkeypatch):
        cfg = PeriodicConfig(Basis((1, 0), (5, 1)), [(0, 0), (0.5, 0.5)], radius=1.0)
        original = lattice.reduce_basis
        calls = []

        def counting(basis):
            calls.append(basis)
            return original(basis)

        for module in (lattice, coverage, voronoi):
            monkeypatch.setattr(module, "reduce_basis", counting)
        covering_radius(cfg, 2, tol=1e-3)
        verify_k_coverage(cfg, 2, tol=1e-3)
        kth_nearest_distance(Point(0.1, 0.2), cfg, 2)
        kth_nearest_distance_batch(np.array([[0.1, 0.2], [0.7, 0.4]]), cfg, 3)
        voronoi_cell(cfg, 0)
        voronoi_cell(cfg, 1)
        enumerate_centers(cfg, Rect(0, 0, 1, 1), 1.0)
        assert calls == []
        PeriodicConfig(cfg.basis, cfg.offsets, cfg.radius)
        assert calls == [cfg.basis]


# well-scaled floats and small ints, so that valid configs occur, and one
# leaf in eight drawn from every float, ints beyond the float range, and
# leaves that are no numbers
_ODD_LEAF = st.one_of(
    st.floats(),
    st.sampled_from([10**400, -10**400]),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
)
_LEAF = st.integers(0, 7).flatmap(
    lambda i: _ODD_LEAF if i == 7 else st.one_of(st.floats(-4.0, 4.0), st.integers(-4, 4))
)
_FLAT_PAIR = st.lists(_LEAF, min_size=2, max_size=2)
# and one pair in eight a pair of pairs
_PAIR = st.integers(0, 7).flatmap(
    lambda i: st.lists(_FLAT_PAIR, min_size=2, max_size=2) if i == 7 else _FLAT_PAIR
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(u=_PAIR, v=_PAIR, offsets=st.lists(_PAIR, min_size=1, max_size=3), radius=_LEAF)
def test_from_dict_returns_config_or_raises_config_error(u, v, offsets, radius):
    data = {"u": u, "v": v, "offsets": offsets, "radius": radius}
    # any exception but ConfigFormatError fails the test
    try:
        cfg = PeriodicConfig.from_dict(data)
    except ConfigFormatError:
        return
    # a config only when every leaf is an int or a float, and no bool
    leaves = [*u, *v, *itertools.chain(*offsets), radius]
    assert all(type(x) in (int, float) for x in leaves)
    assert cfg.basis.det > 0.0 and math.isfinite(cfg.basis.det)
    assert all(math.isfinite(p.x) and math.isfinite(p.y) for p in cfg.offsets)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    b=st.floats(-6.0, 6.0),
    c=st.floats(0.2, 3.0),
    scale=st.floats(1e-3, 1e3),
    coords=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), min_size=2, max_size=6),
    copy=st.one_of(st.none(), st.tuples(st.integers(-3, 3), st.integers(-3, 3))),
)
def test_separation_check_matches_scalar_loop(b, c, scale, coords, copy):
    basis = Basis((scale, 0.0), (scale * b, scale * c))
    (ux, uy), (vx, vy) = basis.u, basis.v
    pts = [(scale * x, scale * y) for x, y in coords]
    if copy is not None:
        # an exact copy of the first offset modulo the lattice
        i, j = copy
        pts.append((pts[0][0] + i * ux + j * vx, pts[0][1] + i * uy + j * vy))
    wrapped = [PeriodicConfig(basis, [p], 1.0).offsets[0] for p in pts]
    coincide = min_offset_gap(wrapped, reduce_basis(basis)) <= lattice.SEPARATION_TOL
    assert coincide or copy is None
    try:
        PeriodicConfig(basis, pts, 1.0)
    except ValueError as exc:
        assert "coincide" in str(exc)
        assert coincide
    else:
        assert not coincide



# coordinates of at least 1e-6 in magnitude, so no basis is too skewed
# for float64 and every one that is not degenerate reduces
_COORD = st.floats(-10.0, 10.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-6)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(u=st.tuples(_COORD, _COORD), v=st.tuples(_COORD, _COORD), exponent=st.integers(-16, 64))
def test_reduced_basis_meets_the_lagrange_gauss_conditions(u, v, exponent):
    scale = 2.0**exponent
    try:
        basis = Basis((scale * u[0], scale * u[1]), (scale * v[0], scale * v[1]))
    except ValueError:
        return  # degenerate
    r = reduce_basis(basis)
    uu, vv = _dot(r.u, r.u), _dot(r.v, r.v)
    assert uu <= vv
    # mu = 0 ends the reduction, or the +-1 flip of a pair within an ulp of
    # |dot(u, v)| = |u|^2 / 2; each dot product is off by a few ulps
    assert abs(_dot(r.u, r.v)) <= 0.5 * uu + 1e-15 * math.sqrt(uu * vv)
    assert r.det == pytest.approx(basis.det, rel=1e-9)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(m=st.lists(st.integers(-(2**20), 2**20), min_size=4, max_size=4), exponent=st.integers(-10, 40))
def test_reduction_is_an_integer_unimodular_change_of_basis(m, exponent):
    # integers below 2**21 times a power of two keep every product, sum and
    # v - mu * u of the reduction exact, so the change of basis is exact too
    scale = 2.0**exponent
    try:
        basis = Basis((m[0] * scale, m[1] * scale), (m[2] * scale, m[3] * scale))
    except ValueError:
        return  # degenerate
    r = reduce_basis(basis)
    (a, b), (c, d) = [[Fraction(x) for x in w] for w in (basis.u, basis.v)]
    det = a * d - b * c
    # the rows of t map the rows (u, v) of the basis to those of r
    t = [
        [(x * d - y * c) / det, (y * a - x * b) / det]
        for x, y in ([Fraction(x) for x in w] for w in (r.u, r.v))
    ]
    assert all(entry.denominator == 1 for row in t for entry in row)
    assert t[0][0] * t[1][1] - t[0][1] * t[1][0] == 1


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    angle=st.floats(0.0, 2.0 * math.pi),
    b=st.floats(-6.0, 6.0),
    c=st.floats(0.2, 3.0),
    scale=st.floats(1e-3, 1e3),
    coords=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), min_size=2, max_size=8),
)
def test_min_periodic_gap_matches_a_shift_scan(angle, b, c, scale, coords):
    cos, sin = scale * math.cos(angle), scale * math.sin(angle)
    basis = Basis((cos, sin), (b * cos - c * sin, b * sin + c * cos))
    wrapped = tuple(
        PeriodicConfig(basis, [(scale * x, scale * y)], 1.0).offsets[0] for x, y in coords
    )
    reduced = reduce_basis(basis)
    gap = lattice._min_periodic_gap(wrapped, reduced)
    brute = min_offset_gap(wrapped, reduced)
    assert abs(gap - brute) <= 1e-12 * scale * (1.0 + abs(b) + c)

def _brute_centers(cfg: PeriodicConfig, rect: Rect, margin: float, bound: int = 12):
    out = set()
    for i, j in itertools.product(range(-bound, bound + 1), repeat=2):
        for p in cfg.offsets:
            x = p.x + i * cfg.basis.u[0] + j * cfg.basis.v[0]
            y = p.y + i * cfg.basis.u[1] + j * cfg.basis.v[1]
            gap = math.hypot(
                max(rect.xmin - x, 0.0, x - rect.xmax), max(rect.ymin - y, 0.0, y - rect.ymax)
            )
            if gap <= margin + 1e-12:
                out.add((round(x, 9), round(y, 9)))
    return out


class TestEnumerateCenters:
    def test_unit_square_window(self):
        cfg = PeriodicConfig(Basis((1, 0), (0, 1)), [(0, 0)], radius=1.0)
        pts = enumerate_centers(cfg, Rect(0, 0, 3, 3), margin=0.0)
        assert len(pts) == 16

    def test_matches_brute_force(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            a = rng.uniform(0.7, 2.0)
            cfg = PeriodicConfig(
                Basis((a, 0), (rng.uniform(-a / 2, a / 2), rng.uniform(0.7, 2.0))),
                [(0, 0), (a / 3, 0.3)],
                radius=1.0,
            )
            rect = Rect(-1.0, -1.0, 2.0, 1.5)
            margin = float(rng.uniform(0.0, 1.0))
            got = {(round(p.x, 9), round(p.y, 9)) for p in enumerate_centers(cfg, rect, margin)}
            assert got == _brute_centers(cfg, rect, margin)

    def test_sorted_lexicographically(self):
        cfg = PeriodicConfig(Basis((1, 0), (0, 1)), [(0, 0)], radius=1.0)
        pts = enumerate_centers(cfg, Rect(0, 0, 2, 2), margin=0.5)
        keys = [(p.x, p.y) for p in pts]
        assert keys == sorted(keys)

    def test_rejects_negative_margin(self):
        cfg = PeriodicConfig(Basis((1, 0), (0, 1)), [(0, 0)], radius=1.0)
        with pytest.raises(ValueError):
            enumerate_centers(cfg, Rect(0, 0, 1, 1), margin=-0.1)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    angle=st.floats(0.0, 2.0 * math.pi),
    b=st.floats(-6.0, 6.0),
    c=st.floats(0.2, 3.0),
    scale=st.floats(1e-3, 1e3),
    coords=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=8),
    corner=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    # a point rect half the time, else a box
    extent=st.one_of(st.just((0.0, 0.0)), st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0))),
    margin=st.floats(0.0, 3.0),
)
def test_plain_translates_match_the_array_bit_for_bit(
    angle, b, c, scale, coords, corner, extent, margin
):
    cos, sin = scale * math.cos(angle), scale * math.sin(angle)
    u, v = (cos, sin), (b * cos - c * sin, b * sin + c * cos)
    offsets = [(s * u[0] + t * v[0], s * u[1] + t * v[1]) for s, t in coords]
    try:
        cfg = PeriodicConfig(Basis(u, v), offsets, 1.0)
    except ValueError:
        return  # offsets coincide modulo the lattice
    (x, y), (w, h) = corner, extent
    rect = Rect(scale * x, scale * y, scale * (x + w), scale * (y + h))
    array = lattice._translates_array(cfg, rect, scale * margin)
    plain = lattice._translates(cfg, rect, scale * margin)
    # float.hex tells -0.0 from 0.0, so equal lists are equal bit for bit
    assert [(px.hex(), py.hex()) for px, py in plain] == [
        (px.hex(), py.hex()) for px, py in array.tolist()
    ]
    # the order enumerate_centers had when it sorted the array
    order = np.lexsort((array[:, 1], array[:, 0]))
    assert [(p.x, p.y) for p in enumerate_centers(cfg, rect, scale * margin)] == [
        tuple(row) for row in array[order].tolist()
    ]


_UNIT_SQUARE = PeriodicConfig(Basis((1, 0), (0, 1)), [(0, 0)], radius=1.0)


@pytest.mark.parametrize(
    "rect, margin, message",
    [
        (Rect(-1e308, -1e308, 1e308, 1e308), 1e308, "overflows the float range"),
        (Rect(0, 0, 1e4, 1e4), 0.0, "needs more than"),
        (Rect(1e300, 0.5, 1e300, 0.5), 1.0, "indices of 2\\*\\*53 or more"),
    ],
)
def test_both_enumerations_share_the_guards(rect, margin, message):
    for enumerate_ in (lattice._translates_array, lattice._translates):
        with pytest.raises(ValueError, match=message):
            enumerate_(_UNIT_SQUARE, rect, margin)
