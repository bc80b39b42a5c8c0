"""Value semantics of the package's record types.

Each record compares equal field by field to another of its own class,
hashes as the tuple of those fields, prints as `Name(field=value, ...)`
and refuses assignment and deletion.  `Basis.det` and
`PeriodicConfig.reduced` are derived, so they take no part in any of
this.  `OptimizationResult` holds its history as a list, so hashing one
raises TypeError.  Records without a constructor of their own share
`Record`'s, which takes each field once, by position or by name.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import diskcover
from diskcover import (
    Basis,
    Circle,
    ConvexPolygon,
    CoverageCertificate,
    CoveringRadius,
    DensityReport,
    OptimizationResult,
    PatternSpec,
    PeriodicConfig,
    Point,
    Rect,
    VoronoiCell,
)
from diskcover.geometry import Record


def _config(radius=1.0):
    return PeriodicConfig(Basis((2, 0), (1, 1)), [(0, 0), (1, 0.5)], radius)


def _certificate(status="tight"):
    return CoverageCertificate(2, status, Point(0.5, 0.25), 0.9, 1.1)


# (build one record from a distinguishing value, the fields its equality
# and hash cover, its repr for the first value)
CASES = {
    "Point": (
        lambda a: Point(a, 2.5),
        ("x", "y"),
        "Point(x=1.0, y=2.5)",
    ),
    "Circle": (
        lambda a: Circle(Point(0, 0), a),
        ("center", "radius"),
        "Circle(center=Point(x=0.0, y=0.0), radius=1.0)",
    ),
    "Basis": (
        lambda a: Basis((a, 0), (0.5, -2)),
        ("u", "v"),
        "Basis(u=(1.0, 0.0), v=(-0.5, 2.0))",
    ),
    "ConvexPolygon": (
        lambda a: ConvexPolygon([(0, 0), (a, 0), (0, 1)]),
        ("vertices",),
        "ConvexPolygon([Point(x=0.0, y=0.0), Point(x=1.0, y=0.0), Point(x=0.0, y=1.0)])",
    ),
    "Rect": (
        lambda a: Rect(0.0, -1.0, a, 3.0),
        ("xmin", "ymin", "xmax", "ymax"),
        "Rect(xmin=0.0, ymin=-1.0, xmax=1.0, ymax=3.0)",
    ),
    "PeriodicConfig": (
        _config,
        ("basis", "offsets", "radius"),
        "PeriodicConfig(basis=Basis(u=(2.0, 0.0), v=(1.0, 1.0)), "
        "offsets=(Point(x=0.0, y=0.0), Point(x=1.0, y=0.5)), radius=1.0)",
    ),
    "CoverageCertificate": (
        lambda a: CoverageCertificate(2, "tight", Point(0.5, 0.25), 0.9, a),
        ("k", "status", "witness", "radius_low", "radius_high"),
        "CoverageCertificate(k=2, status='tight', witness=Point(x=0.5, y=0.25), "
        "radius_low=0.9, radius_high=1.0)",
    ),
    "CoveringRadius": (
        lambda a: CoveringRadius(0.9, a, Point(0.5, 0.25), 7, True),
        ("low", "high", "witness", "boxes", "converged"),
        "CoveringRadius(low=0.9, high=1.0, witness=Point(x=0.5, y=0.25), "
        "boxes=7, converged=True)",
    ),
    "DensityReport": (
        lambda a: DensityReport(k=2, density=a, normalized=2.0, toth_bound=2.1,
                                meets_toth=False),
        ("k", "density", "normalized", "toth_bound", "meets_toth"),
        "DensityReport(k=2, density=1.0, normalized=2.0, toth_bound=2.1, "
        "meets_toth=False)",
    ),
    "OptimizationResult": (
        lambda a: OptimizationResult(
            best_config=_config(a), density=2.5, certificate=_certificate(),
            history=[((0.5, 1.0), 2.5)], converged=True, param_names=("b", "c"),
        ),
        ("best_config", "density", "certificate", "history", "converged", "param_names"),
        "OptimizationResult(best_config=PeriodicConfig(basis=Basis(u=(2.0, 0.0), "
        "v=(1.0, 1.0)), offsets=(Point(x=0.0, y=0.0), Point(x=1.0, y=0.5)), "
        "radius=1.0), density=2.5, certificate=CoverageCertificate(k=2, "
        "status='tight', witness=Point(x=0.5, y=0.25), radius_low=0.9, "
        "radius_high=1.1), history=[((0.5, 1.0), 2.5)], converged=True, "
        "param_names=('b', 'c'))",
    ),
    "PatternSpec": (
        lambda a: PatternSpec("pattern_b", 0.8, a, 0.9),
        ("name", "x", "y", "d"),
        "PatternSpec(name='pattern_b', x=0.8, y=1.0, d=0.9)",
    ),
    "VoronoiCell": (
        lambda a: VoronoiCell(Point(0, 0), ConvexPolygon([(0, 0), (a, 0), (0, 1)])),
        ("site", "polygon"),
        "VoronoiCell(site=Point(x=0.0, y=0.0), polygon=ConvexPolygon([Point(x=0.0, "
        "y=0.0), Point(x=1.0, y=0.0), Point(x=0.0, y=1.0)]))",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_record_semantics(name):
    build, fields, text = CASES[name]
    a, b, other = build(1.0), build(1.0), build(1.5)
    assert a == b and a is not b
    assert a != other
    # a record never equals a tuple of its values, nor another type
    values = tuple(getattr(a, f) for f in fields)
    assert a != values
    assert repr(a) == text
    if name == "OptimizationResult":
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(values)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(a, field, 0.0)
        with pytest.raises(AttributeError):
            delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 0.0
    assert a == b and repr(a) == text


def test_derived_fields_are_left_out():
    config = PeriodicConfig(Basis((1, 0), (3, 1)), [(0, 0)], 1.0)
    assert config.reduced == Basis((1, 0), (0, 1))
    assert "reduced" not in repr(config) and "det" not in repr(config.basis)
    assert hash(config) == hash((config.basis, config.offsets, config.radius))


# the records that declare no constructor and store their fields through
# Record's
SHARED_CONSTRUCTOR = (
    "CoverageCertificate",
    "CoveringRadius",
    "DensityReport",
    "OptimizationResult",
    "VoronoiCell",
)


@pytest.mark.parametrize("name", SHARED_CONSTRUCTOR)
def test_shared_constructor_takes_each_field_once(name):
    build, fields, _ = CASES[name]
    cls = type(build(1.0))
    assert "__init__" not in vars(cls)
    values = [getattr(build(1.0), f) for f in fields]
    # by position, by name, or positions first and names after
    assert cls(*values) == cls(**dict(zip(fields, values))) == build(1.0)
    assert cls(*values[:1], **dict(zip(fields[1:], values[1:]))) == build(1.0)
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, 0.0)
    with pytest.raises(TypeError):
        cls(*values[:-1], unknown=0.0)
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})


def test_every_record_is_a_case():
    # import every submodule, then find each Record subclass they define
    for info in pkgutil.iter_modules(diskcover.__path__):
        if info.name != "__main__":
            importlib.import_module(f"diskcover.{info.name}")
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("diskcover.") and sub.__name__ not in found:
                found.add(sub.__name__)
                todo.append(sub)
    assert found <= set(CASES), sorted(found - set(CASES))
