"""The package's value classes, each a `_Record` (`quadft.errors`): the repr
each wrote as a dataclass, equality and hash by class and fields,
immutability, `_replace` checking as construction checks, `_asdict`, and
pickle and copy round trips."""

import copy
import math
import pickle

import pytest

from quadft.documents import ProblemDocument, RunRecord, SolverOptions
from quadft.errors import InfeasibleWeightsError, QuadFTError
from quadft.fermat import CaseKind, CaseTag, FermatTree, WeightedQuadrilateral
from quadft.gauss import GaussTree, GaussWeights
from quadft.geometry import Point, Quadrilateral
from quadft.plasticity import PlasticityLine, PlasticityReport
from quadft.svgplot import Scene
from quadft.universal import UniversalResult, UniversalSample

RECT = [(0, 0), (7, 0), (7, 4), (0, 4)]

# each call builds a new instance, equal to the last one and not identical
BUILD = {
    "Point": lambda: Point(2.5, -1.25),
    "Quadrilateral": lambda: Quadrilateral.from_coords(RECT),
    "CaseTag": lambda: CaseTag(CaseKind.ABSORBED, 2, True),
    "WeightedQuadrilateral": lambda: WeightedQuadrilateral(Quadrilateral.from_coords(RECT),
                                                           (3.0, 2.5, 1.7, 1.5)),
    "FermatTree": lambda: FermatTree(Point(2.5, -1.25), CaseTag(CaseKind.FLOATING),
                                     (1.5, 2.0, 0.75, 0.25), 34.5, 1e-12, 7),
    "GaussWeights": lambda: GaussWeights(3.0, 2.5, 1.7, 1.5, 3.62),
    "GaussTree": lambda: GaussTree(Point(2.5, -1.25), Point(4.0, 2.0), 1.0, 2.0, 3.0, 4.0,
                                   0.5, -0.125, 30.0),
    "PlasticityLine": lambda: PlasticityLine(10.0, ((-0.5, 4.0), (-0.25, 3.0), (-0.25, 3.0)),
                                             (0.5, 2.0), Point(2.5, -1.25)),
    "PlasticityReport": lambda: PlasticityReport(Point(2.5, -1.25), 7e-6, 0.0, True,
                                                 ((1.0, 0.0),),
                                                 ((0.5, "absorbed at vertex 1"),)),
    "UniversalResult": lambda: UniversalResult(
        3.8, 1.75, 0.4375, (UniversalSample(1.5, (3.0, 2.5, 1.7, 1.5), 3.82, 34.5),),
        ((2.0, "skipped"),)),
    "SolverOptions": lambda: SolverOptions(grid=65, levels=(0.5, 1.0)),
    "ProblemDocument": lambda: ProblemDocument(((0.0, 0.0), (6.0, 0.0), (2.0, 5.0)),
                                               (2.0, 1.5, 1.8), xg=3.62),
    "RunRecord": lambda: RunRecord("wft-quad", {"weights": [3.0]}, {"objective": 34.5}, {},
                                   "1970-01-01T00:00:00Z"),
    "Scene": lambda: Scene(((0.0, 0.0), (7.0, 0.0), (7.0, 4.0), (0.0, 4.0)),
                           (((2.5, 1.0), (0.0, 0.0)),), ((2.5, 1.0, "A0"),)),
}

# the reprs of the same instances when the classes were dataclasses
REPRS = {
    "Point": "Point(x=2.5, y=-1.25)",
    "Quadrilateral": "Quadrilateral(vertices=(Point(x=0.0, y=0.0), Point(x=7.0, y=0.0), "
                     "Point(x=7.0, y=4.0), Point(x=0.0, y=4.0)))",
    "CaseTag": "CaseTag(kind=<CaseKind.ABSORBED: 'absorbed'>, vertex=2, boundary=True)",
    "WeightedQuadrilateral": "WeightedQuadrilateral(quad=Quadrilateral(vertices=(Point(x=0.0, "
                             "y=0.0), Point(x=7.0, y=0.0), Point(x=7.0, y=4.0), Point(x=0.0, "
                             "y=4.0))), weights=(3.0, 2.5, 1.7, 1.5))",
    "FermatTree": "FermatTree(point=Point(x=2.5, y=-1.25), case=CaseTag(kind=<CaseKind."
                  "FLOATING: 'floating'>, vertex=None, boundary=False), angles=(1.5, 2.0, "
                  "0.75, 0.25), objective=34.5, equilibrium_residual=1e-12, iterations=7)",
    "GaussWeights": "GaussWeights(b1=3.0, b2=2.5, b3=1.7, b4=1.5, xg=3.62)",
    "GaussTree": "GaussTree(node0=Point(x=2.5, y=-1.25), node0p=Point(x=4.0, y=2.0), a1=1.0, "
                 "a2=2.0, a3=3.0, a4=4.0, l=0.5, phi=-0.125, objective=30.0)",
    "PlasticityLine": "PlasticityLine(c=10.0, coefficients=((-0.5, 4.0), (-0.25, 3.0), "
                      "(-0.25, 3.0)), b4_interval=(0.5, 2.0), point=Point(x=2.5, y=-1.25))",
    "PlasticityReport": "PlasticityReport(reference=Point(x=2.5, y=-1.25), tolerance=7e-06, "
                        "max_deviation=0.0, passed=True, evaluated=((1.0, 0.0),), "
                        "excluded=((0.5, 'absorbed at vertex 1'),))",
    "UniversalResult": "UniversalResult(u_ft=3.8, b4_star=1.75, rate=0.4375, "
                       "samples=(UniversalSample(b4=1.5, weights=(3.0, 2.5, 1.7, 1.5), "
                       "xg_absorbing=3.82, objective=34.5),), skipped=((2.0, 'skipped'),))",
    "SolverOptions": "SolverOptions(grid=65, normalize_weights=False, b4=None, storage=None, "
                     "spend=None, levels=(0.5, 1.0))",
    "ProblemDocument": "ProblemDocument(vertices=((0.0, 0.0), (6.0, 0.0), (2.0, 5.0)), "
                       "weights=(2.0, 1.5, 1.8), xg=3.62, options=SolverOptions(grid=None, "
                       "normalize_weights=False, b4=None, storage=None, spend=None, "
                       "levels=None))",
    "RunRecord": "RunRecord(command='wft-quad', inputs={'weights': [3.0]}, outputs="
                 "{'objective': 34.5}, diagnostics={}, timestamp='1970-01-01T00:00:00Z')",
    "Scene": "Scene(quad=((0.0, 0.0), (7.0, 0.0), (7.0, 4.0), (0.0, 4.0)), tree_edges="
             "(((2.5, 1.0), (0.0, 0.0)),), nodes=((2.5, 1.0, 'A0'),), level_curves=())",
}

NAMES = sorted(BUILD)


def test_every_record_class_is_covered():
    assert sorted(REPRS) == NAMES
    assert all(type(BUILD[name]()).__name__ == name for name in NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_the_dataclass_repr(name):
    assert repr(BUILD[name]()) == REPRS[name]


@pytest.mark.parametrize("name", NAMES)
def test_equal_and_hash_by_class_and_fields(name):
    a, b = BUILD[name](), BUILD[name]()
    assert a is not b and a == b and not a != b
    values = tuple(a._asdict().values())
    assert a != values and values != a
    others = [BUILD[other]() for other in NAMES if other != name]
    assert all(a != other for other in others)
    if name == "RunRecord":  # its fields are dicts
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_a_point_is_not_its_coordinates():
    assert Point(1.0, 2.0) != (1.0, 2.0)
    assert Point(1.0, 2.0) != Point(1.0, 2.5)
    assert {Point(1.0, 2.0): 1}.get((1.0, 2.0)) is None


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned_or_deleted(name):
    record = BUILD[name]()
    assert not hasattr(record, "__dict__")  # slots only
    for field in (*record._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert repr(record) == REPRS[name]


@pytest.mark.parametrize("name", NAMES)
def test_asdict_and_replace(name):
    record = BUILD[name]()
    fields = record._asdict()
    assert list(fields) == list(record._fields)
    assert all(fields[f] is getattr(record, f) for f in record._fields)
    assert record._replace() == record
    first = record._fields[0]
    changed = record._replace(**{first: fields[first]})
    assert changed == record and changed is not record


@pytest.mark.parametrize("name, changes, error, match", [
    ("Point", {"x": math.inf}, QuadFTError, "coordinates must be finite"),
    ("Quadrilateral", {"vertices": (Point(0, 0), Point(1, 0), Point(0, 1))}, QuadFTError,
     "exactly 4 vertices"),
    ("WeightedQuadrilateral", {"weights": (3.0, -2.5, 1.7, 1.5)}, QuadFTError,
     "positive and finite"),
    ("WeightedQuadrilateral", {"weights": (1.5e308, 1.25e308, 0.85e308, 0.75e308)},
     QuadFTError, "sum to inf"),
    ("GaussWeights", {"xg": 0.0}, QuadFTError, "xg must be positive"),
    ("GaussWeights", {"b2": True}, QuadFTError, "b2 must be a number, not a bool"),
    ("PlasticityLine", {"coefficients": ((-0.5, math.nan), (-0.25, 3.0), (-0.25, 3.0))},
     QuadFTError, "coefficients must be finite"),
    ("PlasticityLine", {"c": math.inf}, QuadFTError, "c must be finite"),
    ("PlasticityLine", {"b4_interval": (2.0, 0.5)}, InfeasibleWeightsError,
     "empty B4 interval"),
])
def test_replace_checks_as_construction_checks(name, changes, error, match):
    record = BUILD[name]()
    with pytest.raises(error, match=match):
        type(record)(**{**record._asdict(), **changes})
    with pytest.raises(error, match=match):
        record._replace(**changes)


@pytest.mark.parametrize("name", NAMES)
def test_pickle_and_copy_round_trip(name):
    record = BUILD[name]()
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(clone) is type(record) and clone == record
        assert repr(clone) == REPRS[name]


def test_a_copied_quadrilateral_is_measured_again():
    # distances, unit vectors, diameter and angles are slots but not fields
    quad = Quadrilateral.from_coords(RECT)
    clone = pickle.loads(pickle.dumps(quad))
    assert quad._fields == ("vertices",)
    for slot in ("distances", "unit_vectors", "interior_angles"):
        assert getattr(clone, slot) == getattr(quad, slot)
    assert clone.diameter() == quad.diameter() == math.hypot(7.0, 4.0)


def test_each_document_gets_its_own_default_options():
    a = ProblemDocument(((0.0, 0.0),), (1.0,))
    b = ProblemDocument(((0.0, 0.0),), (1.0,))
    assert a.options == SolverOptions() and a.options is not b.options
    assert a._replace(options=None).options == SolverOptions()
