import importlib
import inspect
import math
import pathlib
import re
from functools import cached_property

import numpy as np
import pytest

from visco_inverse import (
    AffineModulation,
    ConstantModulation,
    CounterexampleTable,
    ExponentialKernel,
    ExponentialModulation,
    FrameBounds,
    GramMatrix,
    ModalFamily,
    ModalTrajectory,
    Mode,
    ModeArrays,
    OperatorSpec,
    PolynomialKernel,
    ReconstructionKernels,
    ReconstructionReport,
    SampledKernel,
    SampledModulation,
    ScalarSignal,
    SourceCoefficients,
    SpectralModel,
    TimeGrid,
    TraceSignal,
    ZeroKernel,
)
from visco_inverse.cli import ExperimentConfig
from visco_inverse.modal import LeafTables, StoredRows
from visco_inverse.record import Record, Value

GRID = TimeGrid(1.0, 4)
SPEC = OperatorSpec(math.pi, -1.0, ("right", "left"))
MODE = Mode(1, 1.0, 1.0 + 0.0j, np.ones(1), "J1")
BOUNDS = FrameBounds(0.5, 2.0, 1, 1.0)
MODES = ModeArrays(np.ones(1, int), np.ones(1), np.ones(1, complex), np.ones((1, 1)),
                   np.zeros(1, bool))
FAMILY = ModalFamily(MODES, GRID, StoredRows(GRID, np.ones((1, 5))), np.ones(1, complex),
                     np.zeros(1, complex))
SOURCE = SourceCoefficients(np.ones(2))

#: every record class of the package, with constructor arguments
CASES = {
    TimeGrid: (1.0, 4),
    ScalarSignal: (GRID, np.ones(5), (0.5, 1.0, 2.0)),
    TraceSignal: (GRID, np.ones((5, 1))),
    ZeroKernel: (),
    ExponentialKernel: (0.5, 2.0),
    PolynomialKernel: ((1.0, -0.5),),
    SampledKernel: (np.ones(5), 1.0),
    ConstantModulation: (1.5,),
    ExponentialModulation: (0.3,),
    AffineModulation: (1.0, 0.5),
    SampledModulation: (np.ones(5),),
    OperatorSpec: (math.pi, -1.0, ("right", "left")),
    Mode: (1, 1.0, 1.0 + 0.0j, np.ones(1), "J1"),
    ModeArrays: (np.ones(1, int), np.ones(1), np.ones(1, complex), np.ones((1, 1)), np.zeros(1, bool)),
    SpectralModel: (SPEC, 1, MODES),
    ModalTrajectory: (MODE, GRID, np.ones(5), 1.0 + 0.0j, 0.0j),
    LeafTables: (GRID, np.ones((1, 2, 4)), np.ones((1, 2, 1)), np.zeros(0, int)),
    StoredRows: (GRID, np.ones((1, 5))),
    ModalFamily: (MODES, GRID, StoredRows(GRID, np.ones((1, 5))), np.ones(1, complex),
                  np.zeros(1, complex)),
    GramMatrix: (np.eye(1), 1.0, (1,)),
    FrameBounds: (0.5, 2.0, 1, 1.0),
    SourceCoefficients: (np.ones(2),),
    ReconstructionKernels: (FAMILY, np.eye(1), ScalarSignal(GRID, np.ones(5)), 1.0, BOUNDS,
                            0.0, 0.0),
    ReconstructionReport: (SOURCE, None, None, None, BOUNDS, 0.0, 0.0),
    CounterexampleTable: (np.arange(2), np.ones(2), np.ones(2), np.ones(2)),
    ExperimentConfig: (SPEC, ZeroKernel(), ConstantModulation(1.0), GRID, 1, "reconstruct", 0,
                       0.0, "out", "random", "bu_prime", 50),
}

#: the records compared and hashed by their fields; every other one by identity
VALUES = {TimeGrid, OperatorSpec, FrameBounds, ZeroKernel, ExponentialKernel, PolynomialKernel,
          ConstantModulation, ExponentialModulation, AffineModulation}

#: the cached_property members, which write the instance __dict__ directly
CACHED = {TimeGrid: {"nodes", "weights"}, ModalFamily: {"psis", "scalars"},
          GramMatrix: {"bounds"}}

REPRS = {
    TimeGrid: "TimeGrid(horizon=1.0, steps=4)",
    ExponentialKernel: "ExponentialKernel(beta=0.5, alpha=2.0)",
    OperatorSpec: "OperatorSpec(length=3.141592653589793, potential_shift=-1.0, "
                  "observed_endpoints=('left', 'right'))",
}


def test_cases_cover_every_record_class():
    defined = set()
    for name in ("volterra", "spectral", "modal", "frames", "forward", "inverse", "cli"):
        module = importlib.import_module(f"visco_inverse.{name}")
        defined |= {obj for obj in vars(module).values() if inspect.isclass(obj)
                    and issubclass(obj, Record) and obj.__module__ == module.__name__}
    assert defined == set(CASES) and len(CASES) == 26


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    args = CASES[cls]
    a, b = cls(*args), cls(*args)
    # the field tuple is the constructor's parameters, in order
    assert cls._fields == tuple(inspect.signature(cls).parameters)
    for name in cls._fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    fields = ", ".join(f"{name}={getattr(a, name)!r}" for name in cls._fields)
    assert repr(a) == f"{cls.__name__}({fields})" == REPRS.get(cls, repr(a))

    assert a == a and a.__eq__(object()) is NotImplemented
    if cls in VALUES:
        assert issubclass(cls, Value)
        assert a == b and not a != b and hash(a) == hash(b) and len({a, b}) == 1
    else:  # the array holders too, whose fields compare equal
        assert not issubclass(cls, Value)
        assert a != b and hash(a) != hash(b)

    cached = {name for name, member in vars(cls).items() if isinstance(member, cached_property)}
    assert cached == CACHED.get(cls, set())
    for name in cached:
        first = getattr(a, name)
        assert getattr(a, name) is first and vars(a)[name] is first


def test_value_records_of_different_classes_do_not_compare():
    assert ConstantModulation(1.0).__eq__(ExponentialModulation(1.0)) is NotImplemented
    assert ConstantModulation(1.0) != ExponentialModulation(1.0)
    assert ConstantModulation(1.0) != ConstantModulation(2.0)
    assert TimeGrid(1.0, 4) != TimeGrid(1.0, 5) and TimeGrid(1.0, 4) != (1.0, 4)



class Scaled(Record):
    """A validating constructor that rebinds its converted parameter."""

    def __init__(self, values: np.ndarray, scale: float = 2.0):
        values = np.asarray(values, dtype=float) * scale
        if values.ndim != 1:
            raise ValueError("values must be one-dimensional")
        values.setflags(write=False)
        unused = values.sum()  # a local that is not a field
        self._set(locals())


class ScaledTwice(Scaled):
    """Inherits its parent's constructor, and so its fields."""

    def doubled(self) -> np.ndarray:
        return 2.0 * self.values


class Pair(Value):
    def __init__(self, first, second=None):
        self._set(locals())


def test_fields_are_the_constructor_parameters():
    assert Scaled._fields == ScaledTwice._fields == ("values", "scale")
    assert Pair._fields == ("first", "second")
    for cls in (Scaled, ScaledTwice):
        a = cls([1, 2], 3.0)
        assert a.values.tolist() == [3.0, 6.0] and not a.values.flags.writeable
        assert a.scale == 3.0 and vars(a).keys() == {"values", "scale"}
        assert repr(a) == f"{cls.__name__}(values=array([3., 6.]), scale=3.0)"
        with pytest.raises(AttributeError):
            a.values = None
    assert Scaled([1]).scale == 2.0 and ScaledTwice([1]).doubled().tolist() == [4.0]
    with pytest.raises(ValueError, match="one-dimensional"):
        Scaled([[1.0]])
    assert Pair(1) == Pair(1, None) != Pair(1, 2) and repr(Pair(1)) == "Pair(first=1, second=None)"
    assert hash(Pair((1, 2))) == hash(Pair((1, 2), None))


def test_only_record_py_stores_fields():
    # every other module states its fields once, as constructor parameters
    root = pathlib.Path(importlib.import_module("visco_inverse").__file__).parent
    for path in root.glob("*.py"):
        if path.name != "record.py":
            source = path.read_text()
            assert not re.search(r"\b_fields\s*=|object\.__setattr__", source), path.name
