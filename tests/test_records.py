"""Records that hold arrays compare and hash by identity, value records by their
fields, and every record class has its own docstring."""

import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import dfnflow
from dfnflow.energy import energy_of, reduce_and_minimize
from dfnflow.fem import RegimeField, assemble, solve_saddle
from dfnflow.laws import Regime
from dfnflow.meshing import build_mesh
from dfnflow.picard import picard_solve
from dfnflow.presets import darcy_forchheimer_pair, single_fracture_network
from dfnflow.tracker import track

LAW = darcy_forchheimer_pair()


def _mesh():
    return build_mesh(single_fracture_network(), 0.1)


def _regimes():
    mesh = _mesh()
    return mesh, RegimeField.uniform(mesh, Regime.LOW)


def _system():
    return assemble(*_regimes(), LAW, 0.0)


# Each call builds a fresh record from the same inputs.
RECORDS = {
    "Mesh": _mesh,
    "BoundaryPlan": lambda: single_fracture_network().boundary_plan,
    "SourcePieces": lambda: single_fracture_network().source_pieces,
    "RegimeField": lambda: _regimes()[1],
    "SaddleSystem": _system,
    "Solution": lambda: solve_saddle(_system()),
    "MinimizationResult": lambda: reduce_and_minimize(_mesh(), LAW),
    "PicardResult": lambda: picard_solve(*_regimes(), LAW),
    "TrackerReport": lambda: track(_mesh(), LAW),
}


@pytest.mark.parametrize("build", RECORDS.values(), ids=RECORDS.keys())
def test_records_holding_arrays_compare_and_hash_by_identity(build):
    a, b = build(), build()
    assert type(a).__name__ in RECORDS
    assert a == a and not (a != a)
    assert a != b and not (a == b)
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2


def test_value_records_compare_by_their_fields():
    mesh = _mesh()
    values = np.linspace(-0.2, 0.3, len(mesh.x))
    report = energy_of(values, mesh, LAW)
    assert energy_of(values.copy(), mesh, LAW) == report
    # an outer iteration compares by its fields, its configuration by identity
    entry = track(mesh, LAW).history[-1]
    assert dataclasses.replace(entry) == entry
    other = track(mesh, LAW).history[-1]
    assert dataclasses.replace(entry, configuration=other.configuration) != entry


def _dataclasses():
    for info in pkgutil.iter_modules(dfnflow.__path__):
        module = importlib.import_module(f"dfnflow.{info.name}")
        for value in vars(module).values():
            own = isinstance(value, type) and value.__module__ == module.__name__
            if own and dataclasses.is_dataclass(value):
                yield value


@pytest.mark.parametrize("record", _dataclasses(), ids=lambda record: record.__name__)
def test_every_dataclass_has_its_own_docstring(record):
    # without one, dataclass builds "Name(signature)" by inspect.signature at import
    assert record.__doc__ and not record.__doc__.startswith(f"{record.__name__}(")
