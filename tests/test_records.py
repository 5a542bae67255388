"""Every frozen dataclass of the package is a value: copied, read-only, equal
after a pickle round trip, and hashed consistently with ``==``."""
import copy
import dataclasses
import importlib
import pickle
import pkgutil
from collections.abc import Mapping

import numpy as np
import pytest

import formalframes
from formalframes import (
    BottData,
    ClassicalJet,
    DeformationPair,
    LowerTensor,
    PolyField,
    SmoothMapSpec,
)


def package_dataclasses():
    """Every dataclass defined in a module of the package, found by a scan."""
    found = []
    for info in pkgutil.iter_modules(formalframes.__path__):
        module = importlib.import_module(f"formalframes.{info.name}")
        found += [obj for obj in vars(module).values()
                  if isinstance(obj, type) and dataclasses.is_dataclass(obj)
                  and obj.__module__ == module.__name__]
    return sorted(found, key=lambda cls: cls.__name__)


def tensors(rng, n, orders, first=None):
    arrays = [rng.uniform(-1, 1, (n,) * (k + 1)) for k in orders]
    if first is not None:
        arrays[0] = first
    return tuple(LowerTensor(n, k, arr) for k, arr in zip(orders, arrays))


def poly(rng, m, shape):
    return PolyField(m, shape, {(0,) * m: rng.uniform(-1, 1, shape),
                                (1,) + (0,) * (m - 1): rng.uniform(-1, 1, shape)})


def foliated_map():
    """(x, y) ↦ (x + y², 2y), with holonomy y ↦ 2y."""
    full = SmoothMapSpec.polynomial(2, 2, {(1, 0): (1.0, 0.0), (0, 2): (1.0, 0.0),
                                           (0, 1): (0.0, 2.0)})
    return full, SmoothMapSpec.polynomial_1d([0.0, 2.0])


def symmetric_pair(rng):
    arr = rng.uniform(-1, 1, (2, 2, 2))
    return LowerTensor(2, 1, 2 * np.eye(2)), LowerTensor(2, 2, arr + arr.transpose(0, 2, 1))


# constructor arguments of one sample of each record; the arrays, lists and
# dicts among them belong to the caller
SAMPLES = {
    "BottData": lambda rng: (1, 1, {"c0": poly(rng, 2, (1, 1, 2))}),
    "BundleTangent": lambda rng: (2, 2, rng.uniform(-1, 1, 2), tensors(rng, 2, (1, 2))),
    "ChristoffelField": lambda rng: (2, poly(rng, 2, (2, 2, 2)), "c1"),
    "ClassicalJet": lambda rng: (2, 2, symmetric_pair(rng), rng.uniform(-1, 1, 2), 1e-6),
    "DeformationPair": lambda rng: (2, {"c0": {"theta": poly(rng, 2, (2, 2, 2)),
                                               "mu": poly(rng, 2, (2, 2, 2))}}),
    "FoliationTransition": lambda rng: ("c0", "c1", 1, *foliated_map()),
    "FrameCoords": lambda rng: (2, 3, rng.uniform(-1, 1, 2),
                                tensors(rng, 2, (1, 2, 3), 2 * np.eye(2)), "c1"),
    "GarciaCoords": lambda rng: (2, rng.uniform(-1, 1, 2), 2 * np.eye(2) + rng.uniform(0, 0.1),
                                 tensors(rng, 2, (2,))[0], "c1"),
    "GarciaPairPoint": lambda rng: (2, rng.uniform(-1, 1, 2), 2 * np.eye(2),
                                    rng.uniform(-1, 1, (2, 2)), rng.uniform(-1, 1, (2, 2, 2)),
                                    rng.uniform(-1, 1, (2, 2, 2))),
    "JetAlgebraElement": lambda rng: (2, 3, tensors(rng, 2, (0, 1, 2))),
    "JetGroupElement": lambda rng: (2, 2, tensors(rng, 2, (1, 2), 2 * np.eye(2))),
    "LowerTensor": lambda rng: (2, 2, rng.uniform(-1, 1, (2, 2, 2))),
    "PolyField": lambda rng: (2, [2, 2], {(0, 0): rng.uniform(-1, 1, (2, 2)),
                                          (0, 1): rng.uniform(-1, 1, 4)}),
    "SmoothMapSpec": lambda rng: ("polynomial", 2, 1, {(1, 0): [1.0], (0, 2): [0.5]}),
    "TangentAlgebraElement": lambda rng: (rng.uniform(-1, 1, (2, 2)), rng.uniform(-1, 1, (2, 2))),
    "TangentGroupElement": lambda rng: (2 * np.eye(2), rng.uniform(-1, 1, (2, 2))),
    "TorsionType": lambda rng: (3, [1, 2]),
    "TransitionJet": lambda rng: (rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2),
                                  tensors(rng, 2, (1, 2), 2 * np.eye(2))),
    "VerifyConfig": lambda rng: (3, 5, 2, 3, 1e-7, 1e-6),
}


def reachable_arrays(value):
    """Arrays among the fields of a record, in tuples, lists, mappings and records, at any depth."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, Mapping):
        for item in value.values():
            yield from reachable_arrays(item)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from reachable_arrays(item)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from reachable_arrays(getattr(value, f.name))


def scribble(value):
    """Overwrite every array, list and dict reachable from the caller's arguments."""
    if isinstance(value, np.ndarray):
        assert value.flags.writeable  # a record does not freeze its caller's arrays
        value[...] = 7.0
    elif isinstance(value, dict):
        for key in list(value):
            scribble(value[key])
            value[key] = "junk"
        value["junk"] = "junk"
    elif isinstance(value, (tuple, list)):
        for item in value:
            scribble(item)
        if isinstance(value, list):
            value.append("junk")


def test_the_scan_finds_every_record():
    assert [cls.__name__ for cls in package_dataclasses()] == sorted(SAMPLES)


@pytest.mark.parametrize("cls", package_dataclasses(), ids=lambda cls: cls.__name__)
def test_record_is_a_value(cls):
    assert cls.__name__ in SAMPLES, f"no sample factory for {cls.__name__}"
    args = SAMPLES[cls.__name__](np.random.default_rng(11))
    record = cls(*args)
    twin = cls(*copy.deepcopy(args))
    back = pickle.loads(pickle.dumps(record))
    assert back == record and record == back and record == twin
    assert record != 0
    for value in (record, back):
        arrays = list(reachable_arrays(value))
        assert not any(arr.flags.writeable for arr in arrays), cls.__name__
    scribble(args)
    assert record == twin and back == twin
    try:
        digest = hash(record)
    except TypeError:  # unhashable: an array or a dict among its values
        return
    assert hash(twin) == digest == hash(back)


def test_mapping_fields_do_not_alias_the_caller():
    rng = np.random.default_rng(3)
    charts = {"c0": poly(rng, 2, (1, 1, 2))}
    B = BottData(1, 1, charts)
    charts["c1"] = "not a table"
    assert set(B.charts) == {"c0"}
    tables = {"c0": {"theta": poly(rng, 2, (2, 2, 2)), "mu": poly(rng, 2, (2, 2, 2))}}
    pair = DeformationPair(2, tables)
    mu = pair.mu("c0")
    tables["c0"]["mu"] = "junk"
    assert pair.mu("c0") is mu


def test_mapping_fields_are_read_only():
    rng = np.random.default_rng(4)
    P = PolyField(1, (1,), {(0,): [1.0]})
    assert np.array_equal(P.evaluate([2.0]), [1.0])
    with pytest.raises(TypeError):  # a term added later would not reach the cached `_terms`
        P.coeffs[(1,)] = np.array([3.0])
    assert np.array_equal(P.evaluate([2.0]), [1.0]) and P == PolyField(1, (1,), {(0,): [1.0]})
    pair = DeformationPair(2, {"c0": {"theta": poly(rng, 2, (2, 2, 2)),
                                      "mu": poly(rng, 2, (2, 2, 2))}})
    with pytest.raises(TypeError):
        pair.charts["c0"]["mu"] = "junk"
    with pytest.raises(TypeError):
        pair.charts["c1"] = {}
    # pickled as plain dicts, which the constructor freezes again
    back = pickle.loads(pickle.dumps(pair))
    assert back == pair
    with pytest.raises(TypeError):
        back.charts["c0"]["mu"] = "junk"


def test_equal_records_hash_equal():
    arrays = [2 * np.eye(2), np.zeros((2, 2, 2))]
    x = ClassicalJet.from_arrays(arrays, tol=1e-8)
    y = ClassicalJet.from_arrays(arrays, tol=1e-6)
    assert x == y  # the tolerance is how the jet was checked, not part of its value
    with pytest.raises(TypeError):  # an array field (the optional base) makes it unhashable
        hash(x)
    plus, minus = LowerTensor(1, 1, [0.0]), LowerTensor(1, 1, [-0.0])
    assert plus == minus and hash(plus) == hash(minus) and len({plus, minus}) == 1
    assert LowerTensor(1, 1, [1.0]) not in {plus}
