"""Dense tensors with one upper index and k non-commuting lower indices.

A :class:`LowerTensor` stores an array ``T^i_{j1...jk}`` of shape
``(n,) * (k + 1)``.  Permuting the lower indices is a genuine relabeling:
no symmetry is assumed anywhere in this package unless explicitly imposed
by :func:`symmetrize` or :func:`symmetrize_array`.  Whether it holds is
tested in one place, :func:`asymmetry_witness`, which every symmetry check
of the package (tensors, jets, frames) calls.

Every value class of the package is a :func:`record`: a frozen dataclass
that keeps read-only float copies of its arrays and read-only copies of
its dicts, compares by value (arrays entry by entry), is unhashable when it
holds an array or a dict unless it defines its own hash (:class:`LowerTensor`
does), and pickles as a call of its constructor.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from types import MappingProxyType

import numpy as np

DEFAULT_ATOL = 1e-9
DEFAULT_RTOL = 1e-9

# condition-number guard for order-1 tensors used as matrices in linear solves
COND_LIMIT = 1e8


def _same_value(x, y) -> bool:
    """Equality that compares arrays, also as mapping values, entry by entry."""
    if isinstance(x, Mapping) and isinstance(y, Mapping):
        return x.keys() == y.keys() and all(_same_value(x[key], y[key]) for key in x)
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return bool(np.array_equal(x, y))
    return x == y


def _read_only(value) -> np.ndarray:
    """A read-only float copy, in C order."""
    arr = np.asarray(value, dtype=float).copy()
    arr.setflags(write=False)
    return arr


def _copied(value):
    """A mapping as a read-only copy, nested mappings too, arrays as read-only float copies."""
    if isinstance(value, Mapping):
        return MappingProxyType({key: _copied(item) for key, item in value.items()})
    return _read_only(value) if isinstance(value, np.ndarray) else value


def _plain(value):
    """A mapping as a plain dict, its nested mappings too: what a record pickles."""
    if isinstance(value, Mapping):
        return {key: _plain(item) for key, item in value.items()}
    return value


def record(cls=None, /, *, arrays=(), mappings=()):
    """Make a class a frozen dataclass with the value semantics of this package.

    ``@record`` or ``@record(arrays=(...), mappings=(...))``, naming the fields
    that hold arrays and dicts.  The class's own ``__post_init__`` keeps only
    its validation and normalisation: it returns the normalised field values
    as a dict (or None), and ``record`` sets them.  Each array field (unless
    None) is set to a read-only float copy, and each mapping field to a
    read-only copy (a ``types.MappingProxyType``), its nested mappings too and
    its arrays as read-only float copies; so no record shares state with its
    caller, and none changes after it is made.  Records compare by value over
    their ``compare=True`` fields, arrays entry by entry (also as mapping
    values).  A record with an array or a mapping field is unhashable unless
    its class defines ``__hash__``; the others hash their compared fields.  A
    record pickles as a call of its constructor, its mappings as plain dicts,
    so unpickling re-runs the validation and leaves cached properties behind.
    """
    if cls is None:
        return functools.partial(record, arrays=arrays, mappings=mappings)
    check = cls.__dict__.get("__post_init__", lambda self: None)

    def post_init(self):
        values = check(self) or {}
        for name in arrays:
            value = values.get(name, getattr(self, name))
            if value is not None:
                values[name] = _read_only(value)
        for name in mappings:
            values[name] = _copied(values.get(name, getattr(self, name)))
        for name, value in values.items():
            object.__setattr__(self, name, value)

    cls.__post_init__ = post_init
    cls = dataclass(frozen=True, eq=False)(cls)
    names = tuple(f.name for f in fields(cls))
    compared = tuple(f.name for f in fields(cls) if f.compare)

    def __eq__(self, other):
        # False, not NotImplemented, against other types: an array would answer elementwise
        return other.__class__ is self.__class__ and all(
            _same_value(getattr(self, name), getattr(other, name)) for name in compared
        )

    def __hash__(self):
        return hash(tuple(getattr(self, name) for name in compared))

    def __reduce__(self):
        return self.__class__, tuple(_plain(getattr(self, name)) for name in names)

    cls.__eq__ = __eq__
    if "__hash__" not in cls.__dict__:
        cls.__hash__ = None if arrays or mappings else __hash__
    cls.__reduce__ = __reduce__
    return cls


class ShapeMismatchError(ValueError):
    """Operands do not share compatible (n, k) or (n, r)."""


class SingularityError(ValueError):
    """An order-1 tensor that must be invertible is (numerically) singular."""


class AsymmetryError(ValueError):
    """Symmetric input required but the tensor fails the symmetry check."""


def close(x, y, atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL) -> bool:
    """|x - y| <= atol + rtol * max(|x|, |y|), elementwise on arrays."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        return False
    bound = atol + rtol * np.maximum(np.abs(x), np.abs(y))
    return bool(np.all(np.abs(x - y) <= bound))


def check_square(mat: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Validate invertibility of an n x n matrix under the condition guard."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not mat.size:
        raise ShapeMismatchError(f"{what} must be square and non-empty, got shape {mat.shape}")
    # np.linalg.cond's s_max / s_min, which is infinite where s_min is 0 or the ratio NaN
    s_max, s_min = np.linalg.svd(mat, compute_uv=False)[[0, -1]].tolist()
    if not s_min or not s_max / s_min <= COND_LIMIT:
        raise SingularityError(f"{what} is singular or too ill-conditioned")
    return mat


@record(arrays=("entries",))
class LowerTensor:
    """T^i_{j1...jk}: one upper index, k ordered (non-commuting) lower indices."""

    n: int
    k: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        shape = (self.n,) * (self.k + 1)
        if arr.shape != shape:
            if arr.size != self.n ** (self.k + 1):
                raise ShapeMismatchError(
                    f"need {self.n ** (self.k + 1)} entries for (n={self.n}, k={self.k}), "
                    f"got {arr.size}"
                )
            arr = arr.reshape(shape)
        # a finite sum has finite terms, so only a non-finite one (or an overflow) needs a scan
        if not math.isfinite(np.add.reduce(arr, axis=None)) and not np.isfinite(arr).all():
            bad = tuple(int(i) for i in np.argwhere(~np.isfinite(arr))[0])
            raise ValueError(
                f"(n={self.n}, k={self.k}) tensor has non-finite entry "
                f"{arr[bad]} at index {bad}"
            )
        return {"entries": arr}

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which == already counts as equal
        return hash((self.n, self.k, (self.entries + 0.0).tobytes()))

    @classmethod
    def zeros(cls, n: int, k: int) -> "LowerTensor":
        return cls(n, k, np.zeros((n,) * (k + 1)))

    @classmethod
    def from_flat(cls, n: int, k: int, flat) -> "LowerTensor":
        return cls(n, k, np.asarray(flat, dtype=float))

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k, "entries": self.entries.ravel().tolist()}

    @classmethod
    def from_json(cls, data: dict) -> "LowerTensor":
        return cls.from_flat(int(data["n"]), int(data["k"]), data["entries"])


def symmetrize(T: LowerTensor) -> LowerTensor:
    """Average over all permutations of the lower indices."""
    return LowerTensor(T.n, T.k, symmetrize_array(T.entries))


def symmetrize_array(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    k = arr.ndim - 1
    if k <= 1:
        return arr.copy()
    acc = np.zeros_like(arr)
    count = 0
    for perm in itertools.permutations(range(1, k + 1)):
        acc += np.transpose(arr, (0,) + perm)
        count += 1
    return acc / count


def asymmetry_witness(arrays) -> dict:
    """Worst gap |T - T∘swap| over adjacent lower-index swaps of each array.

    Returns the lower order (``ndim - 1``) of the worst array, the swapped
    axes, the entry of the largest gap and the gap (0.0 and ``None``s when
    all are symmetric).  Adjacent swaps generate all permutations, so a zero
    gap means full symmetry in the lower indices.
    """
    worst = {"order": None, "axes": None, "index": None, "gap": 0.0}
    for arr in arrays:
        arr = np.asarray(arr, dtype=float)
        for axis in range(1, arr.ndim - 1):
            gap_arr = np.abs(arr - np.swapaxes(arr, axis, axis + 1))
            flat = int(np.argmax(gap_arr))
            gap = float(gap_arr.flat[flat])
            if gap > worst["gap"]:
                worst = {
                    "order": arr.ndim - 1,
                    "axes": (axis, axis + 1),
                    "index": tuple(int(i) for i in np.unravel_index(flat, gap_arr.shape)),
                    "gap": gap,
                }
    return worst


def max_asymmetry(T: LowerTensor | np.ndarray) -> float:
    """Worst gap |T - T∘swap| over adjacent lower-index transpositions."""
    arr = T.entries if isinstance(T, LowerTensor) else T
    return asymmetry_witness([arr])["gap"]
