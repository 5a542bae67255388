"""Dense tensors with one upper index and k non-commuting lower indices.

A :class:`LowerTensor` stores an array ``T^i_{j1...jk}`` of shape
``(n,) * (k + 1)``.  Permuting the lower indices is a genuine relabeling:
no symmetry is assumed anywhere in this package unless explicitly imposed
by :func:`symmetrize` or :func:`symmetrize_array`.  Whether it holds is
tested in one place, :func:`asymmetry_witness`, which every symmetry check
of the package (tensors, jets, frames) calls.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields

import numpy as np

DEFAULT_ATOL = 1e-9
DEFAULT_RTOL = 1e-9

# condition-number guard for order-1 tensors used as matrices in linear solves
COND_LIMIT = 1e8


def _reduce_by_fields(obj):
    """Pickle a frozen dataclass as a call of its constructor on its fields.

    Unpickling then runs ``__post_init__``: arrays come back read-only, and
    nothing cached in the instance ``__dict__`` travels along.
    """
    return type(obj), tuple(getattr(obj, f.name) for f in fields(obj))


def _same_value(x, y) -> bool:
    """Equality that compares arrays, also as dict values, entry by entry."""
    if isinstance(x, dict) and isinstance(y, dict):
        return x.keys() == y.keys() and all(_same_value(x[key], y[key]) for key in x)
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return bool(np.array_equal(x, y))
    return x == y


def _eq_by_fields(obj, other) -> bool:
    """Value equality of a frozen dataclass, field by field."""
    return isinstance(other, type(obj)) and all(
        _same_value(getattr(obj, f.name), getattr(other, f.name)) for f in fields(obj)
    )


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


@dataclass(frozen=True)
class LowerTensor:
    """T^i_{j1...jk}: one upper index, k ordered (non-commuting) lower indices."""

    n: int
    k: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        expected = (self.n,) * (self.k + 1)
        if arr.size != self.n ** (self.k + 1):
            raise ShapeMismatchError(
                f"need {self.n ** (self.k + 1)} entries for (n={self.n}, k={self.k}), "
                f"got {arr.size}"
            )
        arr = arr.reshape(expected).copy()
        if not np.isfinite(arr).all():
            bad = tuple(int(i) for i in np.argwhere(~np.isfinite(arr))[0])
            raise ValueError(
                f"(n={self.n}, k={self.k}) tensor has non-finite entry "
                f"{arr[bad]} at index {bad}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LowerTensor)
            and self.n == other.n
            and self.k == other.k
            and bool(np.array_equal(self.entries, other.entries))
        )

    def __hash__(self):
        return hash((self.n, self.k, self.entries.tobytes()))

    __reduce__ = _reduce_by_fields


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
