"""Higher-order frame bundles in natural coordinates.

A frame of order r over a chart is a base point plus tensors of orders
1..r (order 1 invertible, no symmetry above).  The right group action and
chart changes are both instances of the jet product; the right-translation
isomorphism ``L_u`` from the identity tangent space one level down is the
backbone of the canonical form.  ``L_u`` is *linear* in the frame's natural
coordinates, which `forms` exploits for exact exterior derivatives.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .charts import TransitionJet
from .jetgroup import (
    JetAlgebraElement,
    JetGroupElement,
    _validate_tensor_list,
    compose_right_derivative,
    compose_tensors,
    flat_offsets,
    group_translation_apply,
    unflatten,
)
from .tensors import (
    LowerTensor,
    ShapeMismatchError,
    SingularityError,
    _reduce_by_fields,
    check_square,
)

def algebra_size(n: int, r: int) -> int:
    """Dimension of the identity tangent space of the order-(r-1) bundle."""
    return int(flat_offsets(n, r)[-1])


def coord_size(n: int, r: int) -> int:
    """Number of natural coordinates of an order-r frame (base included)."""
    return algebra_size(n, r + 1)


@dataclass(frozen=True)
class FrameCoords:
    """Natural coordinates of an order-r frame: base point + tensors 1..r."""

    n: int
    r: int
    base: np.ndarray
    a: tuple = field(default=())
    chart_id: str = "chart0"

    def __post_init__(self):
        base = np.asarray(self.base, dtype=float).reshape(self.n)
        base = base.copy()
        base.setflags(write=False)
        object.__setattr__(self, "base", base)
        tensors = _validate_tensor_list(self.n, self.r, self.a, "FrameCoords")
        check_square(tensors[0].entries, "order-1 frame tensor")
        object.__setattr__(self, "a", tensors)

    @classmethod
    def from_arrays(cls, base, arrays, chart_id: str = "chart0") -> "FrameCoords":
        arrays = [np.asarray(arr, dtype=float) for arr in arrays]
        n = arrays[0].shape[0]
        tensors = tuple(
            LowerTensor(n, k, arr) for k, arr in enumerate(arrays, start=1)
        )
        return cls(n, len(arrays), base, tensors, chart_id)

    @classmethod
    def identity_frame(cls, n: int, r: int, chart_id: str = "chart0") -> "FrameCoords":
        arrays = [np.eye(n)] + [np.zeros((n,) * (k + 1)) for k in range(2, r + 1)]
        return cls.from_arrays(np.zeros(n), arrays, chart_id)

    def __eq__(self, other) -> bool:
        return isinstance(other, FrameCoords) and self.to_json() == other.to_json()

    __reduce__ = _reduce_by_fields  # the cached iso is rebuilt on first use

    @functools.cached_property
    def iso(self) -> "TangentIso":
        """L_u, built on first use and kept; an ill-conditioned one raises each time."""
        return TangentIso(self)

    @property
    def arrays(self):
        return [T.entries for T in self.a]

    def coords_flat(self) -> np.ndarray:
        return np.concatenate([self.base] + [arr.ravel() for arr in self.arrays])

    def to_json(self) -> dict:
        return {
            "chart": self.chart_id,
            "base": self.base.tolist(),
            "tensors": [T.to_json() for T in self.a],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FrameCoords":
        tensors = [LowerTensor.from_json(t) for t in data["tensors"]]
        return cls.from_arrays(
            np.asarray(data["base"], dtype=float),
            [T.entries for T in tensors],
            data.get("chart", "chart0"),
        )


@dataclass(frozen=True)
class BundleTangent:
    """Tangent vector in natural coordinates: (δh, δu[1..r])."""

    n: int
    r: int
    d_base: np.ndarray
    d_tensors: tuple = field(default=())

    def __post_init__(self):
        d_base = np.asarray(self.d_base, dtype=float).reshape(self.n).copy()
        d_base.setflags(write=False)
        object.__setattr__(self, "d_base", d_base)
        tensors = _validate_tensor_list(self.n, self.r, self.d_tensors, "BundleTangent")
        object.__setattr__(self, "d_tensors", tensors)

    @classmethod
    def from_arrays(cls, d_base, arrays) -> "BundleTangent":
        arrays = [np.asarray(arr, dtype=float) for arr in arrays]
        n = np.asarray(d_base).reshape(-1).shape[0]
        tensors = tuple(
            LowerTensor(n, k, arr) for k, arr in enumerate(arrays, start=1)
        )
        return cls(n, len(arrays), d_base, tensors)

    @classmethod
    def from_flat(cls, n: int, r: int, vec) -> "BundleTangent":
        d_base, *arrays = unflatten(n, r + 1, vec)
        return cls.from_arrays(d_base, arrays)

    def __eq__(self, other) -> bool:
        return isinstance(other, BundleTangent) and self.to_json() == other.to_json()

    __reduce__ = _reduce_by_fields

    @property
    def arrays(self):
        return [T.entries for T in self.d_tensors]

    def flat(self) -> np.ndarray:
        return np.concatenate([self.d_base] + [arr.ravel() for arr in self.arrays])

    def to_json(self) -> dict:
        return {"d_base": self.d_base.tolist(), "tensors": [T.to_json() for T in self.d_tensors]}


# ---------------------------------------------------------------------------
# group action and chart change


def _check_frame_group(u: FrameCoords, a: JetGroupElement):
    if u.n != a.n or u.r != a.r:
        raise ShapeMismatchError("frame/group order or dimension mismatch")


def right_action(u: FrameCoords, a: JetGroupElement) -> FrameCoords:
    """Base fixed; tensor part composed by the jet product."""
    _check_frame_group(u, a)
    return FrameCoords.from_arrays(
        u.base, compose_tensors(u.arrays, a.arrays), u.chart_id
    )


def right_action_pushforward(
    u: FrameCoords, a: JetGroupElement, X: BundleTangent
) -> BundleTangent:
    """Differential of the right action: linear in the frame coordinates."""
    _check_frame_group(u, a)
    return BundleTangent.from_arrays(
        X.d_base, compose_tensors(X.arrays, a.arrays)
    )


def change_chart(
    u: FrameCoords, T: TransitionJet, chart_id: str | None = None
) -> FrameCoords:
    """Left multiplication by the transition jet; base mapped through."""
    if T.order < u.r:
        raise ShapeMismatchError("transition jet order too low for this frame")
    if not np.allclose(T.p, u.base, atol=1e-9):
        raise ShapeMismatchError("transition jet not evaluated at the frame's base")
    tensors = compose_tensors([arr for arr in T.arrays[: u.r]], u.arrays)
    return FrameCoords.from_arrays(
        T.value, tensors, chart_id if chart_id is not None else u.chart_id + "'"
    )


def change_chart_pushforward(u: FrameCoords, T: TransitionJet, X: BundleTangent) -> BundleTangent:
    """Differential of change_chart; needs the jet one order above the frame.

    The chart-change tensors depend on the base point through the map's
    derivative tensors, so the pushforward has a base-motion term (each
    D^k replaced by D^{k+1} contracted with δh) plus the term linear in the
    frame displacement.
    """
    if T.order < u.r + 1:
        raise ShapeMismatchError("pushforward needs a jet of order r+1")
    D = T.arrays
    base_moved = [np.tensordot(D[k], X.d_base, axes=([-1], [0])) for k in range(1, u.r + 1)]
    term1 = compose_tensors(base_moved, u.arrays, u.r)
    term2 = compose_right_derivative(D[: u.r], u.arrays, X.arrays, u.r)
    tensors = [t1 + t2 for t1, t2 in zip(term1, term2)]
    return BundleTangent.from_arrays(D[0] @ X.d_base, tensors)


def fundamental_vector(u: FrameCoords, X_arrays) -> BundleTangent:
    """Vertical generator at u of an algebra element (tensors of orders 1..r)."""
    d_tensors = [
        group_translation_apply(u.arrays, list(X_arrays), k)
        for k in range(1, u.r + 1)
    ]
    return BundleTangent.from_arrays(np.zeros(u.n), d_tensors)


# ---------------------------------------------------------------------------
# the right-translation isomorphism L_u


# (n, r) -> the table of L_u built by `_translation_table`; `forms` binds the same dict
_DL_CACHE: dict = {}


def _translation_table(n: int, r: int) -> tuple:
    """L_u by frame coordinate: read-only arrays (A, row, column, multiplicity).

    L_u[row, column] = Σ multiplicity · u_A, summed in the table's order: by
    A (an index into `FrameCoords.coords_flat`), then row, then column.  Row
    (i, j_0…j_{k−1}) of order k and column (α, β_1…β_m) of order m ≤ k take,
    for every m-subset P of the row's lower positions with β = j_P, the entry
    of u^{k−m+1} with upper index i and lower indices j_q for q ∉ P and α in
    the slot of P, slots ordered by their least position; α goes last when
    m = 0, the base column.  Built once per (n, r) and kept in `_DL_CACHE`.
    """
    key = (n, r)
    if key in _DL_CACHE:
        return _DL_CACHE[key]
    offsets = flat_offsets(n, r)  # the same layout for rows and columns
    first = flat_offsets(n, r + 1)[1:]  # first[p - 1]: where coordinates of u^p start
    side = int(offsets[-1])
    cells = []
    for k in range(r):
        i, *j, alpha = np.indices((n,) * (k + 2)).reshape(k + 2, -1)
        row = offsets[k] + np.ravel_multi_index([i, *j], (n,) * (k + 1))
        for m in range(k + 1):
            for P in itertools.combinations(range(k), m):
                rest = [(q,) for q in range(k) if q not in P]
                slots = sorted(rest + [P], key=min) if P else rest + [P]
                lower = [alpha if s == P else j[s[0]] for s in slots]
                beta = [j[q] for q in P]
                col = offsets[m] + np.ravel_multi_index([alpha, *beta], (n,) * (m + 1))
                A = first[k - m] + np.ravel_multi_index([i, *lower], (n,) * (k - m + 2))
                cells.append((A * side + row) * side + col)
    cell, multiplicity = np.unique(np.concatenate(cells), return_counts=True)
    A, cell = np.divmod(cell, side * side)
    table = (A, *np.divmod(cell, side), multiplicity.astype(float))
    for x in table:
        x.setflags(write=False)
    _DL_CACHE[key] = table
    return table


def translation_matrix(u_arrays, n: int, r: int) -> np.ndarray:
    """Matrix of L_u: algebra components (orders 0..r-1) to coordinate rows.

    Requires frame tensors of orders 1..r; the output square matrix has
    side n + n² + … + nʳ.  Linear (homogeneous) in the frame tensors: one
    scatter of their entries over `_translation_table`.
    """
    A, row, col, multiplicity = _translation_table(n, r)
    side = algebra_size(n, r)
    coords = np.concatenate([np.ravel(arr) for arr in u_arrays])
    L = np.bincount(row * side + col, multiplicity * coords[A - n], minlength=side * side)
    return L.reshape(side, side)


class TangentIso:
    """The isomorphism L_u between the identity tangent space one order
    down and the tangent space at u, materialized as a dense matrix.

    Each frame builds one, once (`FrameCoords.iso`); its arrays are read-only.
    """

    def __init__(self, u: FrameCoords):
        self.n, self.r = u.n, u.r
        self.N = algebra_size(self.n, self.r)
        self.matrix = translation_matrix(u.arrays, self.n, self.r)
        self.matrix.setflags(write=False)
        if np.linalg.cond(self.matrix) > 1e8:
            raise SingularityError("right-translation matrix is ill-conditioned")

    @functools.cached_property
    def inverse(self) -> np.ndarray:
        """L_u⁻¹: θ on the coordinate fields of orders below the top."""
        inverse = np.linalg.inv(self.matrix)
        inverse.setflags(write=False)
        return inverse

    def apply(self, Y: JetAlgebraElement) -> BundleTangent:
        """Push an algebra vector to a tangent at u (orders 0..r-1 rows)."""
        if Y.n != self.n or Y.r != self.r:
            raise ShapeMismatchError("algebra vector shape mismatch")
        # top-order slot not determined by the lower-level tangent space
        flat = np.zeros(coord_size(self.n, self.r))
        flat[: self.N] = self.matrix @ Y.flat()
        return BundleTangent.from_flat(self.n, self.r, flat)

    def solve(self, X: BundleTangent) -> JetAlgebraElement:
        """Invert L_u on the order-(r-1) projection of X (top order dropped)."""
        if X.n != self.n or X.r != self.r:
            raise ShapeMismatchError("tangent shape mismatch")
        sol = np.linalg.solve(self.matrix, X.flat()[: self.N])
        return JetAlgebraElement.from_flat(self.n, self.r, sol)


def tangent_iso(u: FrameCoords) -> TangentIso:
    return u.iso
