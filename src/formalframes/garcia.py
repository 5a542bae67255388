"""Alternative coordinates for order-2 frames via the bundle of 1-jets.

An order-2 frame (x, u¹, u²) can equivalently be recorded as a point
(x, y, z) with y = u¹ and z = u² · (u¹)⁻¹ applied on the last slot.  The
two charts are exchanged by the mutually inverse maps `phi_map` and
`psi_map`; the group action and the canonical form look different in the
(x, y, z) picture but correspond exactly under `phi_map`.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bundle import BundleTangent, FrameCoords
from .jetgroup import JetGroupElement, jet_compose
from .tensors import LowerTensor, ShapeMismatchError, _reduce_by_fields, check_square


@dataclass(frozen=True)
class GarciaCoords:
    """Point (x, y, z): base, invertible matrix, order-2 tensor."""

    n: int
    x: np.ndarray
    y: np.ndarray
    z: LowerTensor
    chart_id: str = "chart0"

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float).reshape(self.n)
        y = np.asarray(self.y, dtype=float).reshape(self.n, self.n)
        check_square(y, "y block")
        if self.z.n != self.n or self.z.k != 2:
            raise ShapeMismatchError("z must be an order-2 tensor of matching dimension")
        x = x.copy()
        y = y.copy()
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @classmethod
    def from_arrays(cls, x, y, z, chart_id: str = "chart0") -> "GarciaCoords":
        z = np.asarray(z, dtype=float)
        n = z.shape[0]
        return cls(n, x, y, LowerTensor(n, 2, z), chart_id)

    def __eq__(self, other) -> bool:
        return isinstance(other, GarciaCoords) and self.to_json() == other.to_json()

    __reduce__ = _reduce_by_fields

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "x": self.x.tolist(),
            "y": self.y.tolist(),
            "z": self.z.entries.ravel().tolist(),
            "chart_id": self.chart_id,
        }

    @classmethod
    def from_json(cls, data: dict) -> "GarciaCoords":
        n = int(data["n"])
        z = np.asarray(data["z"], dtype=float).reshape((n, n, n))
        return cls.from_arrays(data["x"], data["y"], z, data.get("chart_id", "chart0"))


def phi_map(u: FrameCoords) -> GarciaCoords:
    """(x, u¹, u²) ↦ (x, u¹, u²·v on the last slot), v = (u¹)⁻¹."""
    if u.r != 2:
        raise ShapeMismatchError("phi_map expects an order-2 frame")
    u1, u2 = u.arrays
    v = np.linalg.inv(u1)
    z = np.einsum("ijl,lk->ijk", u2, v)
    return GarciaCoords.from_arrays(u.base, u1, z, u.chart_id)


def psi_map(g: GarciaCoords) -> FrameCoords:
    """(x, y, z) ↦ (x, y, z·y on the last slot); inverse of phi_map."""
    u2 = np.einsum("ijl,lk->ijk", g.z.entries, g.y)
    return FrameCoords.from_arrays(g.x, [g.y, u2], g.chart_id)


def garcia_action_formula(g: GarciaCoords, a: JetGroupElement) -> GarciaCoords:
    """Closed formula for the right action in (x, y, z) coordinates.

    y ↦ y·a¹ and z^i_{jk} ↦ z^i_{αk} a^α_j + y^i_α a^α_{jβ} b^β_γ w^γ_k,
    with b = (a¹)⁻¹ and w = y⁻¹ evaluated at the *original* point.
    """
    a1, a2 = a.arrays[0], a.arrays[1]
    b = np.linalg.inv(a1)
    w = np.linalg.inv(g.y)
    y_new = g.y @ a1
    z_new = (
        np.einsum("iak,aj->ijk", g.z.entries, a1)
        + np.einsum("ia,ajb,bg,gk->ijk", g.y, a2, b, w)
    )
    return GarciaCoords.from_arrays(g.x, y_new, z_new, g.chart_id)


def garcia_action(
    g: GarciaCoords, a: JetGroupElement, cross_check: bool = True, tol: float = 1e-8
) -> GarciaCoords:
    """Right action of an order-2 group element in (x, y, z) coordinates.

    Normative definition: transport to frame coordinates, act there, and
    transport back — phi(psi(g)·a).  The closed formula is evaluated as a
    cross-check; a mismatch is reported as a warning, never hidden.
    """
    if a.r != 2:
        raise ShapeMismatchError("garcia_action expects an order-2 group element")
    u = psi_map(g)
    moved = FrameCoords.from_arrays(
        u.base, jet_compose(JetGroupElement.from_arrays(u.arrays), a).arrays, u.chart_id
    )
    result = phi_map(moved)
    if cross_check:
        direct = garcia_action_formula(g, a)
        gap = max(
            float(np.max(np.abs(result.y - direct.y))),
            float(np.max(np.abs(result.z.entries - direct.z.entries))),
        )
        if gap > tol:
            warnings.warn(
                f"closed-formula action deviates from the conjugated action by {gap:.3g}",
                RuntimeWarning,
                stacklevel=2,
            )
    return result


def garcia_canonical_form(g: GarciaCoords, dx, dy) -> np.ndarray:
    """θ′(X) = y⁻¹·(dy-part − z contracted with the dx-part); n×n matrix."""
    dx = np.asarray(dx, dtype=float).reshape(g.n)
    dy = np.asarray(dy, dtype=float).reshape(g.n, g.n)
    w = np.linalg.inv(g.y)
    return w @ (dy - np.einsum("ajb,b->aj", g.z.entries, dx))


def phi_pushforward(u: FrameCoords, X: BundleTangent):
    """Differential of phi_map: (dx, du¹, du²) ↦ (dx, dy, dz)."""
    if u.r != 2:
        raise ShapeMismatchError("phi_pushforward expects an order-2 frame")
    u1, u2 = u.arrays
    du1, du2 = X.arrays
    v = np.linalg.inv(u1)
    dv = -v @ du1 @ v
    dz = np.einsum("ijl,lk->ijk", du2, v) + np.einsum("ijl,lk->ijk", u2, dv)
    return X.d_base, du1, dz
