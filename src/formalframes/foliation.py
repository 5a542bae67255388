"""Foliated atlases, Bott connection data, and transverse frame transport.

A foliated chart splits coordinates into leafwise x (dim m−q) and
transverse y (dim q); admissible transitions send (x, y) to
(ψ(x, y), γ(y)) so the transverse part only sees y.  The holonomy maps γ
move transverse frames between charts, and the Bott condition says the
transverse connection 1-form has no dx-components in foliated charts.
"""
from __future__ import annotations

from dataclasses import field

import numpy as np

from .bundle import FrameCoords, change_chart
from .charts import SmoothMapSpec, transition_jet
from .fields import PolyField
from .tensors import ShapeMismatchError, record


def transition_is_foliated(spec: SmoothMapSpec, leaf_dim: int) -> bool:
    """Symbolic check: do the last q output components depend only on y?

    Works on polynomial coefficient tables (composites are checked
    stagewise, which is sufficient, not necessary).
    """
    m = spec.m_in
    q = m - leaf_dim
    if spec.kind == "polynomial":
        for exp, vals in spec.coeffs.items():
            if any(exp[i] > 0 for i in range(leaf_dim)):
                if any(v != 0.0 for v in vals[leaf_dim:]):
                    return False
        return True
    if spec.kind == "composite":
        return all(transition_is_foliated(s, leaf_dim) for s in spec.maps)
    # a 1-d moebius map is all-transverse only when there is no leaf part
    return leaf_dim == 0


@record
class FoliationTransition:
    """Chart overlap data: full map (x,y) ↦ (ψ(x,y), γ(y))."""

    src: str
    dst: str
    leaf_dim: int
    full_map: SmoothMapSpec
    gamma: SmoothMapSpec  # the transverse (holonomy) factor, q in / q out

    def __post_init__(self):
        q = self.full_map.m_in - self.leaf_dim
        if self.gamma.m_in != q or self.gamma.m_out != q:
            raise ShapeMismatchError("holonomy factor has wrong dimensions")
        if not transition_is_foliated(self.full_map, self.leaf_dim):
            raise ShapeMismatchError(
                "transverse component of the transition depends on leaf coordinates"
            )


@record(mappings=("charts",))
class BottData:
    """Transverse connection 1-form tables θ^i_{jA} dz^A per chart.

    The value slots (i, j) are q-dimensional; the form slot A runs over all
    chart coordinates (leafwise first, then transverse).  Data satisfying
    the Bott condition has zero coefficients on the leafwise slots.
    """

    leaf_dim: int
    q: int
    charts: dict = field(default_factory=dict)  # chart_id -> PolyField

    def __post_init__(self):
        m = self.leaf_dim + self.q
        for cid, tab in self.charts.items():
            if not isinstance(tab, PolyField) or tab.m != m or tab.shape != (
                self.q,
                self.q,
                m,
            ):
                raise ShapeMismatchError(f"Bott table on {cid!r} has wrong shape")

    def theta(self, chart_id: str) -> PolyField:
        return self.charts[chart_id]


def bott_residual(B: BottData, chart_id: str, point, w_leafwise) -> np.ndarray:
    """θ evaluated on a leafwise vector; zero iff Bott holds at the point."""
    w = np.asarray(w_leafwise, dtype=float).reshape(B.leaf_dim)
    table = B.theta(chart_id).evaluate(point)
    return np.einsum("ijA,A->ij", table[:, :, : B.leaf_dim], w)


def bott_gauge_transform(theta_val: np.ndarray, e: np.ndarray, de: np.ndarray):
    """Frame change of a connection 1-form value: e⁻¹ θ e + e⁻¹ de.

    `theta_val`, `de` carry an extra trailing form slot; `e` is the frame
    matrix at the point.
    """
    e_inv = np.linalg.inv(e)
    return np.einsum("ia,abA,bj->ijA", e_inv, theta_val, e) + np.einsum(
        "ia,ajA->ijA", e_inv, de
    )


def transverse_pushforward(u: FrameCoords, gamma: SmoothMapSpec) -> FrameCoords:
    """Move a transverse frame along a holonomy map via its transition jet."""
    T = transition_jet(gamma, u.base, u.r)
    return change_chart(u, T)


def _oneform_d_eval(F: PolyField, point, X, Y) -> np.ndarray:
    """dF evaluated on (X, Y) for a 1-form with polynomial coefficients.

    F has shape (..., m) with the last slot the form slot;
    dF(X, Y) = (∂_A F_B − ∂_B F_A) X^A Y^B summed.
    """
    m = F.m
    X = np.asarray(X, dtype=float).reshape(m)
    Y = np.asarray(Y, dtype=float).reshape(m)
    total = np.zeros(F.shape[:-1])
    for A in range(m):
        dF_A = F.partial(A).evaluate(point)       # ∂_A F, shape (..., m)
        total += np.tensordot(dF_A, Y, axes=([-1], [0])) * X[A]
        total -= np.tensordot(dF_A, X, axes=([-1], [0])) * Y[A]
    return total


def deformation_equation_residual(
    omega: PolyField,
    theta: PolyField,
    omega_dot: PolyField,
    theta_dot: PolyField,
    point,
    X,
    Y,
) -> np.ndarray:
    """Left side of dω̇ + θ∧ω̇ + θ̇∧ω evaluated on a tangent pair.

    ω, ω̇ are vector-valued 1-forms (shape (q, m)); θ, θ̇ are matrix-valued
    1-forms (shape (q, q, m)).  A valid infinitesimal deformation yields
    zero at every point.
    """
    m = omega.m
    X = np.asarray(X, dtype=float).reshape(m)
    Y = np.asarray(Y, dtype=float).reshape(m)

    def ev(F, V):
        return np.tensordot(F.evaluate(point), V, axes=([-1], [0]))

    d_part = _oneform_d_eval(omega_dot, point, X, Y)
    wedge1 = ev(theta, X) @ ev(omega_dot, Y) - ev(theta, Y) @ ev(omega_dot, X)
    wedge2 = ev(theta_dot, X) @ ev(omega, Y) - ev(theta_dot, Y) @ ev(omega, X)
    return d_part + wedge1 + wedge2
