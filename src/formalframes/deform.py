"""Tangent group of GLₙ, connection-deformation pairs, and 2-tangent data.

The tangent bundle of GLₙ(ℝ) is a Lie group isomorphic to the semidirect
product GLₙ ⋉ 𝔤𝔩ₙ, faithfully represented by 2n×2n block matrices
(A, X) ↦ [[A, 0], [AX, A]].  An infinitesimal deformation of a connection
is a Hom(TM, TM)-valued 1-form μ; the pair (θ, μ) of a connection form
and a deformation transforms across charts like a connection for that
semidirect group: θ picks up the usual gauge term while μ is tensorial.
"""
from __future__ import annotations

from dataclasses import field

import numpy as np

from .bundle import FrameCoords, right_action
from .charts import TransitionJet, transition_jet
from .connection import ChristoffelField, christoffel_transform, deformation_transform
from .fields import PolyField
from .jetgroup import JetGroupElement
from .tensors import ShapeMismatchError, check_square, close, record


# ---------------------------------------------------------------------------
# the tangent group GLₙ ⋉ 𝔤𝔩ₙ


@record(arrays=("A", "X"))
class TangentGroupElement:
    """(A, X) with A invertible; product (A,X)(B,Y) = (AB, B⁻¹XB + Y)."""

    A: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        X = np.asarray(self.X, dtype=float)
        check_square(A, "A block")
        if X.shape != A.shape:
            raise ShapeMismatchError("X block must match A in shape")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @classmethod
    def identity(cls, n: int) -> "TangentGroupElement":
        return cls(np.eye(n), np.zeros((n, n)))

    def matrix_rep(self) -> np.ndarray:
        """Faithful 2n×2n representation [[A, 0], [AX, A]]."""
        n = self.n
        out = np.zeros((2 * n, 2 * n))
        out[:n, :n] = self.A
        out[n:, n:] = self.A
        out[n:, :n] = self.A @ self.X
        return out


@record(arrays=("dA", "dX"))
class TangentAlgebraElement:
    """(Ȧ, Ẋ): tangent at the identity of the tangent group."""

    dA: np.ndarray
    dX: np.ndarray

    def __post_init__(self):
        dA = np.asarray(self.dA, dtype=float)
        dX = np.asarray(self.dX, dtype=float)
        if dA.shape != dX.shape or dA.ndim != 2 or dA.shape[0] != dA.shape[1]:
            raise ShapeMismatchError("algebra blocks must be equal square matrices")

    @property
    def n(self) -> int:
        return self.dA.shape[0]

    def matrix_rep(self) -> np.ndarray:
        """Derivative of the group representation: [[Ȧ, 0], [Ẋ, Ȧ]]."""
        n = self.n
        out = np.zeros((2 * n, 2 * n))
        out[:n, :n] = self.dA
        out[n:, n:] = self.dA
        out[n:, :n] = self.dX
        return out


def tg_compose(p: TangentGroupElement, q: TangentGroupElement) -> TangentGroupElement:
    B_inv = np.linalg.inv(q.A)
    return TangentGroupElement(p.A @ q.A, B_inv @ p.X @ q.A + q.X)


def tg_inverse(p: TangentGroupElement) -> TangentGroupElement:
    return TangentGroupElement(np.linalg.inv(p.A), -p.A @ p.X @ np.linalg.inv(p.A))


def tg_bracket(u: TangentAlgebraElement, v: TangentAlgebraElement) -> TangentAlgebraElement:
    comm = lambda a, b: a @ b - b @ a
    return TangentAlgebraElement(
        comm(u.dA, v.dA), comm(u.dX, v.dA) + comm(u.dA, v.dX)
    )


def tg_adjoint(p: TangentGroupElement, v: TangentAlgebraElement) -> TangentAlgebraElement:
    A_inv = np.linalg.inv(p.A)
    ad = lambda m: p.A @ m @ A_inv
    return TangentAlgebraElement(ad(v.dA), ad(p.X @ v.dA - v.dA @ p.X + v.dX))


# ---------------------------------------------------------------------------
# deformation 1-forms and pairs


@record(mappings=("charts",))
class DeformationPair:
    """Per-chart (θ, μ) coefficient tables, both shaped (n, n, n).

    θ^i_{jk} dx^k is the connection form and μ^i_{jk} dx^k the candidate
    infinitesimal deformation; validity over an atlas means θ transforms
    with the gauge term (like Christoffel data) and μ tensorially.
    """

    n: int
    charts: dict = field(default_factory=dict)  # chart_id -> {"theta","mu"}

    def __post_init__(self):
        for cid, tables in self.charts.items():
            for key in ("theta", "mu"):
                tab = tables[key]
                if not isinstance(tab, PolyField) or tab.shape != (self.n,) * 3:
                    raise ShapeMismatchError(f"{key} table on {cid!r} has wrong shape")

    def theta(self, chart_id: str) -> PolyField:
        return self.charts[chart_id]["theta"]

    def mu(self, chart_id: str) -> PolyField:
        return self.charts[chart_id]["mu"]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "charts": {
                cid: {"theta": t["theta"].to_json(), "mu": t["mu"].to_json()}
                for cid, t in self.charts.items()
            },
        }

    @classmethod
    def from_json(cls, data: dict) -> "DeformationPair":
        charts = {
            cid: {
                "theta": PolyField.from_json(t["theta"]),
                "mu": PolyField.from_json(t["mu"]),
            }
            for cid, t in data["charts"].items()
        }
        return cls(int(data["n"]), charts)


def check_deformation_pair(
    pair: DeformationPair,
    transitions,
    sample_points,
    tol: float = 1e-8,
) -> dict:
    """Validate the transformation laws across every supplied overlap.

    `transitions` is an iterable of (src_chart, dst_chart, SmoothMapSpec);
    `sample_points` maps src_chart to points of that chart.  Returns
    {"valid", "max_theta_residual", "max_mu_residual", "worst"}.
    """
    worst_theta = worst_mu = 0.0
    worst = {}
    for src, dst, spec in transitions:
        for p in sample_points[src]:
            T = transition_jet(spec, p, 2)
            theta_hat = christoffel_transform(pair.theta(src).evaluate(p), T)
            mu_hat = deformation_transform(pair.mu(src).evaluate(p), T)
            res_t = float(np.max(np.abs(pair.theta(dst).evaluate(T.value) - theta_hat)))
            res_m = float(np.max(np.abs(pair.mu(dst).evaluate(T.value) - mu_hat)))
            if res_t > worst_theta:
                worst_theta = res_t
                worst = {"overlap": (src, dst), "kind": "theta", "residual": res_t}
            if res_m > worst_mu:
                worst_mu = res_m
                if res_m > worst_theta:
                    worst = {"overlap": (src, dst), "kind": "mu", "residual": res_m}
    return {
        "valid": bool(worst_theta <= tol and worst_mu <= tol),
        "max_theta_residual": worst_theta,
        "max_mu_residual": worst_mu,
        "worst": worst,
    }


# ---------------------------------------------------------------------------
# 2-tangent bundle data


def t2m_transition(c, T: TransitionJet):
    """Chart change of second-order tangent data (x, v, ẋ, v̇).

    Returns (φ(x), Dφ·v, Dφ·ẋ, Hφ(v, ẋ) + Dφ·v̇).
    """
    if T.order < 2:
        raise ShapeMismatchError("2-tangent transition needs a 2-jet")
    x, v, xdot, vdot = (np.asarray(a, dtype=float) for a in c)
    if not close(T.p, x):
        raise ShapeMismatchError("transition jet not centered at the given point")
    D, H = T.arrays[0], T.arrays[1]
    return (
        T.value,
        D @ v,
        D @ xdot,
        np.einsum("iab,a,b->i", H, v, xdot) + D @ vdot,
    )


def horizontal_lift(gamma_field: ChristoffelField, x, v, w):
    """Horizontal lift of the base vector w at the point (x, v) of TM.

    Returns (ẋ, v̇) = (w, −Γ^a_{jb}(x) w^j v^b): the direction contracts
    the middle slot, the fiber coordinate the last.
    """
    v = np.asarray(v, dtype=float).reshape(gamma_field.n)
    w = np.asarray(w, dtype=float).reshape(gamma_field.n)
    gamma = gamma_field.value(x)
    return w, -np.einsum("ajb,j,b->a", gamma, w, v)


def vertical_lift(w):
    """Vertical lift: (ẋ, v̇) = (0, w)."""
    w = np.asarray(w, dtype=float)
    return np.zeros_like(w), w.copy()


def lift_block_identity(
    gamma_field: ChristoffelField, T: TransitionJet, v
) -> np.ndarray:
    """Residual of the horizontal/vertical splitting compatibility.

    With Γ̂ the transformed Christoffel data and v̂ = Dφ·v, the product
    [[I,0],[Γ̂v̂,I]] · [[Dφ,0],[Hφv,Dφ]] · [[I,0],[−Γv,I]] must equal
    diag(Dφ, Dφ); the difference is returned.
    """
    n = gamma_field.n
    v = np.asarray(v, dtype=float).reshape(n)
    D, H = T.arrays[0], T.arrays[1]
    gamma = gamma_field.value(T.p)
    gamma_hat = christoffel_transform(gamma, T)
    v_hat = D @ v

    def block(top_left, bottom_left, bottom_right):
        out = np.zeros((2 * n, 2 * n))
        out[:n, :n] = top_left
        out[n:, :n] = bottom_left
        out[n:, n:] = bottom_right
        return out

    gv = np.einsum("ajb,b->aj", gamma, v)            # direction slot j open
    gv_hat = np.einsum("ajb,b->aj", gamma_hat, v_hat)
    hv = np.einsum("ijb,b->ij", H, v)
    left = block(np.eye(n), gv_hat, np.eye(n))
    mid = block(D, hv, D)
    right = block(np.eye(n), -gv, np.eye(n))
    return left @ mid @ right - block(D, np.zeros((n, n)), D)


def covariant_derivative_residual(
    gamma_field: ChristoffelField, X_field: PolyField, v, p
) -> np.ndarray:
    """Residual of the splitting identity for a polynomial vector field.

    Both sides of (∇_vX + T(v, X))^V = DX(v) − v^H are evaluated at the
    point (p, X(p)) of TM and their fiber components subtracted; here
    ∇_vX = DX(v) + Γ(X, v) in the direction-last convention, and
    T(v, w) = Γ(v, w) − Γ(w, v) is the torsion tensor of Γ.
    """
    n = gamma_field.n
    if X_field.m != n or X_field.shape != (n,):
        raise ShapeMismatchError("X must be an n-component polynomial vector field")
    v = np.asarray(v, dtype=float).reshape(n)
    p = np.asarray(p, dtype=float).reshape(n)
    Xp = X_field.evaluate(p)
    DX_v = sum(X_field.partial(i).evaluate(p) * v[i] for i in range(n))
    gamma = gamma_field.value(p)
    nabla = DX_v + np.einsum("ijk,j,k->i", gamma, Xp, v)
    torsion_vX = np.einsum("ijk,j,k->i", gamma, v, Xp) - np.einsum(
        "ijk,j,k->i", gamma, Xp, v
    )
    lhs_fiber = nabla + torsion_vX                     # vertical lift fiber part
    _, hor_fiber = horizontal_lift(gamma_field, p, Xp, v)
    rhs_fiber = DX_v - hor_fiber
    return lhs_fiber - rhs_fiber


# ---------------------------------------------------------------------------
# the jet-bundle isomorphism of the semidirect frame bundle


@record(arrays=("x", "a", "b", "a2", "b2"))
class GarciaPairPoint:
    """Section-jet data (x, (a, b), (a₂, b₂)) in jet-bundle coordinates.

    a is the frame block with first derivatives a₂ (already in the mixed
    form used by the order-2 frame correspondence), b the 𝔤𝔩ₙ block with
    first derivatives b₂.
    """

    n: int
    x: np.ndarray
    a: np.ndarray
    b: np.ndarray
    a2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        n = self.n
        values = {"x": np.reshape(self.x, n), "a": np.reshape(self.a, (n, n)),
                  "b": np.reshape(self.b, (n, n)), "a2": np.reshape(self.a2, (n,) * 3),
                  "b2": np.reshape(self.b2, (n,) * 3)}
        check_square(values["a"], "a block")
        return values


def garcia_pair_action(s: GarciaPairPoint, g, X) -> GarciaPairPoint:
    """Right action of (g, X) ∈ GLₙ ⋉ 𝔤𝔩ₙ in jet-bundle coordinates."""
    g = np.asarray(g, dtype=float)
    X = np.asarray(X, dtype=float)
    h = np.linalg.inv(g)
    a_new = s.a @ g
    b_new = h @ s.b @ g + X
    a2_new = np.einsum("iak,aj->ijk", s.a2, g)
    b2_new = np.einsum("ia,abk,bj->ijk", h, s.b2, g)
    return GarciaPairPoint(s.n, s.x, a_new, b_new, a2_new, b2_new)


def deform_frame_iso(s: GarciaPairPoint):
    """Map section-jet data to (order-2 frame, algebra pair).

    The frame's second-order slot is a^i_{jα} a^α_k; the algebra pair
    (b, b₂) passes through unchanged.
    """
    u2 = np.einsum("ija,ak->ijk", s.a2, s.a)
    frame = FrameCoords.from_arrays(s.x, [s.a, u2])
    return frame, (s.b.copy(), s.b2.copy())


def frame_pair_action(frame: FrameCoords, algebra_pair, g, X):
    """The same group action on the (frame, algebra pair) side."""
    g = np.asarray(g, dtype=float)
    X = np.asarray(X, dtype=float)
    n = frame.n
    h = np.linalg.inv(g)
    b, b2 = algebra_pair
    a_elt = JetGroupElement.from_arrays([g, np.zeros((n, n, n))])
    frame_new = right_action(frame, a_elt)
    b_new = h @ b @ g + X
    b2_new = np.einsum("ia,abk,bj->ijk", h, b2, g)
    return frame_new, (b_new, b2_new)


def deform_canonical_form(s: GarciaPairPoint, dx, da, db):
    """Canonical 1-form of the section-jet bundle at s on a tangent vector.

    Value in the tangent-group algebra: with c = a⁻¹ and
    α = da − a₂·dx, the components are (c·α, db − b₂·dx + [c·α, b]).
    The second component is the left-translation derivative of the group
    value (a, b)⁻¹ moving along the vertical part of the tangent.
    """
    dx = np.asarray(dx, dtype=float).reshape(s.n)
    da = np.asarray(da, dtype=float).reshape(s.n, s.n)
    db = np.asarray(db, dtype=float).reshape(s.n, s.n)
    c = np.linalg.inv(s.a)
    alpha = da - np.einsum("ijb,b->ij", s.a2, dx)
    beta = db - np.einsum("ijb,b->ij", s.b2, dx)
    theta1 = c @ alpha
    theta2 = beta + theta1 @ s.b - s.b @ theta1
    return TangentAlgebraElement(theta1, theta2)
