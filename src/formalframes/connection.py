"""Linear connections as Christoffel tables and their frame-bundle avatars.

Christoffel data is polynomial per chart so every identity can be tested
exactly: the transformation law under a chart change, the equivariant
section of the order-2 frame projection it induces, and the connection
1-form pulled back through that section.

Index convention: the connection matrix-valued 1-form is
μ^i_j = Γ^i_{jk} dx^k — the *last* lower slot contracts the direction of
differentiation.
"""
from __future__ import annotations

import numpy as np

from .bundle import BundleTangent, FrameCoords
from .charts import TransitionJet
from .fields import PolyField
from .forms import canonical_form
from .jetgroup import JetAlgebraElement
from .tensors import ShapeMismatchError, SingularityError, record


@record
class ChristoffelField:
    """Polynomial Christoffel table Γ^i_{jk}(x) on one chart."""

    n: int
    table: PolyField
    chart_id: str = "chart0"

    def __post_init__(self):
        if self.table.m != self.n or self.table.shape != (self.n,) * 3:
            raise ShapeMismatchError("Christoffel table must map n coords to (n,n,n)")

    @classmethod
    def constant(cls, gamma, chart_id: str = "chart0") -> "ChristoffelField":
        gamma = np.asarray(gamma, dtype=float)
        n = gamma.shape[0]
        return cls(n, PolyField.constant(gamma.reshape((n, n, n)), n), chart_id)

    def value(self, p) -> np.ndarray:
        return self.table.evaluate(p)

    def connection_form(self, p, v) -> np.ndarray:
        """μ_p(v) = Γ^i_{jk}(p) v^k as an n×n matrix."""
        v = np.asarray(v, dtype=float).reshape(self.n)
        return np.einsum("ijk,k->ij", self.value(p), v)

    def to_json(self) -> dict:
        return {"n": self.n, "chart_id": self.chart_id, "table": self.table.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "ChristoffelField":
        return cls(int(data["n"]), PolyField.from_json(data["table"]),
                   data.get("chart_id", "chart0"))


def deformation_transform(mu: np.ndarray, T: TransitionJet) -> np.ndarray:
    """Tensorial chart change of a Hom(TM,TM)-valued 1-form coefficient table.

    Solves μ̂^i_{αβ} Dφ^α_j Dφ^β_k = Dφ^i_α μ^α_{jk} for μ̂ at the image
    point: μ̂ = Dφ · μ · (ψ ⊗ ψ) with ψ = (Dφ)⁻¹.
    """
    D = T.arrays[0]
    if abs(np.linalg.det(D)) < 1e-300:
        raise SingularityError("singular transition derivative")
    psi = np.linalg.inv(D)
    mu = np.asarray(mu, dtype=float)
    return np.einsum("ia,abc,bj,ck->ijk", D, mu, psi, psi)


def christoffel_transform(gamma: np.ndarray, T: TransitionJet) -> np.ndarray:
    """Pointwise transformation law under a chart change with 2-jet T.

    Γ̂^i_{jk} at the image point equals
    −Hφ^i_{αβ} ψ^α_j ψ^β_k plus the tensorial `deformation_transform` of Γ.
    """
    if T.order < 2:
        raise ShapeMismatchError("chart change of a connection needs a 2-jet")
    tensorial = deformation_transform(gamma, T)
    psi = np.linalg.inv(T.arrays[0])
    return -np.einsum("iab,aj,bk->ijk", T.arrays[1], psi, psi) + tensorial


def connection_section(gamma_field: ChristoffelField, u: FrameCoords) -> FrameCoords:
    """Extend an order-1 frame to order 2: u² = −Γ^i_{αβ}(base) u^α_j u^β_k."""
    if u.r != 1:
        raise ShapeMismatchError("connection_section expects an order-1 frame")
    u1 = u.arrays[0]
    gamma = gamma_field.value(u.base)
    u2 = -np.einsum("iab,aj,bk->ijk", gamma, u1, u1)
    return FrameCoords.from_arrays(u.base, [u1, u2], u.chart_id)


def section_pushforward(
    gamma_field: ChristoffelField, u: FrameCoords, X: BundleTangent
) -> BundleTangent:
    """Differential of connection_section applied to an order-1 tangent."""
    if u.r != 1 or X.r != 1:
        raise ShapeMismatchError("section_pushforward expects order-1 data")
    u1 = u.arrays[0]
    du1 = X.arrays[0]
    dx = X.d_base
    gamma = gamma_field.value(u.base)
    dgamma = sum(
        gamma_field.table.partial(i).evaluate(u.base) * dx[i]
        for i in range(gamma_field.n)
    )
    du2 = -(
        np.einsum("iab,aj,bk->ijk", dgamma, u1, u1)
        + np.einsum("iab,aj,bk->ijk", gamma, du1, u1)
        + np.einsum("iab,aj,bk->ijk", gamma, u1, du1)
    )
    return BundleTangent.from_arrays(dx, [du1, du2])


def section_pullback_connection(
    gamma_field: ChristoffelField, u: FrameCoords, X: BundleTangent
) -> np.ndarray:
    """Connection 1-form on the order-1 frame bundle induced by Γ.

    Pulls the order-1 (matrix) component of the order-2 canonical form back
    through connection_section; the result satisfies both connection axioms.
    """
    sigma_u = connection_section(gamma_field, u)
    sigma_X = section_pushforward(gamma_field, u, X)
    theta: JetAlgebraElement = canonical_form(sigma_u, sigma_X)
    return theta.arrays[1]


def symmetrize_connection(gamma_field: ChristoffelField) -> ChristoffelField:
    """Average the two lower slots pointwise: the torsion-free modification."""
    coeffs = {
        exp: 0.5 * (arr + np.swapaxes(arr, 1, 2))
        for exp, arr in gamma_field.table.coeffs.items()
    }
    n = gamma_field.n
    return ChristoffelField(n, PolyField(n, (n, n, n), coeffs), gamma_field.chart_id)
