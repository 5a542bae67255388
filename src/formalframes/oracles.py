"""Independent reference implementations used only for cross-checking.

Everything here recomputes results of the main modules by a different
route: hand-transcribed closed formulas for the low-order group products,
and truncated-Taylor composition of genuine polynomial maps for the
symmetric (classical) case.  Tests compare these against the general
partition-recursion product.
"""
from __future__ import annotations

import math

import numpy as np

from .taylor import TaylorScalar, compose_all, derivative_tensor, multi_indices
from .tensors import ShapeMismatchError


def closed_form_compose(a_arrays, b_arrays, r: int):
    """Group product by the explicit order ≤ 3 formulas.

    Order 1: (ab)¹ = a¹b¹.
    Order 2 adds (ab)² = a²(b¹, b¹) + a¹b².
    Order 3 adds the five-term expression with the three mixed terms
    pairing each 2-subset {j,l}, {k,l}, {j,k} of the output slots with the
    remaining single slot, lower-numbered block first.
    """
    if r not in (1, 2, 3):
        raise ShapeMismatchError("closed forms cover orders 1..3 only")
    a1 = np.asarray(a_arrays[0], dtype=float)
    b1 = np.asarray(b_arrays[0], dtype=float)
    out = [a1 @ b1]
    if r >= 2:
        a2 = np.asarray(a_arrays[1], dtype=float)
        b2 = np.asarray(b_arrays[1], dtype=float)
        out.append(
            np.einsum("iab,aj,bk->ijk", a2, b1, b1)
            + np.einsum("ia,ajk->ijk", a1, b2)
        )
    if r == 3:
        a3 = np.asarray(a_arrays[2], dtype=float)
        b3 = np.asarray(b_arrays[2], dtype=float)
        out.append(
            np.einsum("iabc,aj,bk,cl->ijkl", a3, b1, b1, b1)
            + np.einsum("iab,ajl,bk->ijkl", a2, b2, b1)
            + np.einsum("iab,aj,bkl->ijkl", a2, b1, b2)
            + np.einsum("iab,ajk,bl->ijkl", a2, b2, b1)
            + np.einsum("ia,ajkl->ijkl", a1, b3)
        )
    return out


def taylor_map_compose(a_arrays, b_arrays, r: int):
    """Compose symmetric jets as truncated polynomial maps.

    Builds f(x) = Σ_k a[k](x, …, x)/k!, likewise g, composes the truncated
    polynomials, and reads the derivative tensors of f∘g back off the
    coefficients.  Valid only for symmetric (classical) input tensors.
    """
    n = np.asarray(a_arrays[0]).shape[0]

    def as_polynomials(arrays):
        # a[k] x^⊗k / k! collapses onto the monomial x^e, |e| = k, with a
        # multinomial count k!/e! for repeated indices: coefficient a[k][js]/e!
        exps = [e for e in multi_indices(n, len(arrays)) if any(e)]
        coeffs = np.empty((n, len(exps)))
        for k, arr in enumerate(arrays, start=1):
            cols = [c for c, e in enumerate(exps) if sum(e) == k]
            slots = np.array(
                [[var for var, e in enumerate(exps[c]) for _ in range(e)] for c in cols]
            )
            weight = [math.prod(map(math.factorial, exps[c])) for c in cols]
            gathered = np.asarray(arr, dtype=float)[(slice(None),) + tuple(slots.T)]
            coeffs[:, cols] = gathered / weight
        return [TaylorScalar(n, r, dict(zip(exps, row))) for row in coeffs]

    f = as_polynomials(a_arrays)
    g = as_polynomials(b_arrays)
    composed = compose_all(f, g)
    return [derivative_tensor(composed, k) for k in range(1, r + 1)]
