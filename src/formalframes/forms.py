"""Canonical forms, torsions, curvature, and realizability checks.

The canonical form sends a tangent vector at a frame to its expression in
the frame itself: θ(X) = L_u⁻¹(X projected one order down).  Because L_u
is linear in the natural coordinates and independent of the base point,
all partial derivatives of θ-components are exact:

    ∂_A θ = −L⁻¹ (∂_A L) L⁻¹ P,      ∂_A L constant in u.

Exterior derivatives are evaluated on coordinate vector fields only
(dθ(∂_A, ∂_B) = ∂_A θ_B − ∂_B θ_A) and extended by bilinearity.
"""
from __future__ import annotations

import functools
import itertools

import numpy as np

from . import bundle
from .bundle import BundleTangent, FrameCoords, algebra_size, coord_size
from .jetgroup import JetAlgebraElement, flat_offsets
from .tensors import (
    ShapeMismatchError,
    SingularityError,
    asymmetry_witness,
    record,
    symmetrize_array,
)


class RealizabilityDisagreement(RuntimeError):
    """The torsion criterion and the symmetry criterion disagreed.

    This never happens for a correct implementation; it is surfaced loudly
    instead of being resolved silently.
    """


@record
class TorsionType:
    """Order k and insertion positions (p₁,…,p_{k−1}), 1 ≤ p_a ≤ a+1."""

    k: int
    p: tuple = ()

    def __post_init__(self):
        p = tuple(int(x) for x in self.p)
        if self.k < 1 or len(p) != self.k - 1:
            raise ShapeMismatchError(f"type tuple must have length k-1 = {self.k - 1}")
        for a, pa in enumerate(p, start=1):
            if not 1 <= pa <= a + 1:
                raise ShapeMismatchError(f"insertion position p_{a}={pa} out of range")
        return {"p": p}


def enumerate_torsion_types(k: int):
    """All k! insertion-type tuples of order k."""
    if k < 1:
        raise ShapeMismatchError("torsion order must be >= 1")
    ranges = [range(1, a + 2) for a in range(1, k)]
    return [TorsionType(k, p) for p in itertools.product(*ranges)]


def torsion_wedge_terms(t: TorsionType):
    """Symbolic wedge terms: pairs (first-factor indices, second-factor indices).

    Index entries are output positions 0..k-2 or the marker "l" for the
    contracted slot.  For each order-preserving selection S of a output
    indices the contracted index is inserted at position p_a within S; the
    complement feeds the second factor.  a = 0 gives θ^i_l ∧ θ^l_{all};
    a = k-1 pairs the top component with θ⁰.
    """
    return list(_wedge_terms(t))


@functools.lru_cache(maxsize=None)
def _wedge_terms(t: TorsionType) -> tuple:
    """The terms of `torsion_wedge_terms`, built once per torsion type."""
    k = t.k
    terms = []
    for a in range(k):
        p_a = 1 if a == 0 else t.p[a - 1]
        for S in itertools.combinations(range(k - 1), a):
            first = S[: p_a - 1] + ("l",) + S[p_a - 1:]
            second = tuple(q for q in range(k - 1) if q not in S)
            terms.append((first, second))
    return tuple(terms)


@functools.lru_cache(maxsize=None)
def _wedge_plan(k: int, terms: tuple) -> tuple:
    """How each wedge term of order k becomes a matmul over its contracted index l.

    A term (first, second) multiplies θ^{a+1}, axes (i, first…, A), with
    θ^{k−1−a}, axes (l, second…, B), summed over l.  The first factor is
    permuted to (i, its output indices…, A, l) and the second to (its
    output indices…, l, B); an index tuple then inserts unit axes (None) at
    the output positions each lacks, so both broadcast over (i, j_0…j_{k−2})
    and their matmul is the term on (A, B).  Per term: (a + 1, permutation,
    index, k − 1 − a, permutation, index).
    """
    plan, all_ = [], slice(None)
    for first, second in terms:
        a = len(first) - 1
        kept = tuple(1 + p for p, q in enumerate(first) if q != "l")
        perm1 = (0,) + kept + (a + 2, 1 + first.index("l"))
        perm2 = tuple(range(1, k - a)) + (0, k - a)
        units1 = (all_,) + tuple(all_ if q in first else None for q in range(k - 1)) + (all_,) * 2
        units2 = (None,) + tuple(all_ if q in second else None for q in range(k - 1)) + (all_,) * 2
        plan.append((a + 1, perm1, units1, k - 1 - a, perm2, units2))
    return tuple(plan)


# bytes of table planes written and transposed at a time: well inside an L2 cache
_CACHE_BYTES = 1 << 20


# --------------------------------------------------------------------------
# constant derivative of the translation matrix


# the one cache of L_u's table, kept by `bundle`; perfbench reads and clears it here
_DL_CACHE = bundle._DL_CACHE


def translation_matrix_derivative(n: int, r: int) -> tuple:
    """∂L/∂(coordinate A) as coordinate triplets (A, j, k, value), sorted by A.

    ∂_A L[j, k] is the value of the triplet (A, j, k) and zero where there is
    none, so L = Σ_A u_A ∂_A L.  L is linear in the frame, so these are the
    entries of `bundle._translation_table`, kept in `_DL_CACHE`, that
    `translation_matrix` scatters the frame over.  They have no triplet on
    the base coordinates: L does not depend on the base point.  At
    (n, r) = (3, 4) its 2142 triplets stand for a dense (363, 120, 120) stack.
    """
    return bundle._translation_table(n, r)


class FrameCalculus:
    """All canonical-form data at one frame, on coordinate vector fields.

    Layout: natural coordinates are ordered (h, u[1], …, u[r]) flattened
    row-major (M of them); canonical-form components are ordered by
    component order 0..r-1 (N rows).  θ vanishes on the top-order
    coordinates (columns N..M-1), so every θ⊗θ product lives on the (N, N)
    block of coordinate pairs and ∂θ on the columns below N.

    ∂θ comes from one sweep, `_sweep`, over the coordinate segments of
    `translation_matrix_derivative`.  Each top-order coordinate A ≥ N has
    one triplet (j, k, 1) with k < n, so its ∂θ is the rank-one product
    −L⁻¹[:, j] ⊗ L⁻¹[k, :]: a one-hot factor (`_top_factor`) times the
    first n rows of L⁻¹.  Only the coordinates below N get a stored ∂θ:
    the rows of orders 0..r−2, all that torsion and curvature tables read,
    are kept in one read-only (R, N, N) block, filled by the sweep of
    `partials` when that is asked for, or else by one sweep on the first
    table that needs ∂θ.

    Tables: `dtheta_component`, `torsion_table`, `curvature_table` and
    `base_torsion_table` all come from one writer, `_table`, which fills
    its fresh (R, M, M) output once, region by region: the (N, N) block
    from the (R, N, N) block of ∂θ of its rows (`_partial_rows`) and the
    wedge sum, one batched matmul; the top-order regions from the factor.
    """

    def __init__(self, u: FrameCoords):
        self.u = u
        self.n, self.r = u.n, u.r
        self.N = algebra_size(self.n, self.r)
        self.M = coord_size(self.n, self.r)
        self.iso = u.iso
        self._Linv = self.iso.inverse
        # θ on coordinate fields: the top-order coordinate block projects to 0
        self.theta_table = np.zeros((self.N, self.M))
        self.theta_table[:, : self.N] = self._Linv
        self._offsets = flat_offsets(self.n, self.r)
        self._partials = None
        # the kept ∂θ of rows of orders 0..r-2 on pairs below N, and how many rows
        self._block = None
        self._kept_rows = int(self._offsets[self.r - 1])

    # -- component views ---------------------------------------------------

    def component_rows(self, k: int) -> slice:
        return slice(int(self._offsets[k]), int(self._offsets[k + 1]))

    def theta_component(self, k: int) -> np.ndarray:
        """θ^k on coordinate fields, shape (n,)*(k+1) + (M,)."""
        view = self.theta_table[self.component_rows(k)]
        return view.reshape((self.n,) * (k + 1) + (self.M,))

    # -- values ------------------------------------------------------------

    @property
    def partials(self) -> np.ndarray:
        """G[c, A, B] = ∂_A θ_B[c], exact; shape (N, M, M), read-only.

        A view of a zeroed buffer laid out (B, A, c).  The sweep writes only
        its columns B < N, so the zero columns B ≥ N form one contiguous tail
        that is never touched and stays unbacked: 8·N·M·N resident bytes of
        the 8·N·M² it spans (40 of 121 MiB at n = 3, r = 4).  The same sweep
        fills the kept block of the lower orders that the tables read.
        """
        if self._partials is None:
            full = np.zeros((self.M, self.M, self.N))
            self._block = self._sweep(slice(None), self._kept_rows, full[: self.N])
            full.setflags(write=False)
            self._partials = full.transpose(2, 1, 0)
        return self._partials

    def _partial_rows(self, rows: slice) -> np.ndarray:
        """The block [:, :N, :N] of the given rows of `partials`: (R, N, N).

        Read-only.  Rows of orders below r − 1 are a view of the kept block,
        which a calc without kept partials fills in one sweep on first use;
        rows of the top order are a view of the kept partials, or computed
        for just those rows.  The top-order coordinates are `_top_factor`'s.
        """
        if rows.stop <= self._kept_rows:
            if self._block is None:
                self._block = self._sweep(slice(0, self._kept_rows), self._kept_rows)
            return self._block[rows]
        if self._partials is not None:
            return self._partials[rows, : self.N, : self.N]
        return self._sweep(rows, rows.stop - rows.start)

    def _top_factor(self, rows: slice) -> np.ndarray:
        """E (R, M−N, n) with ∂_A θ_B = E[:, A−N] @ L⁻¹[:n, B] for A ≥ N.

        A top-order coordinate A has one triplet (A, j, k, value) with k < n,
        the last M − N triplets in order, so E[:, A−N] is one-hot in k:
        −L⁻¹[rows, j]·value.  Every entry of E @ L⁻¹[:n] is one product.
        """
        A, j, k, value = translation_matrix_derivative(self.n, self.r)
        top = slice(len(A) - (self.M - self.N), None)
        left = -self._Linv[rows][:, j[top]] * value[top]  # (R, M−N)
        E = np.zeros(left.shape + (self.n,))
        E[:, np.arange(self.M - self.N), k[top]] = left
        return E

    def _sweep(self, rows: slice, kept: int, full: np.ndarray | None = None) -> np.ndarray:
        """∂θ of the given rows on coordinate pairs below N, one matmul per coordinate.

        ∂_A θ_B = −(L⁻¹ (∂_A L) L⁻¹)_B for B < N and 0 for the top-order B,
        so each ∂_A θ is a sum of outer products, one per triplet of ∂_A L.
        Returns the first `kept` rows as a read-only (kept, N, N) array,
        axes (c, A, B).  `full`, if given, is the (N, M, N) head of the
        `partials` buffer, axes (B, A, c), and gets every row: coordinates
        A < N from the same matmuls, the top-order slab A ≥ N from one
        matmul of L⁻¹[:n]ᵀ with `_top_factor`, inner size n.
        """
        A, j, k, value = translation_matrix_derivative(self.n, self.r)
        n, N = self.n, self.N
        low = np.searchsorted(A, N)  # the triplets of coordinates below N
        left = -self._Linv[rows][:, j[:low]] * value[:low]  # (R, nnz)
        right = self._Linv[k[:low]]  # (nnz, N)
        out = np.zeros((kept, N, N))
        bounds = np.searchsorted(A[:low], np.arange(N + 1))
        for a in range(N):
            s, e = bounds[a], bounds[a + 1]
            if s < e:
                block = left[:, s:e] @ right[s:e]
                out[:, a] = block[:kept]
                if full is not None:
                    full[:, a] = block.T
        if full is not None:
            Z = self._top_factor(rows).transpose(2, 1, 0).reshape(n, -1)  # (k, (A, c))
            # a view, since full is contiguous: rows B, columns (A ≥ N, c)
            np.matmul(self._Linv[:n].T, Z, out=full.reshape(N, -1)[:, N * N:])
        out.setflags(write=False)
        return out

    def dtheta_component(self, k: int) -> np.ndarray:
        """dθ^k on coordinate pairs: (n,)*(k+1) + (M, M), antisymmetric in (A, B)."""
        return self._table(k, (), self.M)

    # -- torsion and curvature ---------------------------------------------

    def _wedge_factors(self, k: int, terms: tuple, width: int) -> tuple:
        """Stacked factors F1 (n^k, width, K), F2 (n^k, K, width) of the wedge sum.

        F1 @ F2 = Σ θ^{a+1} ⊗ θ^{k−1−a} over the wedge terms, on coordinates
        < width; antisymmetrising it in the last two axes gives the sum of
        the wedge products.  Each term contributes n columns of F1 and rows
        of F2, one per value of the contracted index l (see `_wedge_plan`),
        so the whole sum is one matmul with K = n·(number of terms).
        """
        n = self.n
        K = n * len(terms)
        F1 = np.empty((n,) * k + (width, K))
        F2 = np.empty((n,) * k + (K, width))
        for t, (c1, perm1, units1, c2, perm2, units2) in enumerate(_wedge_plan(k, terms)):
            cols = slice(t * n, (t + 1) * n)
            F1[..., cols] = self.theta_component(c1)[..., :width].transpose(perm1)[units1]
            F2[..., cols, :] = self.theta_component(c2)[..., :width].transpose(perm2)[units2]
        return F1.reshape(-1, width, K), F2.reshape(-1, K, width)

    def _table(self, c: int, terms: tuple, width: int) -> np.ndarray:
        """dθ^c plus the order-(c+1) wedge terms on coordinate pairs below width.

        Shape (n,)*(c+1) + (width, width), written once, by region.  With
        G = ∂θ and W the wedge sum, the (N, N) block is antisym(G + W), the
        (M−N, N) block is G = E @ L⁻¹[:n] and the (N, M−N) block is −Gᵀ =
        −L⁻¹[:n]ᵀ @ Eᵀ, from the top-order factor E (θ vanishes on the
        top-order coordinates), and the rest is zero.  With width = n (base
        pairs) dθ vanishes, since θ does not depend on the base point, and no
        partials are needed.  The component axis is taken in slices whose
        (width, width) planes stay in cache from the matmul to the transposes.
        """
        n, N = self.n, self.N
        rows = self.component_rows(c)
        inner = min(width, N)
        F1, F2 = self._wedge_factors(c + 1, terms, inner) if terms else (None, None)
        if width > n:
            G, E, Linv = self._partial_rows(rows), self._top_factor(rows), self._Linv[:n]
        else:
            G = None
        out = np.empty((n ** (c + 1), width, width))
        step = max(1, _CACHE_BYTES // out[0].nbytes)
        for s in range(0, len(out), step):
            part = slice(s, s + step)
            o = out[part]
            if F1 is None:
                H = G[part]
            else:
                H = np.matmul(F1[part], F2[part])
                if G is not None:
                    H += G[part]
            np.subtract(H, H.transpose(0, 2, 1), out=o[:, :inner, :inner])
            if G is not None:
                np.matmul(E[part], Linv, out=o[:, N:, :N])
                np.matmul(-Linv.T, E[part].transpose(0, 2, 1), out=o[:, :N, N:])
                o[:, N:, N:] = 0.0
        return out.reshape((n,) * (c + 1) + (width, width))

    def _check_torsion_order(self, k: int) -> None:
        if k > self.r - 1:
            raise ShapeMismatchError(f"torsion order {k} needs frame order > {k}")

    def base_torsion_table(self, t: TorsionType) -> np.ndarray:
        """Θ^{k,t} on base-coordinate pairs only: shape (n,)*k + (n, n).

        The canonical-form coefficients do not depend on the base point, so
        dθ contributes nothing on base pairs; only the wedge terms survive.
        This avoids the partial derivatives altogether and is the fast path
        behind the realizability criterion.
        """
        self._check_torsion_order(t.k)
        return self._table(t.k - 1, _wedge_terms(t), self.n)

    def torsion_table(self, t: TorsionType) -> np.ndarray:
        """Θ^{k,t} on all coordinate pairs: shape (n,)*k + (M, M)."""
        self._check_torsion_order(t.k)
        return self._table(t.k - 1, _wedge_terms(t), self.M)

    def max_torsion(self) -> tuple[float, dict]:
        """Largest torsion entry on base pairs over all orders and insertion types.

        The forms are evaluated on pairs of base-coordinate fields only (the
        realizability criterion).  That is the block where asymmetry of the
        frame tensors shows up: at a frame whose lower tensors are all
        symmetric, every torsion vanishes on base pairs and on tangents of the
        symmetric subbundle, but insertion types other than "always last" pick
        up nonzero values on asymmetric tangent *directions* even there, so the
        full coordinate table is not the right vanishing test.
        """
        worst, witness = 0.0, {}
        for k in range(1, self.r):
            for t in enumerate_torsion_types(k):
                table = self.base_torsion_table(t)
                mag = float(np.max(np.abs(table)))
                if mag > worst:
                    worst = mag
                    witness = {"order": k, "type": list(t.p), "magnitude": mag}
        return worst, witness

    def curvature_table(self) -> np.ndarray:
        """Ω = dθ¹ + θ¹∧θ¹ on coordinate pairs: shape (n, n, M, M)."""
        if self.r < 2:
            raise ShapeMismatchError("curvature needs frame order >= 2")
        # θ¹∧θ¹ is the first wedge term of every order-2 torsion
        return self._table(1, ((("l",), (0,)),), self.M)


# --------------------------------------------------------------------------
# functional wrappers


def canonical_form(u: FrameCoords, X: BundleTangent) -> JetAlgebraElement:
    return u.iso.solve(X)


def _pair_value(table: np.ndarray, X: BundleTangent, Y: BundleTangent) -> np.ndarray:
    return np.tensordot(np.tensordot(table, Y.flat(), axes=([-1], [0])),
                        X.flat(), axes=([-1], [0]))


def torsion(u: FrameCoords, t: TorsionType, X: BundleTangent, Y: BundleTangent):
    """Torsion of order t.k and type t.p evaluated on a pair of tangents."""
    calc = FrameCalculus(u)
    return _pair_value(calc.torsion_table(t), X, Y)


def curvature(u: FrameCoords, X: BundleTangent, Y: BundleTangent) -> np.ndarray:
    return _pair_value(FrameCalculus(u).curvature_table(), X, Y)


def classical_tangent_projection(X: BundleTangent) -> BundleTangent:
    """Project a tangent onto the tangent space of the symmetric subbundle."""
    arrays = [X.arrays[0]] + [symmetrize_array(a) for a in X.arrays[1:]]
    return BundleTangent.from_arrays(X.d_base, arrays)


def structural_residual(
    u: FrameCoords, k: int, X: BundleTangent, Y: BundleTangent, t: TorsionType | None = None
):
    """Structure-equation residual on a classical frame (any insertion type).

    The structure equations live on the symmetric subbundle, so the tangents
    are projected onto it before evaluating the torsion two-form.
    """
    ok, witness = is_classical_frame(u)
    if not ok:
        raise ShapeMismatchError(f"frame is not classical: {witness}")
    if t is None:
        t = TorsionType(k, (1,) * (k - 1))
    if t.k != k:
        raise ShapeMismatchError("insertion type order disagrees with k")
    return torsion(u, t, classical_tangent_projection(X), classical_tangent_projection(Y))


def is_classical_frame(u: FrameCoords, tol: float = 1e-8):
    """True iff all frame tensors are symmetric; witness as in `is_classical`."""
    worst = asymmetry_witness(u.arrays)
    return worst["gap"] <= tol, worst


def realizability_check(u: FrameCoords, tol: float = 1e-8) -> dict:
    """Torsion criterion vs symmetry criterion; they must agree.

    Returns {"realizable", "max_torsion", "max_asymmetry", "witness"}; a
    disagreement raises RealizabilityDisagreement instead of guessing.
    """
    calc = FrameCalculus(u)
    max_tor, tor_witness = calc.max_torsion()
    sym_ok, sym_witness = is_classical_frame(u, tol)
    tor_ok = max_tor <= tol
    if tor_ok != sym_ok:
        raise RealizabilityDisagreement(
            f"torsion criterion ({max_tor:.3g}) and symmetry criterion "
            f"({sym_witness['gap']:.3g}) disagree at tol {tol:.3g}"
        )
    return {
        "realizable": bool(tor_ok),
        "max_torsion": max_tor,
        "max_asymmetry": float(sym_witness["gap"]),
        "witness": {"torsion": tor_witness, "asymmetry": sym_witness},
    }


def schwarzian(jet3) -> float:
    """S(f) = f‴/f′ − 1.5 (f″/f′)² for a 1-dimensional 3-jet (f′, f″, f‴)."""
    f1, f2, f3 = (float(np.asarray(v).reshape(())) for v in jet3)
    if f1 == 0.0:
        raise SingularityError("Schwarzian needs a nonvanishing first derivative")
    return f3 / f1 - 1.5 * (f2 / f1) ** 2


def schwarzian_frame(u: FrameCoords) -> float:
    """Frame-coordinate variant: v·u₁₁₁ − 1.5 (v·u₁₁)², v = 1/u₁."""
    if u.n != 1 or u.r < 3:
        raise ShapeMismatchError("frame Schwarzian needs n=1, r>=3")
    u1 = float(u.arrays[0].reshape(()))
    u11 = float(u.arrays[1].reshape(()))
    u111 = float(u.arrays[2].reshape(()))
    if u1 == 0.0:
        raise SingularityError("singular frame")
    v = 1.0 / u1
    return v * u111 - 1.5 * (v * u11) ** 2
