"""Groups of formal frames at the origin: product, inverse, adjoint.

Elements carry tensors ``a[1..r]`` (``a[k]`` of lower order ``k``) with
``a[1]`` invertible and *no* symmetry imposed for ``k >= 2``.  The product
is generated by a formal-differentiation recursion on symbolic terms; the
order-2 and order-3 closed formulas are kept in the test suite as pinned
cross-checks.  The symmetric (classical) subgroup is composed through the
same product, as κ∘product∘ε; the truncated-Taylor route lives only in
`oracles`, which checks it.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .tensors import (
    AsymmetryError,
    LowerTensor,
    ShapeMismatchError,
    _reduce_by_fields,
    asymmetry_witness,
    check_square,
    symmetrize_array,
)

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


@functools.lru_cache(maxsize=None)
def product_terms(k: int):
    """Symbolic terms of the order-k product component.

    A term is a tuple of "blocks"; block t lists the output lower-index
    positions fed by the t-th right-hand factor, while the left-hand tensor
    has one contracted slot per block.  Passing from order k-1 to order k
    appends the new index either as a fresh singleton block (differentiating
    the left tensor) or at the end of an existing block (differentiating
    that factor).  The terms are exactly the set partitions of the index
    positions with blocks ordered by minimum.
    """
    if k < 1:
        raise ValueError("order must be >= 1")
    if k == 1:
        return (((0,),),)
    out = []
    for term in product_terms(k - 1):
        out.append(term + ((k - 1,),))
        for t in range(len(term)):
            out.append(term[:t] + (term[t] + (k - 1,),) + term[t + 1:])
    return tuple(out)


def eval_term(a_arr: np.ndarray, factor_arrs, term) -> np.ndarray:
    """Contract the left tensor against one array per block of `term`."""
    k = sum(len(block) for block in term)
    m = len(term)
    out_letters = [_LETTERS[i] for i in range(k)]
    con_letters = [_LETTERS[k + i] for i in range(m)]
    up = _LETTERS[k + m]
    a_sub = up + "".join(con_letters)
    subs = [a_sub]
    operands = [a_arr]
    for t, block in enumerate(term):
        subs.append(con_letters[t] + "".join(out_letters[p] for p in block))
        operands.append(factor_arrs[t])
    spec = ",".join(subs) + "->" + up + "".join(out_letters)
    return np.einsum(spec, *operands)


def compose_tensors(a_arrays, b_arrays, r: int | None = None):
    """Tensor part of the product: raw multilinear evaluation, orders 1..r."""
    if r is None:
        r = len(a_arrays)
    out = []
    for k in range(1, r + 1):
        acc = None
        for term in product_terms(k):
            factors = [b_arrays[len(block) - 1] for block in term]
            val = eval_term(a_arrays[len(term) - 1], factors, term)
            acc = val if acc is None else acc + val
        out.append(acc)
    return out


def compose_right_derivative(a_arrays, b_arrays, db_arrays, r: int | None = None):
    """Directional derivative of compose_tensors in its right argument."""
    if r is None:
        r = len(a_arrays)
    out = []
    for k in range(1, r + 1):
        acc = None
        for term in product_terms(k):
            for t in range(len(term)):
                factors = [
                    (db_arrays if s == t else b_arrays)[len(block) - 1]
                    for s, block in enumerate(term)
                ]
                val = eval_term(a_arrays[len(term) - 1], factors, term)
                acc = val if acc is None else acc + val
        out.append(acc)
    return out


def group_translation_apply(u_arrays, y_arrays, k: int) -> np.ndarray:
    """Order-k component of the derivative at the identity of g ↦ u·g.

    Only terms whose blocks are all singletons except (at most) the
    perturbed one survive at g = identity, since identity tensors vanish
    for orders >= 2.
    """
    n = u_arrays[0].shape[0]
    eye = np.eye(n, dtype=np.result_type(u_arrays[0], y_arrays[0]))
    acc = None
    for term in product_terms(k):
        big = [t for t, block in enumerate(term) if len(block) > 1]
        if len(big) > 1:
            continue
        slots = big if big else range(len(term))
        for p in slots:
            factors = [
                y_arrays[len(block) - 1] if t == p else eye
                for t, block in enumerate(term)
            ]
            val = eval_term(u_arrays[len(term) - 1], factors, term)
            acc = val if acc is None else acc + val
    return acc


def frame_translation_apply(u_arrays, y0, y_arrays, k_max: int):
    """Right-translation derivative including base displacement.

    Returns (δbase, [δ-tensor of order k for k = 1..k_max]); the base
    displacement feeds each order-k slot through the order-(k+1) tensor.
    """
    y0 = np.asarray(y0, dtype=float)
    d_base = u_arrays[0] @ y0
    d_tensors = []
    for k in range(1, k_max + 1):
        val = np.tensordot(u_arrays[k], y0, axes=([-1], [0]))
        val = val + group_translation_apply(u_arrays, y_arrays, k)
        d_tensors.append(val)
    return d_base, d_tensors


# ---------------------------------------------------------------------------
# the flat layout: orders 0..r-1 one after another, each row-major


@functools.lru_cache(maxsize=None)
def flat_offsets(n: int, r: int) -> np.ndarray:
    """Read-only start of each order 0..r-1 in a flat vector, then its length.

    An order-r frame or tangent (base, tensors 1..r) has the order-(r+1) layout.
    """
    offsets = np.cumsum([0] + [n ** (k + 1) for k in range(r)])
    offsets.setflags(write=False)
    return offsets


def unflatten(n: int, r: int, vec) -> list:
    """The arrays of orders 0..r-1 of a flat vector in that layout."""
    vec = np.asarray(vec, dtype=float)
    offsets = flat_offsets(n, r)
    if vec.shape != (offsets[-1],):
        raise ShapeMismatchError(f"flat vector has shape {vec.shape}, expected ({offsets[-1]},)")
    return [vec[offsets[k]:offsets[k + 1]].reshape((n,) * (k + 1)) for k in range(r)]


def _validate_tensor_list(n, r, tensors, what):
    tensors = tuple(tensors)
    if len(tensors) != r:
        raise ShapeMismatchError(f"{what}: need {r} tensors, got {len(tensors)}")
    for k, T in enumerate(tensors, start=1):
        if not isinstance(T, LowerTensor):
            raise ShapeMismatchError(f"{what}: entry {k} is not a LowerTensor")
        if T.n != n or T.k != k:
            raise ShapeMismatchError(
                f"{what}: tensor {k} has (n={T.n}, k={T.k}), expected (n={n}, k={k})"
            )
    return tensors


@dataclass(frozen=True)
class JetGroupElement:
    """A formal frame at the origin: tensors a[1..r], a[1] invertible."""

    n: int
    r: int
    a: tuple = field(default=())

    def __post_init__(self):
        tensors = _validate_tensor_list(self.n, self.r, self.a, "JetGroupElement")
        check_square(tensors[0].entries, "order-1 tensor")
        object.__setattr__(self, "a", tensors)

    @classmethod
    def from_arrays(cls, arrays) -> "JetGroupElement":
        arrays = [np.asarray(arr, dtype=float) for arr in arrays]
        n = arrays[0].shape[0]
        tensors = [LowerTensor(n, k, arr) for k, arr in enumerate(arrays, start=1)]
        return cls(n, len(arrays), tuple(tensors))

    @property
    def arrays(self):
        return [T.entries for T in self.a]

    def to_json(self) -> dict:
        return {"n": self.n, "r": self.r, "tensors": [T.to_json() for T in self.a]}

    @classmethod
    def from_json(cls, data: dict) -> "JetGroupElement":
        tensors = tuple(LowerTensor.from_json(t) for t in data["tensors"])
        return cls(int(data["n"]), int(data["r"]), tensors)


@dataclass(frozen=True)
class JetAlgebraElement:
    """Tangent vector at the identity, base displacement included.

    Components X[0..r-1]: X[0] is an n-vector (base direction), X[k] has
    lower order k.  This is the value space of the canonical form of the
    matching order.
    """

    n: int
    r: int
    X: tuple = field(default=())

    def __post_init__(self):
        comps = tuple(self.X)
        if len(comps) != self.r:
            raise ShapeMismatchError(
                f"JetAlgebraElement: need {self.r} components, got {len(comps)}"
            )
        for k, T in enumerate(comps):
            if not isinstance(T, LowerTensor) or T.n != self.n or T.k != k:
                raise ShapeMismatchError(
                    f"JetAlgebraElement: component {k} has wrong shape"
                )
        object.__setattr__(self, "X", comps)

    @classmethod
    def from_arrays(cls, arrays) -> "JetAlgebraElement":
        arrays = [np.asarray(arr, dtype=float) for arr in arrays]
        n = arrays[0].shape[0]
        comps = [LowerTensor(n, k, arr) for k, arr in enumerate(arrays)]
        return cls(n, len(arrays), tuple(comps))

    @property
    def arrays(self):
        return [T.entries for T in self.X]

    def flat(self) -> np.ndarray:
        return np.concatenate([T.entries.ravel() for T in self.X])

    @classmethod
    def from_flat(cls, n: int, r: int, vec) -> "JetAlgebraElement":
        return cls.from_arrays(unflatten(n, r, vec))

    def to_json(self) -> dict:
        return {"n": self.n, "r": self.r, "tensors": [T.to_json() for T in self.X]}


@dataclass(frozen=True)
class ClassicalJet:
    """Jet with permutation-symmetric derivative tensors s[1..r]."""

    n: int
    r: int
    s: tuple = field(default=())
    base: np.ndarray | None = None
    tol: float = 1e-8

    def __post_init__(self):
        tensors = _validate_tensor_list(self.n, self.r, self.s, "ClassicalJet")
        check_square(tensors[0].entries, "order-1 tensor")
        worst = asymmetry_witness(T.entries for T in tensors)
        if worst["gap"] > self.tol:
            raise AsymmetryError(
                f"order-{worst['order']} tensor asymmetric "
                f"(gap {worst['gap']:.3g} > {self.tol:.3g})"
            )
        object.__setattr__(self, "s", tensors)
        if self.base is not None:
            base = np.asarray(self.base, dtype=float).reshape(self.n).copy()
            base.setflags(write=False)
            object.__setattr__(self, "base", base)

    @classmethod
    def from_arrays(cls, arrays, base=None, tol: float = 1e-8) -> "ClassicalJet":
        arrays = [np.asarray(arr, dtype=float) for arr in arrays]
        n = arrays[0].shape[0]
        tensors = tuple(
            LowerTensor(n, k, arr) for k, arr in enumerate(arrays, start=1)
        )
        return cls(n, len(arrays), tensors, base, tol)

    def __eq__(self, other) -> bool:
        return isinstance(other, ClassicalJet) and self.to_json() == other.to_json()

    __reduce__ = _reduce_by_fields

    @property
    def arrays(self):
        return [T.entries for T in self.s]

    def to_json(self) -> dict:
        data = {"n": self.n, "r": self.r, "tensors": [T.to_json() for T in self.s]}
        if self.base is not None:
            data["base"] = self.base.tolist()
        return data

    @classmethod
    def from_json(cls, data: dict) -> "ClassicalJet":
        tensors = tuple(LowerTensor.from_json(t) for t in data["tensors"])
        return cls(int(data["n"]), int(data["r"]), tensors, data.get("base"))


# ---------------------------------------------------------------------------


def jet_identity(n: int, r: int) -> JetGroupElement:
    arrays = [np.eye(n)] + [np.zeros((n,) * (k + 1)) for k in range(2, r + 1)]
    return JetGroupElement.from_arrays(arrays)


def _check_same(a, b):
    if a.n != b.n or a.r != b.r:
        raise ShapeMismatchError(
            f"mismatched elements: (n={a.n}, r={a.r}) vs (n={b.n}, r={b.r})"
        )


def jet_compose(a: JetGroupElement, b: JetGroupElement) -> JetGroupElement:
    _check_same(a, b)
    return JetGroupElement.from_arrays(compose_tensors(a.arrays, b.arrays))


def jet_inverse(a: JetGroupElement) -> JetGroupElement:
    """Solve a·b = identity order by order.

    The only order-k term containing b[k] is a[1]·b[k]; everything else
    involves b-tensors of lower order only.
    """
    arrs = a.arrays
    n = a.n
    inv1 = np.linalg.inv(arrs[0])
    b = [inv1]
    for k in range(2, a.r + 1):
        acc = np.zeros((n,) * (k + 1))
        for term in product_terms(k):
            if len(term) == 1:  # the a[1]·b[k] term being solved for
                continue
            factors = [b[len(block) - 1] for block in term]
            acc = acc + eval_term(arrs[len(term) - 1], factors, term)
        b.append(-np.einsum("ia,a...->i...", inv1, acc))
    return JetGroupElement.from_arrays(b)


def epsilon_embed(c: ClassicalJet) -> JetGroupElement:
    """Reinterpret a symmetric jet as a formal one (identity on data)."""
    return JetGroupElement(c.n, c.r, c.s)


def kappa_project(a: JetGroupElement) -> ClassicalJet:
    """Symmetrize every tensor; a group homomorphism onto the classical jets."""
    return ClassicalJet.from_arrays([symmetrize_array(arr) for arr in a.arrays])


def is_classical(a: JetGroupElement, tol: float = 1e-8):
    """True iff all tensors of order >= 2 are symmetric; includes a witness."""
    worst = asymmetry_witness(a.arrays)
    return worst["gap"] <= tol, worst


def adjoint_action(a: JetGroupElement, X: JetAlgebraElement) -> JetAlgebraElement:
    """Derivative at the identity of g ↦ a⁻¹·g·a.

    Computed as the right-translation pushforward (by a, one order down) of
    the left-translation derivative of a⁻¹ applied to X — the exact bilinear
    expansion of the product through both factors.
    """
    if X.n != a.n or X.r != a.r:
        raise ShapeMismatchError("adjoint: algebra element has mismatched shape")
    ainv = jet_inverse(a).arrays
    y0 = X.arrays[0]
    y_tensors = X.arrays[1:]
    d_base, d_tensors = frame_translation_apply(ainv, y0, y_tensors, a.r - 1)
    if a.r == 1:
        return JetAlgebraElement.from_arrays([d_base])
    pushed = compose_tensors(d_tensors, a.arrays[: a.r - 1])
    return JetAlgebraElement.from_arrays([d_base] + pushed)


def classical_compose(c1: ClassicalJet, c2: ClassicalJet) -> ClassicalJet:
    """Composition of symmetric jets: κ∘(formal product)∘ε.

    The classical jets form a subgroup of the formal ones, and κ removes the
    rounding-level asymmetry the formal product leaves behind.
    """
    return kappa_project(jet_compose(epsilon_embed(c1), epsilon_embed(c2)))
