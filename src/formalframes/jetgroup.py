"""Groups of formal frames at the origin: product, inverse, adjoint.

Elements carry tensors ``a[1..r]`` (``a[k]`` of lower order ``k``) with
``a[1]`` invertible and *no* symmetry imposed for ``k >= 2``.  The product
is generated by a formal-differentiation recursion on symbolic terms, which
one evaluator, `_order_k`, sums for the product, its right derivative, the
inverse and the adjoint; the order-2 and order-3 closed formulas are kept
in the test suite as pinned cross-checks.  Terms are grouped by the ordered
sizes of their blocks (Hardy, "Combinatorics of partial derivatives", EJC
13, 2006): each of the 2^(k-1) compositions of k is contracted once, and
its terms add transposes of that one contraction in term order, so an
order-k product makes 2^(k-1) einsum calls instead of Bell(k) (32 instead
of 203 at k = 6), and its right derivative (k+1)·2^(k-2) (112 instead of
674).  The symmetric (classical) subgroup is composed through the same
product, as κ∘product∘ε; the truncated-Taylor route lives only in
`oracles`, which checks it.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import field

import numpy as np

from .tensors import (
    AsymmetryError,
    LowerTensor,
    ShapeMismatchError,
    asymmetry_witness,
    check_square,
    record,
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


@functools.lru_cache(maxsize=None)
def _subscripts(term) -> str:
    k, m = sum(len(block) for block in term), len(term)
    out, con, up = _LETTERS[:k], _LETTERS[k:k + m], _LETTERS[k + m]
    subs = [up + con] + [con[t] + "".join(out[p] for p in block) for t, block in enumerate(term)]
    return ",".join(subs) + "->" + up + out


def eval_term(a_arr: np.ndarray, factor_arrs, term) -> np.ndarray:
    """Contract the left tensor against one array per block of `term`."""
    return np.einsum(_subscripts(term), a_arr, *factor_arrs)


@functools.lru_cache(maxsize=None)
def _plan(k: int):
    """The order-k terms grouped by composition: (canonical terms, members).

    Terms whose blocks have the same sizes in the same order contract the
    same operands, and differ only in which output axes each block feeds.
    For each of the 2^(k-1) compositions of k the plan keeps its canonical
    term, whose blocks are consecutive; `members` lists every term in
    `product_terms` order as (composition index, axes), where
    ``transpose(axes)`` of the canonical contraction gives that term's.
    """
    canonical, index, members = [], {}, []
    for term in product_terms(k):
        sizes = tuple(len(block) for block in term)
        if sizes not in index:
            index[sizes] = len(canonical)
            lower = iter(range(k))
            canonical.append(tuple(tuple(itertools.islice(lower, size)) for size in sizes))
        position = [0] * k  # the canonical output axis of each lower index
        for block, canon_block in zip(term, canonical[index[sizes]]):
            for p, q in zip(block, canon_block):
                position[p] = q
        members.append((index[sizes], (0,) + tuple(1 + q for q in position)))
    return tuple(canonical), tuple(members)


def _order_k(a_arrays, b_arrays, k: int, db_arrays=None) -> np.ndarray:
    """Order-k component of a·b, or with `db_arrays` its derivative in b along db.

    Each composition of k is contracted once per derivative slot, and every
    term adds the transpose of its composition's contractions, in
    `product_terms` order, so the sum is the per-term sum bit for bit.  The
    derivative sums each term once per block, with that block's factor
    replaced by db.  A composition with an all-zero factor array is skipped,
    so at b = identity only terms whose other blocks are singletons remain,
    and a zero b[k] drops the a[1]·b[k] term.
    """
    b_zero = [not arr.any() for arr in b_arrays[:k]]
    db_zero = [] if db_arrays is None else [not arr.any() for arr in db_arrays[:k]]
    canonical, members = _plan(k)
    values = []
    for term in canonical:
        orders = [len(block) - 1 for block in term]
        zero = [t for t, o in enumerate(orders) if b_zero[o]]
        if db_arrays is None:
            slots = () if zero else (None,)
        elif len(zero) == 1:  # only db in that block can make the term nonzero
            slots = zero
        else:
            slots = () if zero else range(len(term))
        contractions = []
        for t in slots:
            if t is not None and db_zero[orders[t]]:
                continue
            factors = [(db_arrays if s == t else b_arrays)[o] for s, o in enumerate(orders)]
            contractions.append(eval_term(a_arrays[len(term) - 1], factors, term))
        values.append(contractions)
    acc = None
    for c, axes in members:
        for val in values[c]:
            val = val.transpose(axes)
            acc = val if acc is None else acc + val
    if acc is None:  # every term had a zero factor; adding 0·a keeps Fractions Fraction
        like = b_arrays[:1] if db_arrays is None else [b_arrays[0], db_arrays[0]]
        zeros = np.zeros((len(a_arrays[0]),) * (k + 1), np.result_type(a_arrays[0], *like))
        return zeros + 0 * a_arrays[0].flat[0]
    return acc


def compose_tensors(a_arrays, b_arrays, r: int | None = None):
    """Tensor part of the product: raw multilinear evaluation, orders 1..r."""
    if r is None:
        r = len(a_arrays)
    return [_order_k(a_arrays, b_arrays, k) for k in range(1, r + 1)]


def compose_right_derivative(a_arrays, b_arrays, db_arrays, r: int | None = None):
    """Directional derivative of compose_tensors in its right argument."""
    if r is None:
        r = len(a_arrays)
    return [_order_k(a_arrays, b_arrays, k, db_arrays) for k in range(1, r + 1)]


def identity_arrays(n: int, r: int, *like) -> list:
    """Tensors 1..r of the identity jet, in the result type of float and `like`."""
    dtype = np.result_type(float, *like)
    return [np.eye(n, dtype=dtype)] + [np.zeros((n,) * (k + 1), dtype) for k in range(2, r + 1)]


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


def _flatten(arrays) -> np.ndarray:
    """One flat vector of consecutive orders in that layout: the inverse of `unflatten`."""
    return np.concatenate([np.ravel(arr) for arr in arrays])


def _graded(arrays, first: int = 1, n: int | None = None) -> tuple:
    """LowerTensors of orders first, first+1, … of `arrays`; n is the first's unless given."""
    arrays = [np.asarray(arr, dtype=float) for arr in arrays]
    if n is None:
        if not arrays:
            raise ShapeMismatchError("need at least one tensor")
        n = arrays[0].shape[0]
    return tuple(LowerTensor(n, k, arr) for k, arr in enumerate(arrays, start=first))


def _validate_tensor_list(n, r, tensors, what, first: int = 1):
    """The r ≥ 1 LowerTensors of dimension n and orders first, …, first+r−1, as a tuple."""
    tensors = tuple(tensors)
    if r < 1:
        raise ShapeMismatchError(f"{what}: order {r}, expected at least 1")
    if len(tensors) != r:
        raise ShapeMismatchError(f"{what}: need {r} tensors, got {len(tensors)}")
    for k, T in enumerate(tensors, start=first):
        if not isinstance(T, LowerTensor):
            raise ShapeMismatchError(f"{what}: entry {k} is not a LowerTensor")
        if T.n != n or T.k != k:
            raise ShapeMismatchError(
                f"{what}: tensor {k} has (n={T.n}, k={T.k}), expected (n={n}, k={k})"
            )
    return tensors


@record
class JetGroupElement:
    """A formal frame at the origin: tensors a[1..r], a[1] invertible."""

    n: int
    r: int
    a: tuple = field(default=())

    def __post_init__(self):
        tensors = _validate_tensor_list(self.n, self.r, self.a, "JetGroupElement")
        check_square(tensors[0].entries, "order-1 tensor")
        return {"a": tensors}

    @classmethod
    def from_arrays(cls, arrays) -> "JetGroupElement":
        tensors = _graded(arrays)
        return cls(tensors[0].n, len(tensors), tensors)

    @property
    def arrays(self):
        return [T.entries for T in self.a]

    def to_json(self) -> dict:
        return {"n": self.n, "r": self.r, "tensors": [T.to_json() for T in self.a]}

    @classmethod
    def from_json(cls, data: dict) -> "JetGroupElement":
        tensors = tuple(LowerTensor.from_json(t) for t in data["tensors"])
        return cls(int(data["n"]), int(data["r"]), tensors)


@record
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
        return {"X": _validate_tensor_list(self.n, self.r, self.X, "JetAlgebraElement", first=0)}

    @classmethod
    def from_arrays(cls, arrays) -> "JetAlgebraElement":
        comps = _graded(arrays, first=0)
        return cls(comps[0].n, len(comps), comps)

    @property
    def arrays(self):
        return [T.entries for T in self.X]

    def flat(self) -> np.ndarray:
        return _flatten(T.entries for T in self.X)

    @classmethod
    def from_flat(cls, n: int, r: int, vec) -> "JetAlgebraElement":
        return cls.from_arrays(unflatten(n, r, vec))

    def to_json(self) -> dict:
        return {"n": self.n, "r": self.r, "tensors": [T.to_json() for T in self.X]}


@record(arrays=("base",))
class ClassicalJet:
    """Jet with permutation-symmetric derivative tensors s[1..r].

    ``tol`` bounds the asymmetry it accepts; it is not part of the value.
    """

    n: int
    r: int
    s: tuple = field(default=())
    base: np.ndarray | None = None
    tol: float = field(default=1e-8, compare=False)

    def __post_init__(self):
        tensors = _validate_tensor_list(self.n, self.r, self.s, "ClassicalJet")
        check_square(tensors[0].entries, "order-1 tensor")
        worst = asymmetry_witness(T.entries for T in tensors)
        if worst["gap"] > self.tol:
            raise AsymmetryError(
                f"order-{worst['order']} tensor asymmetric "
                f"(gap {worst['gap']:.3g} > {self.tol:.3g})"
            )
        base = self.base
        if base is not None:
            base = np.asarray(base, dtype=float).reshape(self.n)
        return {"s": tensors, "base": base}

    @classmethod
    def from_arrays(cls, arrays, base=None, tol: float = 1e-8) -> "ClassicalJet":
        tensors = _graded(arrays)
        return cls(tensors[0].n, len(tensors), tensors, base, tol)

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
    return JetGroupElement.from_arrays(identity_arrays(n, r))


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

    The only order-k term containing b[k] is a[1]·b[k], so with b[k] = 0 the
    order-k product holds everything else: b[k] = −(a[1])⁻¹ · that.
    """
    arrs = a.arrays
    inv1 = np.linalg.inv(arrs[0])
    b = [inv1]
    for k in range(2, a.r + 1):
        rest = _order_k(arrs, b + [np.zeros((a.n,) * (k + 1))], k)
        b.append(-np.einsum("ia,a...->i...", inv1, rest))
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
    expansion of the product through both factors.  The base displacement
    y0 feeds order k through a⁻¹[k+1]·y0, the tensors through the right
    derivative at the identity.
    """
    if X.n != a.n or X.r != a.r:
        raise ShapeMismatchError("adjoint: algebra element has mismatched shape")
    ainv = jet_inverse(a).arrays
    y0, *y = X.arrays
    d_base = ainv[0] @ y0
    if a.r == 1:
        return JetAlgebraElement.from_arrays([d_base])
    moved = compose_right_derivative(ainv, identity_arrays(a.n, a.r - 1), y, a.r - 1)
    d_tensors = [
        np.tensordot(ainv[k], y0, axes=([-1], [0])) + m
        for k, m in enumerate(moved, start=1)
    ]
    pushed = compose_tensors(d_tensors, a.arrays[: a.r - 1])
    return JetAlgebraElement.from_arrays([d_base] + pushed)


def classical_compose(c1: ClassicalJet, c2: ClassicalJet) -> ClassicalJet:
    """Composition of symmetric jets: κ∘(formal product)∘ε.

    The classical jets form a subgroup of the formal ones, and κ removes the
    rounding-level asymmetry the formal product leaves behind.
    """
    return kappa_project(jet_compose(epsilon_embed(c1), epsilon_embed(c2)))
