"""Truncated multivariate polynomial (Taylor) arithmetic.

Used as the exact-differentiation engine: transition jets, chain-rule
oracles, and derivative extraction all run through this ring.  A
:class:`TaylorScalar` is a polynomial in ``m`` variables truncated at total
degree ``order``, held as one dense float vector over the monomials of
degree <= ``order`` in :func:`multi_indices` order.  Two caches keyed by
``(m, order)`` hold that basis (with its exponent -> index map) and the
product table ``(i, j, k)`` with ``exps[i] + exps[j] = exps[k]``, so a
product is one weighted ``np.bincount`` (Neidinger, "Directions for
computing truncated multivariate Taylor series", Math. Comp. 74, 2005).
The ring shares no code with the jet-product engine in ``jetgroup``, so
the Taylor route in ``oracles`` stays an independent check of it.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import FrozenInstanceError
from typing import NamedTuple

import numpy as np

from .tensors import ShapeMismatchError


def multi_indices(m: int, order: int):
    """All exponent tuples of total degree <= order, lexicographic."""
    return sorted(
        idx
        for total in range(order + 1)
        for idx in _exponents_of_degree(m, total)
    )


def _exponents_of_degree(m, total):
    if m == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _exponents_of_degree(m - 1, total - first):
            yield (first,) + rest


def _frozen(*arrays):
    """Cached tables are shared by every caller: make them read-only."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


class _Basis(NamedTuple):
    exps: list          # exponent tuples, multi_indices(m, order) order
    index: dict         # exponent tuple -> position
    powers: np.ndarray  # (L, m) exponents
    degree: np.ndarray  # (L,) total degrees
    down: np.ndarray    # (L, m) position of exps[k] - e_i, or -1
    graded: np.ndarray  # positions by ascending degree, x_0-heaviest first within one


@functools.lru_cache(maxsize=None)
def _basis(m: int, order: int) -> _Basis:
    exps = multi_indices(m, order)
    index = {e: k for k, e in enumerate(exps)}
    powers = np.array(exps, dtype=np.intp).reshape(len(exps), m)
    down = np.full((len(exps), m), -1, dtype=np.intp)
    for k, e in enumerate(exps):
        for i in range(m):
            if e[i]:
                down[k, i] = index[e[:i] + (e[i] - 1,) + e[i + 1:]]
    degree = powers.sum(axis=1)
    graded = np.lexsort((-np.arange(len(exps)), degree))
    return _Basis(exps, index, *_frozen(powers, degree, down, graded))


@functools.lru_cache(maxsize=None)
def _product_table(m: int, order: int):
    """Positions (I, J, K) with exps[I] + exps[J] = exps[K], degree <= order."""
    basis = _basis(m, order)
    I, J = np.nonzero(basis.degree[:, None] + basis.degree[None, :] <= order)
    K = [basis.index[tuple(e)] for e in (basis.powers[I] + basis.powers[J]).tolist()]
    return _frozen(I, J, np.array(K, dtype=np.intp))


def _mul(a, b, table):
    I, J, K = table
    return np.bincount(K, weights=a[I] * b[J], minlength=len(a))


def _unit(size):
    out = np.zeros(size)
    out[0] = 1.0
    return out


class TaylorScalar:
    """Polynomial in m variables truncated at total degree `order`."""

    __slots__ = ("m", "order", "_v")

    def __init__(self, m: int, order: int, coeffs: dict | None = None):
        basis = _basis(m, order)
        v = np.zeros(len(basis.exps))
        for exp, c in (coeffs or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != m or any(e < 0 for e in exp):
                raise ShapeMismatchError(f"bad exponent {exp} for m={m}")
            k = basis.index.get(exp)
            if k is not None:
                v[k] = float(c)
        self._init(m, order, v)

    def _init(self, m, order, v):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_v", v)

    def _new(self, v, m=None, order=None) -> "TaylorScalar":
        out = object.__new__(TaylorScalar)
        out._init(self.m if m is None else m, self.order if order is None else order, v)
        return out

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (TaylorScalar, (self.m, self.order, self.coeffs))

    def __repr__(self):
        return f"TaylorScalar(m={self.m!r}, order={self.order!r}, coeffs={self.coeffs!r})"

    def __eq__(self, other):
        if not isinstance(other, TaylorScalar):
            return NotImplemented
        return (self.m, self.order) == (other.m, other.order) and np.array_equal(
            self._v, other._v
        )

    @property
    def coeffs(self) -> dict:
        """Nonzero coefficients keyed by exponent tuple."""
        exps = _basis(self.m, self.order).exps
        return {exps[k]: float(self._v[k]) for k in np.flatnonzero(self._v)}

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c: float, m: int, order: int) -> "TaylorScalar":
        return cls(m, order, {(0,) * m: float(c)})

    @classmethod
    def variable(cls, i: int, m: int, order: int) -> "TaylorScalar":
        exp = tuple(1 if j == i else 0 for j in range(m))
        return cls(m, order, {exp: 1.0})

    # -- ring operations ---------------------------------------------------

    def _check_compat(self, other: "TaylorScalar"):
        if self.m != other.m or self.order != other.order:
            raise ShapeMismatchError(
                f"truncation-order mismatch: ({self.m},{self.order}) vs "
                f"({other.m},{other.order})"
            )

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = TaylorScalar.constant(other, self.m, self.order)
        self._check_compat(other)
        return self._new(self._v + other._v)

    __radd__ = __add__

    def __neg__(self):
        return self._new(-self._v)

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = TaylorScalar.constant(other, self.m, self.order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self._new(self._v * other)
        self._check_compat(other)
        return self._new(_mul(self._v, other._v, _product_table(self.m, self.order)))

    __rmul__ = __mul__

    def pow_int(self, p: int) -> "TaylorScalar":
        table = _product_table(self.m, self.order)
        result = _unit(len(self._v))
        for _ in range(p):
            result = _mul(result, self._v, table)
        return self._new(result)

    def reciprocal(self) -> "TaylorScalar":
        """1/self; requires a nonzero constant term."""
        c0 = self.coefficient((0,) * self.m)
        if c0 == 0.0:
            raise ZeroDivisionError("reciprocal needs a nonzero constant term")
        table = _product_table(self.m, self.order)
        q = -(self._v * (1.0 / c0))
        q[0] += 1.0  # zero constant term
        acc = _unit(len(q))
        power = _unit(len(q))
        for _ in range(self.order):
            power = _mul(power, q, table)
            acc = acc + power
        return self._new(acc * (1.0 / c0))

    def derivative(self, i: int) -> "TaylorScalar":
        basis = _basis(self.m, self.order)
        src = np.flatnonzero(basis.down[:, i] >= 0)
        out = np.zeros_like(self._v)
        out[basis.down[src, i]] = self._v[src] * basis.powers[src, i]
        # formal derivative of a degree-d truncation is reliable to d-1
        return self._new(out)

    def compose(self, inner: "list[TaylorScalar]") -> "TaylorScalar":
        """Substitute inner[i] for variable i (formal, then truncate)."""
        return compose_all([self], inner)[0]

    # -- queries -----------------------------------------------------------

    def coefficient(self, exp) -> float:
        k = _basis(self.m, self.order).index.get(tuple(exp))
        return 0.0 if k is None else float(self._v[k])

    def evaluate(self, point) -> float:
        point = np.asarray(point, dtype=float)
        powers = _basis(self.m, self.order).powers
        return float(self._v @ np.prod(point ** powers, axis=1))

    def truncate(self, order: int) -> "TaylorScalar":
        """Drop terms above `order` (which may be lower or higher)."""
        if order <= self.order:
            kept = _basis(self.m, self.order).degree <= order
            return self._new(self._v[kept], order=order)
        out = np.zeros(len(_basis(self.m, order).exps))
        out[_basis(self.m, order).degree <= self.order] = self._v
        return self._new(out, order=order)

    def shift_center(self, point) -> "TaylorScalar":
        """Re-center: return self(point + t) as a series in t (exact)."""
        return shift_all([self], point)[0]


def compose_all(outer, inner) -> tuple:
    """Substitute inner[i] for variable i in every outer series (formal, then truncate).

    Each f becomes Σ_k f[k]·Π_i inner[i]^e_i over exps[k] = e, with the powers
    of inner built once for all f.  Terms are added one at a time in graded
    order, the order in which polynomial maps list their terms (constant,
    x_0, x_1, …, x_0², …), so each sum rounds as the term-by-term expansion
    of the map does; a term f lacks adds zeros, which leave its sum as it was.
    """
    m, order = outer[0].m, outer[0].order
    if len(inner) != m:
        raise ShapeMismatchError(f"need {m} inner series, got {len(inner)}")
    m_out = inner[0].m
    shapes = {(f.m, f.order) for f in outer}, {(g.m, g.order) for g in inner}
    if shapes != ({(m, order)}, {(m_out, order)}):
        raise ShapeMismatchError("truncation-order mismatch in compose")
    basis = _basis(m, order)
    table = _product_table(m_out, order)
    one = _unit(len(_basis(m_out, order).exps))
    rows = np.array([f._v for f in outer])
    terms = basis.graded[rows[:, basis.graded].any(axis=0)]
    powers = []
    for g, top in zip(inner, basis.powers[terms].max(axis=0, initial=0)):
        ps = [one]
        for _ in range(top):
            ps.append(_mul(ps[-1], g._v, table))
        powers.append(ps)
    acc = np.zeros((len(rows), len(one)))
    for k in terms:
        factors = [powers[i][e] for i, e in enumerate(basis.exps[k]) if e]
        term = rows[:, k, None] * (factors[0] if factors else one)
        for p in factors[1:]:
            term = np.array([_mul(t, p, table) for t in term])
        acc = acc + term
    return tuple(outer[0]._new(v, m=m_out) for v in acc)


def shift_all(components, point) -> tuple:
    """Re-center every component: f(point + t) as a series in t (exact)."""
    f = components[0]
    basis = _basis(f.m, f.order)
    shifted = np.zeros((f.m, len(basis.exps)))
    shifted[:, 0] = np.asarray(point, dtype=float)
    units = np.flatnonzero(basis.degree == 1)
    shifted[basis.powers[units].argmax(axis=1), units] = 1.0
    return compose_all(components, [f._new(v) for v in shifted])


@functools.lru_cache(maxsize=None)
def _tensor_gather(m: int, order: int, k: int):
    """Basis position and factorial weight of each entry D[j1..jk], k <= order."""
    index = _basis(m, order).index
    pos, weight = [], []
    for js in itertools.product(range(m), repeat=k):
        exp = tuple(js.count(i) for i in range(m))
        pos.append(index[exp])
        weight.append(math.prod(math.factorial(e) for e in exp))
    shape = (m,) * k
    return _frozen(np.array(pos, dtype=np.intp).reshape(shape),
                   np.array(weight, float).reshape(shape))


def derivative_tensor(components, k: int) -> np.ndarray:
    """k-th derivative tensor D^k at 0: D[i, j1..jk] = ∂_{j1}..∂_{jk} f^i(0).

    `components` is a tuple of TaylorScalars centered at the evaluation
    point (i.e. the point corresponds to variables = 0).
    """
    m = components[0].m
    D = np.zeros((len(components),) + (m,) * k)
    for i, f in enumerate(components):
        if k <= f.order:
            pos, weight = _tensor_gather(m, f.order, k)
            D[i] = f._v[pos] * weight
    return D
