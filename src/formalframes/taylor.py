"""Truncated multivariate polynomial (Taylor) arithmetic.

Used as the exact-differentiation engine: transition jets, chain-rule
oracles, and derivative extraction all run through this ring.  A
:class:`TaylorScalar` is a polynomial in ``m`` variables truncated at total
degree ``order``; coefficients are keyed by exponent multi-indices
(enumerated lexicographically where an ordering matters, e.g. in tests).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class TaylorScalar:
    """Polynomial in m variables truncated at total degree `order`."""

    m: int
    order: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for exp, c in self.coeffs.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != self.m or any(e < 0 for e in exp):
                raise ShapeMismatchError(f"bad exponent {exp} for m={self.m}")
            if sum(exp) <= self.order and c != 0.0:
                clean[exp] = float(c)
        object.__setattr__(self, "coeffs", clean)

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
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            out[exp] = out.get(exp, 0.0) + c
        return TaylorScalar(self.m, self.order, out)

    __radd__ = __add__

    def __neg__(self):
        return TaylorScalar(self.m, self.order, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = TaylorScalar.constant(other, self.m, self.order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return TaylorScalar(
                self.m, self.order, {e: c * other for e, c in self.coeffs.items()}
            )
        self._check_compat(other)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                if sum(exp) <= self.order:
                    out[exp] = out.get(exp, 0.0) + c1 * c2
        return TaylorScalar(self.m, self.order, out)

    __rmul__ = __mul__

    def pow_int(self, p: int) -> "TaylorScalar":
        result = TaylorScalar.constant(1.0, self.m, self.order)
        for _ in range(p):
            result = result * self
        return result

    def reciprocal(self) -> "TaylorScalar":
        """1/self; requires a nonzero constant term."""
        c0 = self.coeffs.get((0,) * self.m, 0.0)
        if c0 == 0.0:
            raise ZeroDivisionError("reciprocal needs a nonzero constant term")
        q = 1.0 - self * (1.0 / c0)  # zero constant term
        acc = TaylorScalar.constant(1.0, self.m, self.order)
        power = TaylorScalar.constant(1.0, self.m, self.order)
        for _ in range(self.order):
            power = power * q
            acc = acc + power
        return acc * (1.0 / c0)

    def derivative(self, i: int) -> "TaylorScalar":
        out = {}
        for exp, c in self.coeffs.items():
            if exp[i] > 0:
                new = list(exp)
                new[i] -= 1
                out[tuple(new)] = c * exp[i]
        # formal derivative of a degree-d truncation is reliable to d-1
        return TaylorScalar(self.m, self.order, out)

    def compose(self, inner: "list[TaylorScalar]") -> "TaylorScalar":
        """Substitute inner[i] for variable i (formal, then truncate)."""
        if len(inner) != self.m:
            raise ShapeMismatchError(f"need {self.m} inner series, got {len(inner)}")
        m_out = inner[0].m
        for g in inner:
            if g.m != m_out or g.order != self.order:
                raise ShapeMismatchError("truncation-order mismatch in compose")
        # cache powers of each inner series
        max_exp = [0] * self.m
        for exp in self.coeffs:
            for i, e in enumerate(exp):
                max_exp[i] = max(max_exp[i], e)
        powers = []
        for i, g in enumerate(inner):
            ps = [TaylorScalar.constant(1.0, m_out, self.order)]
            for _ in range(max_exp[i]):
                ps.append(ps[-1] * g)
            powers.append(ps)
        acc = TaylorScalar(m_out, self.order, {})
        for exp, c in self.coeffs.items():
            term = TaylorScalar.constant(c, m_out, self.order)
            for i, e in enumerate(exp):
                if e:
                    term = term * powers[i][e]
            acc = acc + term
        return acc

    # -- queries -----------------------------------------------------------

    def coefficient(self, exp) -> float:
        return self.coeffs.get(tuple(exp), 0.0)

    def evaluate(self, point) -> float:
        point = np.asarray(point, dtype=float)
        total = 0.0
        for exp, c in self.coeffs.items():
            total += c * float(np.prod(point ** np.array(exp)))
        return total

    def truncate(self, order: int) -> "TaylorScalar":
        """Drop terms above `order` (which may be lower or higher)."""
        return TaylorScalar(self.m, order, dict(self.coeffs))

    def shift_center(self, point) -> "TaylorScalar":
        """Re-center: return self(point + t) as a series in t (exact)."""
        point = np.asarray(point, dtype=float)
        shifted = [
            TaylorScalar.constant(point[i], self.m, self.order)
            + TaylorScalar.variable(i, self.m, self.order)
            for i in range(self.m)
        ]
        return self.compose(shifted)


def derivative_tensor(components, k: int) -> np.ndarray:
    """k-th derivative tensor D^k at 0: D[i, j1..jk] = ∂_{j1}..∂_{jk} f^i(0).

    `components` is a tuple of TaylorScalars centered at the evaluation
    point (i.e. the point corresponds to variables = 0).
    """
    n_out = len(components)
    m = components[0].m
    D = np.zeros((n_out,) + (m,) * k)
    for i, f in enumerate(components):
        for js in itertools.product(range(m), repeat=k):
            exp = [0] * m
            for j in js:
                exp[j] += 1
            factorial = 1.0
            for e in exp:
                factorial *= math.factorial(e)
            D[(i,) + js] = f.coefficient(exp) * factorial
    return D
