"""Symbolic map specifications and their exact derivative jets at a point.

Maps are given as data (polynomial coefficient tables, 1-d Möbius
quadruples, or composites), never as opaque callables, so all derivative
tensors up to the working order come out of truncated Taylor arithmetic
with no numerical-differentiation noise.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .jetgroup import ClassicalJet, JetGroupElement, epsilon_embed
from .taylor import TaylorScalar, derivative_tensor
from .tensors import LowerTensor, ShapeMismatchError, SingularityError, _reduce_by_fields


@dataclass(frozen=True)
class SmoothMapSpec:
    """kind: 'polynomial' | 'moebius' | 'composite'."""

    kind: str
    m_in: int
    m_out: int
    # polynomial: dict exp-tuple -> tuple of m_out floats
    coeffs: dict = field(default_factory=dict)
    # moebius: (a, b, c, d) with ad - bc != 0
    abcd: tuple = ()
    # composite: maps applied left to right (first entry applied first)
    maps: tuple = ()

    def __post_init__(self):
        if self.kind == "polynomial":
            clean = {}
            for exp, vals in self.coeffs.items():
                exp = tuple(int(e) for e in exp)
                vals = tuple(float(v) for v in np.atleast_1d(vals))
                if len(exp) != self.m_in or len(vals) != self.m_out:
                    raise ShapeMismatchError("bad polynomial coefficient entry")
                clean[exp] = vals
            object.__setattr__(self, "coeffs", clean)
        elif self.kind == "moebius":
            if self.m_in != 1 or self.m_out != 1:
                raise ShapeMismatchError("moebius maps are 1-dimensional")
            a, b, c, d = (float(v) for v in self.abcd)
            if a * d - b * c == 0.0:
                raise SingularityError("moebius determinant vanishes")
            object.__setattr__(self, "abcd", (a, b, c, d))
        elif self.kind == "composite":
            maps = tuple(self.maps)
            if not maps:
                raise ShapeMismatchError("composite needs at least one map")
            for f, g in zip(maps, maps[1:]):
                if f.m_out != g.m_in:
                    raise ShapeMismatchError("composite dimension mismatch")
            object.__setattr__(self, "maps", maps)
            object.__setattr__(self, "m_in", maps[0].m_in)
            object.__setattr__(self, "m_out", maps[-1].m_out)
        else:
            raise ShapeMismatchError(f"unknown map kind {self.kind!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def polynomial(cls, m_in: int, m_out: int, coeffs: dict) -> "SmoothMapSpec":
        return cls("polynomial", m_in, m_out, coeffs=coeffs)

    @classmethod
    def polynomial_1d(cls, coeffs) -> "SmoothMapSpec":
        """1-d polynomial from a low-to-high coefficient list."""
        table = {(k,): (float(c),) for k, c in enumerate(coeffs)}
        return cls.polynomial(1, 1, table)

    @classmethod
    def moebius(cls, a, b, c, d) -> "SmoothMapSpec":
        return cls("moebius", 1, 1, abcd=(a, b, c, d))

    @classmethod
    def identity(cls, m: int) -> "SmoothMapSpec":
        coeffs = {}
        for i in range(m):
            exp = tuple(1 if j == i else 0 for j in range(m))
            coeffs[exp] = tuple(1.0 if j == i else 0.0 for j in range(m))
        return cls.polynomial(m, m, coeffs)

    @classmethod
    def composite(cls, *maps) -> "SmoothMapSpec":
        return cls("composite", maps[0].m_in, maps[-1].m_out, maps=tuple(maps))

    # -- evaluation --------------------------------------------------------

    def taylor_at(self, p, order: int):
        """Taylor components around p (variables = displacement from p).

        Constant terms carry the value of the map at p.
        """
        p = np.asarray(p, dtype=float).reshape(self.m_in)
        if self.kind == "polynomial":
            # re-center at full degree before truncating, or derivatives at
            # p would be taken of an already-truncated polynomial
            degree = max((sum(exp) for exp in self.coeffs), default=0)
            degree = max(degree, order)
            comps = []
            for i in range(self.m_out):
                coeffs = {exp: vals[i] for exp, vals in self.coeffs.items()}
                poly = TaylorScalar(self.m_in, degree, coeffs)
                comps.append(poly.shift_center(p).truncate(order))
            return tuple(comps)
        if self.kind == "moebius":
            a, b, c, d = self.abcd
            x = float(p[0])
            if abs(c * x + d) < 1e-12:
                raise SingularityError("moebius map evaluated at its pole")
            t = TaylorScalar.variable(0, 1, order)
            num = a * x + b + a * t
            den = c * x + d + c * t
            return (num * den.reciprocal(),)
        # composite: thread Taylor expansions through each stage
        comps = self.maps[0].taylor_at(p, order)
        for stage in self.maps[1:]:
            values = np.array([f.coefficient((0,) * f.m) for f in comps])
            outer = stage.taylor_at(values, order)
            displaced = [f - float(v) for f, v in zip(comps, values)]
            comps = tuple(f.compose(displaced) for f in outer)
        return comps

    def evaluate(self, p) -> np.ndarray:
        comps = self.taylor_at(p, 0)
        return np.array([f.coefficient((0,) * self.m_in) for f in comps])

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == "polynomial":
            return {
                "kind": "polynomial",
                "m_in": self.m_in,
                "m_out": self.m_out,
                "coeffs": [
                    {"exp": list(exp), "value": list(vals)}
                    for exp, vals in sorted(self.coeffs.items())
                ],
            }
        if self.kind == "moebius":
            return {"kind": "moebius", "abcd": list(self.abcd)}
        return {"kind": "composite", "maps": [m.to_json() for m in self.maps]}

    @classmethod
    def from_json(cls, data: dict) -> "SmoothMapSpec":
        kind = data["kind"]
        if kind == "polynomial":
            coeffs = {
                tuple(entry["exp"]): tuple(entry["value"])
                for entry in data["coeffs"]
            }
            return cls.polynomial(int(data["m_in"]), int(data["m_out"]), coeffs)
        if kind == "moebius":
            return cls.moebius(*data["abcd"])
        if kind == "composite":
            return cls.composite(*(cls.from_json(m) for m in data["maps"]))
        raise ShapeMismatchError(f"unknown map kind {kind!r}")


@dataclass(frozen=True)
class TransitionJet:
    """Value and derivative tensors D¹φ..Dʳφ of a map at a point."""

    p: np.ndarray
    value: np.ndarray
    D: tuple  # LowerTensors, D[k-1] of lower order k

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        value = np.array(self.value, dtype=float)
        p.setflags(write=False)
        value.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "D", tuple(self.D))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TransitionJet)
            and bool(np.array_equal(self.p, other.p))
            and bool(np.array_equal(self.value, other.value))
            and self.D == other.D
        )

    __reduce__ = _reduce_by_fields

    @property
    def order(self) -> int:
        return len(self.D)

    @property
    def arrays(self):
        return [T.entries for T in self.D]


def transition_jet(map_spec: SmoothMapSpec, p, order: int) -> TransitionJet:
    if map_spec.m_in != map_spec.m_out:
        raise ShapeMismatchError("transition jets require an endomorphism-shaped map")
    comps = map_spec.taylor_at(p, order)
    value = np.array([f.coefficient((0,) * map_spec.m_in) for f in comps])
    tensors = [
        LowerTensor(map_spec.m_in, k, derivative_tensor(comps, k))
        for k in range(1, order + 1)
    ]
    return TransitionJet(np.asarray(p, dtype=float), value, tuple(tensors))


def jet_of_transition_as_group(T: TransitionJet) -> JetGroupElement:
    """Embed the (symmetric) derivative jet as a group element."""
    classical = ClassicalJet.from_arrays(T.arrays)
    return epsilon_embed(classical)
