"""Polynomial fields: chart-local tensor-valued polynomial data.

Christoffel tables, vector fields, and matrix-valued 1-forms are all
polynomial maps from chart coordinates into a fixed array shape; exact
evaluation and exact partial derivatives keep every identity testable at
tight tolerances.
"""
from __future__ import annotations

import functools
import math
from dataclasses import field

import numpy as np

from .tensors import ShapeMismatchError, record


@record(mappings=("coeffs",))
class PolyField:
    """Polynomial map from m chart coordinates into arrays of fixed shape."""

    m: int
    shape: tuple
    coeffs: dict = field(default_factory=dict)  # exponent tuple -> ndarray

    def __post_init__(self):
        shape = tuple(int(s) for s in self.shape)
        clean = {}
        for exp, arr in self.coeffs.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != self.m or any(e < 0 for e in exp):
                raise ShapeMismatchError(f"bad exponent {exp}")
            arr = np.asarray(arr, dtype=float)
            if arr.shape != shape:
                arr = arr.reshape(shape)
            if np.any(arr):
                clean[exp] = arr
        return {"shape": shape, "coeffs": clean}

    @functools.cached_property
    def _terms(self):
        """Exponents and coefficient rows in coeffs order, read-only, for evaluate."""
        powers = np.array(list(self.coeffs), dtype=np.intp).reshape(len(self.coeffs), self.m)
        stack = np.reshape(list(self.coeffs.values()), (len(self.coeffs), math.prod(self.shape)))
        for arr in (powers, stack):
            arr.setflags(write=False)
        return powers, stack

    @classmethod
    def constant(cls, arr, m: int) -> "PolyField":
        arr = np.asarray(arr, dtype=float)
        return cls(m, arr.shape, {(0,) * m: arr})

    @classmethod
    def zero(cls, m: int, shape) -> "PolyField":
        return cls(m, tuple(shape), {})

    @classmethod
    def fit(cls, m: int, shape, degree: int, points, values) -> "PolyField":
        """Least-squares polynomial fit; exact when the data is polynomial.

        `points` is an iterable of m-vectors and `values` the corresponding
        arrays of the given shape; the fit runs over all monomials of total
        degree <= degree and needs at least as many points as monomials.
        """
        from .taylor import _basis

        shape = tuple(int(s) for s in shape)
        basis = _basis(m, degree)
        points = np.reshape([np.asarray(p, dtype=float).reshape(m) for p in points], (-1, m))
        if len(points) < len(basis.exps):
            raise ShapeMismatchError("not enough sample points for the degree")
        V = np.prod(points[:, None, :] ** basis.powers, axis=2)
        B = np.array([np.asarray(v, dtype=float).reshape(-1) for v in values])
        sol, *_ = np.linalg.lstsq(V, B, rcond=None)
        coeffs = {e: sol[i].reshape(shape) for i, e in enumerate(basis.exps)}
        return cls(m, shape, coeffs)

    def evaluate(self, point) -> np.ndarray:
        point = np.asarray(point, dtype=float).reshape(self.m)
        powers, stack = self._terms
        terms = stack * np.prod(point ** powers, axis=1)[:, None]
        # 0 + t_0 + t_1 + …, one term after another in coeffs order; a reduce
        # would add the terms of a one-entry shape pairwise
        zero = np.zeros((1, terms.shape[1]))
        return np.add.accumulate(np.concatenate([zero, terms]))[-1].reshape(self.shape)

    def partial(self, i: int) -> "PolyField":
        out = {}
        for exp, arr in self.coeffs.items():
            if exp[i] > 0:
                new = list(exp)
                new[i] -= 1
                key = tuple(new)
                out[key] = out.get(key, 0.0) + arr * exp[i]
        return PolyField(self.m, self.shape, out)

    def __add__(self, other: "PolyField") -> "PolyField":
        if self.m != other.m or self.shape != other.shape:
            raise ShapeMismatchError("PolyField shape mismatch")
        out = {exp: np.array(arr) for exp, arr in self.coeffs.items()}
        for exp, arr in other.coeffs.items():
            out[exp] = out.get(exp, 0.0) + arr
        return PolyField(self.m, self.shape, out)

    def __neg__(self) -> "PolyField":
        return PolyField(self.m, self.shape, {e: -a for e, a in self.coeffs.items()})

    def __sub__(self, other: "PolyField") -> "PolyField":
        return self + (-other)

    def scale(self, c: float) -> "PolyField":
        return PolyField(self.m, self.shape, {e: c * a for e, a in self.coeffs.items()})

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "shape": list(self.shape),
            "coeffs": [
                {"exp": list(exp), "value": arr.ravel().tolist()}
                for exp, arr in sorted(self.coeffs.items())
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PolyField":
        shape = tuple(data["shape"])
        coeffs = {
            tuple(entry["exp"]): np.asarray(entry["value"], dtype=float).reshape(shape)
            for entry in data["coeffs"]
        }
        return cls(int(data["m"]), shape, coeffs)
