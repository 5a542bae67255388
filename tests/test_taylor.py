import dataclasses
import itertools
import math
import pickle
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import per_series_compose, per_series_shift

from formalframes import ShapeMismatchError, SmoothMapSpec
from formalframes.taylor import (
    TaylorScalar,
    compose_all,
    derivative_tensor,
    multi_indices,
    shift_all,
)
from formalframes.verify import _rand_poly_map


def test_multi_indices_counts():
    assert len(multi_indices(1, 3)) == 4
    # all exponent tuples of total degree <= 2 in two variables
    assert len(multi_indices(2, 2)) == 6
    assert all(sum(e) <= 2 for e in multi_indices(2, 2))


def test_ring_ops_match_pointwise_evaluation():
    rng = np.random.default_rng(0)
    f = TaylorScalar(2, 3, {(0, 0): 1.5, (1, 0): 2.0, (0, 2): -1.0, (2, 1): 0.5})
    g = TaylorScalar(2, 3, {(0, 1): 3.0, (1, 1): -2.0})
    for _ in range(20):
        p = rng.uniform(-0.7, 0.7, 2)
        assert (f + g).evaluate(p) == pytest.approx(f.evaluate(p) + g.evaluate(p))
        assert (f - g).evaluate(p) == pytest.approx(f.evaluate(p) - g.evaluate(p))
    # product truncates at the ring order, so compare against the truncation
    prod = f * g
    assert prod.order == 3
    assert prod.coefficient((1, 1)) == pytest.approx(1.5 * -2.0 + 2.0 * 3.0)


def test_derivative_and_pow():
    f = TaylorScalar(1, 4, {(0,): 1.0, (1,): 1.0})  # 1 + x
    cube = f.pow_int(3)
    assert [cube.coefficient((k,)) for k in range(4)] == [1.0, 3.0, 3.0, 1.0]
    d = cube.derivative(0)
    assert d.coefficient((1,)) == pytest.approx(6.0)


def test_reciprocal_geometric_series():
    f = TaylorScalar(1, 5, {(0,): 2.0, (1,): 1.0})  # 2 + x
    inv = f.reciprocal()
    for k in range(5):
        assert inv.coefficient((k,)) == pytest.approx((-1) ** k / 2.0 ** (k + 1))


def test_compose_against_direct_expansion():
    # f(u) = u^2, u(x) = x + x^2  ->  x^2 + 2x^3 + x^4
    f = TaylorScalar(1, 4, {(2,): 1.0})
    u = TaylorScalar(1, 4, {(1,): 1.0, (2,): 1.0})
    c = f.compose([u])
    assert c.coefficient((2,)) == pytest.approx(1.0)
    assert c.coefficient((3,)) == pytest.approx(2.0)
    assert c.coefficient((4,)) == pytest.approx(1.0)


def test_shift_center_keeps_full_degree_information():
    # p(x) = x^3; its 1-jet at x=2 must see the cubic term: p'(2) = 12
    p = TaylorScalar(1, 3, {(3,): 1.0})
    shifted = p.shift_center([2.0]).truncate(1)
    assert shifted.coefficient((0,)) == pytest.approx(8.0)
    assert shifted.coefficient((1,)) == pytest.approx(12.0)


def test_derivative_tensor_undoes_factorial_weights():
    # f(x, y) = x^2 y has f_xxy = 2, everything via the order-3 tensor
    f = TaylorScalar(2, 3, {(2, 1): 1.0})
    T = derivative_tensor([f], 3)
    assert T.shape == (1, 2, 2, 2)
    assert T[0, 0, 0, 1] == pytest.approx(2.0)
    assert T[0, 0, 1, 0] == pytest.approx(2.0)
    assert T[0, 1, 0, 0] == pytest.approx(2.0)
    assert T[0, 0, 0, 0] == pytest.approx(0.0)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-2, 2), min_size=3, max_size=3),
    st.lists(st.floats(-2, 2), min_size=3, max_size=3),
    st.lists(st.floats(-2, 2), min_size=3, max_size=3),
)
def test_ring_laws(a, b, c):
    def poly(cs):
        return TaylorScalar(1, 4, {(k,): v for k, v in enumerate(cs)})

    f, g, h = poly(a), poly(b), poly(c)
    lhs = (f * g) * h
    rhs = f * (g * h)
    for k in range(5):
        assert lhs.coefficient((k,)) == pytest.approx(rhs.coefficient((k,)), abs=1e-9)
    fg = f * g
    gf = g * f
    for k in range(5):
        assert fg.coefficient((k,)) == pytest.approx(gf.coefficient((k,)), abs=1e-12)


def test_evaluate_matches_math():
    f = TaylorScalar(2, 2, {(0, 0): 1.0, (1, 0): 2.0, (1, 1): 3.0})
    assert f.evaluate([0.5, 2.0]) == pytest.approx(1.0 + 1.0 + 3.0)


def test_factorials_in_derivative_tensor_roundtrip():
    rng = np.random.default_rng(1)
    for k in range(1, 4):
        coeffs = {e: rng.uniform(-1, 1) for e in multi_indices(2, k) if sum(e) == k}
        f = TaylorScalar(2, k, coeffs)
        T = derivative_tensor([f], k)
        # rebuild each monomial coefficient: T entries / k! times multiplicity
        for exp, want in coeffs.items():
            js = [v for v, e in enumerate(exp) for _ in range(e)]
            mult = math.factorial(k)
            for e in exp:
                mult //= math.factorial(e)
            got = T[(0,) + tuple(js)] * mult / math.factorial(k)
            assert got == pytest.approx(want)


# -- reference: the dict-of-exponents ring the dense one replaced -------------


@dataclass(frozen=True)
class DictTaylorScalar:
    """Coefficients keyed by exponent tuple; products loop over pairs."""

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

    @classmethod
    def constant(cls, c, m, order):
        return cls(m, order, {(0,) * m: float(c)})

    @classmethod
    def variable(cls, i, m, order):
        return cls(m, order, {tuple(1 if j == i else 0 for j in range(m)): 1.0})

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = DictTaylorScalar.constant(other, self.m, self.order)
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            out[exp] = out.get(exp, 0.0) + c
        return DictTaylorScalar(self.m, self.order, out)

    __radd__ = __add__

    def __neg__(self):
        return DictTaylorScalar(self.m, self.order, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = DictTaylorScalar.constant(other, self.m, self.order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return DictTaylorScalar(
                self.m, self.order, {e: c * other for e, c in self.coeffs.items()}
            )
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                if sum(exp) <= self.order:
                    out[exp] = out.get(exp, 0.0) + c1 * c2
        return DictTaylorScalar(self.m, self.order, out)

    __rmul__ = __mul__

    def pow_int(self, p):
        result = DictTaylorScalar.constant(1.0, self.m, self.order)
        for _ in range(p):
            result = result * self
        return result

    def reciprocal(self):
        c0 = self.coeffs.get((0,) * self.m, 0.0)
        if c0 == 0.0:
            raise ZeroDivisionError("reciprocal needs a nonzero constant term")
        q = 1.0 - self * (1.0 / c0)
        acc = DictTaylorScalar.constant(1.0, self.m, self.order)
        power = DictTaylorScalar.constant(1.0, self.m, self.order)
        for _ in range(self.order):
            power = power * q
            acc = acc + power
        return acc * (1.0 / c0)

    def derivative(self, i):
        out = {}
        for exp, c in self.coeffs.items():
            if exp[i] > 0:
                new = list(exp)
                new[i] -= 1
                out[tuple(new)] = c * exp[i]
        return DictTaylorScalar(self.m, self.order, out)

    def compose(self, inner):
        m_out = inner[0].m
        max_exp = [max((e[i] for e in self.coeffs), default=0) for i in range(self.m)]
        powers = []
        for i, g in enumerate(inner):
            ps = [DictTaylorScalar.constant(1.0, m_out, self.order)]
            for _ in range(max_exp[i]):
                ps.append(ps[-1] * g)
            powers.append(ps)
        acc = DictTaylorScalar(m_out, self.order, {})
        for exp, c in self.coeffs.items():
            term = DictTaylorScalar.constant(c, m_out, self.order)
            for i, e in enumerate(exp):
                if e:
                    term = term * powers[i][e]
            acc = acc + term
        return acc

    def coefficient(self, exp):
        return self.coeffs.get(tuple(exp), 0.0)

    def evaluate(self, point):
        point = np.asarray(point, dtype=float)
        total = 0.0
        for exp, c in self.coeffs.items():
            total += c * float(np.prod(point ** np.array(exp)))
        return total

    def truncate(self, order):
        return DictTaylorScalar(self.m, order, dict(self.coeffs))

    def shift_center(self, point):
        point = np.asarray(point, dtype=float)
        shifted = [
            DictTaylorScalar.constant(point[i], self.m, self.order)
            + DictTaylorScalar.variable(i, self.m, self.order)
            for i in range(self.m)
        ]
        return self.compose(shifted)


def dict_derivative_tensor(components, k):
    m = components[0].m
    D = np.zeros((len(components),) + (m,) * k)
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


# -- the dense ring against the reference ---------------------------------------

# small integers keep every operation exact; rounded floats stay clear of
# underflow, so a 1e-13 bound relative to the same computation on
# |coefficients| (the sum of the magnitudes of the terms) is sound
VALUES = {
    "exact": st.integers(-3, 3).map(float),
    "float": st.floats(-2, 2).map(lambda x: round(x, 9)),
}


def draw_poly(data, kind, m, order):
    """(dense, reference, reference on |coefficients|), with above-order terms."""
    d = data.draw(st.dictionaries(
        st.sampled_from(multi_indices(m, order + 1)), VALUES[kind], max_size=8
    ))
    return (TaylorScalar(m, order, d), DictTaylorScalar(m, order, d),
            DictTaylorScalar(m, order, {e: abs(c) for e, c in d.items()}))


def draw_point(data, kind, m):
    values = st.integers(-2, 2).map(float) if kind == "exact" else st.floats(-1, 1)
    p = np.array(data.draw(st.lists(values, min_size=m, max_size=m)))
    return p, p, np.abs(p)


def assert_agree(got, want, scale, kind):
    """Exact agreement, or within 1e-13 of `scale`, the computation on |coefficients|."""
    if isinstance(got, float):
        assert got == want if kind == "exact" else abs(got - want) <= 1e-13 * scale
        return
    assert isinstance(got, TaylorScalar)
    assert (got.m, got.order) == (want.m, want.order)
    if kind == "exact":
        assert got.coeffs == want.coeffs
        return
    for exp in multi_indices(got.m, got.order):
        gap = abs(got.coefficient(exp) - want.coefficient(exp))
        assert gap <= 1e-13 * scale.coefficient(exp), exp


def assert_equal(got, want):
    assert (got.m, got.order, got.coeffs) == (want.m, want.order, want.coeffs)


SHAPES = st.tuples(st.integers(1, 3), st.integers(0, 5))


@pytest.mark.parametrize("kind", ["exact", "float"])
@settings(max_examples=40, deadline=None)
@given(shape=SHAPES, data=st.data())
def test_dense_ring_matches_reference(kind, shape, data):
    m, order = shape
    (f, rf, af), (g, rg, ag) = (draw_poly(data, kind, m, order) for _ in range(2))
    assert f.coeffs == rf.coeffs
    c = data.draw(VALUES[kind])
    # elementwise operations round the same way in both rings
    assert_equal(f + g, rf + rg)
    assert_equal(f - g, rf - rg)
    assert_equal(c + f, c + rf)
    assert_equal(f - c, rf - c)
    assert_equal(c - f, c - rf)
    assert_equal(f * c, rf * c)
    assert_equal(-f, -rf)
    for i in range(m):
        assert_equal(f.derivative(i), rf.derivative(i))
    for lower in range(order + 2):
        assert_equal(f.truncate(lower), rf.truncate(lower))
    for k in range(order + 2):
        assert np.array_equal(derivative_tensor([f, g], k), dict_derivative_tensor([rf, rg], k))
    # products sum their terms in another order
    assert_agree(f * g, rf * rg, af * ag, kind)
    p = data.draw(st.integers(0, 4))
    assert_agree(f.pow_int(p), rf.pow_int(p), af.pow_int(p), kind)
    point, rpoint, apoint = draw_point(data, kind, m)
    assert_agree(f.evaluate(point), rf.evaluate(rpoint), af.evaluate(apoint), kind)
    assert_agree(f.shift_center(point), rf.shift_center(rpoint), af.shift_center(apoint), kind)


@pytest.mark.parametrize("kind", ["exact", "float"])
@settings(max_examples=30, deadline=None)
@given(shape=SHAPES, m_out=st.integers(1, 3), data=st.data())
def test_dense_compose_matches_reference(kind, shape, m_out, data):
    m, order = shape
    f, rf, af = draw_poly(data, kind, m, order)
    inner = [draw_poly(data, kind, m_out, order) for _ in range(m)]
    got, want, scale = (
        h.compose([g[slot] for g in inner]) for slot, h in enumerate((f, rf, af))
    )
    assert_agree(got, want, scale, kind)


@pytest.mark.parametrize("kind", ["exact", "float"])
@settings(max_examples=30, deadline=None)
@given(shape=SHAPES, data=st.data())
def test_dense_reciprocal_matches_reference(kind, shape, data):
    m, order = shape
    f, rf, af = draw_poly(data, kind, m, order)
    # a power of two keeps 1/c0 exact; |c0| >= 1/2 keeps the series bounded
    c0 = data.draw(st.sampled_from([-2.0, -1.0, 1.0, 2.0, 4.0]) if kind == "exact"
                   else st.floats(0.5, 2).map(lambda x: round(x, 9)))
    zero = (0,) * m
    f, rf = f + (c0 - f.coefficient(zero)), rf + (c0 - rf.coefficient(zero))
    q = DictTaylorScalar(m, order, {e: abs(c / c0) for e, c in af.coeffs.items() if any(e)})
    scale = sum(q.pow_int(j) for j in range(order + 1)) * (1 / abs(c0))
    assert_agree(f.reciprocal(), rf.reciprocal(), scale, kind)


def reference_taylor_at(spec, p, order):
    """`SmoothMapSpec.taylor_at` of polynomial and composite maps on the reference ring."""
    if spec.kind == "composite":
        comps = reference_taylor_at(spec.maps[0], p, order)
        for stage in spec.maps[1:]:
            values = np.array([f.coefficient((0,) * f.m) for f in comps])
            outer = reference_taylor_at(stage, values, order)
            displaced = [f - float(v) for f, v in zip(comps, values)]
            comps = tuple(f.compose(displaced) for f in outer)
        return comps
    degree = max(max(sum(e) for e in spec.coeffs), order)
    return tuple(
        DictTaylorScalar(spec.m_in, degree, {e: vals[i] for e, vals in spec.coeffs.items()})
        .shift_center(p).truncate(order)
        for i in range(spec.m_out)
    )


def test_transition_jets_round_as_the_term_by_term_expansion():
    """Bit for bit: the verify suites' ill-conditioned checks keep their verdicts."""
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        for order in (1, 2, 3, 4):
            spec = SmoothMapSpec.composite(_rand_poly_map(rng, n), _rand_poly_map(rng, n))
            p = rng.uniform(-0.5, 0.5, n)
            got = spec.taylor_at(p, order)
            want = reference_taylor_at(spec, p, order)
            assert [f.coeffs for f in got] == [f.coeffs for f in want]


# -- shared powers against one series at a time -----------------------------------


def sparse_series(rng, m, order):
    """A series with about a third of its coefficients zero, listed out of basis order."""
    exps = multi_indices(m, order)
    values = rng.uniform(-1, 1, len(exps)) * (rng.random(len(exps)) < 0.7)
    return TaylorScalar(m, order, dict(reversed(list(zip(exps, values)))))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_shared_powers_round_as_each_series_alone(m, order):
    rng = np.random.default_rng([m, order])
    for m_out in (1, 2, 3):
        for count in (1, 2, 3):
            outer = [sparse_series(rng, m, order) for _ in range(count)]
            inner = [sparse_series(rng, m_out, order) for _ in range(m)]
            assert compose_all(outer, inner) == tuple(per_series_compose(f, inner) for f in outer)
            point = rng.uniform(-1, 1, m)
            assert shift_all(outer, point) == tuple(per_series_shift(f, point) for f in outer)
            assert outer[0].compose(inner) == per_series_compose(outer[0], inner)
            assert outer[0].shift_center(point) == per_series_shift(outer[0], point)


def test_compose_all_checks_every_series():
    f, g = TaylorScalar.variable(0, 2, 3), TaylorScalar.variable(0, 1, 3)
    with pytest.raises(ShapeMismatchError):
        compose_all([f, TaylorScalar.variable(0, 2, 2)], [g, g])
    with pytest.raises(ShapeMismatchError):
        compose_all([f, g], [g, g])
    with pytest.raises(ShapeMismatchError):
        compose_all([f], [g, TaylorScalar.variable(0, 2, 3)])


# -- API edges -------------------------------------------------------------------


def test_coeffs_drop_zero_and_above_order_terms():
    f = TaylorScalar(2, 2, {(0, 0): 0.0, (1, 0): 2, (2, 1): 5.0, (0, 2): -1.5})
    assert f.coeffs == {(1, 0): 2.0, (0, 2): -1.5}
    assert all(type(c) is float for c in f.coeffs.values())
    assert f.coefficient((2, 1)) == 0.0 and f.coefficient((1, 0)) == 2.0
    assert TaylorScalar(2, 2).coeffs == {}
    assert f.truncate(1).coeffs == {(1, 0): 2.0}
    assert f.truncate(4).coeffs == f.coeffs


@pytest.mark.parametrize("exp", [(1,), (1, 0, 0), (-1, 2)])
def test_bad_exponent_raises(exp):
    with pytest.raises(ShapeMismatchError):
        TaylorScalar(2, 3, {exp: 1.0})


def test_order_mismatch_raises():
    f, g = TaylorScalar.variable(0, 2, 3), TaylorScalar.variable(0, 2, 2)
    with pytest.raises(ShapeMismatchError):
        f + g
    with pytest.raises(ShapeMismatchError):
        f * g
    with pytest.raises(ShapeMismatchError):
        f.compose([g, g])
    with pytest.raises(ShapeMismatchError):
        f.compose([f])


def test_elements_are_immutable_values():
    f = TaylorScalar(2, 3, {(1, 1): 2.0})
    for name in ("m", "order", "coeffs"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(f, name, 1)
    f.coeffs[(0, 0)] = 7.0  # a copy
    assert f.coefficient((0, 0)) == 0.0
    assert f == TaylorScalar(2, 3, {(1, 1): 2.0, (0, 0): 0.0})
    assert f != TaylorScalar(2, 4, {(1, 1): 2.0})
    assert pickle.loads(pickle.dumps(f)) == f
    with pytest.raises(ZeroDivisionError):
        f.reciprocal()
