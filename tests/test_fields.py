"""PolyField's one-shot powers against the per-monomial loops they replaced."""
import numpy as np
import pytest

from formalframes import PolyField
from formalframes.taylor import multi_indices

SHAPES = [(), (2,), (2, 2, 2)]


def reference_fit(m, shape, degree, points, values):
    """`PolyField.fit` with one `np.prod` per monomial and point."""
    exps = multi_indices(m, degree)
    points = [np.asarray(p, dtype=float).reshape(m) for p in points]
    V = np.array([[float(np.prod(p ** np.array(e))) for e in exps] for p in points])
    B = np.array([np.asarray(v, dtype=float).reshape(-1) for v in values])
    sol, *_ = np.linalg.lstsq(V, B, rcond=None)
    return PolyField(m, shape, {e: sol[i].reshape(shape) for i, e in enumerate(exps)})


def reference_evaluate(field, point):
    """`PolyField.evaluate` adding one monomial at a time, in coeffs order."""
    point = np.asarray(point, dtype=float).reshape(field.m)
    total = np.zeros(field.shape)
    for exp, arr in field.coeffs.items():
        total += arr * float(np.prod(point ** np.array(exp)))
    return total


def shuffled_field(rng, m, shape, degree):
    """Random coefficients of degree <= `degree`, some zero, inserted out of basis order."""
    exps = multi_indices(m, degree)
    order = rng.permutation(len(exps))
    if (order == np.sort(order)).all():
        order = order[::-1]
    return PolyField(m, shape, {
        exps[k]: rng.uniform(-1, 1, shape) * (rng.random(shape) < 0.8) for k in order
    })


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_evaluate_adds_as_the_per_monomial_loop(m, shape):
    rng = np.random.default_rng([m, len(shape)])
    for degree in range(9):
        field = shuffled_field(rng, m, shape, degree)
        for _ in range(4):
            point = rng.uniform(-2, 2, m)
            assert_same_bits(field.evaluate(point), reference_evaluate(field, point))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_fit_builds_the_per_monomial_vandermonde_matrix(m, shape):
    rng = np.random.default_rng([m, len(shape), 1])
    for degree in range(9):
        source = shuffled_field(rng, m, shape, degree)
        points = rng.uniform(-1, 1, (len(multi_indices(m, degree)) + 3, m))
        values = [source.evaluate(p) + rng.normal(0, 1e-3, shape) for p in points]
        got = PolyField.fit(m, shape, degree, points, values)
        want = reference_fit(m, shape, degree, points, values)
        assert list(got.coeffs) == list(want.coeffs)
        for exp in want.coeffs:
            assert_same_bits(got.coeffs[exp], want.coeffs[exp])


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_the_empty_field_evaluates_to_zeros_of_its_shape(m, shape):
    point = np.linspace(-1, 1, m)
    for field in (PolyField.zero(m, shape), PolyField(m, shape, {(1,) * m: np.zeros(shape)})):
        assert field.coeffs == {}
        assert_same_bits(field.evaluate(point), np.zeros(shape))
        assert_same_bits(field.evaluate(point), reference_evaluate(field, point))
