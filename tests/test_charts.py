import pickle

import numpy as np
import pytest
from conftest import gap

from formalframes import (
    LowerTensor,
    ShapeMismatchError,
    SingularityError,
    SmoothMapSpec,
    TransitionJet,
    jet_compose,
    jet_of_transition_as_group,
    max_asymmetry,
    transition_jet,
)


def test_polynomial_jet_pin():
    spec = SmoothMapSpec.polynomial_1d([0.0, 1.0, 0.5])  # x + x^2/2
    T = transition_jet(spec, [0.0], 2)
    assert T.value == pytest.approx([0.0])
    assert T.arrays[0].item() == pytest.approx(1.0)
    assert T.arrays[1].item() == pytest.approx(1.0)


def test_identity_jet():
    T = transition_jet(SmoothMapSpec.identity(2), [0.3, -0.7], 3)
    assert np.allclose(T.arrays[0], np.eye(2))
    assert not T.arrays[1].any() and not T.arrays[2].any()


def test_moebius_jet_pin():
    # 1/x at x=2: value 0.5, then -1/4, 2/8, -6/16
    T = transition_jet(SmoothMapSpec.moebius(0, 1, 1, 0), [2.0], 3)
    assert T.value == pytest.approx([0.5])
    assert T.arrays[0].item() == pytest.approx(-0.25)
    assert T.arrays[1].item() == pytest.approx(0.25)
    assert T.arrays[2].item() == pytest.approx(-0.375)


def test_moebius_pole_raises():
    with pytest.raises(SingularityError):
        transition_jet(SmoothMapSpec.moebius(1, 2, 3, 1), [-1.0 / 3.0], 2)


def test_moebius_determinant_validated():
    with pytest.raises(SingularityError):
        SmoothMapSpec.moebius(1, 2, 2, 4)


def test_recentering_keeps_higher_degree_terms():
    # 1-jet of x^2 at x=3 must carry Dφ(3) = 6, not Dφ(0) = 0
    spec = SmoothMapSpec.polynomial_1d([0.0, 0.0, 1.0])
    T = transition_jet(spec, [3.0], 1)
    assert T.value == pytest.approx([9.0])
    assert T.arrays[0].item() == pytest.approx(6.0)


def test_jet_tensors_are_symmetric():
    rng = np.random.default_rng(0)
    coeffs = {}
    for e in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1)]:
        coeffs[e] = tuple(rng.uniform(-1, 1, 2))
    spec = SmoothMapSpec.polynomial(2, 2, coeffs)
    T = transition_jet(spec, rng.uniform(-1, 1, 2), 3)
    assert all(max_asymmetry(arr) < 1e-12 for arr in T.arrays[1:])


def rand_poly(rng, n):
    coeffs = {(0,) * n: tuple(rng.uniform(-0.3, 0.3, n))}
    lin = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
    for i in range(n):
        exp = tuple(1 if j == i else 0 for j in range(n))
        coeffs[exp] = tuple(lin[:, i])
        exp2 = tuple(2 if j == i else 0 for j in range(n))
        coeffs[exp2] = tuple(rng.uniform(-0.4, 0.4, n))
    return SmoothMapSpec.polynomial(n, n, coeffs)


def test_chain_rule_composite():
    rng = np.random.default_rng(1)
    for n, r in [(1, 3), (2, 3), (2, 2)]:
        for _ in range(10):
            f, g = rand_poly(rng, n), rand_poly(rng, n)
            p = rng.uniform(-0.5, 0.5, n)
            Tf = transition_jet(f, p, r)
            Tg = transition_jet(g, Tf.value, r)
            Tc = transition_jet(SmoothMapSpec.composite(f, g), p, r)
            lhs = jet_of_transition_as_group(Tc)
            rhs = jet_compose(
                jet_of_transition_as_group(Tg), jet_of_transition_as_group(Tf)
            )
            assert np.allclose(Tc.value, transition_jet(g, Tf.value, 1).value)
            assert all(gap(x, y) < 1e-9 for x, y in zip(lhs.arrays, rhs.arrays))


def test_jet_as_group_pin():
    spec = SmoothMapSpec.polynomial_1d([0.0, 1.0, 0.5])
    g = jet_of_transition_as_group(transition_jet(spec, [0.0], 2))
    assert g.arrays[0].item() == pytest.approx(1.0)
    assert g.arrays[1].item() == pytest.approx(1.0)


def test_map_spec_json_roundtrip():
    rng = np.random.default_rng(2)
    f = rand_poly(rng, 2)
    mo = SmoothMapSpec.moebius(1, 2, 3, 4)
    comp = SmoothMapSpec.composite(mo, SmoothMapSpec.polynomial_1d([0.0, 2.0]))
    for spec, p in [(f, [0.1, 0.2]), (mo, [1.0]), (comp, [1.0])]:
        back = SmoothMapSpec.from_json(spec.to_json())
        assert np.allclose(back.evaluate(p), spec.evaluate(p))


def test_composite_dimension_mismatch():
    with pytest.raises(ShapeMismatchError):
        SmoothMapSpec.composite(SmoothMapSpec.identity(2), SmoothMapSpec.identity(3))


def test_transition_jet_compares_by_value_and_pickles_read_only():
    rng = np.random.default_rng(17)
    p, value = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
    D = tuple(LowerTensor(2, k, rng.uniform(-1, 1, (2,) * (k + 1))) for k in (1, 2, 3))
    T = TransitionJet(p, value, D)
    assert p.flags.writeable and value.flags.writeable  # the caller's arrays are copied
    back = pickle.loads(pickle.dumps(T))
    assert back == T and T == back
    assert not any(arr.flags.writeable for arr in [back.p, back.value] + back.arrays)
    assert T != TransitionJet(p + 1.0, value, D)
    assert T != TransitionJet(p, value + 1.0, D)
    assert T != TransitionJet(p, value, D[:2])
    assert T != TransitionJet(p, value, D[:2] + (LowerTensor(2, 3, D[2].entries + 1.0),))
    assert T != p
