import numpy as np
import pytest
from conftest import gap, rand_christoffel, rand_frame, rand_tangent

from formalframes import (
    ChristoffelField,
    FrameCoords,
    JetGroupElement,
    SmoothMapSpec,
    change_chart,
    christoffel_transform,
    connection_section,
    fundamental_vector,
    right_action,
    right_action_pushforward,
    section_pullback_connection,
    symmetrize_connection,
    transition_jet,
)
from test_charts import rand_poly


def test_transform_pins():
    T = transition_jet(SmoothMapSpec.polynomial_1d([0.0, 1.0, 0.5]), [0.0], 2)
    gamma = np.full((1, 1, 1), 5.0)
    assert christoffel_transform(gamma, T).item() == pytest.approx(4.0)
    Tid = transition_jet(SmoothMapSpec.identity(1), [0.0], 2)
    assert christoffel_transform(gamma, Tid).item() == pytest.approx(5.0)


def test_transform_cocycle():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        for _ in range(10):
            gf = rand_christoffel(rng, n)
            f, g = rand_poly(rng, n), rand_poly(rng, n)
            p = rng.uniform(-0.3, 0.3, n)
            gamma = gf.value(p)
            T1 = transition_jet(f, p, 2)
            T2 = transition_jet(g, T1.value, 2)
            Tc = transition_jet(SmoothMapSpec.composite(f, g), p, 2)
            assert gap(
                christoffel_transform(christoffel_transform(gamma, T1), T2),
                christoffel_transform(gamma, Tc),
            ) < 1e-8


def test_section_pins():
    gf = ChristoffelField.constant(np.full((1, 1, 1), 4.0))
    u = FrameCoords.from_arrays([0.0], [np.array([[3.0]])])
    assert connection_section(gf, u).arrays[1].item() == pytest.approx(-36.0)
    zero = ChristoffelField.constant(np.zeros((2, 2, 2)))
    u2 = rand_frame(np.random.default_rng(1), 2, 1)
    assert not connection_section(zero, u2).arrays[1].any()


def test_section_equivariance_under_linear_elements():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        gf = rand_christoffel(rng, n)
        u = rand_frame(rng, n, 1)
        amat = rng.normal(size=(n, n)) + 2 * np.eye(n)
        a1 = JetGroupElement.from_arrays([amat])
        a2 = JetGroupElement.from_arrays([amat, np.zeros((n, n, n))])
        lhs = connection_section(gf, right_action(u, a1))
        rhs = right_action(connection_section(gf, u), a2)
        assert all(gap(x, y) < 1e-9 for x, y in zip(lhs.arrays, rhs.arrays))


def test_section_commutes_with_chart_change():
    rng = np.random.default_rng(3)
    for n in (1, 2):
        for _ in range(10):
            gf = rand_christoffel(rng, n)
            u = rand_frame(rng, n, 1)
            f = rand_poly(rng, n)
            T1 = transition_jet(f, u.base, 1)
            T2 = transition_jet(f, u.base, 2)
            gamma_hat = christoffel_transform(
                gf.value(u.base), transition_jet(f, u.base, 2)
            )
            hat_field = ChristoffelField.constant(gamma_hat)
            lhs = connection_section(hat_field, change_chart(u, T1))
            rhs = change_chart(connection_section(gf, u), T2)
            assert all(gap(x, y) < 1e-8 for x, y in zip(lhs.arrays, rhs.arrays))


def test_pullback_connection_axioms():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3):
        gf = rand_christoffel(rng, n)
        u = rand_frame(rng, n, 1)
        # vertical generators are reproduced
        Xm = rng.uniform(-1, 1, (n, n))
        got = section_pullback_connection(gf, u, fundamental_vector(u, [Xm]))
        assert gap(got, Xm) < 1e-8
        # equivariance under the linear subgroup
        amat = rng.normal(size=(n, n)) + 2 * np.eye(n)
        a1 = JetGroupElement.from_arrays([amat])
        X = rand_tangent(rng, n, 1)
        lhs = section_pullback_connection(
            gf, right_action(u, a1), right_action_pushforward(u, a1, X)
        )
        rhs = np.linalg.inv(amat) @ section_pullback_connection(gf, u, X) @ amat
        assert gap(lhs, rhs) < 1e-8


def test_pullback_trivial_case():
    gf = ChristoffelField.constant(np.zeros((2, 2, 2)))
    u = FrameCoords.identity_frame(2, 1)
    X = rand_tangent(np.random.default_rng(5), 2, 1)
    assert gap(section_pullback_connection(gf, u, X), X.arrays[0]) < 1e-10


def test_symmetrize_pin_and_compatibility():
    rng = np.random.default_rng(6)
    table = np.zeros((2, 2, 2))
    table[0, 0, 1] = 4.0
    table[0, 1, 0] = 2.0
    sym = symmetrize_connection(ChristoffelField.constant(table))
    val = sym.value([0.0, 0.0])
    assert val[0, 0, 1] == val[0, 1, 0] == pytest.approx(3.0)
    # transform-then-symmetrize equals symmetrize-then-transform
    for _ in range(10):
        gf = rand_christoffel(rng, 2)
        f = rand_poly(rng, 2)
        p = rng.uniform(-0.3, 0.3, 2)
        T = transition_jet(f, p, 2)
        gamma = gf.value(p)
        a = christoffel_transform(gamma, T)
        a = (a + np.swapaxes(a, 1, 2)) / 2
        b = christoffel_transform((gamma + np.swapaxes(gamma, 1, 2)) / 2, T)
        assert gap(a, b) < 1e-9


def test_connection_form_convention():
    gf = ChristoffelField.constant(np.full((1, 1, 1), 2.0))
    assert gf.connection_form([0.0], [3.0]).item() == pytest.approx(6.0)


def test_json_roundtrip():
    gf = rand_christoffel(np.random.default_rng(7), 2)
    back = ChristoffelField.from_json(gf.to_json())
    p = [0.2, -0.1]
    # coefficient order may differ after parsing, so sums can reassociate
    assert gap(back.value(p), gf.value(p)) < 1e-15
