import pickle

import numpy as np
import pytest
from conftest import gap
from test_charts import rand_poly
from test_connection import rand_christoffel

from formalframes import (
    ChristoffelField,
    DeformationPair,
    GarciaPairPoint,
    PolyField,
    ShapeMismatchError,
    SmoothMapSpec,
    TangentAlgebraElement,
    TangentGroupElement,
    check_deformation_pair,
    christoffel_transform,
    covariant_derivative_residual,
    deform_canonical_form,
    deform_frame_iso,
    deformation_transform,
    frame_pair_action,
    garcia_pair_action,
    horizontal_lift,
    lift_block_identity,
    t2m_transition,
    tg_adjoint,
    tg_bracket,
    tg_compose,
    tg_inverse,
    transition_jet,
    vertical_lift,
)
from formalframes.taylor import multi_indices


def test_tg_compose_pin():
    p = TangentGroupElement(np.array([[2.0]]), np.array([[3.0]]))
    q = TangentGroupElement(np.array([[5.0]]), np.array([[7.0]]))
    pq = tg_compose(p, q)
    assert pq.A.item() == pytest.approx(10.0)
    assert pq.X.item() == pytest.approx(10.0)
    # 2x2 block representation multiplies the same way
    assert gap(pq.matrix_rep(), p.matrix_rep() @ q.matrix_rep()) < 1e-12
    assert gap(p.matrix_rep(), [[2.0, 0.0], [6.0, 2.0]]) == 0.0


def test_tg_inverse():
    rng = np.random.default_rng(0)
    p = TangentGroupElement(rng.normal(size=(2, 2)) + 2 * np.eye(2),
                            rng.uniform(-1, 1, (2, 2)))
    e = tg_compose(p, tg_inverse(p))
    assert gap(e.A, np.eye(2)) < 1e-12
    assert gap(e.X, np.zeros((2, 2))) < 1e-12


def test_bracket_and_adjoint_match_matrix_representation():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3):
        u = TangentAlgebraElement(rng.uniform(-1, 1, (n, n)),
                                  rng.uniform(-1, 1, (n, n)))
        v = TangentAlgebraElement(rng.uniform(-1, 1, (n, n)),
                                  rng.uniform(-1, 1, (n, n)))
        U, V = u.matrix_rep(), v.matrix_rep()
        assert gap(tg_bracket(u, v).matrix_rep(), U @ V - V @ U) < 1e-10
        p = TangentGroupElement(rng.normal(size=(n, n)) + 2 * np.eye(n),
                                rng.uniform(-1, 1, (n, n)))
        P = p.matrix_rep()
        assert gap(tg_adjoint(p, v).matrix_rep(),
                   P @ V @ np.linalg.inv(P)) < 1e-10
    # scalars commute
    a = TangentAlgebraElement(np.array([[1.0]]), np.array([[2.0]]))
    b = TangentAlgebraElement(np.array([[3.0]]), np.array([[4.0]]))
    br = tg_bracket(a, b)
    assert br.dA.item() == br.dX.item() == 0.0


def test_adjoint_by_pure_algebra_translation():
    rng = np.random.default_rng(2)
    X = rng.uniform(-1, 1, (2, 2))
    v = TangentAlgebraElement(rng.uniform(-1, 1, (2, 2)),
                              rng.uniform(-1, 1, (2, 2)))
    ad = tg_adjoint(TangentGroupElement(np.eye(2), X), v)
    assert gap(ad.dA, v.dA) < 1e-12
    assert gap(ad.dX, X @ v.dA - v.dA @ X + v.dX) < 1e-12


def test_deformation_transform_pins():
    T = transition_jet(SmoothMapSpec.polynomial_1d([0.0, 2.0]), [0.0], 2)
    assert deformation_transform(np.full((1, 1, 1), 6.0), T).item() == pytest.approx(3.0)
    Tid = transition_jet(SmoothMapSpec.identity(2), [0.0, 0.0], 2)
    mu = np.random.default_rng(3).uniform(-1, 1, (2, 2, 2))
    assert gap(deformation_transform(mu, Tid), mu) < 1e-12


def test_deformation_transform_cocycle():
    rng = np.random.default_rng(4)
    for n in (1, 2):
        for _ in range(10):
            mu = rng.uniform(-1, 1, (n, n, n))
            f, g = rand_poly(rng, n), rand_poly(rng, n)
            p = rng.uniform(-0.3, 0.3, n)
            T1 = transition_jet(f, p, 2)
            T2 = transition_jet(g, T1.value, 2)
            Tc = transition_jet(SmoothMapSpec.composite(f, g), p, 2)
            assert gap(
                deformation_transform(deformation_transform(mu, T1), T2),
                deformation_transform(mu, Tc),
            ) < 1e-9


def test_t2m_transition_pin():
    T = transition_jet(SmoothMapSpec.polynomial_1d([0.0, 1.0, 1.0]), [1.0], 2)
    out = t2m_transition(([1.0], [1.0], [1.0], [0.0]), T)
    flat = [float(np.asarray(v).reshape(())) for v in out]
    assert flat == pytest.approx([2.0, 3.0, 3.0, 2.0])
    for x in ([1.0 + 5e-6], [50.0]):  # the package rule, atol = rtol = 1e-9
        with pytest.raises(ShapeMismatchError, match="not centered"):
            t2m_transition((x, [1.0], [1.0], [0.0]), T)


def test_t2m_cocycle():
    rng = np.random.default_rng(5)
    for n in (1, 2):
        for _ in range(10):
            f, g = rand_poly(rng, n), rand_poly(rng, n)
            x = rng.uniform(-0.3, 0.3, n)
            c = (x, rng.uniform(-1, 1, n), rng.uniform(-1, 1, n),
                 rng.uniform(-1, 1, n))
            T1 = transition_jet(f, x, 2)
            mid = t2m_transition(c, T1)
            T2 = transition_jet(g, mid[0], 2)
            two = t2m_transition(mid, T2)
            one = t2m_transition(
                c, transition_jet(SmoothMapSpec.composite(f, g), x, 2)
            )
            assert all(gap(a, b) < 1e-9 for a, b in zip(two, one))


def test_lifts():
    gf0 = ChristoffelField.constant(np.zeros((2, 2, 2)))
    xdot, vdot = horizontal_lift(gf0, [0.0, 0.0], [1.0, 2.0], [3.0, 4.0])
    assert gap(xdot, [3.0, 4.0]) == 0.0 and not vdot.any()
    c = 2.5
    gf = ChristoffelField.constant(np.full((1, 1, 1), c))
    _, vd = horizontal_lift(gf, [0.0], [3.0], [2.0])
    assert vd.item() == pytest.approx(-c * 3.0 * 2.0)
    zx, zv = vertical_lift([1.0, -1.0])
    assert not zx.any() and gap(zv, [1.0, -1.0]) == 0.0


def test_lift_block_identity_worked_instance():
    gf = ChristoffelField.constant(np.full((1, 1, 1), 5.0))
    T = transition_jet(SmoothMapSpec.polynomial_1d([0.0, 1.0, 0.5]), [0.0], 2)
    res = lift_block_identity(gf, T, [1.0])
    assert gap(res, np.zeros((2, 2))) < 1e-12


def test_lift_block_identity_random():
    rng = np.random.default_rng(6)
    for n in (1, 2, 3):
        for _ in range(10):
            gf = rand_christoffel(rng, n)
            T = transition_jet(rand_poly(rng, n), rng.uniform(-0.3, 0.3, n), 2)
            res = lift_block_identity(gf, T, rng.uniform(-1, 1, n))
            assert np.max(np.abs(res)) < 1e-9


def test_covariant_derivative_residual():
    rng = np.random.default_rng(7)
    # worked scalar instance: constant Γ, X = x∂ₓ
    gf = ChristoffelField.constant(np.full((1, 1, 1), 1.7))
    Xf = PolyField(1, (1,), {(1,): np.array([1.0])})
    assert gap(covariant_derivative_residual(gf, Xf, [1.0], [1.0]),
               np.zeros(1)) < 1e-12
    for n in (1, 2):
        for _ in range(10):
            gf = rand_christoffel(rng, n)
            Xf = PolyField(
                n, (n,),
                {e: rng.uniform(-1, 1, n) for e in multi_indices(n, 2)},
            )
            res = covariant_derivative_residual(
                gf, Xf, rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
            )
            assert np.max(np.abs(res)) < 1e-8


def rand_pair_point(rng, n):
    return GarciaPairPoint(
        n, rng.uniform(-1, 1, n), rng.normal(size=(n, n)) + 2 * np.eye(n),
        rng.uniform(-1, 1, (n, n)), rng.uniform(-1, 1, (n, n, n)),
        rng.uniform(-1, 1, (n, n, n)),
    )


def test_frame_iso_pin():
    s = GarciaPairPoint(1, np.array([0.0]), np.array([[2.0]]),
                        np.array([[1.0]]), np.array([[[3.0]]]),
                        np.array([[[0.5]]]))
    frame, (b, b2) = deform_frame_iso(s)
    assert frame.arrays[1].item() == pytest.approx(6.0)
    assert b.item() == pytest.approx(1.0)
    assert b2.item() == pytest.approx(0.5)


def test_frame_iso_equivariance():
    rng = np.random.default_rng(8)
    for n in (1, 2, 3):
        for _ in range(10):
            s = rand_pair_point(rng, n)
            g = rng.normal(size=(n, n)) + 2 * np.eye(n)
            X = rng.uniform(-1, 1, (n, n))
            lf, lp = deform_frame_iso(garcia_pair_action(s, g, X))
            rf, rp = frame_pair_action(*deform_frame_iso(s), g, X)
            assert gap(lf.arrays[1], rf.arrays[1]) < 1e-8
            assert gap(lp[0], rp[0]) < 1e-10 and gap(lp[1], rp[1]) < 1e-10


def test_canonical_form_reproduces_vertical_generators():
    rng = np.random.default_rng(9)
    for n in (1, 2):
        s = rand_pair_point(rng, n)
        Bd = rng.uniform(-1, 1, (n, n))
        Yd = rng.uniform(-1, 1, (n, n))
        da = s.a @ Bd
        db = s.b @ Bd - Bd @ s.b + Yd
        theta = deform_canonical_form(s, np.zeros(n), da, db)
        assert gap(theta.dA, Bd) < 1e-12
        assert gap(theta.dX, Yd) < 1e-12


def test_canonical_form_equivariance():
    rng = np.random.default_rng(10)
    for n in (1, 2, 3):
        s = rand_pair_point(rng, n)
        g = rng.normal(size=(n, n)) + 2 * np.eye(n)
        X = rng.uniform(-1, 1, (n, n))
        h = np.linalg.inv(g)
        dx = rng.uniform(-1, 1, n)
        da, db = rng.uniform(-1, 1, (n, n)), rng.uniform(-1, 1, (n, n))
        theta = deform_canonical_form(s, dx, da, db)
        moved = deform_canonical_form(
            garcia_pair_action(s, g, X), dx, da @ g, h @ db @ g
        )
        want = tg_adjoint(tg_inverse(TangentGroupElement(g, X)), theta)
        assert gap(moved.dA, want.dA) < 1e-10
        assert gap(moved.dX, want.dX) < 1e-10


def build_pair_atlas(rng):
    """Two charts related by an exact polynomial transition."""
    n = 2
    spec = SmoothMapSpec.polynomial(2, 2, {
        (0, 0): (0.0, 0.2),
        (1, 0): (1.0, 0.0),
        (0, 1): (0.0, 1.0),
        (0, 2): (0.3, 0.0),
    })
    theta0 = PolyField(2, (n, n, n),
                       {e: rng.uniform(-1, 1, (n, n, n))
                        for e in multi_indices(2, 2)})
    mu0 = PolyField(2, (n, n, n),
                    {e: rng.uniform(-1, 1, (n, n, n))
                     for e in multi_indices(2, 2)})

    def transported(table, transform, degree=8):
        pts = [rng.uniform(-1, 1, 2)
               for _ in range(3 * len(multi_indices(2, degree)))]
        imgs = []
        vals = []
        for p in pts:
            T = transition_jet(spec, p, 2)
            imgs.append(T.value)
            vals.append(transform(table.evaluate(p), T))
        return PolyField.fit(2, (n, n, n), degree, imgs, vals)

    pair = DeformationPair(n, {
        "c0": {"theta": theta0, "mu": mu0},
        "c1": {"theta": transported(theta0, christoffel_transform),
               "mu": transported(mu0, deformation_transform)},
    })
    return pair, spec


def test_deformation_pair_atlas_valid_and_invalid():
    rng = np.random.default_rng(11)
    pair, spec = build_pair_atlas(rng)
    pts = {"c0": [rng.uniform(-1, 1, 2) for _ in range(12)]}
    report = check_deformation_pair(pair, [("c0", "c1", spec)], pts)
    assert report["valid"]
    assert report["max_theta_residual"] < 1e-8
    assert report["max_mu_residual"] < 1e-8
    # perturbing one chart's data must be detected
    broken_theta = pair.theta("c1") + PolyField.constant(
        np.full((2, 2, 2), 0.05), 2
    )
    broken = DeformationPair(2, {
        "c0": pair.charts["c0"],
        "c1": {"theta": broken_theta, "mu": pair.mu("c1")},
    })
    report2 = check_deformation_pair(broken, [("c0", "c1", spec)], pts)
    assert not report2["valid"]
    assert report2["max_theta_residual"] > 1e-3


def test_deformation_pair_json_roundtrip():
    rng = np.random.default_rng(12)
    pair, _spec = build_pair_atlas(rng)
    back = DeformationPair.from_json(pair.to_json())
    p = [0.1, -0.2]
    assert gap(back.theta("c0").evaluate(p), pair.theta("c0").evaluate(p)) < 1e-15
    assert gap(back.mu("c1").evaluate(p), pair.mu("c1").evaluate(p)) < 1e-15


def value_objects():
    """One instance of each array-holding value class of this module, with a perturbed twin."""
    rng = np.random.default_rng(31)
    A, X = rng.normal(size=(2, 2)) + 2 * np.eye(2), rng.normal(size=(2, 2))
    coeffs = {(0, 0): rng.uniform(-1, 1, (2, 2)), (1, 0): rng.uniform(-1, 1, (2, 2))}
    s = rand_pair_point(rng, 2)
    return [
        (TangentGroupElement(A, X), TangentGroupElement(A, X + 1.0)),
        (TangentAlgebraElement(A, X), TangentAlgebraElement(A + 1.0, X)),
        (s, GarciaPairPoint(s.n, s.x, s.a, s.b, s.a2, s.b2 + 1.0)),
        (PolyField(2, (2, 2), coeffs), PolyField(2, (2, 2), {(0, 0): coeffs[(0, 0)]})),
    ]


@pytest.mark.parametrize(
    "obj, other", value_objects(),
    ids=["TangentGroupElement", "TangentAlgebraElement", "GarciaPairPoint", "PolyField"],
)
def test_value_classes_compare_by_value_and_pickle_read_only(obj, other):
    back = pickle.loads(pickle.dumps(obj))
    assert back == obj and obj == back
    assert obj != other and other != obj
    assert obj != 0
    arrays = [v for v in vars(back).values() if isinstance(v, np.ndarray)]
    arrays += list(getattr(back, "coeffs", {}).values())
    assert arrays and not any(arr.flags.writeable for arr in arrays)


def test_garcia_pair_point_copies_its_inputs():
    rng = np.random.default_rng(32)
    x, a, b, a2, b2 = (
        rng.uniform(-1, 1, shape) for shape in (2, (2, 2), (2, 2), (2,) * 3, (2,) * 3)
    )
    a += 2 * np.eye(2)
    s = GarciaPairPoint(2, x, a, b, a2, b2)
    kept = pickle.loads(pickle.dumps(s))
    for arr in (x, a, b, a2, b2):
        arr[0] = 5.0
    assert s == kept
    assert all(arr.flags.writeable for arr in (x, a, b, a2, b2))
