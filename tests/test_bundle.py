import itertools
import json
import pickle

import numpy as np
import pytest
from conftest import check_theta_gates, frame1d, gap, rand_frame, rand_group, rand_tangent

from formalframes import (
    BundleTangent,
    FrameCoords,
    JetAlgebraElement,
    LowerTensor,
    ShapeMismatchError,
    SingularityError,
    SmoothMapSpec,
    algebra_size,
    canonical_form,
    change_chart,
    change_chart_pushforward,
    coord_size,
    fundamental_vector,
    jet_identity,
    jet_inverse,
    right_action,
    tangent_iso,
    transition_jet,
)
from formalframes.cli import main
from formalframes.tensors import COND_LIMIT


def test_right_action_pin():
    # base carried along unchanged; tensors compose like the group product
    u = frame1d(1.0, 2.0, 3.0)
    a = np.array([[5.0]]), np.array([[[7.0]]])
    from formalframes import JetGroupElement

    moved = right_action(u, JetGroupElement.from_arrays(list(a)))
    assert moved.base == pytest.approx([1.0])
    assert moved.arrays[0].item() == pytest.approx(10.0)
    assert moved.arrays[1].item() == pytest.approx(3 * 25 + 2 * 7)


def test_right_action_laws():
    rng = np.random.default_rng(0)
    for n, r in [(1, 2), (2, 3), (3, 4)]:
        u = rand_frame(rng, n, r)
        a, b = rand_group(rng, n, r), rand_group(rng, n, r)
        from formalframes import jet_compose

        lhs = right_action(right_action(u, a), b)
        rhs = right_action(u, jet_compose(a, b))
        assert all(gap(x, y) < 1e-9 for x, y in zip(lhs.arrays, rhs.arrays))
        e = jet_identity(n, r)
        assert all(gap(x, y) == 0.0
                   for x, y in zip(right_action(u, e).arrays, u.arrays))
        back = right_action(right_action(u, a), jet_inverse(a))
        assert all(gap(x, y) < 1e-9 for x, y in zip(back.arrays, u.arrays))


def test_change_chart_pin():
    # second-order slot picks up the Hessian term of the transition
    u = frame1d(0.0, 2.0, 0.0)
    T = transition_jet(SmoothMapSpec.polynomial_1d([0.0, 1.0, 0.5]), [0.0], 2)
    moved = change_chart(u, T)
    assert moved.base == pytest.approx([0.0])
    assert moved.arrays[0].item() == pytest.approx(2.0)
    assert moved.arrays[1].item() == pytest.approx(4.0)


def test_change_chart_cocycle_and_equivariance():
    rng = np.random.default_rng(1)
    from test_charts import rand_poly

    for n, r in [(1, 2), (2, 3)]:
        for _ in range(10):
            u = rand_frame(rng, n, r)
            f, g = rand_poly(rng, n), rand_poly(rng, n)
            T1 = transition_jet(f, u.base, r)
            T2 = transition_jet(g, T1.value, r)
            Tc = transition_jet(SmoothMapSpec.composite(f, g), u.base, r)
            two = change_chart(change_chart(u, T1), T2)
            one = change_chart(u, Tc)
            assert gap(two.base, one.base) < 1e-9
            assert all(gap(x, y) < 1e-9 for x, y in zip(two.arrays, one.arrays))
            a = rand_group(rng, n, r)
            lhs = change_chart(right_action(u, a), T1)
            rhs = right_action(change_chart(u, T1), a)
            assert all(gap(x, y) < 1e-9 for x, y in zip(lhs.arrays, rhs.arrays))


def test_tangent_iso_pin():
    # translating (1, 0) by the scalar frame (2, 6) gives (2, 6)
    u = frame1d(0.0, 2.0, 6.0)
    L = tangent_iso(u)
    Y = JetAlgebraElement.from_arrays([np.array([1.0]), np.array([[0.0]])])
    X = L.apply(Y)
    assert X.d_base == pytest.approx([2.0])
    assert X.arrays[0].item() == pytest.approx(6.0)


def test_tangent_iso_identity_frame():
    u = FrameCoords.identity_frame(2, 2)
    L = tangent_iso(u)
    assert np.allclose(L.matrix, np.eye(2 + 4))


def test_tangent_iso_roundtrip():
    rng = np.random.default_rng(2)
    for n, r in [(1, 2), (2, 3), (3, 4)]:
        u = rand_frame(rng, n, r)
        L = tangent_iso(u)
        X = rand_tangent(rng, n, r)
        Y = L.solve(X)
        back = L.apply(Y)
        assert gap(back.d_base, X.d_base) < 1e-9
        # the top-order slot is outside the one-order-down tangent space
        assert all(gap(x, y) < 1e-9
                   for x, y in zip(back.arrays[: r - 1], X.arrays[: r - 1]))


def test_fundamental_vector_is_vertical():
    rng = np.random.default_rng(3)
    u = rand_frame(rng, 2, 3)
    Y = [rng.uniform(-1, 1, (2,) * (k + 1)) for k in range(1, 4)]
    X = fundamental_vector(u, Y)
    assert not X.d_base.any()


def test_frame_json_roundtrip():
    rng = np.random.default_rng(4)
    u = rand_frame(rng, 2, 3)
    back = FrameCoords.from_json(u.to_json())
    assert gap(back.base, u.base) == 0.0
    assert all(gap(x, y) == 0.0 for x, y in zip(back.arrays, u.arrays))


def test_tangent_flat_roundtrip():
    rng = np.random.default_rng(5)
    for n, r in itertools.product(range(1, 4), range(1, 5)):
        X = rand_tangent(rng, n, r)
        v = X.flat()
        back = BundleTangent.from_flat(n, r, v)
        assert gap(back.d_base, X.d_base) == 0.0
        assert all(gap(x, y) == 0.0 for x, y in zip(back.arrays, X.arrays))
        # an order-r tangent has the layout of an order-(r+1) algebra vector
        assert coord_size(n, r) == algebra_size(n, r + 1) == v.size
        Y = JetAlgebraElement.from_flat(n, r + 1, v)
        assert all(np.array_equal(x, y) for x, y in zip(back.arrays, Y.arrays[1:]))
        assert np.array_equal(back.d_base, Y.arrays[0])
        assert np.array_equal(Y.flat(), v)
        u = rand_frame(rng, n, r)
        frame = BundleTangent.from_flat(n, r, u.coords_flat())
        assert all(np.array_equal(x, y) for x, y in zip(frame.arrays, u.arrays))
        for bad in (v[:-1], np.append(v, 0.0)):
            with pytest.raises(ShapeMismatchError):
                BundleTangent.from_flat(n, r, bad)
            with pytest.raises(ShapeMismatchError):
                JetAlgebraElement.from_flat(n, r + 1, bad)


def test_tangent_iso_is_built_once_per_frame():
    u = rand_frame(np.random.default_rng(6), 2, 3)
    L = tangent_iso(u)
    assert tangent_iso(u) is L and u.iso is L
    assert L.inverse is L.inverse
    assert not L.matrix.flags.writeable and not L.inverse.flags.writeable


def test_ill_conditioned_translation_matrix_is_accepted(tmp_path):
    # u¹ = I passes the guard, so the frame is valid and L_u invertible, whatever cond(L_u)
    u = FrameCoords.from_arrays(np.zeros(2), [np.eye(2), np.full((2, 2, 2), 1e5)])
    assert np.linalg.cond(u.iso.matrix) > COND_LIMIT
    for _ in range(2):
        assert tangent_iso(u) is u.iso
        check_theta_gates(u.iso)
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(u.to_json()))
    assert main(["torsion", "--input", str(path)]) == 0


@pytest.mark.parametrize("scale, cond_above_limit", [(0.02, True), (1.0, False)])
def test_translation_matrix_is_judged_by_the_package_condition_guard(
    scale, cond_above_limit, tmp_path, capsys
):
    """L_u is judged through u¹ alone: `check_square` on u¹ is the only verdict.

    At u¹ = 0.02·I, cond(L_u) is 6.2e9 and at u¹ = I 1.4e3; both frames are
    accepted, and their θ meets the gates.  With u¹ = scale·diag(1, 1, 1e-9)
    and the same higher tensors, cond(u¹) = 1e9 raises `SingularityError` at
    construction, and `torsion --input` exits 3.
    """
    rng = np.random.default_rng(0)
    higher = [rng.standard_normal((3,) * (k + 1)) for k in range(2, 5)]
    u = FrameCoords.from_arrays(np.zeros(3), [scale * np.eye(3), *higher])
    assert (np.linalg.cond(u.iso.matrix) > COND_LIMIT) == cond_above_limit
    assert u.iso.matrix.shape == (algebra_size(3, 4),) * 2
    check_theta_gates(u.iso)
    singular = [scale * np.diag([1.0, 1.0, 1e-9]), *higher]
    with pytest.raises(SingularityError, match="order-1 frame tensor is singular"):
        FrameCoords.from_arrays(np.zeros(3), singular)
    path = tmp_path / "frame.json"
    doc = {**u.to_json(), "tensors": [LowerTensor(3, k, a).to_json()
                                      for k, a in enumerate(singular, start=1)]}
    path.write_text(json.dumps(doc))
    assert main(["torsion", "--input", str(path)]) == 3
    assert "order-1 frame tensor is singular" in capsys.readouterr().err


def test_canonical_form_checks_the_tangent_shape():
    rng = np.random.default_rng(12)
    u = rand_frame(rng, 2, 2)
    for X in (rand_tangent(rng, 2, 3), rand_tangent(rng, 2, 1), rand_tangent(rng, 3, 2)):
        with pytest.raises(ShapeMismatchError):
            canonical_form(u, X)
        with pytest.raises(ShapeMismatchError):
            u.iso.solve(X)


def test_tangent_compares_by_value_and_survives_pickle():
    rng = np.random.default_rng(13)
    X = rand_tangent(rng, 2, 3)
    back = pickle.loads(pickle.dumps(X))
    assert back == X and X == back
    assert X != BundleTangent.from_arrays(X.d_base + 1.0, X.arrays)
    assert X != rand_tangent(rng, 2, 3)
    assert X != X.flat()


def test_unpickled_values_are_read_only_and_drop_the_cached_iso():
    rng = np.random.default_rng(15)
    u = rand_frame(rng, 2, 3)
    matrix = u.iso.matrix
    back = pickle.loads(pickle.dumps(u))
    assert "iso" not in vars(back)
    assert gap(back.iso.matrix, matrix) == 0.0 and not back.iso.matrix.flags.writeable
    X = pickle.loads(pickle.dumps(rand_tangent(rng, 2, 3)))
    T = pickle.loads(pickle.dumps(u.a[1]))
    assert T == u.a[1]
    arrays = [back.base, X.d_base, T.entries] + back.arrays + X.arrays
    assert not any(arr.flags.writeable for arr in arrays)


def test_frame_with_built_iso_pickles_and_compares_equal():
    rng = np.random.default_rng(7)
    u = rand_frame(rng, 2, 3)
    matrix = tangent_iso(u).matrix
    back = pickle.loads(pickle.dumps(u))
    assert back == u and u == back
    assert gap(tangent_iso(back).matrix, matrix) == 0.0
    assert u != FrameCoords.from_arrays(u.base, u.arrays, "other")
    assert u != FrameCoords.from_arrays(u.base + 1.0, u.arrays, u.chart_id)
    assert u != rand_frame(rng, 2, 3)


def test_chart_change_needs_the_jet_at_the_frames_base():
    """The point is compared by the package rule, atol = rtol = 1e-9, in both chart changes."""
    rng = np.random.default_rng(16)
    u = FrameCoords.from_arrays([1.0, 2.0], rand_frame(rng, 2, 2).arrays)
    X = rand_tangent(rng, 2, 2)
    identity = SmoothMapSpec.identity(2)
    for point in ([1.0, 2.0 + 5e-6], [50.0, -7.0]):
        T = transition_jet(identity, point, 3)
        with pytest.raises(ShapeMismatchError, match="frame's base"):
            change_chart(u, T)
        with pytest.raises(ShapeMismatchError, match="frame's base"):
            change_chart_pushforward(u, T, X)
    T = transition_jet(identity, u.base, 3)
    assert change_chart(u, T).base.tolist() == [1.0, 2.0]
    assert change_chart_pushforward(u, T, X) == X
