import pickle

import numpy as np
import pytest
from conftest import gap, rand_frame, rand_group, rand_tangent

from formalframes import (
    FrameCoords,
    GarciaCoords,
    JetGroupElement,
    canonical_form,
    garcia_action,
    garcia_canonical_form,
    phi_map,
    phi_pushforward,
    psi_map,
    right_action,
)
from formalframes.garcia import garcia_action_formula


def frame1d(base, u1, u2):
    return FrameCoords.from_arrays([base], [np.array([[u1]]), np.array([[[u2]]])])


def test_phi_pin():
    g = phi_map(frame1d(0.1, 2.0, 6.0))
    assert g.z.entries.item() == pytest.approx(3.0)
    assert g.y.item() == pytest.approx(2.0)


def test_psi_pin():
    g = GarciaCoords.from_arrays([0.1], np.array([[2.0]]), np.array([[[3.0]]]))
    u = psi_map(g)
    assert u.arrays[1].item() == pytest.approx(6.0)


def test_phi_identity_linear_part():
    rng = np.random.default_rng(0)
    u2 = rng.uniform(-1, 1, (2, 2, 2))
    u = FrameCoords.from_arrays([0.0, 0.0], [np.eye(2), u2])
    assert gap(phi_map(u).z.entries, u2) < 1e-12


def test_phi_psi_mutually_inverse():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        u = rand_frame(rng, n, 2)
        back = psi_map(phi_map(u))
        assert all(gap(x, y) < 1e-12 for x, y in zip(back.arrays, u.arrays))
        g = phi_map(u)
        again = phi_map(psi_map(g))
        assert gap(again.z.entries, g.z.entries) < 1e-12


def test_action_matches_frame_side():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        u = rand_frame(rng, n, 2)
        a = rand_group(rng, n, 2)
        moved = garcia_action(phi_map(u), a)
        frame_side = phi_map(right_action(u, a))
        assert gap(moved.y, frame_side.y) < 1e-10
        assert gap(moved.z.entries, frame_side.z.entries) < 1e-10


def test_closed_formula_matches_action():
    # 1-d pin: the frame (2, 6) acted on by a = (5, 7) is (2·5, 2·7 + 6·5·5) = (10, 164),
    # so z = 164/10; the a² term alone contributes 2·7/(5·2) = 1.4 of it
    g = GarciaCoords.from_arrays([0.0], np.array([[2.0]]), np.array([[[3.0]]]))
    a = JetGroupElement.from_arrays([np.array([[5.0]]), np.array([[[7.0]]])])
    for moved in (garcia_action(g, a), garcia_action_formula(g, a)):
        assert moved.y.item() == pytest.approx(10.0)
        assert moved.z.entries.item() == pytest.approx(16.4)
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        g = phi_map(rand_frame(rng, n, 2))
        a = rand_group(rng, n, 2)
        moved, direct = garcia_action(g, a), garcia_action_formula(g, a)
        assert gap(direct.y, moved.y) < 1e-10
        assert gap(direct.z.entries, moved.z.entries) < 1e-10


def test_action_makes_three_svds(lapack_calls):
    # one `check_square` each for psi_map's frame, right_action's frame and phi_map's point
    rng = np.random.default_rng(8)
    g, a = phi_map(rand_frame(rng, 2, 2)), rand_group(rng, 2, 2)
    lapack_calls.clear()
    garcia_action(g, a)
    assert [name for name, _ in lapack_calls].count("svd") == 3


def test_action_linear_subgroup_formula():
    # a with zero second-order slot: y -> y·a, z -> z contracted with a
    rng = np.random.default_rng(3)
    n = 2
    u = rand_frame(rng, n, 2)
    g = phi_map(u)
    amat = rng.normal(size=(n, n)) + 2 * np.eye(n)
    a = JetGroupElement.from_arrays([amat, np.zeros((n, n, n))])
    moved = garcia_action(g, a)
    assert gap(moved.y, g.y @ amat) < 1e-10
    assert gap(moved.z.entries,
               np.einsum("iak,aj->ijk", g.z.entries, amat)) < 1e-10


def test_action_is_a_right_action():
    rng = np.random.default_rng(4)
    from formalframes import jet_compose

    for _ in range(10):
        n = int(rng.integers(1, 3))
        g = phi_map(rand_frame(rng, n, 2))
        a, b = rand_group(rng, n, 2), rand_group(rng, n, 2)
        two = garcia_action(garcia_action(g, a), b)
        one = garcia_action(g, jet_compose(a, b))
        assert gap(two.z.entries, one.z.entries) < 1e-9


def test_canonical_form_pin():
    g = GarciaCoords.from_arrays([0.0], np.array([[2.0]]), np.array([[[3.0]]]))
    val = garcia_canonical_form(g, [1.0], [[0.0]])
    assert val.item() == pytest.approx(-1.5)


def test_canonical_form_trivial_point():
    rng = np.random.default_rng(5)
    dy = rng.uniform(-1, 1, (2, 2))
    g = GarciaCoords.from_arrays([0.0, 0.0], np.eye(2), np.zeros((2, 2, 2)))
    assert gap(garcia_canonical_form(g, np.zeros(2), dy), dy) < 1e-12


def test_pullback_of_canonical_form():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        u = rand_frame(rng, n, 2)
        X = rand_tangent(rng, n, 2)
        dx, dy, _dz = phi_pushforward(u, X)
        lhs = garcia_canonical_form(phi_map(u), dx, dy)
        rhs = canonical_form(u, X).arrays[1]
        assert gap(lhs, rhs) < 1e-8


def test_json_roundtrip():
    g = GarciaCoords.from_arrays([0.5], np.array([[2.0]]), np.array([[[3.0]]]))
    back = GarciaCoords.from_json(g.to_json())
    assert gap(back.y, g.y) == 0.0
    assert gap(back.z.entries, g.z.entries) == 0.0


def test_garcia_coords_compare_by_value_and_pickle_read_only():
    g = phi_map(rand_frame(np.random.default_rng(19), 2, 2))
    back = pickle.loads(pickle.dumps(g))
    assert back == g and g == back
    assert not any(arr.flags.writeable for arr in (back.x, back.y, back.z.entries))
    assert g != GarciaCoords(g.n, g.x + 1.0, g.y, g.z, g.chart_id)
    assert g != GarciaCoords(g.n, g.x, g.y, g.z, "other")
    assert g != g.x
