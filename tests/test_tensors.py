import numpy as np
import pytest

from formalframes import (
    FrameCoords,
    JetGroupElement,
    LowerTensor,
    ShapeMismatchError,
    SingularityError,
    is_classical,
    is_classical_frame,
    max_asymmetry,
    symmetrize_array,
)
from formalframes.tensors import COND_LIMIT, check_square, symmetrize


def test_lower_tensor_shape_is_validated():
    LowerTensor(2, 2, np.zeros((2, 2, 2)))
    with pytest.raises(ShapeMismatchError):
        LowerTensor(2, 2, np.zeros((2, 2, 3)))


def test_lower_tensor_json_roundtrip():
    t = LowerTensor(2, 2, np.arange(8.0).reshape(2, 2, 2))
    back = LowerTensor.from_json(t.to_json())
    assert np.array_equal(back.entries, t.entries)


def test_lower_tensor_entries_are_frozen():
    t = LowerTensor.zeros(2, 1)
    with pytest.raises(ValueError):
        t.entries[0, 0] = 1.0


def test_symmetrize_averages_lower_indices():
    arr = np.zeros((2, 2, 2))
    arr[0, 0, 1] = 4.0
    arr[0, 1, 0] = 2.0
    s = symmetrize_array(arr)
    assert s[0, 0, 1] == s[0, 1, 0] == 3.0
    # the upper index never participates in the averaging
    assert s[1, 0, 1] == 0.0


def test_symmetrize_is_a_projection():
    rng = np.random.default_rng(0)
    arr = rng.uniform(-1, 1, (2, 2, 2, 2))
    once = symmetrize_array(arr)
    assert np.allclose(symmetrize_array(once), once)
    assert max_asymmetry(once) < 1e-15


def test_max_asymmetry_witnesses_the_gap():
    arr = np.zeros((2, 2, 2))
    arr[0, 0, 1] = 5.0
    arr[0, 1, 0] = 3.0
    assert max_asymmetry(LowerTensor(2, 2, arr)) == pytest.approx(2.0)


def test_symmetry_checks_share_one_witness():
    rng = np.random.default_rng(11)
    for n, r in [(1, 3), (2, 2), (2, 4), (3, 3)]:
        for _ in range(5):
            arrays = [np.eye(n) + 0.1 * rng.uniform(-1, 1, (n, n))] + [
                rng.uniform(-1, 1, (n,) * (k + 1)) for k in range(2, r + 1)
            ]
            ok, worst = is_classical(JetGroupElement.from_arrays(arrays))
            assert is_classical_frame(FrameCoords.from_arrays(np.zeros(n), arrays)) == (ok, worst)
            assert worst["gap"] == max(max_asymmetry(arr) for arr in arrays)
            assert ok == (n == 1)
            if not ok:
                arr = arrays[worst["order"] - 1]
                swapped = np.swapaxes(arr, *worst["axes"])
                assert abs(arr - swapped)[worst["index"]] == worst["gap"]


def test_symmetrize_tensor_wrapper():
    arr = np.zeros((2, 2, 2))
    arr[1, 0, 1] = 2.0
    t = symmetrize(LowerTensor(2, 2, arr))
    assert t.entries[1, 0, 1] == t.entries[1, 1, 0] == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lower_tensor_rejects_non_finite_entries(bad):
    arr = np.zeros((2, 2, 2))
    arr[1, 0, 1] = bad
    with pytest.raises(ValueError, match=r"n=2, k=2.*\(1, 0, 1\)"):
        LowerTensor(2, 2, arr)


def singular_verdict(mat) -> bool:
    try:
        check_square(mat)
    except SingularityError:
        return True
    return False


def test_check_square_keeps_the_np_linalg_cond_verdict():
    rng = np.random.default_rng(9)
    mats = [rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3, 3) for n in (1, 2, 3, 5)
            for _ in range(40)]
    # condition numbers 1e8·(1 ± 2⁻⁴⁰) and 1e8 itself, as diagonals and rotated
    for c in (COND_LIMIT * (1 - 2.0 ** -40), COND_LIMIT, COND_LIMIT * (1 + 2.0 ** -40)):
        for scale in (1e-3, 1.0, 1e3):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            mats += [np.diag([c * scale, scale]), np.diag([scale, scale, c * scale]),
                     q @ np.diag([c * scale, scale, scale]) @ q.T]
    # rank-deficient: outer products and a repeated row, then the zero matrix
    u, v = rng.normal(size=(2, 3))
    mats += [np.outer(u, v), np.vstack([u, u, v]), np.ones((2, 2))]
    mats += [np.zeros((n, n)) for n in (1, 2, 3)]
    verdicts = [singular_verdict(mat) for mat in mats]
    assert verdicts == [bool(np.linalg.cond(mat) > COND_LIMIT) for mat in mats]
    assert any(verdicts) and not all(verdicts)


def test_check_square_edges():
    assert singular_verdict(np.array([[np.inf, 0.0], [0.0, 1.0]]))  # cond reads NaN as inf
    with pytest.raises(np.linalg.LinAlgError):
        check_square(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    for bad in (np.zeros((0, 0)), np.zeros((2, 3)), np.zeros(2)):
        with pytest.raises(ShapeMismatchError):
            check_square(bad)
