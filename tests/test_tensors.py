import numpy as np
import pytest

from formalframes import (
    FrameCoords,
    JetGroupElement,
    LowerTensor,
    ShapeMismatchError,
    is_classical,
    is_classical_frame,
    max_asymmetry,
    symmetrize_array,
)
from formalframes.tensors import symmetrize


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
