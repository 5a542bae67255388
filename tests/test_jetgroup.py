import pickle
import types
from fractions import Fraction

import numpy as np
import pytest
from conftest import gap, per_term_order_k, rand_classical, rand_group

from formalframes import (
    AsymmetryError,
    ClassicalJet,
    JetAlgebraElement,
    JetGroupElement,
    ShapeMismatchError,
    SingularityError,
    adjoint_action,
    classical_compose,
    epsilon_embed,
    is_classical,
    jet_compose,
    jet_identity,
    jet_inverse,
    jetgroup,
    kappa_project,
)
from formalframes.jetgroup import (
    _order_k,
    compose_right_derivative,
    compose_tensors,
    identity_arrays,
)
from formalframes.oracles import closed_form_compose, taylor_map_compose


def scalar_elt(*vals):
    return JetGroupElement.from_arrays([np.full((1,) * (k + 2), v)
                                        for k, v in enumerate(vals)])


def test_identity_shapes():
    e = jet_identity(2, 3)
    assert np.array_equal(e.arrays[0], np.eye(2))
    assert not e.arrays[1].any() and not e.arrays[2].any()


def test_compose_pin_order2():
    # scalar order-2 product: (2,3)(5,7) -> (10, 3*25 + 2*7) = (10, 89)
    ab = jet_compose(scalar_elt(2, 3), scalar_elt(5, 7))
    assert ab.arrays[0].item() == pytest.approx(10.0)
    assert ab.arrays[1].item() == pytest.approx(89.0)


def test_compose_pin_order3():
    ab = jet_compose(scalar_elt(1, 1, 1), scalar_elt(1, 1, 1))
    assert [a.item() for a in ab.arrays] == pytest.approx([1.0, 2.0, 5.0])


def test_inverse_pin_order2():
    inv = jet_inverse(scalar_elt(2, 3))
    assert inv.arrays[0].item() == pytest.approx(0.5)
    assert inv.arrays[1].item() == pytest.approx(-0.375)


def test_singular_linear_part_rejected():
    with pytest.raises((SingularityError, np.linalg.LinAlgError)):
        jet_inverse(JetGroupElement.from_arrays([np.zeros((2, 2)),
                                                 np.zeros((2, 2, 2))]))


def test_group_laws_random():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        for r in (2, 3, 4):
            for _ in range(10):
                a, b, c = (rand_group(rng, n, r) for _ in range(3))
                e = jet_identity(n, r)
                lhs = jet_compose(jet_compose(a, b), c)
                rhs = jet_compose(a, jet_compose(b, c))
                assert all(gap(x, y) < 1e-9 for x, y in zip(lhs.arrays, rhs.arrays))
                ae = jet_compose(a, e)
                assert all(gap(x, y) < 1e-12 for x, y in zip(ae.arrays, a.arrays))
                prod = jet_compose(a, jet_inverse(a))
                assert all(gap(x, y) < 1e-9
                           for x, y in zip(prod.arrays, e.arrays))


def test_closed_form_agreement():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3):
        for r in (2, 3):
            for _ in range(20):
                a, b = rand_group(rng, n, r), rand_group(rng, n, r)
                got = jet_compose(a, b).arrays
                want = closed_form_compose(a.arrays, b.arrays, r)
                assert all(gap(x, y) < 1e-12 for x, y in zip(got, want))


def test_taylor_oracle_on_symmetric_elements():
    rng = np.random.default_rng(2)
    for n in (1, 2):
        for r in (2, 3):
            for _ in range(15):
                a, b = rand_classical(rng, n, r), rand_classical(rng, n, r)
                got = jet_compose(epsilon_embed(a), epsilon_embed(b)).arrays
                want = taylor_map_compose(a.arrays, b.arrays, r)
                assert all(gap(x, y) < 1e-7 for x, y in zip(got, want))


def test_epsilon_pin_and_rejection():
    # the symmetric 2-jet (1, 2) passes through unchanged
    c = ClassicalJet.from_arrays([np.eye(1), np.full((1, 1, 1), 2.0)])
    g = epsilon_embed(c)
    assert g.arrays[1].item() == pytest.approx(2.0)
    arr = np.zeros((2, 2, 2))
    arr[0, 0, 1] = 1.0
    with pytest.raises((ShapeMismatchError, ValueError)):
        ClassicalJet.from_arrays([np.eye(2), arr])


def test_classical_jet_rejects_asymmetric_tensor_naming_worst_order():
    arr2 = np.zeros((2, 2, 2))
    arr2[0, 0, 1] = 0.5
    with pytest.raises(AsymmetryError, match=r"order-2 tensor asymmetric \(gap 0\.5 >"):
        ClassicalJet.from_arrays([np.eye(2), arr2])
    arr3 = np.zeros((2, 2, 2, 2))
    arr3[1, 0, 0, 1] = 3.0
    with pytest.raises(AsymmetryError, match=r"order-3 tensor asymmetric \(gap 3 >"):
        ClassicalJet.from_arrays([np.eye(2), arr2, arr3])


def test_classical_jet_with_base_compares_by_value_and_pickles_read_only():
    c = rand_classical(np.random.default_rng(14), 2, 3)
    base = np.array([0.5, -1.0])
    jet = ClassicalJet.from_arrays(c.arrays, base=base)
    base[0] = 7.0  # the jet keeps its own copy
    assert jet.base.tolist() == [0.5, -1.0]
    base[0] = 0.5
    back = pickle.loads(pickle.dumps(jet))
    assert back == jet and jet == back
    assert not back.base.flags.writeable
    assert not any(arr.flags.writeable for arr in back.arrays)
    assert jet != ClassicalJet.from_arrays(c.arrays, base=base + 1.0)
    assert jet != ClassicalJet.from_arrays(c.arrays)
    assert jet != c.arrays


def test_kappa_pin():
    arr = np.zeros((2, 2, 2))
    arr[0, 0, 1] = 4.0
    arr[0, 1, 0] = 2.0
    c = kappa_project(JetGroupElement.from_arrays([np.eye(2), arr]))
    assert c.arrays[1][0, 0, 1] == c.arrays[1][0, 1, 0] == pytest.approx(3.0)


def test_kappa_is_a_retraction_of_epsilon():
    rng = np.random.default_rng(3)
    for n, r in [(1, 2), (2, 3), (3, 4)]:
        c = rand_classical(rng, n, r)
        back = kappa_project(epsilon_embed(c))
        # re-symmetrizing a symmetric tensor only reorders float additions
        assert all(gap(x, y) < 1e-15 for x, y in zip(back.arrays, c.arrays))
        ok, _ = is_classical(epsilon_embed(c))
        assert ok


def test_epsilon_is_a_homomorphism():
    rng = np.random.default_rng(4)
    for n, r in [(1, 3), (2, 3), (2, 4)]:
        for _ in range(10):
            c1, c2 = rand_classical(rng, n, r), rand_classical(rng, n, r)
            lhs = epsilon_embed(classical_compose(c1, c2))
            rhs = jet_compose(epsilon_embed(c1), epsilon_embed(c2))
            assert all(gap(x, y) < 1e-9 for x, y in zip(lhs.arrays, rhs.arrays))


def test_kappa_homomorphism_at_order_two():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        for _ in range(20):
            a, b = rand_group(rng, n, 2), rand_group(rng, n, 2)
            lhs = kappa_project(jet_compose(a, b))
            rhs = classical_compose(kappa_project(a), kappa_project(b))
            assert all(gap(x, y) < 1e-12 for x, y in zip(lhs.arrays, rhs.arrays))


def test_kappa_onesided_law_at_higher_order():
    # with a symmetric left factor the projection commutes with the product
    # at every order; the unconditional two-sided law holds only at order 2
    rng = np.random.default_rng(6)
    for n, r in [(2, 3), (3, 3), (2, 4)]:
        for _ in range(10):
            c, b = rand_classical(rng, n, r), rand_group(rng, n, r)
            lhs = kappa_project(jet_compose(epsilon_embed(c), b))
            rhs = classical_compose(c, kappa_project(b))
            assert all(gap(x, y) < 1e-12 for x, y in zip(lhs.arrays, rhs.arrays))


def test_is_classical_witness():
    arr = np.zeros((2, 2, 2))
    arr[0, 0, 1] = 5.0
    arr[0, 1, 0] = 3.0
    ok, witness = is_classical(JetGroupElement.from_arrays([np.eye(2), arr]))
    assert not ok
    assert witness == {"order": 2, "axes": (1, 2), "index": (0, 0, 1), "gap": 2.0}
    assert is_classical(jet_identity(2, 3)) == (
        True, {"order": None, "axes": None, "index": None, "gap": 0.0})


def test_adjoint_pin_and_linearity():
    a = scalar_elt(2, 3)
    X = JetAlgebraElement.from_arrays([np.array([1.0]), np.array([[1.0]])])
    adx = adjoint_action(a, X)
    assert adx.arrays[0].item() == pytest.approx(0.5)
    assert adx.arrays[1].item() == pytest.approx(0.25)
    # identity acts trivially
    e = jet_identity(1, 2)
    same = adjoint_action(e, X)
    assert all(gap(x, y) == 0.0 for x, y in zip(same.arrays, X.arrays))


def test_adjoint_antihomomorphism():
    rng = np.random.default_rng(7)
    for n, r in [(1, 2), (2, 3)]:
        for _ in range(10):
            a, b = rand_group(rng, n, r), rand_group(rng, n, r)
            X = JetAlgebraElement.from_arrays(
                [rng.uniform(-1, 1, (n,) * (k + 1)) for k in range(r)]
            )
            lhs = adjoint_action(jet_compose(a, b), X)
            rhs = adjoint_action(b, adjoint_action(a, X))
            assert all(gap(x, y) < 1e-10 for x, y in zip(lhs.arrays, rhs.arrays))


def test_adjoint_matrix_invertible():
    rng = np.random.default_rng(8)
    n, r = 2, 2
    a = rand_group(rng, n, r)
    size = n + n * n
    cols = []
    for i in range(size):
        vec = np.zeros(size)
        vec[i] = 1.0
        X = JetAlgebraElement.from_flat(n, r, vec)
        cols.append(adjoint_action(a, X).flat())
    mat = np.column_stack(cols)
    assert abs(np.linalg.det(mat)) > 1e-8


def test_json_roundtrip():
    g = scalar_elt(2, 3)
    back = JetGroupElement.from_json(g.to_json())
    assert all(gap(x, y) == 0.0 for x, y in zip(back.arrays, g.arrays))


def fraction_array(rng, shape):
    num = rng.integers(-5, 6, size=shape)
    den = rng.integers(1, 4, size=shape)
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(*shape):
        out[idx] = Fraction(int(num[idx]), int(den[idx]))
    return out


def fraction_jet(rng, n, r):
    return [fraction_array(rng, (n,) * (k + 1)) for k in range(1, r + 1)]


def stencil_derivative(f):
    """d/dt f(t) at 0 by the five-point stencil with step 1: exact for degree <= 4."""
    return [
        (m2 - 8 * m1 + 8 * p1 - p2) / 12
        for m2, m1, p1, p2 in zip(f(-2), f(-1), f(1), f(2))
    ]


def all_fractions(arrays):
    return all(isinstance(x, Fraction) for arr in arrays for x in arr.flat)


# (3, 4) is left out: object einsum makes it take seconds, and exactness
# depends on the dtype of each sum, not on the size
FRACTION_SHAPES = [(n, r) for n in (1, 2, 3) for r in (1, 2, 3, 4) if (n, r) != (3, 4)]


@pytest.mark.parametrize("n, r", FRACTION_SHAPES)
def test_right_derivative_is_exact_on_fractions(n, r):
    rng = np.random.default_rng([n, r])
    a, b, db = (fraction_jet(rng, n, r) for _ in range(3))
    got = compose_right_derivative(a, b, db)
    want = stencil_derivative(
        lambda t: compose_tensors(a, [x + t * y for x, y in zip(b, db)])
    )
    assert all_fractions(got)
    assert all(np.array_equal(x, y) for x, y in zip(got, want))


@pytest.mark.parametrize("n, r", FRACTION_SHAPES)
def test_group_translation_is_exact_on_fractions(n, r):
    rng = np.random.default_rng([n, r, 1])
    u, y = fraction_jet(rng, n, r), fraction_jet(rng, n, r)
    identity = identity_arrays(n, r, y[0])
    assert all(arr.dtype == object for arr in identity)
    got = compose_right_derivative(u, identity, y)
    want = stencil_derivative(
        lambda t: compose_tensors(u, [e + t * x for e, x in zip(identity, y)])
    )
    assert all_fractions(got)
    assert all(np.array_equal(x, w) for x, w in zip(got, want))


def test_identity_factors_give_exact_results():
    """Terms with an all-zero factor are skipped; what is left is exact."""
    rng = np.random.default_rng(5)
    for n, r in [(1, 3), (2, 4), (3, 3)]:
        a = rand_group(rng, n, r).arrays
        e = identity_arrays(n, r)
        for got in (compose_tensors(a, e), compose_tensors(e, a)):
            assert all(np.array_equal(x, y) for x, y in zip(got, a))
        assert all(np.array_equal(x, y) for x, y in zip(jet_inverse(jet_identity(n, r)).arrays, e))
        zero = compose_right_derivative(a, a, [np.zeros_like(x) for x in a])
        assert all(x.dtype == float and not x.any() for x in zero)
    u = fraction_jet(np.random.default_rng(6), 2, 3)
    zero = compose_right_derivative(u, u, [0 * x for x in u])  # every term skipped
    assert all_fractions(zero) and not any(x.any() for x in zero)


def test_one_contraction_per_composition_and_slot(monkeypatch):
    """2^(k-1) einsums per product order, (k+1)·2^(k-2) per right-derivative order."""
    calls = []  # jetgroup's numpy swapped for a copy whose einsum counts its calls
    proxy = types.ModuleType("numpy")
    proxy.__dict__.update(np.__dict__)
    proxy.einsum = lambda *args, **kwargs: calls.append(args[0]) or np.einsum(*args, **kwargs)
    monkeypatch.setattr(jetgroup, "np", proxy)
    rng = np.random.default_rng(17)
    a, b, db = (rand_group(rng, 2, 6).arrays for _ in range(3))
    e = identity_arrays(2, 6)
    zero = [np.zeros_like(x) for x in db]

    def count(*args):
        calls.clear()
        _order_k(*args)
        return len(calls)

    for k in range(1, 7):
        assert count(a, b, k) == 2 ** (k - 1)
        assert count(a, b, k, db) == (k + 1) * 2 ** (k - 1) // 2
        # at the identity: the all-singleton composition, with db in any block, and
        # each composition with one larger block, with db in that block
        assert count(a, e, k) == 1
        assert count(a, e, k, db) == k * (k + 1) // 2
        assert count(a, b, k, zero) == 0


def assert_same_as_per_term(a, b, db):
    """compose_tensors and compose_right_derivative equal the per-term sums bit for bit."""
    for got, d in ((compose_tensors(a, b), None), (compose_right_derivative(a, b, db), db)):
        for k, x in enumerate(got, start=1):
            want = per_term_order_k(a, b, k, d)
            assert x.dtype == want.dtype and np.array_equal(x, want), (len(a[0]), k, d is None)


@pytest.mark.parametrize("n, r", [(1, 6), (2, 6), (3, 5), (4, 4)])
def test_composition_plan_sums_like_the_per_term_evaluator(n, r):
    rng = np.random.default_rng([n, r, 2])
    a, b, db = (rand_group(rng, n, r).arrays for _ in range(3))
    sparse = [x if k % 2 else np.zeros_like(x) for k, x in enumerate(db, start=1)]
    assert_same_as_per_term(a, b, db)
    assert_same_as_per_term(a, identity_arrays(n, r), sparse)
    assert_same_as_per_term(a, b, sparse)
    # the benchmark's complex-step checks pass complex operands
    tilt = [x + 1e-20j * y for x, y in zip(b, db)]
    assert_same_as_per_term([x + 1j * y for x, y in zip(a, b)], tilt, db)


def test_composition_plan_sums_fractions_like_the_per_term_evaluator():
    rng = np.random.default_rng(18)
    a, b, db = (fraction_jet(rng, 2, 3) for _ in range(3))
    assert_same_as_per_term(a, b, db)
    assert_same_as_per_term(a, identity_arrays(2, 3, a[0]), [db[0], 0 * db[1], db[2]])
