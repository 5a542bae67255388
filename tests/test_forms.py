import itertools
import tracemalloc

import numpy as np
import pytest
from conftest import frame1d, gap, rand_frame, rand_group, rand_tangent

from formalframes import (
    BundleTangent,
    FrameCoords,
    FrameCalculus,
    RealizabilityDisagreement,
    TorsionType,
    adjoint_action,
    algebra_size,
    canonical_form,
    coord_size,
    curvature,
    enumerate_torsion_types,
    realizability_check,
    right_action,
    right_action_pushforward,
    schwarzian,
    structural_residual,
    symmetrize_array,
    torsion,
)
from formalframes import bundle
from formalframes.bundle import tangent_iso, translation_matrix
from formalframes.forms import form_partials, torsion_wedge_terms, translation_matrix_derivative


def test_canonical_form_identity_frame():
    u = FrameCoords.identity_frame(2, 2)
    X = rand_tangent(np.random.default_rng(0), 2, 2)
    theta = canonical_form(u, X)
    assert gap(theta.arrays[0], X.d_base) < 1e-12
    assert gap(theta.arrays[1], X.arrays[0]) < 1e-12


def test_canonical_form_pin():
    u = frame1d(0.3, 2.0, 6.0)
    X = BundleTangent.from_arrays([1.0], [np.array([[0.0]]), np.array([[[0.0]]])])
    theta = canonical_form(u, X)
    assert theta.arrays[0].item() == pytest.approx(0.5)
    assert theta.arrays[1].item() == pytest.approx(-1.5)


def test_translation_matrix_built_once_per_frame(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return translation_matrix(*args)

    monkeypatch.setattr(bundle, "translation_matrix", counted)
    rng = np.random.default_rng(11)
    u = rand_frame(rng, 2, 3)
    X = rand_tangent(rng, 2, 3)
    realizability_check(u)
    calc = FrameCalculus(u)
    theta = canonical_form(u, X)
    L = tangent_iso(u)
    assert len(calls) == 1
    assert L is calc.iso
    assert np.array_equal(calc.theta_table[:, : calc.N], np.linalg.inv(calc.iso.matrix))
    assert np.array_equal(theta.flat(), np.linalg.solve(calc.iso.matrix, X.flat()[: calc.N]))


def test_form_partials_match_finite_differences():
    rng = np.random.default_rng(1)
    for n, r in [(1, 2), (2, 2), (2, 3)]:
        u = rand_frame(rng, n, r)
        calc = FrameCalculus(u)
        G = form_partials(u)
        h = 1e-5
        flat = u.coords_flat()
        for A in rng.choice(calc.M, size=min(4, calc.M), replace=False):
            up, dn = flat.copy(), flat.copy()
            up[A] += h
            dn[A] -= h

            def theta_table_at(vec):
                t = BundleTangent.from_flat(n, r, vec)  # the layout of coords_flat
                pu = FrameCoords.from_arrays(t.d_base, t.arrays)
                return FrameCalculus(pu).theta_table

            fd = (theta_table_at(up) - theta_table_at(dn)) / (2 * h)
            assert gap(G[:, A, :], fd) < 1e-6


def test_torsion_type_enumeration():
    assert enumerate_torsion_types(1) == [TorsionType(1, ())]
    assert [t.p for t in enumerate_torsion_types(2)] == [(1,), (2,)]
    assert len(enumerate_torsion_types(3)) == 6
    assert len(enumerate_torsion_types(4)) == 24


def test_order2_wedge_term_lists():
    # dθ^i_j + θ^i_l∧θ^l_j + θ^i_{lj}∧θ^0  (type 1)  /  θ^i_{jl}∧θ^0 (type 2)
    assert torsion_wedge_terms(TorsionType(2, (1,))) == [
        (("l",), (0,)),
        (("l", 0), ()),
    ]
    assert torsion_wedge_terms(TorsionType(2, (2,))) == [
        (("l",), (0,)),
        ((0, "l"), ()),
    ]


def test_order3_wedge_term_lists():
    assert torsion_wedge_terms(TorsionType(3, (1, 3))) == [
        (("l",), (0, 1)),
        (("l", 0), (1,)),
        (("l", 1), (0,)),
        ((0, 1, "l"), ()),
    ]
    assert torsion_wedge_terms(TorsionType(3, (2, 2))) == [
        (("l",), (0, 1)),
        ((0, "l"), (1,)),
        ((1, "l"), (0,)),
        ((0, "l", 1), ()),
    ]


def test_first_torsion_pin():
    # u¹ = I with one asymmetric order-2 entry: Θ¹ on the base pair equals
    # the asymmetry gap 5 − 3 = 2 in component i=1
    arr = np.zeros((2, 2, 2))
    arr[0, 0, 1] = 5.0
    arr[0, 1, 0] = 3.0
    u = FrameCoords.from_arrays([0.0, 0.0], [np.eye(2), arr])
    table = FrameCalculus(u).base_torsion_table(TorsionType(1))
    assert abs(table[0, 0, 1]) == pytest.approx(2.0)
    assert table[0, 0, 1] == -table[0, 1, 0]


def test_base_and_full_torsion_tables_agree_on_base_pairs():
    rng = np.random.default_rng(2)
    for n, r in [(2, 3), (2, 2)]:
        u = rand_frame(rng, n, r)
        calc = FrameCalculus(u)
        for t in enumerate_torsion_types(1) + enumerate_torsion_types(min(2, r - 1)):
            full = calc.torsion_table(t)[..., : n, : n]
            base = calc.base_torsion_table(t)
            assert gap(full, base) < 1e-10


def test_torsion_antisymmetric_in_arguments():
    rng = np.random.default_rng(3)
    u = rand_frame(rng, 2, 3)
    X, Y = rand_tangent(rng, 2, 3), rand_tangent(rng, 2, 3)
    t = TorsionType(2, (1,))
    assert gap(torsion(u, t, X, Y), -torsion(u, t, Y, X)) < 1e-12
    assert gap(torsion(u, t, X, X), np.zeros((2, 2, 2))) < 1e-12


def test_structural_equations_on_classical_frames():
    rng = np.random.default_rng(4)
    for n, r in [(2, 3), (3, 3), (2, 4)]:
        u = rand_frame(rng, n, r, classical=True)
        X, Y = rand_tangent(rng, n, r), rand_tangent(rng, n, r)
        for k in range(1, r):
            for t in enumerate_torsion_types(k):
                res = structural_residual(u, k, X, Y, t)
                assert np.max(np.abs(res)) < 1e-7


def test_structural_residual_rejects_asymmetric_frames():
    rng = np.random.default_rng(5)
    u = rand_frame(rng, 2, 2, classical=False)
    X, Y = rand_tangent(rng, 2, 2), rand_tangent(rng, 2, 2)
    from formalframes import ShapeMismatchError

    with pytest.raises(ShapeMismatchError):
        structural_residual(u, 1, X, Y)


def test_realizability_sweep():
    rng = np.random.default_rng(6)
    count = 0
    for i in range(120):
        n = int(rng.integers(1, 4))
        r = int(rng.integers(2, 5))
        u = rand_frame(rng, n, r, classical=i % 2 == 0)
        res = realizability_check(u)
        # one-dimensional tensors are symmetric no matter how they were drawn
        assert res["realizable"] == (i % 2 == 0 or n == 1)
        count += 1
    assert count == 120


def test_realizability_detects_single_order_perturbation():
    rng = np.random.default_rng(7)
    for order in (2, 3):
        u = rand_frame(rng, 2, 3, classical=True)
        arrays = [a.copy() for a in u.arrays]
        arr = arrays[order - 1].copy()
        idx = (0,) + (0,) * (order - 1) + (1,)
        arr[idx] += 0.5
        arrays[order - 1] = arr
        bad = FrameCoords.from_arrays(u.base, arrays)
        res = realizability_check(bad)
        assert not res["realizable"]
        assert res["max_torsion"] > 1e-3
        assert res["witness"]["asymmetry"] == {
            "order": order, "axes": (order - 1, order), "index": idx, "gap": pytest.approx(0.5)}


def test_curvature_vanishes_on_repeated_argument():
    rng = np.random.default_rng(8)
    u = rand_frame(rng, 2, 2)
    X = rand_tangent(rng, 2, 2)
    assert gap(curvature(u, X, X), np.zeros((2, 2))) < 1e-12


def test_curvature_local_formula_at_trivial_frame():
    # u¹ = I, u² = 0: Ω(X,Y) = −(X²_{jβ}Y⁰^β − Y²_{jβ}X⁰^β)
    rng = np.random.default_rng(9)
    u = FrameCoords.identity_frame(2, 2)
    X, Y = rand_tangent(rng, 2, 2), rand_tangent(rng, 2, 2)
    got = curvature(u, X, Y)
    want = -(
        np.einsum("ijb,b->ij", X.arrays[1], Y.d_base)
        - np.einsum("ijb,b->ij", Y.arrays[1], X.d_base)
    )
    assert gap(got, want) < 1e-10


def test_order2_torsions_decompose_through_curvature():
    # both order-2 torsions differ from Ω by an explicit θ²∧θ⁰ wedge
    rng = np.random.default_rng(10)
    for _ in range(5):
        u = rand_frame(rng, 2, 3)
        calc = FrameCalculus(u)
        omega = calc.curvature_table()
        O2 = calc.theta_component(2)
        O0 = calc.theta_component(0)
        for t, sub in [(TorsionType(2, (1,)), "iljA,lB"),
                       (TorsionType(2, (2,)), "ijlA,lB")]:
            W = np.einsum(f"{sub}->ijAB", O2, O0)
            wedge = W - np.swapaxes(W, -1, -2)
            assert gap(calc.torsion_table(t), omega + wedge) < 1e-10


def test_canonical_form_equivariance():
    rng = np.random.default_rng(11)
    for n, r in [(1, 2), (2, 3), (3, 4)]:
        u = rand_frame(rng, n, r)
        a = rand_group(rng, n, r)
        X = rand_tangent(rng, n, r)
        lhs = canonical_form(right_action(u, a), right_action_pushforward(u, a, X))
        rhs = adjoint_action(a, canonical_form(u, X))
        assert all(gap(x, y) < 1e-8 for x, y in zip(lhs.arrays, rhs.arrays))


def test_realizability_disagreement_is_loud():
    # feeding inconsistent tolerances through the public entry must raise,
    # not silently pick a side: a barely-asymmetric frame at huge tol on one
    # criterion only cannot happen through the API, so check the guard class
    assert issubclass(RealizabilityDisagreement, RuntimeError)


def test_schwarzian_pins():
    assert schwarzian((1.0, 1.0, 1.0)) == pytest.approx(-0.5)
    assert schwarzian((2.0, 0.0, 0.0)) == pytest.approx(0.0)


def test_schwarzian_moebius_and_cocycle():
    from formalframes import SmoothMapSpec, transition_jet

    rng = np.random.default_rng(12)
    for _ in range(100):
        while True:
            a, b, c, d = rng.uniform(-2, 2, 4)
            if abs(a * d - b * c) > 0.3:
                break
        x = float(rng.uniform(-1, 1))
        if abs(c * x + d) < 0.2:
            continue
        T = transition_jet(SmoothMapSpec.moebius(a, b, c, d), [x], 3)
        assert abs(schwarzian([t.reshape(()) for t in T.arrays])) < 1e-10
    for _ in range(25):
        f = SmoothMapSpec.polynomial_1d(
            [0.0, float(rng.uniform(1, 2)), float(rng.uniform(-0.3, 0.3)),
             float(rng.uniform(-0.2, 0.2))])
        phi = SmoothMapSpec.polynomial_1d(
            [0.0, float(rng.uniform(1, 2)), float(rng.uniform(-0.3, 0.3)),
             float(rng.uniform(-0.2, 0.2))])
        x = float(rng.uniform(-0.5, 0.5))
        Tf = transition_jet(f, [x], 3)
        Tphi = transition_jet(phi, Tf.value, 3)
        Tc = transition_jet(SmoothMapSpec.composite(f, phi), [x], 3)
        fp = float(Tf.arrays[0].reshape(()))
        lhs = schwarzian([t.reshape(()) for t in Tc.arrays])
        rhs = (schwarzian([t.reshape(()) for t in Tphi.arrays]) * fp ** 2
               + schwarzian([t.reshape(()) for t in Tf.arrays]))
        assert lhs == pytest.approx(rhs, abs=1e-8)


# --------------------------------------------------------------------------
# the sparse calculus against the dense formulas it replaced


def _scaled_frame(rng, n, r, classical, scale):
    u = rand_frame(rng, n, r, classical)
    return FrameCoords.from_arrays(u.base, [u.arrays[0] * scale] + u.arrays[1:])


def _reference_translation_block(u_arrays, n, k, P):
    """Block of L_u from the order-|P| algebra slot into the order-k slot, one einsum.

    P selects which output index positions are fed by the algebra tensor;
    the remaining positions contract the frame tensor against identities.
    Summing over all P of a fixed size gives the full block.
    """
    letters = "abcdefghijklmnopqrstuvwxyz"
    m = len(P)
    rest = [q for q in range(k) if q not in P]
    blocks = sorted([P] + [(q,) for q in rest], key=min)
    out_j, alpha = letters[:k], letters[k]
    betas, up = letters[k + 1: k + 1 + m], letters[k + 1 + m]
    a_sub = up + "".join(alpha if block == P else out_j[block[0]] for block in blocks)
    subs = [a_sub] + [out_j[pos] + betas[t] for t, pos in enumerate(P)]
    spec = ",".join(subs) + "->" + up + out_j + alpha + betas
    block = np.einsum(spec, u_arrays[k - m], *[np.eye(n)] * m)
    return block.reshape(n ** (k + 1), n ** (m + 1))


def _reference_translation_matrix(u_arrays, n, r):
    """L_u block by block from einsums, the builder the cached table replaced."""
    offsets = np.cumsum([0] + [n ** (k + 1) for k in range(r)])
    L = np.zeros((offsets[-1], offsets[-1]))
    L[:n, :n] = u_arrays[0]
    for k in range(1, r):
        r0, r1 = offsets[k], offsets[k + 1]
        # base column: order-(k+1) frame tensor, last index contracted
        L[r0:r1, :n] = u_arrays[k].reshape(r1 - r0, n)
        for m in range(1, k + 1):
            L[r0:r1, offsets[m]:offsets[m + 1]] = sum(
                _reference_translation_block(u_arrays, n, k, P)
                for P in itertools.combinations(range(k), m))
    return L


def _reference_derivative(n, r):
    """The triplets of ∂L read off the reference L_u at one-hot frames.

    L is linear in the frame tensors, and its entries in row block k and
    column block m come from entries of the order-(k−m+1) tensor whose upper
    index is that of the row.  So one evaluation of L may switch on, in every
    order at once, the entries (i, t) of every upper index i and one flat
    lower index t: no two of them reach the same entry of L.
    """
    bounds = np.cumsum([0] + [n ** (k + 1) for k in range(r)])
    block = np.searchsorted(bounds, np.arange(bounds[-1]), side="right") - 1
    upper = (np.arange(bounds[-1]) - bounds[block]) // n ** block
    first = np.cumsum([0] + [n ** (k + 1) for k in range(r + 1)])[1:]
    A, j, k, value = [], [], [], []
    for t in range(n ** r):
        flats = [np.zeros((n, n ** p)) for p in range(1, r + 1)]
        for flat in flats:
            if t < flat.shape[1]:
                flat[:, t] = 1.0
        L = _reference_translation_matrix(
            [flat.reshape((n,) * (p + 1)) for p, flat in enumerate(flats, start=1)], n, r)
        rows, cols = np.nonzero(L)
        order = block[rows] - block[cols] + 1
        A.append(first[order - 1] + upper[rows] * n ** order + t)
        j.append(rows)
        k.append(cols)
        value.append(L[rows, cols])
    by_coordinate = np.argsort(np.concatenate(A), kind="stable")
    return tuple(np.concatenate(x)[by_coordinate] for x in (A, j, k, value))


def _dense_dL(n, r):
    """(M, N, N) stack of ∂L/∂u_A, each slice the reference L at a unit frame tensor."""
    shapes = [(n,) * (k + 1) for k in range(1, r + 1)]
    dL = np.zeros((coord_size(n, r), algebra_size(n, r), algebra_size(n, r)))
    pos = n
    for order, shape in enumerate(shapes):
        for local in range(int(np.prod(shape))):
            arrays = [np.zeros(s) for s in shapes]
            arrays[order].flat[local] = 1.0
            dL[pos] = _reference_translation_matrix(arrays, n, r)
            pos += 1
    return dL


def _rel_gap(x, ref, *terms):
    """Gap relative to the largest of ref and the terms summed into it."""
    scale = max(float(np.max(np.abs(y))) for y in (ref,) + terms)
    return gap(x, ref) / scale


@pytest.mark.parametrize(
    "n,r", [(n, r) for n in (1, 2, 3) for r in (1, 2, 3, 4)] + [(1, 6), (2, 5), (4, 4)])
def test_translation_table_matches_the_einsum_references(n, r):
    got, want = translation_matrix_derivative(n, r), _reference_derivative(n, r)
    assert len(got) == len(want) == 4
    for x, y in zip(got, want):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    rng = np.random.default_rng(80 + 10 * n + r)
    for classical in (True, False):
        for scale in (0.1, 10.0):
            u = _scaled_frame(rng, n, r, classical, scale)
            L = translation_matrix(u.arrays, n, r)
            ref = _reference_translation_matrix(u.arrays, n, r)
            if r <= 3:
                assert np.array_equal(L, ref)
            else:
                # an order-3 row entry (α, j, j, j) sums u(α, j, j), u(j, α, j)
                # and u(j, j, α): the table adds them by coordinate, the
                # einsums by subset P, so the last bit may differ
                assert _rel_gap(L, ref) < 1e-15


@pytest.mark.parametrize("n,r", [(1, 3), (2, 4), (3, 3)])
def test_derivative_triplets_rebuild_translation_matrix(n, r):
    u = rand_frame(np.random.default_rng(20 + n + r), n, r)
    A, j, k, value = translation_matrix_derivative(n, r)
    assert np.all(np.diff(A) >= 0) and A.min() >= n  # sorted, no base coordinate
    L = np.zeros((j.max() + 1,) * 2)
    np.add.at(L, (j, k), u.coords_flat()[A] * value)
    want = _reference_translation_matrix(u.arrays, n, r)
    assert _rel_gap(L, want) < 1e-14
    dense = _dense_dL(n, r)
    from_triplets = np.zeros_like(dense)
    from_triplets[A, j, k] = value
    assert np.array_equal(from_triplets, dense)
    assert translation_matrix_derivative(n, r) is translation_matrix_derivative(n, r)


def _reference_dtheta(G, calc, k):
    """dθ^k as G − Gᵀ on the rows of component k, the formula the writer replaced."""
    rows = G[calc.component_rows(k)]
    return (rows - rows.transpose(0, 2, 1)).reshape((calc.n,) * (k + 1) + (calc.M, calc.M))


def _reference_wedges(calc, k, terms, width):
    """θ^{a+1} ⊗ θ^{k−1−a} on coordinate pairs < width, one einsum per wedge term.

    Antisymmetrising their sum in the last two axes gives the wedge sum.
    """
    letters = "abcdefghijklmnopqrstuvwxyz"
    out = "i" + letters[: k - 1] + "AB"
    wedges = []
    for first, second in terms:
        a = len(first) - 1
        sub1 = "i" + "".join("l" if q == "l" else letters[q] for q in first) + "A"
        sub2 = "l" + "".join(letters[q] for q in second) + "B"
        wedges.append(np.einsum(f"{sub1},{sub2}->{out}", calc.theta_component(a + 1)[..., :width],
                                calc.theta_component(k - 1 - a)[..., :width]))
    return wedges


def _antisym(W):
    return W - np.swapaxes(W, -1, -2)


def _reference_table(G, calc, k, terms):
    """dθ^{k−1} plus the wedge sum, on the (N, N) block where θ lives; with both terms."""
    d = _reference_dtheta(G, calc, k - 1)
    wedge = _antisym(sum(_reference_wedges(calc, k, terms, calc.N)))
    table = d.copy()
    table[..., : calc.N, : calc.N] += wedge
    return table, d, wedge


@pytest.mark.parametrize("n,r", [(2, 3), (2, 4), (3, 3)])
def test_sparse_calculus_matches_dense_formulas(n, r):
    rng = np.random.default_rng(30 + n + r)
    dL = _dense_dL(n, r)
    for classical in (True, False):
        for scale in (0.1, 10.0):
            calc = FrameCalculus(_scaled_frame(rng, n, r, classical, scale))
            G = -np.einsum("ij,Ajk,kB->iAB", np.linalg.inv(calc.iso.matrix), dL,
                           calc.theta_table)
            assert _rel_gap(calc.partials, G) < 1e-12
            for k in range(r):
                assert _rel_gap(calc.dtheta_component(k), _reference_dtheta(G, calc, k)) < 1e-12
            for k in range(1, r):
                for t in enumerate_torsion_types(k):
                    ref = _reference_table(G, calc, k, torsion_wedge_terms(t))
                    assert _rel_gap(calc.torsion_table(t), *ref) < 1e-12
            ref = _reference_table(G, calc, 2, [(("l",), (0,))])
            assert _rel_gap(calc.curvature_table(), *ref) < 1e-12


@pytest.mark.parametrize("n,r", [(2, 4), (3, 3), (3, 4)])
def test_table_writer_matches_reference_formulas(n, r):
    # (3, 4) planes are larger than the writer's slice, so it takes several;
    # there, one classical and one generic frame keep the test short
    rng = np.random.default_rng(50 + n + r)
    frames = [(True, 0.1), (False, 10.0)]
    if (n, r) != (3, 4):
        frames += [(True, 10.0), (False, 0.1)]
    for classical, scale in frames:
        u = _scaled_frame(rng, n, r, classical, scale)
        fresh, kept = FrameCalculus(u), FrameCalculus(u)
        G = kept.partials
        calcs = (fresh, kept)
        for k in range(r):
            want = _reference_dtheta(G, kept, k)
            for c in calcs:
                assert _rel_gap(c.dtheta_component(k), want) < 1e-12
        for k in range(1, r):
            for t in enumerate_torsion_types(k):
                terms = torsion_wedge_terms(t)
                ref = _reference_table(G, kept, k, terms)
                # on base pairs of a classical frame the terms cancel to
                # rounding, so the gap is taken relative to the terms
                base = _reference_wedges(kept, k, terms, n)
                for c in calcs:
                    assert _rel_gap(c.torsion_table(t), *ref) < 1e-12
                    assert _rel_gap(c.base_torsion_table(t), _antisym(sum(base)), *base) < 1e-12
        ref = _reference_table(G, kept, 2, [(("l",), (0,))])
        for c in calcs:
            assert _rel_gap(c.curvature_table(), *ref) < 1e-12
        assert fresh._partials is None


@pytest.mark.parametrize("keep", [False, True])
def test_torsion_table_allocates_little_beyond_its_output(keep):
    calc = FrameCalculus(rand_frame(np.random.default_rng(60), 3, 4))
    if keep:
        calc.partials
    t = TorsionType(3, (2, 3))
    calc.torsion_table(t)  # fills the per-size caches outside the measurement
    tracemalloc.start()
    try:
        table = calc.torsion_table(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # kept partials are read in place, not computed again
    assert peak <= (1.2 if keep else 1.6) * table.nbytes
    assert table.flags.writeable and table.flags.c_contiguous


def test_torsion_tables_do_not_need_kept_partials():
    u = rand_frame(np.random.default_rng(40), 2, 3)
    fresh, kept = FrameCalculus(u), FrameCalculus(u)
    kept.partials
    t = TorsionType(2, (2,))
    assert gap(fresh.torsion_table(t), kept.torsion_table(t)) < 1e-14
    assert fresh._partials is None
    rows = kept.partials[kept.component_rows(1)].reshape(2, 2, kept.M, kept.M)
    assert gap(form_partials(u, component=1), rows) < 1e-14
