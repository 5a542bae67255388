"""Shared random generators, test helpers and the acceptance-criteria summary hook."""
import os

# one BLAS thread, set before numpy loads: the matrices here are small, and
# threaded BLAS on them is slower, much more so beside another busy process
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")
# child processes (the command line, perfbench) import the same checkout as the tests
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

import numpy as np
import pytest

from formalframes import FrameCoords, forms, jetgroup, taylor

# the verify suites' random data, re-exported to the test modules
from formalframes.verify import (  # noqa: F401
    rand_christoffel,
    rand_classical,
    rand_frame,
    rand_group,
    rand_linear,
    rand_tangent,
)

# registry filled by tests/test_acceptance.py: num -> (description, passed)
CRITERIA = {}


def record_criterion(num, desc, passed):
    CRITERIA[num] = (desc, passed)


def pytest_terminal_summary(terminalreporter):
    if not CRITERIA:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(CRITERIA):
        desc, ok = CRITERIA[num]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d} [{status}] {desc}")


def gap(x, y):
    return float(np.max(np.abs(np.asarray(x) - np.asarray(y))))


def check_theta_gates(iso):
    """θ = L_u⁻¹ of a `TangentIso` meets both gates of its block substitution.

    Residual: max|L·θ − I| ≤ 1e-14 · max(|L|·|θ|).  Reference, where
    cond(L_u) ≤ 1e8: max|θ − inv(L_u)| ≤ N · cond(L_u) · 2⁻⁵² · max|θ|, the
    dense inverse's own error bound, so an ill-conditioned L_u is compared
    only as far as the reference itself is accurate.
    """
    L, theta = iso.matrix, iso.inverse
    N = len(L)
    assert np.max(np.abs(L @ theta - np.eye(N))) <= 1e-14 * np.max(np.abs(L) @ np.abs(theta))
    cond = np.linalg.cond(L)
    if cond <= 1e8:
        bound = N * cond * 2.0**-52 * np.max(np.abs(theta))
        assert np.max(np.abs(theta - np.linalg.inv(L))) <= bound


@pytest.fixture
def lapack_calls(monkeypatch):
    """(name, operand shapes) of every np.linalg.svd, inv and solve call, in order."""
    calls = []
    for name in ("svd", "inv", "solve"):
        def recorded(*args, _name=name, _call=getattr(np.linalg, name), **kwargs):
            calls.append((_name, [np.shape(arg) for arg in args]))
            return _call(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return calls


def frame1d(base, *vals):
    """One-dimensional frame with constant tensors u¹, u², … = vals."""
    return FrameCoords.from_arrays(
        [base], [np.full((1,) * (k + 2), v) for k, v in enumerate(vals)]
    )


# -- the dense composition, one series at a time, that taylor.compose_all replaced


def per_series_compose(f, inner):
    """f with inner[i] substituted for x_i: its own powers of inner, one term at a time."""
    basis = taylor._basis(f.m, f.order)
    m_out = inner[0].m
    table = taylor._product_table(m_out, f.order)
    one = taylor._unit(len(taylor._basis(m_out, f.order).exps))
    terms = basis.graded[f._v[basis.graded] != 0]
    powers = []
    for g, top in zip(inner, basis.powers[terms].max(axis=0, initial=0)):
        ps = [one]
        for _ in range(top):
            ps.append(taylor._mul(ps[-1], g._v, table))
        powers.append(ps)
    acc = np.zeros_like(one)
    for k in terms:
        factors = [powers[i][e] for i, e in enumerate(basis.exps[k]) if e]
        term = f._v[k] * (factors[0] if factors else one)
        for p in factors[1:]:
            term = taylor._mul(term, p, table)
        acc = acc + term
    return f._new(acc, m=m_out)


def per_series_shift(f, point):
    """f(point + t) as a series in t, by `per_series_compose`."""
    basis = taylor._basis(f.m, f.order)
    shifted = np.zeros((f.m, len(basis.exps)))
    shifted[:, 0] = np.asarray(point, dtype=float)
    units = np.flatnonzero(basis.degree == 1)
    shifted[basis.powers[units].argmax(axis=1), units] = 1.0
    return per_series_compose(f, [f._new(v) for v in shifted])


# -- the per-term product evaluator that the composition plan of jetgroup._order_k replaced


def per_term_order_k(a_arrays, b_arrays, k, db_arrays=None):
    """Order-k component of a·b, or its derivative in b along db: one einsum per term."""
    b_zero = [not arr.any() for arr in b_arrays[:k]]
    db_zero = [] if db_arrays is None else [not arr.any() for arr in db_arrays[:k]]
    acc = None
    for term in jetgroup.product_terms(k):
        orders = [len(block) - 1 for block in term]
        zero = [t for t, o in enumerate(orders) if b_zero[o]]
        if db_arrays is None:
            slots = () if zero else (None,)
        elif len(zero) == 1:
            slots = zero
        else:
            slots = () if zero else range(len(term))
        for t in slots:
            if t is not None and db_zero[orders[t]]:
                continue
            factors = [(db_arrays if s == t else b_arrays)[o] for s, o in enumerate(orders)]
            val = jetgroup.eval_term(a_arrays[len(term) - 1], factors, term)
            acc = val if acc is None else acc + val
    if acc is None:
        like = b_arrays[:1] if db_arrays is None else [b_arrays[0], db_arrays[0]]
        zeros = np.zeros((len(a_arrays[0]),) * (k + 1), np.result_type(a_arrays[0], *like))
        return zeros + 0 * a_arrays[0].flat[0]
    return acc


# -- the per-coordinate ∂θ block that the one sweep of forms.FrameCalculus replaced


def per_coordinate_partial_block(calc, rows, width):
    """The given rows of `calc.partials` on columns < width (N or M): (R, M, width).

    ∂_A θ_B = −(L⁻¹ (∂_A L) L⁻¹)_B for B < N and 0 for the top-order B,
    so each ∂_A θ is a sum of outer products, one per triplet of ∂_A L.
    """
    A, j, k, value = forms.translation_matrix_derivative(calc.n, calc.r)
    left = -calc._Linv[rows][:, j] * value  # (R, nnz)
    right = calc._Linv[k]  # (nnz, N)
    out = np.zeros((left.shape[0], calc.M, width))
    bounds = np.searchsorted(A, np.arange(calc.M + 1))
    for a in range(calc.M):
        s, e = bounds[a], bounds[a + 1]
        if s < e:
            out[:, a, : calc.N] = left[:, s:e] @ right[s:e]
    return out
