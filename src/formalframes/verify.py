"""Seeded numerical verification suites for every core identity.

Each suite draws its own deterministic generator from the configured seed,
runs a fixed number of random trials, and reports the worst residual seen
against its tolerance: a suite passes when the largest ``max|got − want|``
over all its checks is at most ``atol``, and a NaN or an exception fails it.
The CLI front end serializes the aggregate report; identical configurations
produce identical reports.
"""
from __future__ import annotations

import math

import numpy as np

from .bundle import (
    BundleTangent,
    FrameCoords,
    change_chart,
    change_chart_pushforward,
    fundamental_vector,
    right_action,
    right_action_pushforward,
)
from .charts import SmoothMapSpec, transition_jet
from .connection import (
    ChristoffelField,
    christoffel_transform,
    connection_section,
    deformation_transform,
    section_pullback_connection,
)
from .deform import (
    DeformationPair,
    GarciaPairPoint,
    TangentAlgebraElement,
    TangentGroupElement,
    check_deformation_pair,
    covariant_derivative_residual,
    deform_frame_iso,
    frame_pair_action,
    garcia_pair_action,
    lift_block_identity,
    t2m_transition,
    tg_adjoint,
    tg_bracket,
    tg_compose,
)
from .fields import PolyField
from .foliation import (
    BottData,
    bott_residual,
    deformation_equation_residual,
    transverse_pushforward,
)
from .forms import (
    FrameCalculus,
    TorsionType,
    canonical_form,
    realizability_check,
    schwarzian,
)
from .garcia import (
    garcia_action,
    garcia_action_formula,
    garcia_canonical_form,
    phi_map,
    phi_pushforward,
    psi_map,
)
from .jetgroup import (
    ClassicalJet,
    JetGroupElement,
    adjoint_action,
    classical_compose,
    epsilon_embed,
    is_classical,
    jet_compose,
    jet_identity,
    jet_inverse,
    kappa_project,
)
from .oracles import closed_form_compose, taylor_map_compose
from .tensors import record, symmetrize_array


@record
class VerifyConfig:
    seed: int = 0
    trials: int = 50
    max_n: int = 3
    max_r: int = 4
    atol: float = 1e-8
    rtol: float = 1e-8

    def __post_init__(self):
        if self.trials < 1 or not (1 <= self.max_n <= 3) or not (2 <= self.max_r <= 4):
            raise ValueError("config outside the supported desk scale: "
                             "trials >= 1, max_n 1-3, max_r 2-4")
        if not all(0 <= tol < math.inf for tol in (self.atol, self.rtol)):
            raise ValueError("atol and rtol must be finite and at least 0")


# ---------------------------------------------------------------------------
# random data helpers, shared with the command line and the test suite


def rand_linear(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q * rng.uniform(0.5, 2.0)


def rand_group(rng, n, r):
    arrays = [rand_linear(rng, n)] + [
        rng.uniform(-1, 1, (n,) * (k + 1)) for k in range(2, r + 1)
    ]
    return JetGroupElement.from_arrays(arrays)


def rand_classical(rng, n, r):
    arrays = [rand_linear(rng, n)] + [
        symmetrize_array(rng.uniform(-1, 1, (n,) * (k + 1))) for k in range(2, r + 1)
    ]
    return ClassicalJet.from_arrays(arrays)


def rand_frame(rng, n, r, classical=False):
    g = rand_classical(rng, n, r) if classical else rand_group(rng, n, r)
    return FrameCoords.from_arrays(rng.uniform(-1, 1, n), g.arrays)


def rand_tangent(rng, n, r):
    return BundleTangent.from_arrays(
        rng.uniform(-1, 1, n), [rng.uniform(-1, 1, (n,) * (k + 1)) for k in range(1, r + 1)]
    )


def _rand_poly_map(rng, n, scale=0.4):
    coeffs = {(0,) * n: tuple(rng.uniform(-scale, scale, n))}
    lin = rand_linear(rng, n) + 1.5 * np.eye(n)
    for i in range(n):
        exp = tuple(1 if j == i else 0 for j in range(n))
        coeffs[exp] = tuple(lin[:, i])
    for i in range(n):
        exp = tuple(2 if j == i else 0 for j in range(n))
        coeffs[exp] = tuple(rng.uniform(-scale, scale, n))
    return SmoothMapSpec.polynomial(n, n, coeffs)


def rand_christoffel(rng, n):
    coeffs = {(0,) * n: rng.uniform(-1, 1, (n, n, n))}
    for i in range(n):
        exp = tuple(1 if j == i else 0 for j in range(n))
        coeffs[exp] = rng.uniform(-1, 1, (n, n, n))
    return ChristoffelField(n, PolyField(n, (n, n, n), coeffs))


class _Worst:
    """The verdict of one suite: the largest residual over all its checks.

    ``check(got, want)`` records ``max|got − want|`` in float64, 0.0 for an
    empty array.  Lists and tuples are compared entry by entry; arrays must
    have equal shapes.  A NaN residual is recorded as inf, so it fails.
    """

    def __init__(self):
        self.value = 0.0

    def __call__(self, got, want):
        if isinstance(got, (list, tuple)):
            for x, y in zip(got, want, strict=True):
                self(x, y)
            return
        got, want = np.asarray(got), np.asarray(want)
        if got.shape != want.shape:
            raise ValueError(f"residual of shapes {got.shape} and {want.shape}")
        gap = float(np.max(np.abs(got - want))) if got.size else 0.0
        self.value = max(self.value, math.inf if math.isnan(gap) else gap)


def _pick(rng, cfg, r_min=1):
    n = int(rng.integers(1, cfg.max_n + 1))
    r = int(rng.integers(r_min, cfg.max_r + 1))
    return n, r


# ---------------------------------------------------------------------------
# suites


def suite_group_laws(rng, cfg):
    check = _Worst()
    for _ in range(cfg.trials):
        n, r = _pick(rng, cfg, r_min=2)
        a, b, c = (rand_group(rng, n, r) for _ in range(3))
        check(jet_compose(jet_compose(a, b), c).arrays[-1],
              jet_compose(a, jet_compose(b, c)).arrays[-1])
        e = jet_identity(n, r)
        check(jet_compose(a, e).arrays[-1], a.arrays[-1])
        check(jet_compose(a, jet_inverse(a)).arrays[0], np.eye(n))
        if r <= 3:
            check(jet_compose(a, b).arrays, closed_form_compose(a.arrays, b.arrays, r))
        sa, sb = rand_classical(rng, n, r), rand_classical(rng, n, r)
        oracle = taylor_map_compose(sa.arrays, sb.arrays, r)
        check(jet_compose(epsilon_embed(sa), epsilon_embed(sb)).arrays, oracle)
    return check.value


def suite_symmetrization(rng, cfg):
    check = _Worst()
    for _ in range(cfg.trials):
        n, r = _pick(rng, cfg, r_min=2)
        s = rand_classical(rng, n, r)
        check(kappa_project(epsilon_embed(s)).arrays, s.arrays)
        ok, _w = is_classical(epsilon_embed(s))
        check(float(not ok), 0.0)
        s2 = rand_classical(rng, n, r)
        check(classical_compose(s, s2).arrays, taylor_map_compose(s.arrays, s2.arrays, r))
    return check.value


def suite_canonical_form(rng, cfg):
    check = _Worst()
    for _ in range(cfg.trials):
        n, r = _pick(rng, cfg, r_min=2)
        u = rand_frame(rng, n, r)
        X = rand_tangent(rng, n, r)
        a = rand_group(rng, n, r)
        # equivariance: θ after acting by a = derivative of g ↦ a⁻¹ga on θ
        lhs = canonical_form(right_action(u, a), right_action_pushforward(u, a, X))
        check(lhs.arrays, adjoint_action(a, canonical_form(u, X)).arrays)
        # naturality under chart changes
        spec = _rand_poly_map(rng, n)
        T = transition_jet(spec, u.base, r + 1)
        lhs2 = canonical_form(change_chart(u, T), change_chart_pushforward(u, T, X))
        check(lhs2.arrays, canonical_form(u, X).arrays)
        # fundamental vectors reproduce their generators (top order is
        # dropped by the one-order-down canonical form)
        Y = [rng.uniform(-1, 1, (n,) * (k + 1)) for k in range(1, r + 1)]
        theta = canonical_form(u, fundamental_vector(u, Y))
        check(theta.arrays[0], np.zeros(n))
        check(theta.arrays[1:], Y[: r - 1])
    return check.value


def suite_torsion_characterization(rng, cfg):
    check = _Worst()
    for trial in range(cfg.trials):
        n, r = _pick(rng, cfg, r_min=2)
        classical = trial % 2 == 0
        u = rand_frame(rng, n, r, classical=classical)
        res = realizability_check(u, tol=cfg.atol)  # raises on disagreement
        if classical:
            check(res["max_torsion"], 0.0)
        # explicit first-torsion formula: v u² v du ∧ v du on base pairs
        calc = FrameCalculus(u)
        v = np.linalg.inv(u.arrays[0])
        u2 = u.arrays[1]
        W = np.einsum("iab,aA,bB->iAB", u2, v, v)
        explicit = np.einsum("ia,ajk->ijk", v, W - np.swapaxes(W, -1, -2))
        check(calc.base_torsion_table(TorsionType(1)), explicit)
    return check.value


def suite_structural_equations(rng, cfg):
    check = _Worst()
    for _ in range(cfg.trials):
        n, r = _pick(rng, cfg, r_min=2)
        u = rand_frame(rng, n, r, classical=True)
        mt, _w = FrameCalculus(u).max_torsion()
        check(mt, 0.0)
    return check.value


def suite_garcia(rng, cfg):
    check = _Worst()
    for _ in range(cfg.trials):
        n = int(rng.integers(1, cfg.max_n + 1))
        u = rand_frame(rng, n, 2)
        g = phi_map(u)
        check(u.arrays, psi_map(g).arrays)
        a = rand_group(rng, n, 2)
        moved = garcia_action(g, a)
        frame_side = phi_map(right_action(u, a))
        check(moved.y, frame_side.y)
        check(moved.z.entries, frame_side.z.entries)
        direct = garcia_action_formula(g, a)
        check([direct.y, direct.z.entries], [moved.y, moved.z.entries])
        X = rand_tangent(rng, n, 2)
        dx, dy, _dz = phi_pushforward(u, X)
        check(garcia_canonical_form(g, dx, dy), canonical_form(u, X).arrays[1])
    return check.value


def suite_connection(rng, cfg):
    check = _Worst()
    for _ in range(cfg.trials):
        n = int(rng.integers(1, cfg.max_n + 1))
        gf = rand_christoffel(rng, n)
        u = rand_frame(rng, n, 1)
        amat = rand_linear(rng, n)
        a1 = JetGroupElement.from_arrays([amat])
        a2 = JetGroupElement.from_arrays([amat, np.zeros((n, n, n))])
        check(connection_section(gf, right_action(u, a1)).arrays[1],
              right_action(connection_section(gf, u), a2).arrays[1])
        Xm = rng.uniform(-1, 1, (n, n))
        check(section_pullback_connection(gf, u, fundamental_vector(u, [Xm])), Xm)
        X = rand_tangent(rng, n, 1)
        check(
            section_pullback_connection(
                gf, right_action(u, a1), right_action_pushforward(u, a1, X)
            ),
            np.linalg.inv(amat) @ section_pullback_connection(gf, u, X) @ amat,
        )
        # transformation-law cocycle over a composite transition
        f1, f2 = _rand_poly_map(rng, n), _rand_poly_map(rng, n)
        p = rng.uniform(-0.3, 0.3, n)
        gamma = gf.value(p)
        T1 = transition_jet(f1, p, 2)
        T2 = transition_jet(f2, T1.value, 2)
        Tc = transition_jet(SmoothMapSpec.composite(f1, f2), p, 2)
        check(christoffel_transform(christoffel_transform(gamma, T1), T2),
              christoffel_transform(gamma, Tc))
    return check.value


def suite_deform(rng, cfg):
    check = _Worst()
    for _ in range(cfg.trials):
        n = int(rng.integers(1, cfg.max_n + 1))
        P = TangentGroupElement(rand_linear(rng, n), rng.uniform(-1, 1, (n, n)))
        Q = TangentGroupElement(rand_linear(rng, n), rng.uniform(-1, 1, (n, n)))
        check(tg_compose(P, Q).matrix_rep(), P.matrix_rep() @ Q.matrix_rep())
        U = TangentAlgebraElement(rng.uniform(-1, 1, (n, n)), rng.uniform(-1, 1, (n, n)))
        V = TangentAlgebraElement(rng.uniform(-1, 1, (n, n)), rng.uniform(-1, 1, (n, n)))
        check(tg_bracket(U, V).matrix_rep(),
              U.matrix_rep() @ V.matrix_rep() - V.matrix_rep() @ U.matrix_rep())
        check(tg_adjoint(P, V).matrix_rep(),
              P.matrix_rep() @ V.matrix_rep() @ np.linalg.inv(P.matrix_rep()))
        gf = rand_christoffel(rng, n)
        spec = _rand_poly_map(rng, n)
        p = rng.uniform(-0.3, 0.3, n)
        T = transition_jet(spec, p, 2)
        check(lift_block_identity(gf, T, rng.uniform(-1, 1, n)), np.zeros((2 * n, 2 * n)))
        Xf = PolyField(
            n, (n,),
            {exp: rng.uniform(-1, 1, n)
             for exp in [(0,) * n]
             + [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]},
        )
        check(covariant_derivative_residual(gf, Xf, rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)),
              np.zeros(n))
        s = GarciaPairPoint(
            n, rng.uniform(-1, 1, n), rand_linear(rng, n), rng.uniform(-1, 1, (n, n)),
            rng.uniform(-1, 1, (n, n, n)), rng.uniform(-1, 1, (n, n, n)),
        )
        g, X = rand_linear(rng, n), rng.uniform(-1, 1, (n, n))
        lf, lp = deform_frame_iso(garcia_pair_action(s, g, X))
        rf, rp = frame_pair_action(*deform_frame_iso(s), g, X)
        check(lf.arrays[1], rf.arrays[1])
        check(lp, rp)
        # 2-tangent transition cocycle
        f1, f2 = _rand_poly_map(rng, n), _rand_poly_map(rng, n)
        x = rng.uniform(-0.3, 0.3, n)
        c = (x, rng.uniform(-1, 1, n), rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
        T1 = transition_jet(f1, x, 2)
        mid = t2m_transition(c, T1)
        T2 = transition_jet(f2, mid[0], 2)
        two_step = t2m_transition(mid, T2)
        check(two_step, t2m_transition(c, transition_jet(SmoothMapSpec.composite(f1, f2), x, 2)))
    return check.value


def suite_deformation_pair(rng, cfg):
    """3-chart atlas built by exact polynomial transport; laws must hold."""
    n = 2

    def shear(alpha, c):
        return SmoothMapSpec.polynomial(2, 2, {
            (0, 0): (0.0, c),
            (1, 0): (1.0, 0.0),
            (0, 1): (0.0, 1.0),
            (0, 2): (alpha, 0.0),
        })

    t01 = shear(float(rng.uniform(0.1, 0.5)), float(rng.uniform(-0.3, 0.3)))
    t12 = shear(float(rng.uniform(-0.5, -0.1)), float(rng.uniform(-0.3, 0.3)))
    t02 = SmoothMapSpec.composite(t01, t12)

    from .taylor import multi_indices

    def rand_table():
        return PolyField(
            n, (n, n, n), {e: rng.uniform(-1, 1, (n, n, n)) for e in multi_indices(2, 2)}
        )

    def transported(table, spec, transform, degree=8):
        pts = [rng.uniform(-1, 1, 2) for _ in range(3 * len(multi_indices(2, degree)))]
        imgs, vals = [], []
        for p in pts:
            T = transition_jet(spec, p, 2)
            imgs.append(T.value)
            vals.append(transform(table.evaluate(p), T))
        return PolyField.fit(2, (n, n, n), degree, imgs, vals)

    theta0, mu0 = rand_table(), rand_table()
    pair = DeformationPair(n, {
        "c0": {"theta": theta0, "mu": mu0},
        "c1": {
            "theta": transported(theta0, t01, christoffel_transform),
            "mu": transported(mu0, t01, deformation_transform),
        },
        "c2": {
            "theta": transported(theta0, t02, christoffel_transform),
            "mu": transported(mu0, t02, deformation_transform),
        },
    })
    pts = {
        "c0": [rng.uniform(-1, 1, 2) for _ in range(max(4, cfg.trials // 4))],
        "c1": [transition_jet(t01, rng.uniform(-1, 1, 2), 2).value
               for _ in range(max(4, cfg.trials // 4))],
    }
    report = check_deformation_pair(
        pair, [("c0", "c1", t01), ("c0", "c2", t02), ("c1", "c2", t12)], pts
    )
    check = _Worst()
    check(report["max_theta_residual"], 0.0)
    check(report["max_mu_residual"], 0.0)
    return check.value


def suite_schwarzian(rng, cfg):
    check = _Worst()
    for _ in range(cfg.trials):
        while True:
            a, b, c, d = rng.uniform(-2, 2, 4)
            if abs(a * d - b * c) > 0.3:
                break
        mo = SmoothMapSpec.moebius(a, b, c, d)
        x = float(rng.uniform(-1, 1))
        if abs(c * x + d) < 0.2:
            continue
        T = transition_jet(mo, [x], 3)
        check(schwarzian([t.reshape(()) for t in T.arrays]), 0.0)
        # cocycle S(phi∘f)(x) = S(phi)(f(x)) f'(x)^2 + S(f)(x)
        f = SmoothMapSpec.polynomial_1d([0.0, float(rng.uniform(1.0, 2.0)),
                                         float(rng.uniform(-0.3, 0.3)),
                                         float(rng.uniform(-0.2, 0.2))])
        phi = SmoothMapSpec.polynomial_1d([0.0, float(rng.uniform(1.0, 2.0)),
                                           float(rng.uniform(-0.3, 0.3)),
                                           float(rng.uniform(-0.2, 0.2))])
        Tf = transition_jet(f, [x], 3)
        Tphi = transition_jet(phi, Tf.value, 3)
        Tc = transition_jet(SmoothMapSpec.composite(f, phi), [x], 3)
        s_comp = schwarzian([t.reshape(()) for t in Tc.arrays])
        fp = float(Tf.arrays[0].reshape(()))
        s_law = (
            schwarzian([t.reshape(()) for t in Tphi.arrays]) * fp ** 2
            + schwarzian([t.reshape(()) for t in Tf.arrays])
        )
        check(s_comp, s_law)
    return check.value


def suite_foliation(rng, cfg):
    check = _Worst()
    leaf, q = 1, 1
    m = leaf + q
    for _ in range(cfg.trials):
        # Bott: dy-only tables have zero leafwise residual
        tab = PolyField(m, (q, q, m), {
            (0, 0): np.concatenate(
                [np.zeros((q, q, leaf)), rng.uniform(-1, 1, (q, q, q))], axis=2
            )
        })
        B = BottData(leaf, q, {"c0": tab})
        check(bott_residual(B, "c0", rng.uniform(-1, 1, m), rng.uniform(-1, 1, leaf)),
              np.zeros((q, q)))
        # transverse pushforward cocycle
        qd = int(rng.integers(1, min(cfg.max_n, 2) + 1))
        g1 = _rand_poly_map(rng, qd, scale=0.3)
        g2 = _rand_poly_map(rng, qd, scale=0.3)
        r = int(rng.integers(1, cfg.max_r))
        u = rand_frame(rng, qd, r)
        two = transverse_pushforward(transverse_pushforward(u, g1), g2)
        one = transverse_pushforward(u, SmoothMapSpec.composite(g1, g2))
        check(two.arrays, one.arrays)
    # the valid/invalid transverse deformation example (dimension 2)
    omega = PolyField(2, (2, 2), {(0, 0): np.eye(2)})
    theta = PolyField.zero(2, (2, 2, 2))
    od = PolyField(2, (2, 2), {(0, 1): np.array([[1.0, 0.0], [0.0, 0.0]])})
    td = PolyField(2, (2, 2, 2), {
        (0, 0): np.array([[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]])
    })
    bad = PolyField(2, (2, 2, 2), {})
    for _ in range(cfg.trials):
        pt, X, Y = (rng.uniform(-1, 1, 2) for _ in range(3))
        check(deformation_equation_residual(omega, theta, od, td, pt, X, Y), np.zeros(2))
    # the invalid example must be detected: its residual is far from zero
    X, Y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    invalid = _Worst()
    invalid(deformation_equation_residual(omega, theta, od, bad, np.zeros(2), X, Y), np.zeros(2))
    check(float(invalid.value <= 1e-3), 0.0)
    return check.value


SUITES = [
    ("canonical-form",
     "right-equivariance, chart naturality, and vertical-generator reproduction "
     "of the canonical form", suite_canonical_form),
    ("connection",
     "Christoffel transformation cocycle, equivariant order-2 section, and both "
     "connection-form axioms for the pulled-back form", suite_connection),
    ("deform",
     "tangent-group matrix representation, bracket/adjoint agreement, "
     "horizontal/vertical lift identities, and the section-jet isomorphism "
     "equivariance", suite_deform),
    ("deformation-pair",
     "connection/deformation 1-form pairs transform with the gauge term and "
     "tensorially across a 3-chart atlas", suite_deformation_pair),
    ("foliation",
     "Bott condition in foliated charts, holonomy pushforward cocycle, and the "
     "transverse deformation equation", suite_foliation),
    ("garcia",
     "jet-bundle coordinate equivalence: mutually inverse charts, action "
     "compatibility, and canonical-form pullback", suite_garcia),
    ("group-laws",
     "jet group associativity/unit/inverse, low-order closed formulas, and the "
     "truncated-Taylor composition oracle", suite_group_laws),
    ("schwarzian",
     "Schwarzian derivative vanishes on fractional-linear maps and satisfies "
     "the composition cocycle", suite_schwarzian),
    ("structural-equations",
     "all torsion two-forms vanish on frames with symmetric tensors",
     suite_structural_equations),
    ("symmetrization",
     "symmetric jets embed and project consistently; the projection is a "
     "homomorphism", suite_symmetrization),
    ("torsion-characterization",
     "torsion vanishing on base pairs is equivalent to symmetry of the frame "
     "tensors; explicit first-torsion formula", suite_torsion_characterization),
]


def run_suites(cfg: VerifyConfig) -> dict:
    """Run every suite deterministically; report sorted by suite name."""
    results = []
    all_pass = True
    for idx, (name, statement, fn) in enumerate(sorted(SUITES, key=lambda s: s[0])):
        rng = np.random.default_rng([cfg.seed, idx])
        try:
            worst = float(fn(rng, cfg))
            passed = worst <= cfg.atol
        except Exception as exc:  # disagreement exceptions count as failures
            worst = float("inf")
            passed = False
            statement = f"{statement} (error: {type(exc).__name__}: {exc})"
        all_pass = all_pass and passed
        results.append({
            "suite": name,
            "statement": statement,
            "trials": cfg.trials,
            "worst_residual": worst,
            "tolerance": cfg.atol,
            "passed": passed,
        })
    return {
        "config": {
            "seed": cfg.seed,
            "trials": cfg.trials,
            "max_n": cfg.max_n,
            "max_r": cfg.max_r,
            "atol": cfg.atol,
            "rtol": cfg.rtol,
        },
        "suites": results,
        "passed": all_pass,
    }
