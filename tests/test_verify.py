"""The verify suites' single verdict path: one residual accumulator, one pass rule."""
import ast
import math
from pathlib import Path

import numpy as np
import pytest

from formalframes import verify
from formalframes.verify import SUITES, VerifyConfig, _Worst, run_suites


def test_worst_starts_at_zero_and_keeps_the_largest_residual():
    check = _Worst()
    assert check.value == 0.0
    check(np.array([1.0, 2.0]), np.array([1.5, 2.0]))
    check(np.eye(2), np.eye(2))
    assert check.value == 0.5
    check(3.0, 0.0)
    assert check.value == 3.0


def test_worst_of_an_empty_array_is_zero():
    check = _Worst()
    check(np.zeros((0, 3)), np.zeros((0, 3)))
    assert check.value == 0.0


def test_worst_records_nan_as_inf():
    check = _Worst()
    check(np.array([1.0, float("nan")]), np.zeros(2))
    assert check.value == math.inf
    # a later finite residual does not hide it
    check(0.5, 0.0)
    assert check.value == math.inf


def test_worst_compares_sequences_pairwise():
    check = _Worst()
    check([np.zeros(2), np.ones((2, 2))], (np.zeros(2), np.full((2, 2), 1.25)))
    assert check.value == 0.25
    # the entries differ in shape, so the pair cannot be one array
    check((np.zeros(1), [np.zeros(3)]), [np.ones(1), [np.zeros(3)]])
    assert check.value == 1.0


@pytest.mark.parametrize("got, want", [
    ([np.zeros(2), np.zeros(2)], [np.zeros(2)]),
    ((np.zeros(2),), (np.zeros(2), np.zeros(2))),
    (np.zeros(3), np.zeros((1, 3))),
    (np.zeros((2, 2)), 0.0),
])
def test_worst_rejects_unequal_lengths_and_shapes(got, want):
    with pytest.raises(ValueError):
        _Worst()(got, want)


def test_scalar_check_against_zero_is_the_absolute_value():
    for x in (0.0, 1e-300, 5e-324, 0.1, 2.5e8):
        check = _Worst()
        check(x, 0.0)
        assert check.value.hex() == abs(x).hex()


def verdict_bypasses(source: str):
    """(top-level name, kind) for each residual maximum taken outside ``_Worst``'s path.

    Kinds: ``_gap`` for any use of the old helper, ``max(worst`` for a
    hand-rolled update, and ``max|…|`` for a maximum of absolute values in
    either spelling, ``np.max(np.abs(x))`` or ``np.abs(x).max()``.
    """
    def name(node):
        return getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))

    found = []
    for top in ast.parse(source).body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if name(node) == "_gap":
                found.append((where, "_gap"))
            if not isinstance(node, ast.Call) or name(node.func) not in ("max", "amax"):
                continue
            if any(name(a) == "worst" for a in node.args):
                found.append((where, "max(worst"))
            operands = list(node.args)
            if isinstance(node.func, ast.Attribute):
                operands.append(node.func.value)
            if any(isinstance(a, ast.Call) and name(a.func) in ("abs", "absolute")
                   for a in operands):
                found.append((where, "max|…|"))
    return found


def test_verdict_bypass_scan_finds_every_form():
    source = (
        "from .x import _gap\n"
        "def a(x):\n    worst = max(worst, g(x))\n"
        "def b(x, y):\n    return np.max(np.abs(x - y))\n"
        "def c(x):\n    return np.abs(x).max()\n"
        "class _Worst:\n    def f(self, d):\n        return numpy.amax(numpy.absolute(d))\n"
        "def d(n):\n    return max(4, n // 4) + np.max(x)\n"
        "def _gap(x, y):\n    pass\n"
    )
    assert verdict_bypasses(source) == [
        ("<module>", "_gap"), ("a", "max(worst"), ("b", "max|…|"), ("c", "max|…|"),
        ("_Worst", "max|…|"), ("_gap", "_gap"),
    ]


def test_only_the_accumulator_computes_a_residual():
    assert verdict_bypasses(Path(verify.__file__).read_text()) == [("_Worst", "max|…|")]


def test_every_suite_is_the_module_function_of_its_name():
    """perfbench rebinds each suite by ``getattr(verify, fn.__name__)``."""
    for _name, _statement, fn in SUITES:
        assert fn.__name__.startswith("suite_")
        assert getattr(verify, fn.__name__) is fn


def test_every_report_entry_passes_exactly_when_within_tolerance():
    report = run_suites(VerifyConfig(seed=3, trials=2))
    assert len(report["suites"]) == len(SUITES)
    for entry in report["suites"]:
        assert entry["passed"] == (entry["worst_residual"] <= entry["tolerance"]), entry


def test_a_nan_check_fails_its_suite_with_an_inf_residual(monkeypatch):
    def suite_nan(rng, cfg):
        check = _Worst()
        check(0.0, 0.0)
        check(float("nan"), 0.0)
        return check.value

    monkeypatch.setattr(verify, "SUITES", [("nan", "a NaN residual", suite_nan)])
    report = run_suites(VerifyConfig(trials=1))
    (entry,) = report["suites"]
    assert entry["worst_residual"] == math.inf
    assert not entry["passed"] and not report["passed"]


def test_garcia_suite_judges_the_closed_formula(monkeypatch):
    from formalframes.garcia import GarciaCoords, garcia_action_formula

    def off_by_1e_3(g, a):
        right = garcia_action_formula(g, a)
        return GarciaCoords.from_arrays(right.x, right.y, right.z.entries + 1e-3)

    cfg = VerifyConfig(trials=3)
    assert verify.suite_garcia(np.random.default_rng(0), cfg) <= cfg.atol
    monkeypatch.setattr(verify, "garcia_action_formula", off_by_1e_3)
    assert verify.suite_garcia(np.random.default_rng(0), cfg) == pytest.approx(1e-3)


@pytest.mark.parametrize("field", ["atol", "rtol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_config_rejects_bad_tolerances(field, value):
    with pytest.raises(ValueError):
        VerifyConfig(**{field: value})


@pytest.mark.parametrize("max_r", [0, 1, 5])
def test_config_rejects_orders_outside_two_to_four(max_r):
    with pytest.raises(ValueError):
        VerifyConfig(max_r=max_r)


def test_config_accepts_its_bounds():
    VerifyConfig(max_n=1, max_r=2, atol=0.0, rtol=0.0)
    VerifyConfig(max_n=3, max_r=4)


# worst_residual.hex() of every suite at VerifyConfig(seed=s, trials=5): a change
# in the rounding of charts, taylor, fields, jetgroup or bundle moves these
PINNED_RESIDUALS = {
    0: {
        "canonical-form": "0x1.27b8000000000p-40", "connection": "0x1.8000000000000p-44",
        "deform": "0x1.0000000000000p-49", "deformation-pair": "0x1.4200000000000p-47",
        "foliation": "0x1.0000000000000p-49", "garcia": "0x1.0000000000000p-50",
        "group-laws": "0x1.0000000000000p-47", "schwarzian": "0x1.0000000000000p-48",
        "structural-equations": "0x1.0000000000000p-54",
        "symmetrization": "0x1.c000000000000p-48",
        "torsion-characterization": "0x1.c000000000000p-51",
    },
    1: {
        "canonical-form": "0x1.5b00000000000p-46", "connection": "0x1.0000000000000p-29",
        "deform": "0x1.2980a6141b3adp-42", "deformation-pair": "0x1.7400000000000p-46",
        "foliation": "0x1.0000000000000p-49", "garcia": "0x1.8000000000000p-51",
        "group-laws": "0x1.0000000000000p-46", "schwarzian": "0x1.0000000000000p-45",
        "structural-equations": "0x1.a000000000000p-52",
        "symmetrization": "0x1.5000000000000p-47",
        "torsion-characterization": "0x1.0000000000000p-47",
    },
    2: {
        "canonical-form": "0x1.0000000000000p-47", "connection": "0x1.8000000000000p-49",
        "deform": "0x1.3e4f1110004cap-50", "deformation-pair": "0x1.ea00000000000p-46",
        "foliation": "0x1.0000000000000p-49", "garcia": "0x1.8000000000000p-51",
        "group-laws": "0x1.0000000000000p-44", "schwarzian": "0x1.0000000000000p-46",
        "structural-equations": "0x1.4000000000000p-54",
        "symmetrization": "0x1.8000000000000p-50",
        "torsion-characterization": "0x1.0000000000000p-47",
    },
    3: {
        "canonical-form": "0x1.8000000000000p-47", "connection": "0x1.c000000000000p-43",
        "deform": "0x1.ef67c2c22a269p-36", "deformation-pair": "0x1.3800000000000p-47",
        "foliation": "0x1.0000000000000p-49", "garcia": "0x1.0000000000000p-51",
        "group-laws": "0x1.4000000000000p-45", "schwarzian": "0x1.0000000000000p-46",
        "structural-equations": "0x1.2000000000000p-51",
        "symmetrization": "0x1.4000000000000p-47",
        "torsion-characterization": "0x1.0000000000000p-50",
    },
}


@pytest.mark.parametrize("seed", sorted(PINNED_RESIDUALS))
def test_worst_residuals_are_pinned_bit_for_bit(seed):
    report = run_suites(VerifyConfig(seed=seed, trials=5))
    assert report["passed"]
    got = {entry["suite"]: entry["worst_residual"].hex() for entry in report["suites"]}
    assert got == PINNED_RESIDUALS[seed]
