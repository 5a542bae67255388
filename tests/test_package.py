import ast
import importlib
import json
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import formalframes
from formalframes import FrameCoords

PUBLIC_API = [
    "AsymmetryError", "BottData", "BundleTangent", "ChristoffelField", "ClassicalJet",
    "DeformationPair", "FoliationTransition", "FrameCalculus", "FrameCoords",
    "GarciaCoords", "GarciaPairPoint", "JetAlgebraElement", "JetGroupElement",
    "LowerTensor", "PolyField", "RealizabilityDisagreement", "ShapeMismatchError",
    "SingularityError", "SmoothMapSpec", "TangentAlgebraElement", "TangentGroupElement",
    "TangentIso", "TorsionType", "TransitionJet", "VerifyConfig", "adjoint_action",
    "algebra_size", "bott_gauge_transform", "bott_residual", "bundle", "canonical_form",
    "change_chart", "change_chart_pushforward", "charts", "check_deformation_pair",
    "christoffel_transform", "classical_compose", "classical_tangent_projection",
    "connection", "connection_section", "coord_size", "covariant_derivative_residual",
    "curvature", "deform", "deform_canonical_form", "deform_frame_iso",
    "deformation_equation_residual", "deformation_transform", "enumerate_torsion_types",
    "epsilon_embed", "fields", "foliation", "forms", "frame_pair_action",
    "fundamental_vector", "garcia", "garcia_action", "garcia_canonical_form",
    "garcia_pair_action", "horizontal_lift", "is_classical", "is_classical_frame",
    "jet_compose", "jet_identity", "jet_inverse", "jet_of_transition_as_group",
    "jetgroup", "kappa_project", "lift_block_identity", "max_asymmetry", "oracles",
    "phi_map", "phi_pushforward", "psi_map", "realizability_check", "right_action",
    "right_action_pushforward", "run_suites", "schwarzian", "schwarzian_frame",
    "section_pullback_connection", "section_pushforward", "structural_residual",
    "symmetrize_array", "symmetrize_connection", "t2m_transition", "tangent_iso",
    "taylor", "tensors", "tg_adjoint", "tg_bracket", "tg_compose", "tg_inverse",
    "torsion", "transition_is_foliated", "transition_jet", "transverse_pushforward",
    "verify", "vertical_lift",
]


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None
    assert formalframes.__version__ == match.group(1)


def test_public_api_is_pinned():
    assert sorted(formalframes.__all__) == PUBLIC_API


def unused_imports(source: str):
    """Names a module imports but never references, with their line numbers."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_scan_finds_unused_names():
    source = "import math\nimport numpy as np\nfrom .a import b, c\nnp.sum(c)\n"
    assert unused_imports(source) == [(1, "math"), (3, "b")]


def test_modules_import_only_what_they_use():
    found = {
        path.name: unused_imports(path.read_text())
        for path in sorted(Path(formalframes.__file__).parent.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert len(found) == 14
    assert {name: hits for name, hits in found.items() if hits} == {}


def unused_parameters(source: str):
    """Parameters a function never references, as (line, function, parameter).

    ``self`` and ``cls`` are exempt, and so are dunder methods, whose
    signature their protocol fixes (``TaylorScalar.__setattr__``).
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        if name.startswith("__") and name.endswith("__"):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        body = node.body if isinstance(node.body, list) else [node.body]
        used = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        found += [(node.lineno, name, p.arg) for p in params
                  if p is not None and p.arg not in ("self", "cls") and p.arg not in used]
    return sorted(found)


def test_unused_parameter_scan_finds_unused_parameters():
    source = (
        "def f(a, b=None, *args, c, **kw):\n    return a + c\n"
        "class T:\n    def m(self, x, y):\n        g = lambda z, w: z\n        return g(x, 0)\n"
        "    def __setattr__(self, name, value):\n        raise AttributeError(name)\n"
        "    def __exit__(self, *exc):\n        pass\n"
    )
    assert unused_parameters(source) == [
        (1, "f", "args"), (1, "f", "b"), (1, "f", "kw"), (4, "m", "y"), (5, "<lambda>", "w"),
    ]


def test_modules_read_every_parameter():
    found = {
        path.name: unused_parameters(path.read_text())
        for path in sorted(Path(formalframes.__file__).parent.glob("*.py"))
    }
    assert len(found) == 15
    assert {name: hits for name, hits in found.items() if hits} == {}


def package_imports(source: str):
    """Sibling modules of the package a module imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("formalframes.")
            )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and not module.startswith("formalframes"):
                continue
            module = module.removeprefix("formalframes").lstrip(".")
            if module:
                found.add(module.split(".")[0])
            else:  # from . import x
                found.update(alias.name for alias in node.names)
    return found


def test_package_import_scan_finds_all_forms():
    source = (
        "import numpy\nimport formalframes.taylor\nfrom . import oracles\n"
        "from .tensors import close\nfrom formalframes.forms import schwarzian\n"
        "def f():\n    from .bundle import right_action\n"
    )
    assert package_imports(source) == {"taylor", "oracles", "tensors", "forms", "bundle"}


def test_taylor_route_shares_no_code_with_the_engine():
    """The Taylor oracle checks the engine, so neither side may import the other."""
    root = Path(formalframes.__file__).parent
    imports = {
        name: package_imports((root / f"{name}.py").read_text())
        for name in ("jetgroup", "bundle", "forms", "taylor")
    }
    for engine in ("jetgroup", "bundle", "forms"):
        assert imports[engine].isdisjoint({"taylor", "oracles"}), engine
    assert imports["taylor"].isdisjoint({"jetgroup", "bundle", "forms"})


def product_terms_loops(source: str):
    """Functions that loop over ``product_terms(...)``, in a for or a comprehension.

    ``product_terms`` building order k from order k-1 is its own recursion and
    does not count.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name == "product_terms":
            continue
        loops = [n.iter for n in ast.walk(node) if isinstance(n, (ast.For, ast.comprehension))]
        calls = [n.func for it in loops for n in ast.walk(it) if isinstance(n, ast.Call)]
        if any(getattr(f, "id", getattr(f, "attr", None)) == "product_terms" for f in calls):
            found.append(node.name)
    return sorted(found)


def test_product_terms_loop_scan_finds_every_form():
    source = (
        "def product_terms(k):\n    return [t for t in product_terms(k - 1)]\n"
        "def a(k):\n    for t in product_terms(k):\n        pass\n"
        "def b(k):\n    return [t for t in jetgroup.product_terms(k)]\n"
        "def c(k):\n    return {t: 1 for t in enumerate(product_terms(k))}\n"
        "def d(k):\n    terms = product_terms(k)\n    return len(terms)\n"
    )
    assert product_terms_loops(source) == ["a", "b", "c"]


def test_one_function_loops_over_the_product_terms():
    """Product, right derivative, inverse, translation and adjoint share one evaluator.

    `_order_k` is that evaluator; it reads the terms through `_plan`, which
    groups them by composition once per order.
    """
    found = {
        path.name: product_terms_loops(path.read_text())
        for path in sorted(Path(formalframes.__file__).parent.glob("*.py"))
    }
    assert {name: hits for name, hits in found.items() if hits} == {"jetgroup.py": ["_plan"]}


def record_seams(source: str):
    """Where a module copies, freezes or declares record fields by hand, as (line, class, what).

    A ``__post_init__`` may not call ``object.__setattr__`` or ``.setflags(``:
    it sets normalised values with ``self._set``, and ``tensors.record`` copies
    and freezes them.  A dataclass field annotated as an array or a dict must
    be declared to ``record`` (``arrays=`` or ``mappings=``), so a plain
    dataclass may not hold one.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__post_init__":
                for call in ast.walk(item):
                    func = getattr(call, "func", None)
                    if isinstance(call, ast.Call) and isinstance(func, ast.Attribute) and (
                        func.attr == "setflags"
                        or func.attr == "__setattr__" and getattr(func.value, "id", "") == "object"
                    ):
                        found.append((call.lineno, node.name, func.attr))
        declared = None
        for deco in node.decorator_list:
            name = getattr(getattr(deco, "func", deco), "id", None)
            if name in ("dataclass", "record"):
                declared = {kw.arg: {elt.value for elt in kw.value.elts}
                            for kw in getattr(deco, "keywords", []) if name == "record"}
        for item in node.body:
            if declared is None or not isinstance(item, ast.AnnAssign):
                continue
            kind = re.search(r"\b(ndarray|dict)\b", ast.unparse(item.annotation))
            kind = kind and {"ndarray": "arrays", "dict": "mappings"}[kind.group(1)]
            if kind and item.target.id not in declared.get(kind, ()):
                found.append((item.lineno, node.name, item.target.id))
    return sorted(found)


def test_record_seam_scan_finds_every_form():
    source = (
        "@dataclass(frozen=True)\nclass A:\n    x: np.ndarray\n    n: int\n"
        "    def __post_init__(self):\n        object.__setattr__(self, 'n', 1)\n"
        "        self.x.setflags(write=False)\n"
        "@record(arrays=('x',))\nclass B:\n    x: np.ndarray\n    d: dict\n"
        "    y: np.ndarray | None = None\n"
        "@record(arrays=('x',), mappings=('d',))\nclass C:\n    x: np.ndarray\n    d: dict\n"
        "    def __post_init__(self):\n        self._set(x=self.x)\n"
        "@record\nclass D:\n    t: tuple\n    def helper(self):\n        object.__setattr__(self, 't', ())\n"
        "class E(NamedTuple):\n    x: np.ndarray\n"
    )
    assert record_seams(source) == [
        (3, "A", "x"), (6, "A", "__setattr__"), (7, "A", "setflags"), (11, "B", "d"), (12, "B", "y"),
    ]


def test_records_copy_and_freeze_through_one_helper():
    found = {
        path.name: record_seams(path.read_text())
        for path in sorted(Path(formalframes.__file__).parent.glob("*.py"))
    }
    assert len(found) == 15
    assert {name: hits for name, hits in found.items() if hits} == {}


def loaded_submodules(argv, stdin=""):
    """Submodules of the package a fresh ``python3 argv…`` process imports, and the process."""
    done = subprocess.run([sys.executable, "-X", "importtime", *argv], input=stdin,
                          capture_output=True, text=True, timeout=120)
    names = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
             if line.startswith("import time:")}
    return {name.split(".")[1] for name in names if name.startswith("formalframes.")}, done


def test_package_import_loads_no_submodule():
    # listing the namespace imports nothing either, yet shows every exported name
    check = "import formalframes as f; assert set(f.__all__) <= set(dir(f))"
    loaded, done = loaded_submodules(["-c", check])
    assert done.returncode == 0, done.stderr
    assert loaded == set()


def test_one_shot_commands_load_only_their_layers(tmp_path):
    jet = {"n": 1, "r": 2, "tensors": [{"n": 1, "k": 1, "entries": [2.0]},
                                       {"n": 1, "k": 2, "entries": [3.0]}]}
    cubic = {"map": {"kind": "polynomial", "m_in": 1, "m_out": 1, "coeffs": [
        {"exp": [1], "value": [1.0]}, {"exp": [3], "value": [0.5]}]}, "points": [0.2]}
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(FrameCoords.from_arrays(
        [0.1, 0.2], [np.eye(2), np.zeros((2, 2, 2))]).to_json()))
    commands = [(["compose"], json.dumps({"a": jet, "b": jet})), (["invert"], json.dumps(jet)),
                (["kappa"], json.dumps(jet)), (["schwarzian"], json.dumps(cubic)),
                (["torsion", "--input", str(frame)], "")]
    heavy = {"verify", "deform", "connection", "foliation", "garcia", "fields", "oracles"}
    for argv, stdin in commands:
        loaded, done = loaded_submodules(["-m", "formalframes.cli", *argv], stdin)
        assert done.returncode == 0, (argv, done.stderr)
        # the benchmark's traced CLI wraps these three right after importing the CLI
        assert {"jetgroup", "bundle", "forms"} <= loaded and loaded.isdisjoint(heavy), (argv, loaded)
        # only the Schwarzian evaluates a map, through the Taylor layer
        maps = {"charts", "taylor"}
        assert maps <= loaded if argv == ["schwarzian"] else loaded.isdisjoint(maps), (argv, loaded)
    # the sampling mode needs verify's random frames, and imports it when it runs
    loaded, done = loaded_submodules(["-m", "formalframes.cli", "torsion", "--trials", "1"])
    assert done.returncode == 0, done.stderr
    assert "verify" in loaded


def test_every_exported_name_is_its_modules_object():
    for name in formalframes.__all__:
        obj = getattr(formalframes, name)
        if isinstance(obj, types.ModuleType):
            assert obj is importlib.import_module(f"formalframes.{name}")
        else:
            assert obj.__module__.startswith("formalframes."), name
            assert getattr(importlib.import_module(obj.__module__), name) is obj, name


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        formalframes.no_such_name  # noqa: B018


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from formalframes import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == PUBLIC_API and len(PUBLIC_API) == 99
