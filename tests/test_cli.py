import argparse
import inspect
import json
import subprocess
import sys

import numpy as np
import pytest

from formalframes import FrameCoords, LowerTensor, realizability_check
from formalframes.charts import TransitionJet
from formalframes.cli import build_parser, main
from formalframes.tensors import ShapeMismatchError
from formalframes.verify import rand_frame

CLI = [sys.executable, "-m", "formalframes.cli"]


def run_cli(*argv, stdin=""):
    return subprocess.run(
        CLI + list(argv), input=stdin, capture_output=True, text=True,
        timeout=120,
    )


def element_json(*arrays):
    tensors = []
    for k, arr in enumerate(arrays, start=1):
        a = np.asarray(arr, dtype=float)
        tensors.append({"n": a.shape[0], "k": k,
                        "entries": a.ravel().tolist()})
    return {"n": np.asarray(arrays[0]).shape[0], "r": len(arrays),
            "tensors": tensors}


def test_compose_pin():
    doc = {"a": element_json([[2.0]], [[[3.0]]]),
           "b": element_json([[5.0]], [[[7.0]]])}
    res = run_cli("compose", stdin=json.dumps(doc))
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["tensors"][0]["entries"] == pytest.approx([10.0])
    assert out["tensors"][1]["entries"] == pytest.approx([89.0])


def test_invert_pin():
    res = run_cli("invert", stdin=json.dumps(element_json([[2.0]], [[[3.0]]])))
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["tensors"][0]["entries"] == pytest.approx([0.5])
    assert out["tensors"][1]["entries"] == pytest.approx([-0.375])


def test_kappa_pin():
    arr2 = np.zeros((2, 2, 2))
    arr2[0, 0, 1] = 4.0
    arr2[0, 1, 0] = 2.0
    doc = element_json(np.eye(2), arr2)
    res = run_cli("kappa", stdin=json.dumps(doc))
    assert res.returncode == 0
    out = json.loads(res.stdout)
    sym = np.array(out["tensors"][1]["entries"]).reshape(2, 2, 2)
    assert sym[0, 0, 1] == pytest.approx(3.0)
    assert sym[0, 1, 0] == pytest.approx(3.0)


def test_schwarzian_moebius_and_pole():
    doc = {"map": {"kind": "moebius", "abcd": [0.0, 1.0, 1.0, 0.0]},
           "points": [2.0, -1.5]}
    res = run_cli("schwarzian", stdin=json.dumps(doc))
    assert res.returncode == 0
    for rec in json.loads(res.stdout)["values"]:
        assert abs(rec["schwarzian"]) < 1e-10
    # evaluation at the pole is a singularity, not an input error
    doc["points"] = [0.0]
    res = run_cli("schwarzian", stdin=json.dumps(doc))
    assert res.returncode == 3


def test_malformed_input_exits_2():
    res = run_cli("compose", stdin="this is not json")
    assert res.returncode == 2
    res = run_cli("invert", stdin=json.dumps({"wrong": "shape"}))
    assert res.returncode == 2


def test_torsion_single_frame_matches_library(tmp_path):
    rng = np.random.default_rng(0)
    for classical in (True, False):
        from conftest import rand_frame

        u = rand_frame(rng, 2, 3, classical=classical)
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(u.to_json()))
        res = run_cli("torsion", "--input", str(path))
        assert res.returncode == 0
        out = json.loads(res.stdout)
        lib = realizability_check(u)
        assert out["realizable"] == lib["realizable"] == classical
        assert out["max_torsion"] == pytest.approx(lib["max_torsion"])


def test_torsion_sampling_mode_deterministic():
    a = run_cli("torsion", "--seed", "7", "--trials", "6", "--n", "2", "--r", "3")
    b = run_cli("torsion", "--seed", "7", "--trials", "6", "--n", "2", "--r", "3")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    verdicts = json.loads(a.stdout)["verdicts"]
    assert [v["realizable"] for v in verdicts] == [True, False] * 3


def test_torsion_sampling_mode_reports_library_verdicts(tmp_path):
    path = tmp_path / "verdicts.json"
    assert main(["torsion", "--seed", "11", "--trials", "4", "--n", "3", "--r", "3",
                 "--output", str(path)]) == 0
    rng = np.random.default_rng([11, 0])
    expected = []
    for i in range(4):
        res = realizability_check(rand_frame(rng, 3, 3, classical=i % 2 == 0), tol=1e-8)
        expected.append({"trial": i, **{key: res[key] for key in (
            "realizable", "max_torsion", "max_asymmetry")}})
    assert json.loads(path.read_text())["verdicts"] == expected


def test_verify_deterministic_and_exit_codes():
    args = ["verify", "--seed", "3", "--trials", "5"]
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    report = json.loads(a.stdout)
    assert report["passed"]
    assert len(report["suites"]) == 11
    # an impossible tolerance is reported as a property failure
    res = run_cli("verify", "--seed", "3", "--trials", "2", "--atol", "1e-30")
    assert res.returncode == 1


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_input_exits_2(tmp_path, bad):
    from conftest import rand_frame

    doc = rand_frame(np.random.default_rng(5), 2, 3).to_json()
    doc["tensors"][1]["entries"][3] = bad
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(doc))
    res = run_cli("torsion", "--input", str(path))
    assert res.returncode == 2, res.stderr
    assert "non-finite" in res.stderr
    res = run_cli("invert", stdin=json.dumps(element_json([[2.0]], [[[bad]]])))
    assert res.returncode == 2, res.stderr
    assert "non-finite" in res.stderr


@pytest.mark.parametrize("option", ["--trials", "--n", "--r"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_counts_below_one_are_rejected(option, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["torsion", option, value])
    assert exc.value.code == 2
    assert f"argument {option}: expected an integer of at least 1" in capsys.readouterr().err


def test_trials_default_to_50(tmp_path):
    path = tmp_path / "verdicts.json"
    assert main(["torsion", "--output", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert doc["config"]["trials"] == len(doc["verdicts"]) == 50


def test_unwritable_output_exits_2(tmp_path, capsys):
    doc = {"a": element_json([[2.0]], [[[3.0]]]), "b": element_json([[5.0]], [[[7.0]]])}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    target = tmp_path / "missing" / "out.json"
    assert main(["compose", "--input", str(path), "--output", str(target)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write output document")


@pytest.mark.parametrize("option", ["--atol", "--rtol"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1", "tight"])
def test_tolerances_must_be_finite_and_non_negative(option, value, tmp_path, capsys):
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(FrameCoords.from_arrays(
        [0.1, 0.2], [np.eye(2), np.zeros((2, 2, 2))]).to_json()))
    bad_value = f"argument {option}: expected a finite number of at least 0"
    # torsion reads no --rtol, so it takes none
    torsion_error = bad_value if option == "--atol" else "unrecognized arguments: --rtol"
    for argv, error in ((["verify", "--trials", "1"], bad_value),
                        (["torsion", "--input", str(frame)], torsion_error)):
        with pytest.raises(SystemExit) as exc:
            main([*argv, option, value])
        assert exc.value.code == 2
        assert error in capsys.readouterr().err


def test_verify_below_order_two_is_a_configuration_error(capsys):
    assert main(["verify", "--trials", "1", "--r", "1"]) == 2
    assert "outside the supported desk scale" in capsys.readouterr().err


def test_verify_writes_an_infinite_residual_as_null(monkeypatch, capsys):
    from formalframes import verify

    def suite_raises(rng, cfg):
        raise ArithmeticError("no residual")

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    monkeypatch.setattr(verify, "SUITES", [("raises", "an exception", suite_raises)])
    assert main(["verify", "--trials", "1"]) == 1
    out, err = capsys.readouterr()
    (entry,) = json.loads(out, parse_constant=reject)["suites"]
    assert entry["worst_residual"] is None and not entry["passed"]
    assert "[FAIL] raises: worst residual inf" in err


def test_every_option_is_read_by_its_command():
    """Each option a subcommand declares appears as ``args.<dest>`` in its function.

    --input and --output are read through `_load` and `_dump`.
    """
    readers = {"input": "_load(args)", "output": "_dump("}
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    unread = []
    for name, parser in sub.choices.items():
        source = inspect.getsource(parser.get_default("fn"))
        for action in parser._actions:
            if action.dest == "help":
                continue
            if f"args.{action.dest}" not in source and readers.get(action.dest, "\0") not in source:
                unread.append(f"{name} {action.option_strings[0]}")
    assert unread == []


NO_TENSORS = {"n": 1, "r": 0, "tensors": []}
MALFORMED = {
    "torsion": {"chart": "chart0", "base": [0.1], "tensors": []},
    "compose": {"a": NO_TENSORS, "b": NO_TENSORS},
    "invert": NO_TENSORS,
    "kappa": NO_TENSORS,
    "schwarzian": {"map": {"kind": "composite", "maps": []}},
}


@pytest.mark.parametrize("command", sorted(MALFORMED))
def test_malformed_documents_exit_2(command, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(MALFORMED[command]))
    assert main([command, "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


# options that only torsion's sampling mode reads, next to --input
SAMPLING_WITH_INPUT = {
    "--seed": ["--seed", "5"],
    "--trials": ["--trials", "7"],
    "--n": ["--n", "3"],
    "--r": ["--r", "3"],
    "--seed, --trials": ["--seed", "0", "--trials", "50", "--atol", "1e-6"],
}


@pytest.mark.parametrize("named", sorted(SAMPLING_WITH_INPUT))
def test_sampling_options_with_input_exit_2(named, tmp_path, capsys):
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(FrameCoords.from_arrays(
        [0.1, 0.2], [np.eye(2), np.zeros((2, 2, 2))]).to_json()))
    assert main(["torsion", "--input", str(path), *SAMPLING_WITH_INPUT[named]]) == 2
    err = capsys.readouterr().err
    assert err == f"error: sampling option not allowed with --input: {named}\n"
    # --atol and --output still go with --input
    out = tmp_path / "verdict.json"
    assert main(["torsion", "--input", str(path), "--atol", "1e-6", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["realizable"]


@pytest.mark.parametrize("n, k", [(3, 1), (2, 2)])
def test_transition_jet_checks_its_tensors(n, k):
    # a map of R² at order 1 needs one tensor of (n, k) = (2, 1)
    with pytest.raises(ShapeMismatchError):
        TransitionJet(np.zeros(2), np.zeros(2), (LowerTensor(n, k, np.ones((n,) * (k + 1))),))


def test_a_closed_stdout_keeps_the_exit_code():
    # the document is larger than a pipe buffer, so the reader closes it mid-write
    argv = ["torsion", "--trials", "2000", "--n", "1", "--r", "2"]
    proc = subprocess.Popen(CLI + argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    assert proc.stdout.readline() == "{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == run_cli(*argv).returncode == 0
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
