"""Command-line front end.

Subcommands operate on small JSON documents (files or stdin) and print
JSON to stdout (or ``--output``); diagnostics go to stderr only.  Exit
codes: 0 success, 1 a checked property failed, 2 malformed input or an
unwritable ``--output``, 3 a numerical singularity (non-invertible data).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .bundle import FrameCoords
from .forms import RealizabilityDisagreement, realizability_check, schwarzian
from .jetgroup import JetGroupElement, jet_compose, jet_inverse, kappa_project
from .tensors import ShapeMismatchError, SingularityError

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2
EXIT_SINGULAR = 3


def _dump(doc, args) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2, separators=(",", ": "), allow_nan=False)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ShapeMismatchError(f"cannot write output document: {exc}") from exc
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader closed stdout (`| head`): the verdict stands, and
            # the flush at exit must not raise again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)


def _load(args) -> dict:
    try:
        if args.input:
            with open(args.input) as fh:
                return json.load(fh)
        return json.load(sys.stdin)
    except (OSError, json.JSONDecodeError) as exc:
        raise ShapeMismatchError(f"cannot read input document: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_torsion(args) -> int:
    """Realizability verdicts: torsion vanishing vs tensor symmetry."""
    if args.input:
        # single-frame mode: the document is one frame in natural coordinates
        ignored = [option for option in dict.fromkeys(args.given) if option in _SAMPLING]
        if ignored:
            raise ValueError(f"sampling option not allowed with --input: {', '.join(ignored)}")
        frame = FrameCoords.from_json(_load(args))
        res = realizability_check(frame, tol=args.atol)
        _dump({
            "realizable": res["realizable"],
            "max_torsion": res["max_torsion"],
            "max_asymmetry": res["max_asymmetry"],
        }, args)
        return EXIT_OK
    # sampling mode: alternate symmetric and generic random frames
    from .verify import rand_frame

    rng = np.random.default_rng([args.seed, 0])
    verdicts = []
    for i in range(args.trials):
        frame = rand_frame(rng, args.n, args.r, classical=i % 2 == 0)
        res = realizability_check(frame, tol=args.atol)
        verdicts.append({
            "trial": i,
            "realizable": res["realizable"],
            "max_torsion": res["max_torsion"],
            "max_asymmetry": res["max_asymmetry"],
        })
    _dump({
        "config": {"seed": args.seed, "trials": args.trials, "n": args.n, "r": args.r,
                   "atol": args.atol},
        "verdicts": verdicts,
    }, args)
    return EXIT_OK


def cmd_compose(args) -> int:
    doc = _load(args)
    a = JetGroupElement.from_json(doc["a"])
    b = JetGroupElement.from_json(doc["b"])
    _dump(jet_compose(a, b).to_json(), args)
    return EXIT_OK


def cmd_invert(args) -> int:
    a = JetGroupElement.from_json(_load(args))
    _dump(jet_inverse(a).to_json(), args)
    return EXIT_OK


def cmd_kappa(args) -> int:
    a = JetGroupElement.from_json(_load(args))
    _dump(kappa_project(a).to_json(), args)
    return EXIT_OK


def cmd_schwarzian(args) -> int:
    """Schwarzian derivative of a 1-d map at the given points."""
    from .charts import SmoothMapSpec, transition_jet

    doc = _load(args)
    spec = SmoothMapSpec.from_json(doc["map"])
    if spec.m_in != 1 or spec.m_out != 1:
        raise ShapeMismatchError("schwarzian needs a 1-dimensional map")
    values = []
    for x in doc.get("points", [0.0]):
        T = transition_jet(spec, [float(x)], 3)
        values.append({
            "point": float(x),
            "schwarzian": schwarzian([t.reshape(()) for t in T.arrays]),
        })
    _dump({"values": values}, args)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import VerifyConfig, run_suites

    cfg = VerifyConfig(
        seed=args.seed,
        trials=args.trials,
        max_n=args.n,
        max_r=args.r,
        atol=args.atol,
        rtol=args.rtol,
    )
    report = run_suites(cfg)
    suites = [suite if math.isfinite(suite["worst_residual"]) else {**suite, "worst_residual": None}
              for suite in report["suites"]]
    _dump({**report, "suites": suites}, args)
    for suite in report["suites"]:
        status = "pass" if suite["passed"] else "FAIL"
        print(f"[{status}] {suite['suite']}: worst residual "
              f"{suite['worst_residual']:.3e}", file=sys.stderr)
    return EXIT_OK if report["passed"] else EXIT_PROPERTY


# ---------------------------------------------------------------------------


def _positive(text: str) -> int:
    """Type of --trials, --n and --r: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    """Type of --atol and --rtol: a finite number of at least 0."""
    try:
        value = float(text)
    except ValueError:
        value = -1.0
    if not 0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"expected a finite number of at least 0, got {text!r}")
    return value


# every option of the command line; each command declares only those it reads
_OPTIONS = {
    "--seed": {"type": int, "default": 0},
    "--trials": {"type": _positive, "default": 50},
    "--n": {"type": _positive, "default": 2, "help": "base dimension"},
    "--r": {"type": _positive, "default": 3, "help": "jet order"},
    "--atol": {"type": _tolerance, "default": 1e-8},
    "--rtol": {"type": _tolerance, "default": 1e-8},
    "--input": {"default": None, "metavar": "FILE"},
    "--output": {"default": None, "metavar": "FILE"},
}
_SAMPLING = ("--seed", "--trials", "--n", "--r")
_DOCUMENT = ("--input", "--output")


class _Given(argparse.Action):
    """Store an option's value, and note in ``args.given`` that the command line gave it."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = (*namespace.given, option_string)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="formalframes",
        description="numerical toolkit for higher-order frames and jet groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "torsion": (cmd_torsion, "realizability verdicts for frames",
                    _SAMPLING + ("--atol",) + _DOCUMENT),
        "compose": (cmd_compose, "product of two jet group elements", _DOCUMENT),
        "invert": (cmd_invert, "inverse of a jet group element", _DOCUMENT),
        "kappa": (cmd_kappa, "symmetrizing projection of a group element", _DOCUMENT),
        "schwarzian": (cmd_schwarzian, "Schwarzian derivative of a 1-d map", _DOCUMENT),
        "verify": (cmd_verify, "run all seeded verification suites",
                   _SAMPLING + ("--atol", "--rtol", "--output")),
    }
    for name, (fn, help_text, options) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn, given=())
        for option in options:
            p.add_argument(option, action=_Given, **_OPTIONS[option])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except RealizabilityDisagreement as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except SingularityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (ShapeMismatchError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
