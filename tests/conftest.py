"""Shared random generators, test helpers and the acceptance-criteria summary hook."""
import numpy as np

from formalframes import FrameCoords

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


def frame1d(base, *vals):
    """One-dimensional frame with constant tensors u¹, u², … = vals."""
    return FrameCoords.from_arrays(
        [base], [np.full((1,) * (k + 2), v) for k, v in enumerate(vals)]
    )
