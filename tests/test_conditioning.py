"""Scale and conditioning properties of frames, θ = L_u⁻¹ and the torsion command.

Frames have n ≤ 3 and r ≤ 4, u¹ = s·Q₁·diag(σ)·Q₂ with s ∈ 10^[−2, 2],
orthogonal Q₁, Q₂, and σ spread so that cond(u¹) ∈ [1, 1e4] ∪ [1e9, 1e12]:
both sides of `COND_LIMIT` = 1e8, away from it.  The tensors of orders
2..r are standard normal.  The properties, with these thresholds:

- `SingularityError` is raised (when the frame is built) iff
  cond(u¹) > `COND_LIMIT`;
- otherwise θ meets both gates of `conftest.check_theta_gates`: the
  residual max|L·θ − I| ≤ 1e-14 · max(|L|·|θ|), and, where
  cond(L_u) ≤ 1e8, max|θ − inv(L_u)| ≤ N · cond(L_u) · 2⁻⁵² · max|θ|;
- `formalframes torsion --input`, through `cli.main`, exits with the code
  that the library outcome maps to: 3 for a singular u¹, else 0, or 1 on
  `RealizabilityDisagreement` (the scale defect of realizability, still
  open, so "never disagrees" is not a property here).  An accepted frame
  never exits 3, whatever cond(L_u).

Hypothesis runs derandomized with a fixed example count, so the draws are
the same on every run.
"""
import json

import numpy as np
import pytest
from conftest import check_theta_gates
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formalframes import (
    FrameCoords,
    LowerTensor,
    RealizabilityDisagreement,
    SingularityError,
    realizability_check,
)
from formalframes.cli import main
from formalframes.tensors import COND_LIMIT

# the frame of u¹ = 0.02·I whose L_u has cond 6.2e9, and u¹ = I beside a large u² (cond 8e10)
RNG0 = np.random.default_rng(0)
SMALL_SCALE = [0.02 * np.eye(3)] + [RNG0.standard_normal((3,) * (k + 1)) for k in range(2, 5)]
LARGE_U2 = [np.eye(2), np.full((2, 2, 2), 1e5)]


@st.composite
def frame_tensors(draw):
    """The tensors 1..r of a frame, u¹ = s·Q₁·diag(σ)·Q₂."""
    singular = draw(st.booleans())
    n = draw(st.integers(2 if singular else 1, 3))
    r = draw(st.integers(1, 4))
    scale = 10.0 ** draw(st.floats(-2, 2))
    cond = 10.0 ** draw(st.floats(9, 12) if singular else st.floats(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q1, q2 = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    # σ from 1 down to 1/cond, so cond(u¹) = cond at n ≥ 2 (and 1 at n = 1)
    sigma = np.concatenate([[1.0, 1.0 / cond], cond ** -rng.uniform(size=max(n - 2, 0))])[:n]
    u1 = scale * q1 @ np.diag(sigma) @ q2
    return [u1] + [rng.standard_normal((n,) * (k + 1)) for k in range(2, r + 1)]


@pytest.fixture(scope="module")
def frame_path(tmp_path_factory):
    return tmp_path_factory.mktemp("conditioning") / "frame.json"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(tensors=frame_tensors())
@example(tensors=SMALL_SCALE)
@example(tensors=LARGE_U2)
def test_only_u1_decides_singularity(frame_path, tensors):
    n = len(tensors[0])
    doc = {"chart": "chart0", "base": [0.0] * n,
           "tensors": [LowerTensor(n, k, a).to_json() for k, a in enumerate(tensors, start=1)]}
    try:
        u = FrameCoords.from_json(doc)
    except SingularityError:
        expected = 3
    else:
        check_theta_gates(u.iso)
        try:
            realizability_check(u)
            expected = 0
        except RealizabilityDisagreement:
            expected = 1
    assert (expected == 3) == (np.linalg.cond(tensors[0]) > COND_LIMIT)
    frame_path.write_text(json.dumps(doc))
    assert main(["torsion", "--input", str(frame_path)]) == expected
