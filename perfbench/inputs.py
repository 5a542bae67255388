"""Seeded input generator owned by the benchmark.

Every workload draws its inputs here from the workload seed, so the library
under test only ever sees generated arrays and documents.  Nothing here calls
the library's own samplers: those are due to be merged, and a benchmark whose
inputs move with them would not measure the same thing before and after.
"""
from __future__ import annotations

import itertools

import numpy as np

# streams of one seed: inputs and check subsampling never share a generator,
# so deciding to check an operation cannot change the next operation's inputs
INPUT_STREAM = 0
CHECK_STREAM = 1


def generator(seed: int, workload_index: int, stream: int,
              round_number: int) -> np.random.Generator:
    """The generator of one round: drawing a round again gives the same inputs."""
    return np.random.default_rng([seed, workload_index, stream, round_number])


def linear(rng, n: int, scale: float = 1.0) -> np.ndarray:
    """Orthogonal matrix with columns scaled by U(0.7, 1.4): condition number < 2."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return scale * q * rng.uniform(0.7, 1.4, n)


def symmetrized(arr: np.ndarray) -> np.ndarray:
    """Average over all permutations of the lower (trailing) axes."""
    k = arr.ndim - 1
    perms = list(itertools.permutations(range(1, k + 1)))
    return sum(np.transpose(arr, (0,) + p) for p in perms) / len(perms)


def tensor(rng, n: int, k: int, symmetric: bool = False) -> np.ndarray:
    """Entries U(-1, 1), one upper and k lower indices."""
    arr = rng.uniform(-1, 1, (n,) * (k + 1))
    return symmetrized(arr) if symmetric and k >= 2 else arr


def jet(rng, n: int, r: int, symmetric: bool = False, scale: float = 1.0) -> list:
    """Tensors of orders 1..r of a well-conditioned jet (generic unless symmetric)."""
    return [linear(rng, n, scale)] + [tensor(rng, n, k, symmetric) for k in range(2, r + 1)]


def algebra(rng, n: int, r: int) -> list:
    """Components of orders 0..r-1 (base displacement first)."""
    return [rng.uniform(-1, 1, (n,) * (k + 1)) for k in range(r)]


def tangent(rng, n: int, r: int):
    """Base displacement and tensor displacements of orders 1..r."""
    return rng.uniform(-1, 1, n), [tensor(rng, n, k) for k in range(1, r + 1)]


def cubic(rng) -> list:
    """Coefficients c0..c3 of a 1-d cubic whose derivative stays in [0.6, 2.9] on [-1, 1]."""
    return [float(rng.uniform(-1, 1)), float(rng.uniform(1.5, 2.0)),
            float(rng.uniform(-0.3, 0.3)), float(rng.uniform(-0.1, 0.1))]


def tensor_doc(arr: np.ndarray) -> dict:
    """A tensor in the command line's JSON layout."""
    return {"n": int(arr.shape[0]), "k": arr.ndim - 1, "entries": arr.ravel().tolist()}
