import numpy as np
from conftest import gap, per_series_compose, rand_classical, rand_group

from formalframes import classical_compose, jet_compose, oracles
from formalframes.oracles import closed_form_compose, taylor_map_compose


def test_closed_form_matches_group_product():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        for r in (2, 3):
            for _ in range(20):
                a, b = rand_group(rng, n, r), rand_group(rng, n, r)
                got = closed_form_compose(a.arrays, b.arrays, r)
                want = jet_compose(a, b).arrays
                assert all(gap(x, y) < 1e-12 for x, y in zip(got, want))


def test_taylor_oracle_matches_symmetric_product():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3):
        for r in (2, 3, 4):
            for _ in range(10):
                a, b = rand_classical(rng, n, r), rand_classical(rng, n, r)
                got = taylor_map_compose(a.arrays, b.arrays, r)
                want = classical_compose(a, b).arrays
                assert all(gap(x, y) < 1e-7 for x, y in zip(got, want))


def test_taylor_oracle_rounds_as_each_series_composed_alone(monkeypatch):
    rng = np.random.default_rng(3)
    cases = [(rand_classical(rng, n, r).arrays, rand_classical(rng, n, r).arrays, r)
             for n in (1, 2, 3) for r in (1, 2, 3, 4) for _ in range(3)]
    got = [taylor_map_compose(*case) for case in cases]
    monkeypatch.setattr(oracles, "compose_all",
                        lambda outer, inner: [per_series_compose(f, inner) for f in outer])
    want = [taylor_map_compose(*case) for case in cases]
    for x, y in zip(got, want):
        assert all(np.array_equal(a, b) for a, b in zip(x, y))
