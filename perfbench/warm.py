"""Lazy caches each workload fills before it is timed.

The set-up probe and the benchmark process both call ``warm``: the probe to
time set-up in a fresh process, the benchmark so that no timed operation
pays for a cache fill.
"""

# workload -> (highest product_terms order, (n, r) keys of forms._DL_CACHE)
WARM = {
    "jet-highorder": (6, ()),
    "frame-forms": (4, ((2, 4), (3, 3), (3, 4))),
    "verify-desk": (4, ()),
    "cli-oneshot": (3, ()),
}


def warm(workload: str) -> None:
    import numpy as np
    from formalframes import forms, jetgroup

    orders, dl_keys = WARM[workload]
    for k in range(1, orders + 1):
        jetgroup.product_terms(k)
    for n, r in dl_keys:
        forms.translation_matrix_derivative(n, r)
    np.einsum("ij,jk->ik", np.eye(2), np.eye(2))


def reset() -> None:
    """Empty the caches again, so a traced warm-up records their fills."""
    from formalframes import forms, jetgroup

    jetgroup.product_terms.cache_clear()
    forms._DL_CACHE.clear()
