"""Exactness of the augmented divided-power complex on one generator over
W[x], checked on its flattening over Z/p^N (`qprism poincare`).  The check
needs only the shape of the complex; the divided-power coalgebra itself is
kept in `tests/paper_oracle.py`.
"""

from __future__ import annotations

import numpy as np

from .base_ring import RingContext
from .homology import FlatMatrix, exactness, kernel_log_cardinalities


def poincare_exactness(ctx: RingContext, dp_cap: int, window: int = 2) -> dict:
    """Exactness bookkeeping of the augmented divided-power complex.

    Checks 0 -> A -> A<w> -> A<w> (x) dx -> 0 flattened over the window:
    the augmentation is injective, its image is exactly the kernel of the
    linearized differential, and every divided degree <= dp_cap - 1 is
    hit.  The top degree is excluded because its preimage lies outside
    the truncation.
    """
    m = ctx.m_prec
    a_dim = (window + 1) * m
    c1_dim = (dp_cap + 1) * a_dim
    c2_dim = dp_cap * a_dim

    d0 = np.zeros((c1_dim, a_dim), dtype=np.int64)
    d0[:a_dim, :] = np.eye(a_dim, dtype=np.int64)
    d1 = np.zeros((c2_dim, c1_dim), dtype=np.int64)
    for k in range(1, dp_cap + 1):
        d1[(k - 1) * a_dim : k * a_dim, k * a_dim : (k + 1) * a_dim] = np.eye(
            a_dim, dtype=np.int64
        )

    maps = [FlatMatrix(ctx.p, ctx.n_prec, d) for d in (d0, d1)]
    exact_at_a, exact_middle, exact_end = exactness(*maps, *kernel_log_cardinalities(maps))
    return {
        "dp_cap": dp_cap,
        "degree_window": window,
        "exact_at_constants": exact_at_a,
        "exact_at_divided_polynomials": exact_middle,
        "surjective_below_cap": exact_end,
        "ok": exact_at_a and exact_middle and exact_end,
    }
