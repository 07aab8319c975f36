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
    # W-basis sections of one copy of A; every map is an identity on them
    sections = window + 1
    a_dim = sections * m
    c1_dim = (dp_cap + 1) * a_dim
    c2_dim = dp_cap * a_dim

    def identity_blocks(shape, brow, bcol) -> FlatMatrix:
        eye = np.broadcast_to(np.eye(m, dtype=np.int64), (brow.size, m, m))
        return FlatMatrix.from_blocks(ctx.p, ctx.n_prec, shape, m, brow, bcol, eye)

    # d0 puts A at divided degree 0 and d1 sends degree k to k - 1
    # (d w^[k] = w^[k-1] dw), one m x m identity block per section
    top = np.arange(sections)
    lower = np.arange(dp_cap * sections)
    maps = [
        identity_blocks((c1_dim, a_dim), top, top),
        identity_blocks((c2_dim, c1_dim), lower, lower + sections),
    ]
    exact_at_a, exact_middle, exact_end = exactness(*maps, *kernel_log_cardinalities(maps))
    return {
        "dp_cap": dp_cap,
        "degree_window": window,
        "exact_at_constants": exact_at_a,
        "exact_at_divided_polynomials": exact_middle,
        "surjective_below_cap": exact_end,
        "ok": exact_at_a and exact_middle and exact_end,
    }
