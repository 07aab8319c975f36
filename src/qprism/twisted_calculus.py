"""Twisted connections of levels 0 and -1 on finite free modules over
W[x], sigma(x) = q x, and their quasi-nilpotence witnesses, iterated on an
int64 array by the flattened connection's blocks.

A connection matrix, like every element of W[x] in the program, is one
`base_ring.WPoly`, with lanes (rank, rank); the twist sigma and the twisted
derivations are operations of that class.  A degree window D means the
quotient W[x]/(x^{D+1}); operators that raise degree act on the quotient,
and window legitimacy is asserted per operator by the callers that rely on
it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base_ring import RingContext, WPoly, q_int
from .errors import InvalidArgs, RankMismatch
from .homology import FlatMatrix


class ConnectionModule:
    """Finite free module with a twisted connection of level 0 or -1.

    theta.coeffs[d, :, i, j] is the x^d coefficient of e_i in the image of
    e_j, so the connection acts on a section vector f by theta(f)_i =
    derive(f_i) + sum_j sigma-twist(f_j) theta[i][j], with the level -1
    rule carrying the extra (p)_q factor on the derivation term.  With a
    window, theta is held at window + 1 coefficients.
    """

    __slots__ = ("ctx", "rank", "level", "theta", "window")

    def __init__(self, ctx: RingContext, rank: int, level: int, theta: WPoly, window=None):
        if rank < 1:
            raise InvalidArgs("rank must be >= 1")
        if level not in (0, -1):
            raise InvalidArgs("level must be 0 or -1")
        if theta.coeffs.shape[2:] != (rank, rank):
            raise RankMismatch(f"theta must be {rank} x {rank}")
        self.ctx = ctx
        self.rank = rank
        self.level = level
        self.window = window
        self.theta = theta if window is None else theta.rewindow(window)

    @classmethod
    def trivial(cls, ctx: RingContext, rank: int, level: int, window=None):
        return cls(ctx, rank, level, WPoly.zeros(ctx, (rank, rank)), window)

    def rewindow(self, window: int | None) -> ConnectionModule:
        return ConnectionModule(self.ctx, self.rank, self.level, self.theta, window)


def connection_apply(m: ConnectionModule, section: WPoly) -> WPoly:
    """The connection applied to a section, a `WPoly` with one lane per
    component; the image has the same lanes.

    Level 0: theta(f e_j) = d_q(f) e_j + sigma(f) Theta e_j.
    Level -1: theta'(f e_j) = (p)_q d-rule(f) e_j + sigma^p(f) Theta e_j.
    """
    if section.coeffs.shape[2:] != (m.rank,):
        raise RankMismatch(f"expected {m.rank} components, got lanes {section.coeffs.shape[2:]}")
    ctx = m.ctx
    twist = 1 if m.level == 0 else ctx.p
    s = section if m.window is None else section.rewindow(m.window)
    derived = s.derive(twist)
    if m.level == -1:
        derived = derived * q_int(ctx.p, 1, ctx)
    # theta_ij sigma^twist(s_j) on lane (i, j), then the sum over j
    moved = np.repeat(s.sigma(twist).coeffs[:, :, None, :], m.rank, axis=2)
    terms = m.theta * WPoly(ctx, moved)
    out = derived + WPoly(ctx, terms.coeffs.sum(axis=-1) % ctx.pn)
    return out if m.window is None else out.rewindow(m.window)


@dataclass
class NilpotenceReport:
    nilpotent: bool
    witness: list[int | None]


def quasi_nilpotence_check(theta: FlatMatrix, rank: int, iterate_cap: int) -> NilpotenceReport:
    """Least k with theta^k e_j = 0 for each basis section e_j of a flattened
    connection theta on a windowed module of the given rank, or None when
    no k up to the cap works.

    e_j (component j, degree 0, t-power 0) is flat column j * (n / rank).
    The iterates of every e_j are column j of one int64 array of shape
    (n / b, b, rank).  A step multiplies each block of theta by the b x rank
    slab of its block column, sums each block row's products with one
    np.add.reduceat over theta's sorted block rows and reduces once mod
    p^N.  A sum holds (blocks per block row) * b <= n products below 2^42,
    so it stays below 2^63 while n < 2^21.  If theta^k e_j = 0, theta is
    nilpotent on the theta-stable submodule that e_j generates, so the
    kernels of its powers there grow strictly until they fill it; it has
    length at most N * n, the length of (Z/p^N)^n, so the least k is at
    most N * n and the loop stops at min(iterate_cap, N * n).
    """
    n, b = theta.rows, theta.b
    comp = np.arange(rank)
    start = comp * (n // rank)
    iterates = np.zeros((n // b, b, rank), dtype=np.int64)
    iterates[start // b, start % b, comp] = 1
    block_rows, first = np.unique(theta.brow, return_index=True)
    witnesses: list[int | None] = [None] * rank
    for k in range(1, min(iterate_cap, theta.n_prec * n) + 1):
        products = theta.blocks @ iterates[theta.bcol]
        iterates = np.zeros_like(iterates)
        if first.size:
            iterates[block_rows] = np.add.reduceat(products, first, axis=0) % theta.modulus
        for j in np.flatnonzero(~iterates.any(axis=(0, 1))):
            if witnesses[j] is None:
                witnesses[j] = k
        if None not in witnesses:
            break
    return NilpotenceReport(nilpotent=None not in witnesses, witness=witnesses)
