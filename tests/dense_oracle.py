"""The dense builders of the descent matrices, kept as test oracles.

These are the earlier constructions, on full n x n int64 arrays: the
connection flattened through the reshape (rank, D+1, m, rank, D+1, m), the
Frobenius legs and the degree shift through reshapes of the flat index,
the W-block rescaling and the block operators through m x m block views,
the graded pieces of the raised connection through the reshape (rank,
D'+1, p, m) of its flat index, the cone differentials by stacking, and the
quasi-nilpotence witnesses by dense powers.  The library builds each of
them in m x m blocks; the tests compare its dense copies with these entry
by entry.

`dense_flat` and `flat_identity` build the FlatMatrix of a dense array,
with one 1 x 1 block per nonzero entry; no command needs one.
"""

from __future__ import annotations

import numpy as np

from qprism.base_ring import RingContext, WScalar, q_int, q_power
from qprism.homology import FlatMatrix, flat_dim, w_mult_block
from qprism.twisted_calculus import ConnectionModule


def dense_flat(p: int, n_prec: int, entries) -> FlatMatrix:
    """The FlatMatrix of a dense matrix (anything np.array reads as 2-D),
    reduced mod p^N, stored with b = 1: one block per nonzero entry."""
    a = np.array(entries, dtype=np.int64, ndmin=2) % p**n_prec
    r, c = np.nonzero(a)
    return FlatMatrix.from_blocks(p, n_prec, a.shape, 1, r, c, a[r, c].reshape(-1, 1, 1))


def flat_identity(p: int, n_prec: int, dim: int) -> FlatMatrix:
    return dense_flat(p, n_prec, np.eye(dim, dtype=np.int64))


def flatten_connection(m: ConnectionModule) -> np.ndarray:
    ctx, rank, size = m.ctx, m.rank, m.window + 1
    dim = flat_dim(ctx, rank, m.window)
    pn = ctx.pn
    twist, scale = (1, WScalar.one(ctx)) if m.level == 0 else (ctx.p, q_int(ctx.p, 1, ctx))
    step = w_mult_block(q_power(ctx, twist))
    sigma_blocks = np.empty((size, ctx.m_prec, ctx.m_prec), dtype=np.int64)
    sigma_blocks[0] = np.eye(ctx.m_prec, dtype=np.int64)
    for d in range(1, size):
        sigma_blocks[d] = sigma_blocks[d - 1] @ step % pn
    derivation = w_mult_block(scale) @ (np.cumsum(sigma_blocks[:-1], axis=0) % pn) % pn
    blocks = np.zeros((rank, size, ctx.m_prec, rank, size, ctx.m_prec), dtype=np.int64)
    deg = np.arange(size)
    for j in range(rank):
        blocks[j, deg[:-1], :, j, deg[1:], :] = derivation
        for i in range(rank):
            for e in range(size):
                c = WScalar(ctx, m.theta.coeffs[e, :, i, j].tolist())
                blocks[i, deg[e:], :, j, deg[: size - e], :] = (
                    w_mult_block(c) @ sigma_blocks[: size - e] % pn
                )
    return blocks.reshape(dim, dim)


def frobenius_leg(
    ctx: RingContext, rank: int, win_in: int, k: int, w_block: np.ndarray
) -> np.ndarray:
    cols, sections, m = flat_dim(ctx, rank, win_in), rank * (win_in + 1), ctx.m_prec
    out = np.zeros((sections, ctx.p, m, sections, m), dtype=np.int64)
    s = np.arange(sections)
    out[s, k, :, s] = w_block % ctx.pn
    return out.reshape(-1, cols)


def w_scale_blocks(entries: np.ndarray, w: WScalar) -> np.ndarray:
    blocks = w_mult_block(w) @ entries.reshape(-1, w.ctx.m_prec, entries.shape[1])
    return (blocks % w.ctx.pn).reshape(entries.shape)


def shift_degree(entries: np.ndarray, rank: int, window: int) -> np.ndarray:
    blocks = entries.reshape(rank, window + 1, -1, entries.shape[1])
    shifted = np.zeros_like(blocks)
    shifted[:, 1:] = blocks[:, :-1]
    return shifted.reshape(entries.shape)


def block_operator(x_theta: np.ndarray, ctx: RingContext, k: int, twist: bool) -> np.ndarray:
    entries = w_scale_blocks(x_theta, q_power(ctx, k)) if twist else x_theta.copy()
    m, sections = ctx.m_prec, np.arange(x_theta.shape[0] // ctx.m_prec)
    blocks = entries.reshape(len(sections), m, len(sections), m)
    blocks[sections, :, sections] += w_mult_block(q_int(k, 1, ctx))
    return entries % ctx.pn


def graded_pieces(conn_prime: ConnectionModule, raised: np.ndarray) -> tuple[bool, dict]:
    """Whether the raised differential maps grade k only into grade k - 1
    mod p, and its piece from grade k to grade k - 1 for each k >= 1."""
    ctx = conn_prime.ctx
    p = ctx.p
    grades = (conn_prime.rank, conn_prime.window + 1, p, ctx.m_prec)
    view = raised.reshape(grades + grades)
    occupied = view.any(axis=(0, 1, 3, 4, 5, 7))
    shift = np.arange(p)[:, None] == (np.arange(p) - 1) % p
    side = flat_dim(ctx, conn_prime.rank, conn_prime.window)
    pieces = {
        k: view[:, :, k - 1, :, :, :, k, :].reshape(side, side) for k in range(1, p)
    }
    return not (occupied & ~shift).any(), pieces


def cone_differentials(d0, d0p, f0, f1, modulus: int) -> tuple[np.ndarray, np.ndarray]:
    """(d0; -f0) and (f1 | d0p) of the mapping cone, from dense arrays."""
    return np.vstack([d0, (-f0) % modulus]), np.hstack([f1, d0p])


def nilpotence_witnesses(theta: np.ndarray, rank: int, cap: int, p: int, N: int) -> list:
    n = theta.shape[0]
    iterates = np.zeros((n, rank), dtype=np.int64)
    iterates[np.arange(rank) * (n // rank), np.arange(rank)] = 1
    witnesses: list[int | None] = [None] * rank
    for k in range(1, min(cap, N * n) + 1):
        iterates = theta @ iterates % p**N
        for j in np.flatnonzero(~iterates.any(axis=0)):
            if witnesses[j] is None:
                witnesses[j] = k
        if None not in witnesses:
            break
    return witnesses
