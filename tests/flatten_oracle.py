"""Reference builders of the descent matrices, kept as test oracles.

These are the earlier constructions.  `probed_connection` flattens a
connection by probing each basis section (component j, degree d) through
`connection_apply` and the generic `flatten_operator`; the library now
assembles the same matrix from m x m W-blocks.  `probed_witnesses` iterates
`connection_apply` on the basis sections for the quasi-nilpotence
witnesses, which the library reads off powers of the flattened connection.
The Frobenius legs and the block operators were flattened by probing in
the same way, the semilinear Frobenius legs through a flattening of
Z/p^N-linear maps one basis element at a time, and the Verschiebung target
differential as a dense product with the probed raised connection.  The library derives every one of them
from its two connection flattenings by indexing and by m x m W-block
products; the tests compare both entry by entry.

`block_triangular` is the earlier block-by-block loop of the triangular
certificate, which the library now decides with one mask.
`flatten_sections` flattens a section list to a column vector; no command
needs one.  `product_witnesses` is the earlier witness loop, one
`FlatMatrix` product per iterate, which the library now runs on an int64
array of the iterates.

`random_nilpotent_theta` draws a seeded connection matrix that is
quasi-nilpotent by construction, for the tests' random connections; the
benchmark has its own spec generator, and no command draws one.
"""

from __future__ import annotations

import random

import numpy as np

from qprism.base_ring import RingContext, WScalar, q_int, q_power
from qprism.cartier import level_raise, raised_window
from qprism.errors import InvalidArgs
from qprism.homology import FlatMatrix, flat_dim, flatten_operator, max_flat_dim, w_mult_block
from qprism.twisted_calculus import ConnectionModule, QPolynomial, connection_apply


def probed_connection(m: ConnectionModule) -> FlatMatrix:
    if m.window is None:
        raise InvalidArgs("flattening needs a degree window")

    def apply(j, d):
        section = [
            QPolynomial.x(m.ctx, d, m.window)
            if i == j
            else QPolynomial.zero(m.ctx, m.window)
            for i in range(m.rank)
        ]
        return connection_apply(m, section)

    return flatten_operator(m.ctx, m.rank, m.window, m.rank, m.window, apply)


def probed_witnesses(m: ConnectionModule, cap: int) -> list[int | None]:
    """Least k with the k-th connection iterate of each basis vector zero
    in the windowed truncation, or None at the cap."""
    if m.window is None:
        raise InvalidArgs("quasi-nilpotence needs a degree window")
    witnesses: list[int | None] = []
    for j in range(m.rank):
        s = [
            QPolynomial.one(m.ctx, m.window) if i == j else QPolynomial.zero(m.ctx, m.window)
            for i in range(m.rank)
        ]
        found = None
        for k in range(1, cap + 1):
            s = connection_apply(m, s)
            if all(c.is_zero() for c in s):
                found = k
                break
        witnesses.append(found)
    return witnesses


def flatten_sections(ctx: RingContext, rank: int, window: int, sections) -> np.ndarray:
    """Column vector of a section list (rank QPolynomials) in the basis
    e_j x^d t^i, index ((j*(window+1)) + d)*m_prec + i."""
    dim = flat_dim(ctx, rank, window)
    out = np.zeros(dim, dtype=np.int64)
    for j, poly in enumerate(sections):
        for d, w in poly.coeffs.items():
            if d > window:
                raise InvalidArgs("section escapes the degree window")
            base = (j * (window + 1) + d) * ctx.m_prec
            for i, c in enumerate(w.coeffs):
                out[base + i] = c
    return out


def product_witnesses(theta: FlatMatrix, rank: int, cap: int) -> list[int | None]:
    """Least k with theta^k e_j = 0 for each e_j = flat column j * (n / rank),
    or None up to min(cap, N * n): the iterates are block column j of an
    n x (rank * b) block matrix, multiplied by theta once per step."""
    n, b = theta.rows, theta.b
    comp = np.arange(rank)
    start = comp * (n // rank)
    ones = np.zeros((rank, b, b), dtype=np.int64)
    ones[comp, start % b, 0] = 1
    iterates = FlatMatrix.from_blocks(
        theta.p, theta.n_prec, (n, rank * b), b, start // b, comp, ones
    )
    witnesses: list[int | None] = [None] * rank
    for k in range(1, min(cap, theta.n_prec * n) + 1):
        iterates = theta @ iterates
        alive = np.zeros(rank, dtype=bool)
        alive[iterates.bcol] = True
        for j in np.flatnonzero(~alive):
            if witnesses[j] is None:
                witnesses[j] = k
        if None not in witnesses:
            break
    return witnesses


def flatten_z_linear(
    ctx: RingContext,
    rank_in: int,
    window_in: int,
    rank_out: int,
    window_out: int,
    apply_fn,
) -> FlatMatrix:
    """Flatten a map that is only Z/p^N-linear (e.g. Frobenius-semilinear).

    apply_fn maps each full basis element (component j, degree d, t-power i)
    to a list of rank_out output QPolynomials.
    """
    dim_in = flat_dim(ctx, rank_in, window_in)
    dim_out = flat_dim(ctx, rank_out, window_out)
    if max(dim_in, dim_out) > max_flat_dim():
        raise InvalidArgs(
            f"flattened dimension exceeds QPRISM_MAX_DIM={max_flat_dim()}"
        )
    mat = np.zeros((dim_out, dim_in), dtype=np.int64)
    m = ctx.m_prec
    for j in range(rank_in):
        for d in range(window_in + 1):
            for i in range(m):
                out_sections = apply_fn(j, d, i)
                col = (j * (window_in + 1) + d) * m + i
                for comp, poly in enumerate(out_sections):
                    for dd, w in poly.coeffs.items():
                        if dd > window_out:
                            raise InvalidArgs("operator escapes the output window")
                        row0 = (comp * (window_out + 1) + dd) * m
                        for ii, c in enumerate(w.coeffs):
                            mat[row0 + ii, col] = (mat[row0 + ii, col] + c) % ctx.pn
    return FlatMatrix(ctx.p, ctx.n_prec, mat)


def frobenius_legs(conn_prime: ConnectionModule) -> tuple[FlatMatrix, FlatMatrix]:
    """The module and forms legs of the comparison, the Frobenius F and the
    divided Frobenius Fdiv, by probing x'^d e_j -> x^{pd} e_j and
    x'^d e_j -> x^{pd+p-1} e_j."""
    ctx = conn_prime.ctx
    p = ctx.p
    win_in = conn_prime.window
    win_out = raised_window(p, win_in)
    rank = conn_prime.rank

    def frob(j, d):
        return [
            QPolynomial.x(ctx, p * d, win_out)
            if i == j
            else QPolynomial.zero(ctx, win_out)
            for i in range(rank)
        ]

    def frob_div(j, d):
        return [
            QPolynomial.x(ctx, p * d + p - 1, win_out)
            if i == j
            else QPolynomial.zero(ctx, win_out)
            for i in range(rank)
        ]

    f_flat = flatten_operator(ctx, rank, win_in, rank, win_out, frob)
    fdiv_flat = flatten_operator(ctx, rank, win_in, rank, win_out, frob_div)
    return f_flat, fdiv_flat


def verschiebung_target(conn_prime: ConnectionModule) -> FlatMatrix:
    """(p)_q times the raised differential as the dense product of the
    Kronecker-built forms leg with the flattened raised connection."""
    ctx = conn_prime.ctx
    rank = conn_prime.rank
    win_out = raised_window(ctx.p, conn_prime.window)
    pq = q_int(ctx.p, 1, ctx)
    v_forms = FlatMatrix(
        ctx.p,
        ctx.n_prec,
        np.kron(np.eye(rank * (win_out + 1), dtype=np.int64), w_mult_block(pq)),
    )
    return v_forms.matmul(probed_connection(level_raise(conn_prime)))


def block_operator(conn_prime: ConnectionModule, k: int, twist: bool) -> FlatMatrix:
    """Flatten s -> [q^k] x' theta'(s) + (k)_q s on the windowed module.

    With twist the operator is the graded piece of the raised connection;
    without it, the plain certificate operator."""
    ctx = conn_prime.ctx
    win = conn_prime.window
    rank = conn_prime.rank
    kq = q_int(k, 1, ctx)
    qk = q_power(ctx, k) if twist else WScalar.one(ctx)
    x1 = QPolynomial.x(ctx, 1, win)

    def apply(j, d):
        section = [
            QPolynomial.x(ctx, d, win) if i == j else QPolynomial.zero(ctx, win)
            for i in range(rank)
        ]
        image = connection_apply(conn_prime, section)
        return [
            x1 * c * qk + s * kq for c, s in zip(image, section)
        ]

    return flatten_operator(ctx, rank, win, rank, win, apply)


def semilinear_legs(ctx: RingContext, window: int) -> tuple[FlatMatrix, FlatMatrix]:
    """(module_leg, forms_leg) of the trivial level -1 complex: the
    ring Frobenius q -> q^p, x -> x^p on the module, with the extra
    (p)_q x^{p-1} twist on forms."""
    p = ctx.p
    win_out = raised_window(p, window)
    pq = q_int(p, 1, ctx)

    def phi0(j, d, i):
        w = (WScalar.q(ctx) ** p - WScalar.one(ctx)) ** i
        return [QPolynomial.monomial(w, p * d, win_out)]

    def phi1(j, d, i):
        w = (WScalar.q(ctx) ** p - WScalar.one(ctx)) ** i * pq
        return [QPolynomial.monomial(w, p * d + p - 1, win_out)]

    return (
        flatten_z_linear(ctx, 1, window, 1, win_out, phi0),
        flatten_z_linear(ctx, 1, window, 1, win_out, phi1),
    )


def block_triangular(conn_prime: ConnectionModule, k: int, op: FlatMatrix) -> bool:
    """Every diagonal m x m block of op is (k)_q + (p)_q (n)_{q^p}, and every
    other block with output degree <= input degree is zero."""
    ctx = conn_prime.ctx
    win = conn_prime.window
    rank = conn_prime.rank
    m = ctx.m_prec
    pq = q_int(ctx.p, 1, ctx)
    triangular = True
    for j in range(rank):
        for n in range(win + 1):
            col0 = (j * (win + 1) + n) * m
            diag = w_mult_block(q_int(k, 1, ctx) + pq * q_int(n, ctx.p, ctx)) % op.modulus
            for i in range(rank):
                for nn in range(n + 1):
                    row0 = (i * (win + 1) + nn) * m
                    block = op.entries[row0 : row0 + m, col0 : col0 + m]
                    if i == j and nn == n:
                        if not np.array_equal(block, diag):
                            triangular = False
                    elif block.any():
                        triangular = False
    return triangular


def random_nilpotent_theta(
    ctx: RingContext, rank: int, window: int, seed: int, max_degree: int = 2
) -> list[list[QPolynomial]]:
    """Seeded connection matrix with entries in the maximal ideal (p, q-1).

    Every iterate of the connection gains one power of the ideal, which is
    nilpotent in W, so quasi-nilpotence holds by construction.
    """
    rng = random.Random(seed)
    p_scalar = WScalar.from_int(ctx, ctx.p)
    t_scalar = WScalar.t(ctx)
    theta = []
    for _ in range(rank):
        row = []
        for _ in range(rank):
            poly = QPolynomial.zero(ctx, window)
            for _ in range(rng.randrange(1, 3)):
                lead = p_scalar if rng.random() < 0.5 else t_scalar
                w = WScalar.random(ctx, rng)
                poly = poly + QPolynomial.monomial(
                    lead * w, rng.randrange(max_degree + 1), window
                )
            row.append(poly)
        theta.append(row)
    return theta
