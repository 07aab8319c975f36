"""The local Frobenius-descent pipeline: level raising, the comparison
chain maps, the degree-block decomposition with its invertibility
certificates, and the quasi-isomorphism verdict.

The coordinate x' of the source module acts as x^p after raising, so a
source window D' pairs with the target window p*D' + p - 1; the degree
grading then matches both quotient windows exactly, which is asserted
programmatically rather than assumed.

Every descent matrix is a `FlatMatrix` in m x m W-blocks, one per pair of
basis sections, and a section is numbered j * (window + 1) + degree.  The
raised section of (component j, degree p*n + k) is then p * s + k for the
source section s of (j, n): its grade k is the raised section mod p and s
is the raised section // p.  The Frobenius legs and the block split read
every grade through this numbering, block by block.

Each run flattens two connections, the source theta' and the raised theta,
each assembled from m x m W-blocks: powers of the sigma block, their
running sums for the derivation, and one block product per coefficient of
the connection matrix and degree, formed in one batch from theta's
t-coordinate array (a `base_ring.WPoly`).  Raising the level maps that
array's degrees e to p e + p - 1 and builds nothing else.  Every other descent matrix derives from these
two by renumbering blocks or by m x m W-block products: the Frobenius legs
hold one block per source section, each block operator is theta' with its
output degree shifted by one (the factor x') plus (k)_q blocks, and the
Verschiebung check rescales each W-block of theta' and of theta F by
(p)_q.  The quasi-nilpotence witnesses are read off powers of theta' as
well, and powers of one m x m block come by doubling.  So every step
costs O(stored blocks * m^2), not O(n^2).  Every kernel count of a run,
of the block operators and of the cone, comes from one peel of their
direct sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .base_ring import RingContext, WScalar, q_int, q_power
from .errors import InvalidArgs, WindowUnstable, WrongLevel
from .homology import (
    FlatMatrix,
    cone_differentials,
    exactness,
    flat_dim,
    is_chain_map,
    kernel_log_cardinalities,
    max_flat_dim,
    require_chain_map,
    selection_rows,
    w_mult_block,
    w_mult_blocks,
    w_scale_blocks,
)
from .twisted_calculus import ConnectionModule, quasi_nilpotence_check


# the degree window grows by this much for the stability re-run
STABILITY_WINDOW_STEP = 2


def raised_window(p: int, window: int) -> int:
    return p * window + p - 1


def level_raise(conn_prime: ConnectionModule) -> ConnectionModule:
    """Turn a level -1 connection over W[x'] into the level 0 connection on
    the induced module over W[x], where x' acts as x^p.

    The connection matrix becomes x^{p-1} times the source matrix with
    x' -> x^p, an index map from degree e to p e + p - 1; the twisted
    Leibniz rule supplies the action on all other sections.
    """
    if conn_prime.level != -1:
        raise WrongLevel("level raising consumes a level -1 connection")
    p = conn_prime.ctx.p
    window = None if conn_prime.window is None else raised_window(p, conn_prime.window)
    theta = conn_prime.theta.substitute_x_power(p, p - 1)
    return ConnectionModule(conn_prime.ctx, conn_prime.rank, 0, theta, window)


def _block_powers(step: np.ndarray, count: int, n: int) -> np.ndarray:
    """step^0, ..., step^(count - 1) mod n for an m x m block step, formed by
    doubling: each round multiplies the powers so far by the next one."""
    m = step.shape[0]
    powers = np.empty((max(count, 1), m, m), dtype=np.int64)
    powers[0] = np.eye(m, dtype=np.int64)
    have = 1
    while have < count:
        take = min(have, count - have)
        next_power = powers[have - 1] @ step % n
        np.remainder(powers[:take] @ next_power, n, out=powers[have : have + take])
        have += take
    return powers[:count]


def flatten_connection(m: ConnectionModule) -> FlatMatrix:
    """The connection as a matrix over Z/p^N, assembled from m x m W-blocks.

    Let twist be 1 at level 0 and p at level -1, scale 1 at level 0 and
    (p)_q at level -1, and Q_d = B(q^twist)^d the block of sigma^twist on
    x^d, B(w) being `w_mult_block(w)`.  The section e_j x^d goes to
    scale (d)_{q^twist} e_j x^{d-1} + sum_{i, e} c_e q^{twist d} e_i x^{d+e}
    for theta_ij = sum_e c_e x^e, where (d)_{q^twist} = Q_0 + ... + Q_{d-1}.
    A derivation block lowers the degree by one and a theta block keeps or
    raises it, so no block position is written twice.
    """
    if m.window is None:
        raise InvalidArgs("flattening needs a degree window")
    ctx, rank, size = m.ctx, m.rank, m.window + 1
    dim = flat_dim(ctx, rank, m.window)
    if dim > max_flat_dim():
        raise InvalidArgs(f"flattened dimension exceeds QPRISM_MAX_DIM={max_flat_dim()}")
    pn = ctx.pn
    twist, scale = (1, WScalar.one(ctx)) if m.level == 0 else (ctx.p, q_int(ctx.p, 1, ctx))
    sigma_blocks = _block_powers(w_mult_block(q_power(ctx, twist)), size, pn)
    # derivation[d - 1] = B(scale) (d)_{q^twist} for d = 1..D
    derivation = w_mult_block(scale) @ (np.cumsum(sigma_blocks[:-1], axis=0) % pn)
    deg = np.arange(size)
    # derivation blocks at (j, d - 1; j, d), the one below (j, 0) first
    below = (np.arange(rank)[:, None] * size + deg[:-1]).ravel()
    # a theta block B(c_e) Q_d at (i, d + e; j, d) for every nonzero coefficient
    # c_e of a theta_ij and every degree d <= D - e, all formed in one batch
    e, i, j = np.nonzero(m.theta.coeffs.any(axis=1))
    t, d = np.nonzero(deg < (size - e)[:, None])
    coefficients = w_mult_blocks(m.theta.coeffs[e, :, i, j].astype(np.int64, copy=False))
    return FlatMatrix.from_blocks(
        ctx.p,
        ctx.n_prec,
        (dim, dim),
        ctx.m_prec,
        np.concatenate([below, (i * size + e)[t] + d]),
        np.concatenate([below + 1, (j * size)[t] + d]),
        np.concatenate([derivation] * rank + [coefficients[t] @ sigma_blocks[d]]),
    )


def _frobenius_leg(ctx: RingContext, rank: int, win_in: int, k: int) -> FlatMatrix:
    """x'^n e_j t^i -> x^{pn+k} e_j t^i: one m x m identity block per
    source section s, at the raised section p * s + k of grade k, in stored
    form already."""
    cols, m = flat_dim(ctx, rank, win_in), ctx.m_prec
    s = np.arange(cols // m)
    blocks = np.repeat(np.eye(m, dtype=np.int64)[None], s.size, axis=0)
    return FlatMatrix(
        ctx.p, ctx.n_prec, (ctx.p * cols, cols), m, ctx.p * s + k, s, blocks
    )


@dataclass
class ChainMapData:
    """A map of two-term complexes [source_differential] -> [target_differential].

    module_leg acts in degree 0 and forms_leg in degree 1; the pair is a
    chain map when forms_leg source_differential = target_differential
    module_leg.  The descent comparison carries the source complex to the
    raised one by the Frobenius F and the divided Frobenius Fdiv.
    """

    source_differential: FlatMatrix
    target_differential: FlatMatrix
    module_leg: FlatMatrix
    forms_leg: FlatMatrix

    def chain_map_ok(self) -> bool:
        return is_chain_map(
            self.source_differential,
            self.target_differential,
            self.module_leg,
            self.forms_leg,
        )


def chain_map_build(conn_prime: ConnectionModule) -> ChainMapData:
    """The comparison (F, Fdiv) from the source complex [theta'] to the
    raised complex [theta]."""
    if conn_prime.level != -1:
        raise WrongLevel("chain map construction consumes a level -1 connection")
    if conn_prime.window is None:
        raise InvalidArgs("chain map construction needs a degree window")
    ctx = conn_prime.ctx
    rank, win_in = conn_prime.rank, conn_prime.window
    return ChainMapData(
        source_differential=flatten_connection(conn_prime),
        target_differential=flatten_connection(level_raise(conn_prime)),
        module_leg=_frobenius_leg(ctx, rank, win_in, 0),
        forms_leg=_frobenius_leg(ctx, rank, win_in, ctx.p - 1),
    )


def verschiebung_ok(data: ChainMapData, ctx: RingContext) -> bool:
    """The Verschiebung check of the descent comparison in `data`.

    The Verschiebung is the identity on the module and (p)_q on forms, the
    chain-level shadow of inverting the distinguished element.  Following
    the comparison by it gives (p)_q Fdiv theta' = ((p)_q theta) F: the
    chain-map equation between the two differentials with every W-block
    rescaled by (p)_q.  The rescaling acts on rows, so it commutes with
    F's selection of columns: theta F is formed first and then rescaled.
    """
    if selection_rows(data.module_leg) is None:
        raise InvalidArgs("the Verschiebung check needs a Frobenius leg that selects")
    pq = q_int(ctx.p, 1, ctx)
    source, target = data.source_differential, data.target_differential
    return data.forms_leg @ w_scale_blocks(source, pq) == w_scale_blocks(
        target @ data.module_leg, pq
    )


@dataclass
class CartierProblem:
    conn_prime: ConnectionModule
    iterate_cap: int = 32

    def __post_init__(self):
        if self.conn_prime.level != -1:
            raise WrongLevel("descent problems take level -1 connections")
        if self.conn_prime.window is None:
            raise InvalidArgs("descent problems need a degree window")


@dataclass
class BlockData:
    operators: dict[int, FlatMatrix]
    twisted_operators: dict[int, FlatMatrix]


def _block_operator(x_theta: FlatMatrix, ctx: RingContext, k: int, twist: bool) -> FlatMatrix:
    """s -> [q^k] x' theta'(s) + (k)_q s from the flattened x' theta'.

    With twist the operator is the graded piece of the raised connection;
    without it, the plain certificate operator."""
    m = ctx.m_prec
    blocks = w_mult_block(q_power(ctx, k)) @ x_theta.blocks if twist else x_theta.blocks
    # every section s gains (k)_q s on the diagonal
    s = np.arange(x_theta.rows // m)
    return FlatMatrix.from_blocks(
        ctx.p,
        ctx.n_prec,
        x_theta.shape,
        m,
        np.concatenate([x_theta.brow, s]),
        np.concatenate([x_theta.bcol, s]),
        np.concatenate([blocks, np.broadcast_to(w_mult_block(q_int(k, 1, ctx)), (s.size, m, m))]),
    )


def _shift_degree(flat: FlatMatrix, window: int) -> FlatMatrix:
    """x' times an operator on the windowed module in W-blocks: every output
    degree moves up by one, and degree window + 1 falls out of the window.
    The blocks that stay keep their order, so they are in stored form."""
    stays = flat.brow % (window + 1) != window
    brow, bcol, blocks = flat.brow[stays] + 1, flat.bcol[stays], flat.blocks[stays]
    return FlatMatrix(
        flat.p, flat.n_prec, flat.shape, flat.b, brow, bcol, blocks
    )


def _graded_piece(theta: FlatMatrix, k: int, shape) -> FlatMatrix:
    """The blocks of the raised theta (in W-blocks) leaving grade k, at the
    source sections of their raised sections, in stored form when theta
    maps grade k into grade k - 1, as `block_split` checks first."""
    p = theta.p
    pick = theta.bcol % p == k
    return FlatMatrix(
        p,
        theta.n_prec,
        shape,
        theta.b,
        theta.brow[pick] // p,
        theta.bcol[pick] // p,
        theta.blocks[pick],
    )


def block_split(problem: CartierProblem, data: ChainMapData | None = None) -> BlockData:
    """Split the raised complex along the residue of the degree mod p.

    Grade 0 is carried onto the source complex by the comparison maps;
    each grade k >= 1 is a one-term complex whose operator is the graded
    piece of the raised connection.  The operators derive from the source
    flattening in `data` (built here when not given), and the split is
    checked block by block against its raised flattening; any mismatch
    means an operator escaped its window.
    """
    conn = problem.conn_prime
    ctx = conn.ctx
    p, m = ctx.p, ctx.m_prec
    if data is None:
        data = chain_map_build(conn)
    x_theta = _shift_degree(data.source_differential.with_blocks(m), conn.window)
    theta = data.target_differential.with_blocks(m)
    # a raised section's grade is its residue mod p; grade k may only map
    # into grade k - 1 mod p
    structure_ok = bool((theta.brow % p == (theta.bcol - 1) % p).all())
    operators = {}
    twisted = {}
    for k in range(1, p):
        twisted[k] = _block_operator(x_theta, ctx, k, twist=True)
        structure_ok = structure_ok and _graded_piece(theta, k, x_theta.shape) == twisted[k]
        operators[k] = _block_operator(x_theta, ctx, k, twist=False)
    if not structure_ok:
        raise WindowUnstable("raised connection escaped its degree grading")
    return BlockData(operators, twisted)


@dataclass
class CartierReport:
    context: RingContext
    rank: int
    window: int
    nilpotent: bool
    witness: list[int | None]
    chain_map_ok: bool
    verschiebung_ok: bool
    blocks: dict[int, dict[str, bool]]
    cone_acyclic: bool
    stability: dict[str, bool] = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return (
            self.nilpotent
            and self.chain_map_ok
            and self.verschiebung_ok
            and self.cone_acyclic
            and all(all(v.values()) for v in self.blocks.values())
            and all(self.stability.values())
        )

    def to_json(self) -> dict:
        return {
            "context": self.context.to_json(),
            "rank": self.rank,
            "degree_window": self.window,
            "nilpotent": self.nilpotent,
            "witness": [w if w is not None else -1 for w in self.witness],
            "chain_map_ok": self.chain_map_ok,
            "verschiebung_ok": self.verschiebung_ok,
            "blocks": {
                str(k): dict(sorted(v.items())) for k, v in sorted(self.blocks.items())
            },
            "cone_acyclic": self.cone_acyclic,
            "stability": dict(sorted(self.stability.items())),
            "ok": self.all_ok,
        }


def _block_certificates(conn_prime: ConnectionModule, ops: dict[int, FlatMatrix]) -> dict:
    """Triangular certificate for each block operator op_k, by k.

    Diagonal entries (k)_q + (p)_q (n)_{q^p} must be units; the rest of the
    operator must strictly raise the degree, so the windowed quotient is a
    unit-diagonal triangular map, hence bijective.  The blocks
    (p)_q (n)_{q^p} do not depend on k and are formed once; each op_k is
    checked on its own blocks.  The kernel checks of `_verify_once` do not
    reuse the certificates.
    """
    ctx = conn_prime.ctx
    win = conn_prime.window
    m, pn = ctx.m_prec, ctx.pn
    # B((n)_{q^p}) = B(1) + B(q^p) + ... + B(q^p)^(n-1) for n = 0..win
    sums = np.zeros((win + 1, m, m), dtype=np.int64)
    np.cumsum(_block_powers(w_mult_block(q_power(ctx, ctx.p)), win, pn), axis=0, out=sums[1:])
    raised = w_mult_block(q_int(ctx.p, 1, ctx)) @ (sums % pn)
    certificates = {}
    for k, op in ops.items():
        diagonal = (w_mult_block(q_int(k, 1, ctx)) + raised) % pn
        # B(w)[0, 0] is the constant coordinate of w, a unit exactly when w is
        unit_diagonal = bool((diagonal[:, 0, 0] % ctx.p).all())
        blocks = op.with_blocks(m)
        # section s has degree s mod (win + 1); its diagonal block must be diagonal[degree]
        on_diagonal = blocks.brow == blocks.bcol
        found = np.zeros((op.rows // m, m, m), dtype=np.int64)
        found[blocks.brow[on_diagonal]] = blocks.blocks[on_diagonal]
        want = diagonal[np.arange(found.shape[0]) % (win + 1)]
        diagonal_ok = np.array_equal(found, want)
        # every other block must map to a higher degree
        raising = blocks.brow % (win + 1) > blocks.bcol % (win + 1)
        triangular = diagonal_ok and bool((on_diagonal | raising).all())
        certificates[k] = {"unit_diagonal": unit_diagonal, "triangular": triangular}
    return certificates


def _verify_once(problem: CartierProblem) -> CartierReport:
    """One descent run.  One peel of the direct sum of op_k and twisted_k for
    k = 1..p-1 and the two cone differentials counts every kernel of it."""
    conn = problem.conn_prime
    data = chain_map_build(conn)
    nil = quasi_nilpotence_check(data.source_differential, conn.rank, problem.iterate_cap)
    split = block_split(problem, data)
    legs = (data.source_differential, data.target_differential, data.module_leg, data.forms_leg)
    require_chain_map(*legs)
    cone = cone_differentials(*legs)
    ops = split.operators
    *kernels, k0, k1 = kernel_log_cardinalities(
        [*ops.values(), *split.twisted_operators.values(), *cone]
    )
    blocks = _block_certificates(conn, ops)
    for cert, plain, twisted in zip(blocks.values(), kernels, kernels[len(ops) :]):
        cert.update(kernel_trivial=plain == 0, twisted_kernel_trivial=twisted == 0)
    acyclic = all(exactness(*cone, k0, k1))
    return CartierReport(
        context=conn.ctx,
        rank=conn.rank,
        window=conn.window,
        nilpotent=nil.nilpotent,
        witness=nil.witness,
        # require_chain_map raised NotAChainMap unless Fdiv theta' = theta F,
        # so the chain-map equation holds here; there is no need to test it again
        chain_map_ok=True,
        verschiebung_ok=verschiebung_ok(data, conn.ctx),
        blocks=blocks,
        cone_acyclic=acyclic,
    )


def cartier_verify(problem: CartierProblem) -> CartierReport:
    """Run every check of the descent pipeline and re-run at a larger
    window to certify the verdicts are truncation-stable."""
    report = _verify_once(problem)
    conn = problem.conn_prime
    grown = CartierProblem(
        conn.rewindow(conn.window + STABILITY_WINDOW_STEP), problem.iterate_cap
    )
    grown_report = _verify_once(grown)
    report.stability = {
        "chain_map_ok": grown_report.chain_map_ok == report.chain_map_ok,
        "cone_acyclic": grown_report.cone_acyclic == report.cone_acyclic,
        "blocks": all(
            all(grown_report.blocks[k][key] == report.blocks[k][key] for key in report.blocks[k])
            for k in report.blocks
        ),
        "nilpotent": grown_report.nilpotent == report.nilpotent,
    }
    return report
