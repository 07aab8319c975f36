"""Reference elimination routines over Z/n, kept as test oracles.

These are the earlier general-Z/n implementations: a Howell form built on
extended gcds and unit multipliers, a Smith form with a scalar pivot scan,
and a row-reduction rank over the residue field F_p.  The library now
builds the Howell form from one chain-ring elimination step over Z/p^N and
reads Smith exponents, and with them the residue rank, off a layered
elimination in place; the tests check both against these routines on
seeded random matrices.  The library's earlier layered Smith loop, a column
swap and one chain-ring step per pivot, is kept as `layered_smith_exponents`.

The Howell-kernel route to kernel cardinalities and cone acyclicity, and the
cokernel exponents, are kept here too: the library now reads every count off
Smith exponents, and the tests compare the two routes.  `reduce_against`,
the Howell normal-form membership probe, is kept here the same way: the
library decides membership by comparing span orders.  `row_span_member`
and `howell_reduce` are test-only helpers over the library's Howell form.

The earlier routes of the `adic_diagnostics` engines are kept as well:
`PreimageEngine` builds a Howell kernel for the preimage behind every
question over W, and a dense power of the flattened f for every exponent,
where the library reads span orders off one annihilator per module.  It
answers for a Zpn module through `w_twin`, the same module over
W(p, N, 1) = Z/p^N, where the library decides Zpn on the Smith exponents
of the relations.  `KernelZqEngine` decides `kills` by dot products with
integer kernel vectors, where the library compares ranks, and builds the
matrix of f^k on a monic summand as a product of k matrices of f, where
the library reduces f^k modulo the monic; and `PerVectorZEngine` spreads
every scalar matrix over the identity of all of M and recomputes the
Smith form of the image once per kernel vector, where `ComplexZEngine`
decides exactness once per distinct cyclic order.  Each builds
M/sM from `_quotient_presentation`, the dense presentation with s times
each generator among the relations, where the library's engines build it
from their own data.  `oracle_engine` stands in for `adic_diagnostics._engine`.

The generic complex route is kept here too.  `PresentedComplex` is a
bounded complex of direct sums of copies of M or M/sM, with scalar-matrix
differentials, whose exactness its engine decides through `term`, `block`
and `exact_at`; `complex_engine` turns a library engine into its sibling
here that carries them (`ComplexZEngine`, `ComplexZpnEngine`,
`ComplexFiniteEngine`, `ComplexZqEngine`), and the integer lattice kernels
behind Z come with a transform-tracking Smith form, `snf_z_transforms`.
`koszul_build` builds the one- and two-variable Koszul complexes on it, and
`generic_cone_acyclic` the four-term cone of the two-variable complex
against its reduction [M/g^m -> M/g^m].  No command reports a complex: the
library decides that cone as "f^n acts bijectively on the g^m-torsion"
(`adic_diagnostics.koszul_reduction_cone_acyclic`), and the tests sweep it
against `generic_cone_acyclic`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from math import gcd

import numpy as np

from qprism import homology
from qprism.adic_diagnostics import (
    ModulePresentation,
    _FiniteEngine,
    _monic_action_basis,
    _swap_cols,
    _swap_rows,
    _z_cyclic_orders,
    _z_rank,
    _ZEngine,
    _ZpnEngine,
    _zq_mult_matrix,
    _ZqEngine,
)
from qprism.base_ring import RingContext, WScalar
from qprism.errors import InvalidArgs, NotAChainMap
from qprism.exactpoly import IntPoly
from qprism.homology import (
    FlatMatrix,
    is_chain_map,
    right_kernel_basis,
    span_exponents,
    w_mult_block,
)

from paper_oracle import span_contains

_MAX_MODULUS = 1 << 21


def _check_modulus(n: int):
    if n < 2:
        raise InvalidArgs("modulus must be >= 2")
    if n > _MAX_MODULUS:
        raise InvalidArgs(f"modulus {n} too large for exact int64 arithmetic")


def _as_matrix(mat, n: int) -> np.ndarray:
    a = np.array(mat, dtype=np.int64)
    if a.ndim != 2:
        raise InvalidArgs("expected a 2-D matrix")
    return a % n


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    return old_r, old_s, old_t


def unit_multiplier(a: int, n: int) -> int:
    """A unit u mod n with u*a = gcd(a, n) mod n."""
    a %= n
    if a == 0:
        return 1
    g = gcd(a, n)
    ap, m = a // g, n // g
    u = pow(ap, -1, m) if m > 1 else 1
    while gcd(u, n) != 1:
        u += m
    return u % n


def annihilator(a: int, n: int) -> int:
    """Generator of {x : x*a = 0 mod n}; 0 when a is a unit."""
    a %= n
    if a == 0:
        return 1
    g = gcd(a, n)
    return 0 if g == 1 else n // g


def howell_form(mat, n: int) -> np.ndarray:
    """Row-canonical Howell form of the row span of mat over Z/n.

    Every row-span element supported on columns >= c lies in the span of
    the returned rows with pivot column >= c, which makes normal-form
    reduction a membership test.  Annihilator rows of zero-divisor pivots
    are appended to the working matrix and folded in by later columns.
    """
    _check_modulus(n)
    a = _as_matrix(mat, n)
    if a.shape[0] == 0 or not a.any():
        return np.zeros((0, a.shape[1]), dtype=np.int64)
    work = [row.copy() for row in a]
    cols = a.shape[1]
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, len(work)):
            if work[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            work[r], work[pivot] = work[pivot], work[r]
        u = unit_multiplier(int(work[r][c]), n)
        if u != 1:
            work[r] = (work[r] * u) % n
        b = int(work[r][c])
        # eliminate below r with unimodular transforms
        for i in range(r + 1, len(work)):
            v = int(work[i][c])
            if v == 0:
                continue
            if v % b == 0:
                work[i] = (work[i] - (v // b) * work[r]) % n
            else:
                g, s, t = _xgcd(b, v)
                row_r = (s * work[r] + t * work[i]) % n
                row_i = ((-(v // g)) * work[r] + (b // g) * work[i]) % n
                work[r], work[i] = row_r, row_i
                u = unit_multiplier(int(work[r][c]), n)
                if u != 1:
                    work[r] = (work[r] * u) % n
                b = int(work[r][c])
        # reduce entries above r modulo the pivot
        for i in range(r):
            v = int(work[i][c])
            if v >= b:
                work[i] = (work[i] - (v // b) * work[r]) % n
        ann = annihilator(b, n)
        if ann:
            extra = (work[r] * ann) % n
            if extra.any():
                work.append(extra)
        r += 1
    kept = [row for row in work if row.any()]
    if not kept:
        return np.zeros((0, cols), dtype=np.int64)
    return _sorted_rows(np.array(kept, dtype=np.int64))


def _sorted_rows(mat: np.ndarray) -> np.ndarray:
    def pivot(row) -> int:
        nz = np.nonzero(row)[0]
        return int(nz[0]) if len(nz) else row.shape[0]

    order = sorted(range(mat.shape[0]), key=lambda i: pivot(mat[i]))
    return mat[order]


def _valuation(a: int, p: int, N: int) -> int:
    if a == 0:
        return N
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


def smith_exponents(mat, p: int, N: int) -> list[int]:
    """p-adic valuations of the Smith diagonal over Z/p^N.

    One entry per diagonal position up to min(rows, cols); positions the
    reduction never reaches carry valuation N.  Pivots are chosen with
    minimal valuation, ties broken by least row then least column.
    """
    n = p**N
    _check_modulus(n)
    work = _as_matrix(mat, n)
    out: list[int] = []
    size = min(work.shape)
    for _ in range(size):
        rows, cols = work.shape
        best = None
        best_v = N
        for i in range(rows):
            for j in range(cols):
                if work[i, j]:
                    v = _valuation(int(work[i, j]), p, N)
                    if v < best_v:
                        best_v = v
                        best = (i, j)
                        if v == 0:
                            break
            if best is not None and best_v == 0:
                break
        if best is None:
            out.extend([N] * (size - len(out)))
            break
        i0, j0 = best
        if i0 != 0:
            work[[0, i0]] = work[[i0, 0]]
        if j0 != 0:
            work[:, [0, j0]] = work[:, [j0, 0]]
        pv = p**best_v
        u = unit_multiplier(int(work[0, 0]), n)
        work[0] = (work[0] * u) % n
        for i in range(1, rows):
            v = int(work[i, 0])
            if v:
                work[i] = (work[i] - (v // pv) * work[0]) % n
        for j in range(1, cols):
            v = int(work[0, j])
            if v:
                work[:, j] = (work[:, j] - (v // pv) * work[:, 0]) % n
        out.append(best_v)
        work = work[1:, 1:]
    return out


def layered_smith_exponents(mat, p: int, N: int) -> list[int]:
    """Smith exponents by the layered loop the library ran before it
    eliminated each layer in place, without the unit-singleton peel.

    One valuation layer at a time: every column of the remaining block with
    a unit entry is swapped to the diagonal and cleared by one
    `homology._eliminate` step, a pivot of valuation v; then the block, now
    divisible by p, is divided by p.
    """
    n = p**N
    _check_modulus(n)
    work = _as_matrix(mat.dense() if isinstance(mat, FlatMatrix) else mat, n)
    size = min(work.shape)
    out: list[int] = []
    for v in range(N):
        for j in range(len(out), work.shape[1]):
            k = len(out)
            if k == size:
                break
            if not (work[k:, j] % p).any():
                continue
            if j != k:
                work[:, [k, j]] = work[:, [j, k]]
            homology._eliminate(work[k:, k:], 0, 0, n // p**v)
            out.append(v)
        work[len(out):, len(out):] //= p
    return out + [N] * (size - len(out))


def _fp_rank(m: ModulePresentation) -> int:
    """Rank of the relation matrix over the residue field F_p."""
    p = m.ctx.p
    rows = []
    for rel in m.relations:
        row = []
        for v in rel:
            if isinstance(v, WScalar):
                row.append(v.fp_residue())
            else:
                row.append(int(v) % p)
        rows.append(row)
    rank = 0
    cols = m.generators
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                rows[i] = [(a - rows[i][c] * b) % p for a, b in zip(rows[i], rows[r])]
        r += 1
        rank += 1
    return rank


def cokernel_exponents(mat, p: int, N: int, target_dim: int | None = None) -> list[int]:
    """Cyclic orders of target / column-span for a map given by mat."""
    a = _as_matrix(mat, p**N)
    rows = a.shape[0] if target_dim is None else target_dim
    s = smith_exponents(a, p, N) if a.size else []
    exps = [v for v in s if v > 0]
    exps += [N] * (rows - len(s))
    return sorted(exps)


def reduce_against(vec: np.ndarray, howell: np.ndarray, n: int) -> np.ndarray:
    """Normal form of vec modulo the row span of a Howell-form matrix."""
    v = np.array(vec, dtype=np.int64) % n
    for row in howell:
        nz = np.nonzero(row)[0]
        if len(nz) == 0:
            continue
        c = int(nz[0])
        b = int(row[c])
        if v[c] % b == 0:
            v = (v - (int(v[c]) // b) * row) % n
    return v


def row_span_member(vec, mat, n: int) -> bool:
    return not reduce_against(np.asarray(vec), homology.howell_form(mat, n), n).any()


@dataclass
class HowellResult:
    howell_basis: np.ndarray
    kernel_basis: np.ndarray


def howell_reduce(mat, n: int) -> HowellResult:
    """Howell form of the row span plus a spanning set of the right kernel."""
    return HowellResult(homology.howell_form(mat, n), right_kernel_basis(mat, n))


def kernel_log_cardinality(mat: FlatMatrix) -> int:
    """log_p of |{v : mat v = 0}| via the Howell right kernel."""
    k = right_kernel_basis(mat.entries, mat.modulus)
    return sum(span_exponents(k, mat.p, mat.n_prec))


def cone_acyclic(
    d0: FlatMatrix, d0p: FlatMatrix, f0: FlatMatrix, f1: FlatMatrix
) -> bool:
    """True iff the mapping cone of (f0, f1) : [d0] -> [d0p] is acyclic.

    The cone is C0 -> C1 + C'0 -> C'1 with differentials (d0, -f0) and
    (f1 | d0p); acyclicity is decided by exact cardinality bookkeeping:
    |ker| at each spot must match |image| of the previous map.
    """
    if not is_chain_map(d0, d0p, f0, f1):
        raise NotAChainMap("f1 d0 != d0' f0")
    p, N = d0.p, d0.n_prec
    delta0 = FlatMatrix(
        p, N, np.vstack([d0.entries, (-f0.entries) % d0.modulus])
    )
    delta1 = FlatMatrix(p, N, np.hstack([f1.entries, d0p.entries]))
    k0 = kernel_log_cardinality(delta0)
    if k0 != 0:
        return False
    k1 = kernel_log_cardinality(delta1)
    dim_c0 = d0.cols
    dim_mid = delta1.cols
    dim_end = delta1.rows
    im0 = N * dim_c0 - k0
    if k1 != im0:
        return False
    im1 = N * dim_mid - k1
    return im1 == N * dim_end


# --- complexes of presented modules ----------------------------------------------


def snf_z_transforms(mat: list[list[int]], want_transforms: bool = False):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns (diag, U, V) with U @ mat @ V diagonal when transforms are
    requested, else just the diagonal list.  The diagonal is not forced
    into a divisibility chain; callers use it as a multiset.
    """
    a = [list(map(int, row)) for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = _identity(cols) if want_transforms else []
    diag = []
    top = 0
    while top < min(rows, cols):
        # locate a minimal nonzero entry in the remaining block
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i0, j0 = best
        _swap_rows(a, top, i0)
        _swap_rows(U, top, i0)
        _swap_cols(a, top, j0)
        _swap_cols(V, top, j0)
        dirty = True
        while dirty:
            dirty = False
            for i in range(top + 1, rows):
                if a[i][top]:
                    quo = a[i][top] // a[top][top]
                    for j in range(cols):
                        a[i][j] -= quo * a[top][j]
                    for j in range(rows):
                        U[i][j] -= quo * U[top][j]
                    if a[i][top]:
                        _swap_rows(a, top, i)
                        _swap_rows(U, top, i)
                        dirty = True
            for j in range(top + 1, cols):
                if a[top][j]:
                    quo = a[top][j] // a[top][top]
                    for i in range(rows):
                        a[i][j] -= quo * a[i][top]
                    for row in V:
                        row[j] -= quo * row[top]
                    if a[top][j]:
                        _swap_cols(a, top, j)
                        _swap_cols(V, top, j)
                        dirty = True
        diag.append(abs(a[top][top]))
        top += 1
    if want_transforms:
        return diag, U, V
    return diag


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _z_kernel(mat: list[list[int]], width: int) -> list[list[int]]:
    """Vectors spanning {v in Z^width : mat v = 0} (a saturated lattice basis)."""
    if not mat:
        return _identity(width)
    diag, _U, V = snf_z_transforms(mat, want_transforms=True)
    return [[row[j] for row in V] for j in range(len(diag), width)]


def _z_solvable(mat: list[list[int]], vectors: list[list[int]]) -> bool:
    """Whether every vector lies in the lattice generated by the columns of
    mat, from one Smith form of mat: U v must be a multiple of the diagonal."""
    diag, U, _V = snf_z_transforms(mat, want_transforms=True)
    for v in vectors:
        uv = [sum(u * x for u, x in zip(row, v)) for row in U]
        if any(x % d for x, d in zip(uv, diag)) or any(uv[len(diag):]):
            return False
    return True


def _diagonal(orders: list[int]) -> list[list[int]]:
    """Relation columns of a sum of cyclic groups, one per finite factor."""
    return [[d if c == k else 0 for c, d in enumerate(orders) if d] for k in range(len(orders))]


def _z_exact_at(d: int, incoming, quotients, outgoing, next_quotients) -> bool:
    """Exactness at one spot of the complex on the factor Z/d."""
    orders = [d if s is None else gcd(d, s) for s in quotients]
    dim = len(orders)
    if outgoing is None:
        kernel = _identity(dim)
    else:
        # preimage lattice of the next term's relations
        next_orders = [d if s is None else gcd(d, s) for s in next_quotients]
        stacked = [a + r for a, r in zip(outgoing, _diagonal(next_orders))]
        width = dim + sum(1 for e in next_orders if e)
        kernel = [v[:dim] for v in _z_kernel(stacked, width)]
    image = [a + r for a, r in zip(incoming or [[]] * dim, _diagonal(orders))]
    return _z_solvable(image, kernel)


class _ZComplexes:
    """Complexes over Z and Z/p^N.  A complex term is its list of quotient
    scalars (None for M) and a differential its integer scalar matrix.
    Such a complex is the sum, over the cyclic factors Z/d of M, of the
    complex with terms Z/gcd(d, s) and the scalar matrices as
    differentials, so exactness is decided once per distinct order d, on
    terms of rank at most 2."""

    def block(self, scalars: list[list]) -> list[list]:
        return scalars

    def term(self, quotients: list) -> list:
        return quotients

    def exact_at(self, incoming, quotients, outgoing, next_quotients) -> bool:
        return all(
            _z_exact_at(d, incoming, quotients, outgoing, next_quotients)
            for d in sorted(set(self.orders))
        )


class ComplexZEngine(_ZComplexes, _ZEngine):
    pass


class ComplexZpnEngine(_ZComplexes, _ZpnEngine):
    pass


class ComplexFiniteEngine(_FiniteEngine):
    """The W engine with complexes: terms are (dimension, rows spanning the
    relations) and differentials matrices over Z/p^N."""

    def _flat(self, scalars: list[list], cols: int, copies: int = 1) -> np.ndarray:
        """The Z/p^N matrix of a matrix of scalars, each acting on `copies` copies
        of the base: one block per scalar, spread over the identity in one step."""
        w = self.width
        blocks = np.zeros((len(scalars), cols, w, w), dtype=np.int64)
        for i, row in enumerate(scalars):
            for j, s in enumerate(row):
                blocks[i, j] = w_mult_block(self.m.scalar(s))
        spread = np.einsum("ijcd,kl->ikcjld", blocks, np.eye(copies, dtype=np.int64))
        return spread.reshape(len(scalars) * copies * w, cols * copies * w)

    def block(self, scalars: list[list]) -> np.ndarray:
        return self._flat(scalars, len(scalars[0]), self.m.generators)

    def term(self, quotients: list) -> tuple:
        # the rows of the direct sum: each summand's relations in its own block
        eye = np.eye(len(quotients), dtype=np.int64)
        spans = [self.quotient_rows(() if s is None else [s]) for s in quotients]
        rows = np.vstack([np.kron(e, span) for e, span in zip(eye, spans)])
        return len(quotients) * self.dim, rows

    def exact_at(self, incoming, term, outgoing, next_term) -> bool:
        dim, span = term
        kernel_log = self.N * dim
        if outgoing is not None:
            # |{v : A v in S'}| = |F| |S'| / |A F + S'|
            next_span = next_term[1]
            kernel_log += self._log(next_span) - self._log(np.vstack([next_span, outgoing.T]))
        image = span if incoming is None else np.vstack([span, incoming.T])
        return kernel_log == self._log(image)


class ComplexZqEngine(_ZqEngine):
    def term(self, quotients):
        raise InvalidArgs("Koszul complexes are not supported over exact Z[q]")

    block = term


_COMPLEX_SIBLING = {
    _ZEngine: ComplexZEngine,
    _ZpnEngine: ComplexZpnEngine,
    _FiniteEngine: ComplexFiniteEngine,
    _ZqEngine: ComplexZqEngine,
}


def complex_engine(eng):
    """eng with the complex methods above.  A library engine becomes its
    sibling here on the same data, with nothing recomputed; an oracle
    engine, which has them, is returned as it is."""
    sibling = _COMPLEX_SIBLING.get(type(eng))
    if sibling is None:
        return eng
    twin = copy.copy(eng)
    twin.__class__ = sibling
    return twin


@dataclass
class PresentedComplex:
    """Bounded cochain complex whose terms are direct sums of copies of a
    presented module (possibly further quotiented), with scalar-matrix
    differentials, in the representation of the module's engine: lists of
    quotient scalars and the scalar matrices themselves for Z and Zpn,
    (ambient_dim, relation rows) and matrices over Z/p^N for W.
    """

    engine: object
    terms: list
    differentials: list

    def exact_at(self, i: int) -> bool:
        d = self.differentials
        return self.engine.exact_at(
            d[i - 1] if i >= 1 else None,
            self.terms[i],
            d[i] if i < len(d) else None,
            self.terms[i + 1] if i + 1 < len(self.terms) else None,
        )

    def acyclic(self) -> bool:
        return all(self.exact_at(i) for i in range(len(self.terms)))


def generic_cone_acyclic(m: ModulePresentation, f, g, n: int = 1, mexp: int = 1) -> bool:
    """Acyclicity of the cone comparing the two-variable Koszul complex
    with [M/g^m -> M/g^m] via f^n, the reduction that holds for
    g-torsion-free modules.

    Cone terms: M -> M+M -> M + M/g^m -> M/g^m, with the comparison legs
    projecting onto the second factor and the quotient.
    """
    eng = complex_engine(m.engine)
    fn, gm = m.scalar(f) ** n, m.scalar(g) ** mexp
    terms = [eng.term([None]), eng.term([None, None]), eng.term([None, gm]), eng.term([gm])]
    differentials = [
        eng.block([[gm], [fn]]),
        # (y, z) -> (f^n y - g^m z, ybar)
        eng.block([[fn, -gm], [1, 0]]),
        # (z, t) -> zbar - f^n tbar
        eng.block([[1, -fn]]),
    ]
    return PresentedComplex(eng, terms, differentials).acyclic()


# --- earlier routes of the adic engines ------------------------------------------


def _quotient_presentation(m: ModulePresentation, s) -> ModulePresentation:
    """M/sM: the relations plus s times each generator."""
    zero = m.scalar(0)
    extra = [[s if j == i else zero for j in range(m.generators)] for i in range(m.generators)]
    return ModulePresentation(m.base, m.generators, m.relations + extra, m.ctx)


def _spread(scalars: list[list], n: int) -> list[list]:
    """The block matrix with each scalar s replaced by s times the n x n
    identity: the map between sums of copies of a module on n generators."""
    return [
        [s if k == j else 0 for s in row for j in range(n)] for row in scalars for k in range(n)
    ]


def _finite_preimage(mat: np.ndarray, span: np.ndarray, n: int) -> np.ndarray:
    """Rows spanning {v : mat v in row-span(span)} over Z/n."""
    dim = mat.shape[1]
    if span.shape[0] == 0:
        return right_kernel_basis(mat, n)
    stacked = np.hstack([mat % n, (-span.T) % n])
    kern = right_kernel_basis(stacked, n)
    if kern.shape[0] == 0:
        return np.zeros((0, dim), dtype=np.int64)
    proj = kern[:, :dim] % n
    return proj[proj.any(axis=1)]


class PreimageEngine(ComplexFiniteEngine):
    """The finite engine with a Howell preimage kernel per question and a
    dense power of the flattened f per exponent."""

    def __init__(self, m):
        super().__init__(m)
        self.presentation = self.rows.T
        self._kernels: dict = {}
        self._powers: dict = {}

    def quotient(self, s):
        return oracle_engine(_quotient_presentation(self.m, s))

    def _residue_rank(self) -> int:
        return _fp_rank(self.m)

    def _power(self, f, k: int) -> np.ndarray:
        if (f, k) not in self._powers:
            if k <= 1:
                power = self.block([[f]]) if k else np.eye(self.dim, dtype=np.int64)
            else:
                power = self._power(f, 1) @ self._power(f, k - 1) % self.modulus
            self._powers[f, k] = power
        return self._powers[f, k]

    def _kernel(self, f, k: int) -> np.ndarray:
        """Rows spanning the f^k-torsion, relations included."""
        if (f, k) not in self._kernels:
            self._kernels[f, k] = (
                _finite_preimage(self._power(f, k), self.rows, self.modulus) if k else self.rows
            )
        return self._kernels[f, k]

    def torsion_step(self, f, b: int):
        # the torsion grows with b, so its orders change until it stabilizes
        orders = span_exponents(self._kernel(f, b), self.p, self.N)
        return orders, orders

    def kills(self, f, s: int, k: int) -> bool:
        images = self._kernel(f, k) @ self._power(f, s).T % self.modulus
        return span_contains(self.rows, images, self.p, self.N)

    def exact_at(self, incoming, term, outgoing, next_term) -> bool:
        dim, span = term
        if outgoing is None:
            kernel = np.eye(dim, dtype=np.int64)
        else:
            kernel = _finite_preimage(outgoing, next_term[1], self.modulus)
        image = span if incoming is None else np.vstack([span, incoming.T])
        return self._log(np.vstack([kernel, span])) == self._log(image)

    def _tor1_vanishes(self, ideal) -> bool:
        """First Tor of M against base/(ideal), from a two-step flattened
        resolution.

        The presentation map sends one free copy of the base per relation
        onto the relation submodule; its kernel supplies the syzygy step,
        so the Tor vanishes iff the preimage of ideal * base^g under the
        presentation equals syzygies + ideal * base^r.
        """
        r = len(self.m.relations)
        if r == 0:
            return True  # free module
        pre = _finite_preimage(
            self.presentation, self.multiples(ideal, self.m.generators), self.modulus
        )
        image = np.vstack(
            [right_kernel_basis(self.presentation, self.modulus), self.multiples(ideal, r)]
        )
        return self._log(np.vstack([pre, image])) == self._log(image)


def _z_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


class KernelZqEngine(ComplexZqEngine):
    """The Zq engine deciding `kills` from integer kernel vectors, with the
    matrix of f^k on a monic summand a product of k matrices of f."""

    def __init__(self, m):
        super().__init__(_monic_action_basis(m), bool(m.relations))
        self.m = m
        self._powers: dict = {}

    def _power(self, f: IntPoly, i: int, k: int) -> list[list[int]]:
        """Integer matrix of f^k on the monic summand i."""
        if (f, i, k) not in self._powers:
            monic = self.mono[i]
            if k <= 1:
                power = _zq_mult_matrix(f, monic) if k else _identity(monic.degree("q"))
            else:
                power = _z_matmul(self._power(f, i, 1), self._power(f, i, k - 1))
            self._powers[f, i, k] = power
        return self._powers[f, i, k]

    def quotient(self, s):
        return KernelZqEngine(_quotient_presentation(self.m, s))

    def torsion_step(self, f: IntPoly, b: int):
        key, orders = [], []
        for i, monic in enumerate(self.mono):
            if monic is None:
                key.append(b > 0 and f.is_zero())
            else:
                rank = _z_rank(self._power(f, i, b))
                key.append(rank)
                orders.append(monic.degree("q") - rank)
        return key, orders or None

    def kills(self, f, s: int, k: int) -> bool:
        for i, monic in enumerate(self.mono):
            if monic is None:
                # the f^k-torsion is 0, or everything when f = 0, which f^s kills for s > 0
                if f.is_zero() and s == 0:
                    return False
                continue
            kernel = _z_kernel(self._power(f, i, k), monic.degree("q"))
            power = self._power(f, i, s)
            if any(sum(x * y for x, y in zip(row, v)) for row in power for v in kernel):
                return False
        return True


class PerVectorZEngine(_ZEngine):
    """The Z engine on scalar matrices spread over all of M, solving for
    each kernel vector with its own Smith form.  Complex terms are lists of
    orders and differentials integer matrices."""

    def __init__(self, m):
        super().__init__(_z_cyclic_orders(m), m)

    def quotient(self, s):
        return PerVectorZEngine(_quotient_presentation(self.m, s))

    def block(self, scalars: list[list]) -> list[list[int]]:
        return _spread(scalars, len(self.orders))

    def term(self, quotients: list) -> list[int]:
        return [d if s is None else gcd(d, s) for s in quotients for d in self.orders]

    def exact_at(self, incoming, orders, outgoing, next_orders) -> bool:
        dim = len(orders)
        if outgoing is None:
            kernel = _identity(dim)
        else:
            # preimage lattice of the next term's relations
            stacked = [a + r for a, r in zip(outgoing, _diagonal(next_orders))]
            width = dim + sum(1 for d in next_orders if d)
            kernel = [v[:dim] for v in _z_kernel(stacked, width)]
        image = [a + r for a, r in zip(incoming or [[]] * dim, _diagonal(orders))]
        return all(_z_solvable(image, [v]) for v in kernel)


def w_twin(m: ModulePresentation) -> ModulePresentation:
    """The module of a Zpn presentation m over W(p, N, 1), which is Z/p^N."""
    ctx = RingContext(m.ctx.p, m.ctx.n_prec, 1)
    return ModulePresentation("W", m.generators, m.relations, ctx)


def oracle_engine(m):
    """`adic_diagnostics._engine` with every earlier route above; a Zpn
    module goes through the flattened route of its W twin."""
    if m.base == "Z":
        return PerVectorZEngine(m)
    if m.base == "Zq":
        return KernelZqEngine(m)
    return PreimageEngine(w_twin(m) if m.base == "Zpn" else m)


def koszul_build(m: ModulePresentation, f, g=None, n: int = 1, mexp: int = 1) -> PresentedComplex:
    """One- or two-variable Koszul complex on a presented module.

    One variable: [M -> M] via f^n.  Two variables: the total complex
    M -> M + M -> M of the commuting square with horizontal g^m and
    vertical f^n.
    """
    if n < 1 or mexp < 1:
        raise InvalidArgs("Koszul exponents must be >= 1")
    eng = complex_engine(m.engine)
    fn = m.scalar(f) ** n
    if g is None:
        return PresentedComplex(eng, [eng.term([None]), eng.term([None])], [eng.block([[fn]])])
    gm = m.scalar(g) ** mexp
    terms = [eng.term([None]), eng.term([None, None]), eng.term([None])]
    return PresentedComplex(eng, terms, [eng.block([[gm], [fn]]), eng.block([[fn, -gm]])])
