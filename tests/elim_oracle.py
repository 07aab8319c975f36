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
Smith form of the image once per kernel vector, where the library decides
exactness once per distinct cyclic order.  Each builds
M/sM from `_quotient_presentation`, the dense presentation with s times
each generator among the relations, where the library's engines build it
from their own data.  `oracle_engine` stands in for `adic_diagnostics._engine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from qprism import homology
from qprism.adic_diagnostics import (
    ModulePresentation,
    _diagonal,
    _FiniteEngine,
    _identity,
    _monic_action_basis,
    _z_cyclic_orders,
    _z_kernel,
    _z_rank,
    _ZEngine,
    _zq_mult_matrix,
    _ZqEngine,
    snf_z,
)
from qprism.base_ring import RingContext, WScalar
from qprism.errors import InvalidArgs, NotAChainMap
from qprism.exactpoly import IntPoly
from qprism.homology import (
    FlatMatrix,
    is_chain_map,
    right_kernel_basis,
    span_contains,
    span_exponents,
)

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


class PreimageEngine(_FiniteEngine):
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


class KernelZqEngine(_ZqEngine):
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


def _z_solvable(mat: list[list[int]], v: list[int]) -> bool:
    """Whether v lies in the lattice generated by the columns of mat."""
    diag, U, _V = snf_z(mat, want_transforms=True)
    uv = [sum(u * x for u, x in zip(row, v)) for row in U]
    return all(x % d == 0 for x, d in zip(uv, diag)) and not any(uv[len(diag):])


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
        return all(_z_solvable(image, v) for v in kernel)


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
