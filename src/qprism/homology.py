"""Exact linear algebra over Z/p^N: Howell forms, kernels, Smith invariant
factors, cohomology of two-term complexes and mapping cones, and the
flattening of W-linear operators to matrices over Z/p^N.

A flattened operator is a `FlatMatrix`: its nonzero b x b blocks with
their block coordinates.  Every descent operator is built in m x m
W-blocks, so a product, a stack, a rescaling or a comparison of such
operators costs time in proportion to their stored blocks, not to n^2.

Every count and yes/no verdict (cohomology, kernel cardinalities, cone
acyclicity) and every row-span membership is read off Smith exponents.
The Howell form serves `right_kernel_basis`, whose one caller in the
library is the annihilator of a module's relations in `adic_diagnostics`.
The Smith routine first peels unit singletons, rows or columns whose one
nonzero entry is a unit, in vectorised rounds over the coordinates of the
nonzero entries.  Several matrices peel together as their direct sum, so
`kernel_log_cardinalities` counts all kernels of a descent run in one
peel.  A unit-triangular block operator always peels completely, and on
every fixture and benchmark spec so do the descent's cone matrices.  The
rows and columns left of each matrix are made dense and eliminated in
place, one valuation layer at a time, with one rank-1 update per pivot
restricted to the nonzero rows of its column and the nonzero columns of
its row.  The chain-ring step `_eliminate`, with its row swap and pivot
scaling, serves the Howell form only.

Matrices act on column vectors; a map C0 -> C1 between free modules of
dimensions a and b is a b x a matrix with entries reduced into [0, n).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

from .base_ring import RingContext, WScalar
from .errors import InvalidArgs, NotAChainMap, SpecError

# int64 products must not overflow: modulus^2 * max_dim < 2^63.
_MAX_MODULUS = 1 << 21


def max_flat_dim() -> int:
    try:
        return int(os.environ.get("QPRISM_MAX_DIM", "4096"))
    except ValueError as exc:
        raise SpecError(f"QPRISM_MAX_DIM: {exc}", field="QPRISM_MAX_DIM") from None


def modulus_within_cap(p: int, N: int) -> bool:
    """p^N <= _MAX_MODULUS for p >= 2, decided without computing a huge p^N."""
    return N < _MAX_MODULUS.bit_length() and p**N <= _MAX_MODULUS


@lru_cache(maxsize=None)
def _check_modulus(n: int) -> tuple[int, int]:
    """(p, N) with n = p^N; every modulus must be a prime power."""
    if n < 2:
        raise InvalidArgs("modulus must be >= 2")
    if n > _MAX_MODULUS:
        raise InvalidArgs(f"modulus {n} too large for exact int64 arithmetic")
    p = next((d for d in range(2, isqrt(n) + 1) if n % d == 0), n)
    N, rest = 0, n
    while rest % p == 0:
        rest //= p
        N += 1
    if rest != 1:
        raise InvalidArgs(f"modulus {n} is not a prime power")
    return p, N


def _as_matrix(mat, n: int) -> np.ndarray:
    a = np.array(mat, dtype=np.int64)
    if a.ndim != 2:
        raise InvalidArgs("expected a 2-D matrix")
    a %= n
    return a


def _reduced(mat, n: int) -> np.ndarray:
    """mat as a 2-D int64 array with entries in [0, n): mat itself when it
    already is one, else a reduced copy."""
    a = np.asarray(mat, dtype=np.int64)
    if a.ndim != 2:
        raise InvalidArgs("expected a 2-D matrix")
    if a.size and (a.min() < 0 or a.max() >= n):
        a = a % n
    return a


# --- chain-ring elimination over Z/p^N ----------------------------------------


def _eliminate(work: np.ndarray, r: int, c: int, n: int) -> int:
    """One elimination step on column c of work over Z/n, n = p^N.

    Z/p^N is a chain ring, so the column entry of least valuation v in
    rows >= r divides every other entry there.  That row moves to r and is
    scaled so the pivot is exactly p^v; then one rank-1 update subtracts
    (work[i, c] // p^v) * row r from every other row i, which zeroes column
    c below r and reduces it into [0, p^v) above r.  Row r must be zero
    left of c.  Returns p^v, or 0 when column c is zero from row r down.
    """
    g = np.gcd(work[r:, c], n)
    i = r + int(np.argmin(g))
    pv = int(g[i - r])
    if pv == n:
        return 0
    if i != r:
        work[[r, i]] = work[[i, r]]
    unit = int(work[r, c]) // pv
    if unit != 1:
        work[r, c:] = work[r, c:] * pow(unit, -1, n) % n
    f = work[:, c] // pv
    f[r] = 0
    rows = np.flatnonzero(f)
    block = work[rows, c:]
    block -= np.outer(f[rows], work[r, c:])
    work[rows, c:] = np.remainder(block, n, out=block)
    return pv


def howell_form(mat, n: int) -> np.ndarray:
    """Reduced Howell form of the row span of mat over Z/n, n = p^N.

    Rows come in pivot-column order, each pivot is p^v and the entries
    above it lie in [0, p^v).  Every row-span element supported on columns
    >= c lies in the span of the rows with pivot column >= c, which makes
    normal-form reduction a membership test: each pivot of valuation v > 0
    appends its annihilator row p^(N-v) * row, folded in by later columns.
    """
    _check_modulus(n)
    a = _as_matrix(mat, n)
    rows, cols = a.shape
    # each pivot appends at most one row; np.zeros leaves unused pages untouched
    work = np.zeros((rows + cols, cols), dtype=np.int64)
    work[:rows] = a
    end, r = rows, 0
    for c in range(cols):
        if r == end:
            break
        pv = _eliminate(work[:end], r, c, n)
        if not pv:
            continue
        if pv > 1:
            work[end, c:] = work[r, c:] * (n // pv) % n
            end += 1
        r += 1
    return work[:r]


def right_kernel_basis(mat, n: int) -> np.ndarray:
    """Rows spanning {v : mat @ v = 0} = {v : v @ mat^T = 0} over Z/n."""
    _check_modulus(n)
    a = _as_matrix(mat, n).T
    rows, cols = a.shape
    h = howell_form(np.hstack([a, np.eye(rows, dtype=np.int64)]), n)
    # by the Howell property, the rows with pivot in the identity block span the kernel
    return h[~h[:, :cols].any(axis=1), cols:]


# --- Smith invariant factors over Z/p^N --------------------------------------


def _peel_unit_singletons(
    shape: tuple[int, int], r: np.ndarray, c: np.ndarray, v: np.ndarray, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """The rows and columns left once every unit singleton is peeled off a
    matrix of the given shape whose nonzero entries, reduced mod p^N, are
    v at rows r and columns c, each position once.

    A column whose only nonzero entry is a unit u splits off as u: column
    operations clear the rest of u's row and change nothing else.  So does
    a row whose only nonzero entry is a unit, by row operations.  A round
    peels every unit singleton column, one per row, then every unit
    singleton row, one per column.  A singleton row whose column was just
    peeled holds that same pivot, so the pivots sit in distinct rows and
    columns, and a = diag(units) + the block left.  Peeling makes new
    singletons, so rounds repeat until one peels nothing; each costs
    O(nonzeros + rows + cols).  A singleton of positive valuation stays:
    its row or column may hold entries of lower valuation elsewhere.  The
    parts of a direct sum share no line, so they peel together as each
    would alone, in as many rounds as the slowest part needs.
    """
    rows, cols = shape
    unit = v % p != 0
    row_left = np.ones(rows, dtype=bool)
    col_left = np.ones(cols, dtype=bool)
    while True:
        at = np.flatnonzero(unit & (np.bincount(c, minlength=cols) == 1)[c])
        taken_rows, first = np.unique(r[at], return_index=True)
        their_cols = c[at[first]]
        at = np.flatnonzero(unit & (np.bincount(r, minlength=rows) == 1)[r])
        taken_cols, first = np.unique(c[at], return_index=True)
        if not (taken_rows.size or taken_cols.size):
            return np.flatnonzero(row_left), np.flatnonzero(col_left)
        row_left[taken_rows] = col_left[their_cols] = False
        row_left[r[at[first]]] = col_left[taken_cols] = False
        # every entry left so far lies on lines left before this round
        keep = row_left[r] & col_left[c]
        r, c, unit = r[keep], c[keep], unit[keep]


def _flat_nonzero(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the nonzero entries of a 2-D array, in row-major
    order, by a flat scan; 2-D np.nonzero is several times slower."""
    return np.divmod(np.flatnonzero(a), max(a.shape[1], 1))


def _eliminate_layers(work: np.ndarray, p: int, N: int) -> list[int]:
    """Valuations of the Smith pivots of work over Z/p^N, one per pivot,
    nondecreasing; work is eliminated in place.

    Layer v works modulo p^(N-v) on the block the layers before left,
    divided by p^v, and visits each column once.  A column with a unit u in
    row i gets one rank-1 update of its nonzero rows by the factors
    col * u^-1, restricted to the nonzero columns of row i; the factor of
    row i is 1, so row i and the column both become zero.  A column with
    no unit waits: each update adds to it a multiple of its own entry in
    the pivot row, so it stays divisible by p.  Then the zero rows and
    columns drop out and the block is divided by p.  Any order of unit
    pivots gives the same exponents.
    """
    out: list[int] = []
    size = min(work.shape)
    for v in range(N):
        mod = p ** (N - v)
        for j in range(work.shape[1]):
            col = work[:, j]
            nz = col.nonzero()[0]
            if not nz.size:
                continue
            vals = col[nz]
            units = (vals % p).nonzero()[0]
            if not units.size:
                continue
            i = nz[units[0]]
            if nz.size == 1:
                # the update would only clear the pivot row
                work[i] = 0
            else:
                f = vals * pow(int(vals[units[0]]), -1, mod) % mod
                support = work[i].nonzero()[0]
                at = nz[:, None], support
                block = work[at]
                block -= np.outer(f, work[i, support])
                work[at] = np.remainder(block, mod, out=block)
            out.append(v)
            if len(out) == size:
                return out
        if v == N - 1:
            break
        rows = np.flatnonzero(work.any(axis=1))
        if not rows.size:
            break
        cols = np.flatnonzero(work.any(axis=0))
        if rows.size < work.shape[0] or cols.size < work.shape[1]:
            work = work[np.ix_(rows, cols)]
        work //= p
    return out


def _part_exponents(row_off, col_off, r, c, v, p: int, N: int) -> list[list[int]]:
    """The Smith exponents over Z/p^N of each part of a direct sum with
    nonzero entries v at rows r and columns c, part k from row row_off[k]
    and column col_off[k] on.  Peeling is local to rows and columns, so one
    peel of the sum peels each part as it would alone; the lines left fall
    to their parts by offset, and a part with rows and columns both left
    (two parts share no line) has them made dense and eliminated by
    `_eliminate_layers`."""
    rows, cols = _peel_unit_singletons((row_off[-1], col_off[-1]), r, c, v, p)
    row_cut = np.searchsorted(rows, row_off).tolist()
    col_cut = np.searchsorted(cols, col_off).tolist()
    out = []
    for k in range(len(row_cut) - 1):
        left_rows, left_cols = row_cut[k + 1] - row_cut[k], col_cut[k + 1] - col_cut[k]
        found = [0] * (int(row_off[k + 1] - row_off[k]) - left_rows)
        size = min(left_rows, left_cols)
        if size:
            # the part's entries on the lines left, renumbered within them
            row_at = np.full(row_off[-1], -1)
            row_at[rows[row_cut[k] : row_cut[k + 1]]] = np.arange(left_rows)
            col_at = np.full(col_off[-1], -1)
            col_at[cols[col_cut[k] : col_cut[k + 1]]] = np.arange(left_cols)
            keep = (row_at[r] >= 0) & (col_at[c] >= 0)
            work = np.zeros((left_rows, left_cols), dtype=np.int64)
            work[row_at[r[keep]], col_at[c[keep]]] = v[keep]
            layered = _eliminate_layers(work, p, N)
            found += layered + [N] * (size - len(layered))
        out.append(found)
    return out


def smith_exponents(mat, p: int, N: int) -> list[int]:
    """p-adic valuations of the Smith diagonal over Z/p^N, nondecreasing.

    mat is a `FlatMatrix` over Z/p^N or anything np.array reads as a 2-D
    integer matrix.  One entry per diagonal position up to min(rows, cols);
    positions the reduction never reaches carry valuation N.  This is the
    one-part case of `_part_exponents`: unit singletons peel off first as
    exponents 0 (`_peel_unit_singletons`), read from the blocks of a
    `FlatMatrix` or from a flat scan of a dense input, and only the rows
    and columns left are made into a dense array and eliminated in place,
    one valuation layer at a time.
    """
    n = p**N
    if _check_modulus(n) != (p, N):
        raise InvalidArgs(f"{p} is not a prime")
    if isinstance(mat, FlatMatrix):
        if mat.modulus != n:
            raise InvalidArgs("mixed moduli")
        return _part_exponents([0, mat.rows], [0, mat.cols], *mat.coords(), p, N)[0]
    a = _reduced(mat, n)
    r, c = _flat_nonzero(a)
    return _part_exponents([0, a.shape[0]], [0, a.shape[1]], r, c, a[r, c], p, N)[0]


def span_exponents(gen_rows, p: int, N: int) -> list[int]:
    """Cyclic orders (as exponents e, factor Z/p^e) of the module the rows
    generate inside a free Z/p^N-module."""
    g = np.asarray(gen_rows, dtype=np.int64)
    if g.size == 0:
        return []
    return sorted(N - v for v in smith_exponents(g, p, N) if v < N)


# --- block matrices and complexes ----------------------------------------------


class FlatMatrix:
    """Matrix over Z/p^N acting on column vectors, stored as its nonzero
    b x b blocks.

    Block t holds rows b * brow[t] .. b * brow[t] + b - 1 and columns
    b * bcol[t] .. b * bcol[t] + b - 1.  The blocks are int64, reduced into [0, p^N), and
    none is all zero; they are sorted by (brow, bcol) with no position
    twice, so two matrices at one b are equal exactly when their arrays
    are.  The descent builds every operator with b = m, one block per pair
    of W-basis sections; a matrix handed in dense is stored with b = 1, one
    block per nonzero entry.  A matrix is not changed once built.

    `dense` is the one conversion to a full rows x cols array; nothing in
    the library calls it.
    """

    __slots__ = ("p", "n_prec", "shape", "b", "brow", "bcol", "blocks")

    def __init__(self, p: int, n_prec: int, entries):
        """The dense matrix entries (anything np.array reads as 2-D),
        reduced mod p^N, with b = 1."""
        a = _as_matrix(entries, p**n_prec)
        r, c = _flat_nonzero(a)
        self._set(p, n_prec, a.shape, 1, r, c, a[r, c].reshape(-1, 1, 1))

    def _set(self, p, n_prec, shape, b, brow, bcol, blocks) -> FlatMatrix:
        """Fill in blocks already in the stored form: no copy and no check."""
        self.p, self.n_prec, self.shape, self.b = p, n_prec, tuple(shape), b
        self.brow, self.bcol, self.blocks = brow, bcol, blocks
        return self

    @classmethod
    def from_blocks(cls, p: int, n_prec: int, shape, b: int, brow, bcol, blocks) -> FlatMatrix:
        """The matrix of the given shape whose b x b block at (brow[t],
        bcol[t]) is the sum of every blocks[t] placed there, mod p^N.  The
        blocks may be any int64 values, all zero, or at one position twice."""
        rows, cols = shape
        if b < 1 or rows % b or cols % b:
            raise InvalidArgs(f"{rows} x {cols} does not split into {b} x {b} blocks")
        n = p**n_prec
        width = max(cols // b, 1)
        key = np.asarray(brow, dtype=np.int64) * width + np.asarray(bcol, dtype=np.int64)
        blocks = np.remainder(np.asarray(blocks, dtype=np.int64), n)
        # most callers hand in blocks already in order, at distinct positions
        if not (key[1:] > key[:-1]).all():
            order = np.argsort(key, kind="stable")
            key, blocks = key[order], blocks[order]
            first = np.flatnonzero(np.diff(key, prepend=-1))
            if first.size < key.size:
                # each sum has fewer than 2^42 terms below 2^21
                blocks = np.add.reduceat(blocks, first, axis=0)
                np.remainder(blocks, n, out=blocks)
                key = key[first]
        keep = blocks.any(axis=(1, 2))
        if not keep.all():
            key, blocks = key[keep], blocks[keep]
        brow, bcol = np.divmod(key, width)
        return cls.__new__(cls)._set(p, n_prec, shape, b, brow, bcol, blocks)

    @property
    def modulus(self) -> int:
        return self.p**self.n_prec

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]

    @property
    def entries(self) -> np.ndarray:
        """A dense copy, for callers that want an array."""
        return self.dense()

    @property
    def size(self) -> int:
        """rows * cols, the number np.size reports for an array."""
        return self.rows * self.cols

    def coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row, column and value of every nonzero entry, each position once."""
        b = self.b
        t, within = np.divmod(np.flatnonzero(self.blocks), b * b)
        i, j = np.divmod(within, b)
        return self.brow[t] * b + i, self.bcol[t] * b + j, self.blocks[t, i, j]

    def with_blocks(self, b: int) -> FlatMatrix:
        """The same matrix stored in b x b blocks; self when it already is."""
        if b == self.b:
            return self
        r, c, v = self.coords()
        # one block per entry; from_blocks sums those at one position
        blocks = np.zeros((v.size, b, b), dtype=np.int64)
        blocks[np.arange(v.size), r % b, c % b] = v
        return FlatMatrix.from_blocks(self.p, self.n_prec, self.shape, b, r // b, c // b, blocks)

    def dense(self) -> np.ndarray:
        """A fresh rows x cols int64 array of the entries."""
        out = np.zeros(self.shape, dtype=np.int64)
        b = self.b
        grid = out.reshape(self.rows // b, b, self.cols // b, b)
        grid[self.brow, :, self.bcol, :] = self.blocks
        return out

    def __neg__(self) -> FlatMatrix:
        # a nonzero block stays nonzero, and a zero entry in it stays zero
        return FlatMatrix.__new__(FlatMatrix)._set(
            self.p, self.n_prec, self.shape, self.b, self.brow, self.bcol, -self.blocks % self.modulus
        )

    def check_product(self, other: FlatMatrix) -> None:
        """Raise unless self @ other is defined."""
        if (self.p, self.n_prec) != (other.p, other.n_prec):
            raise InvalidArgs("mixed moduli")
        if self.cols != other.rows:
            raise InvalidArgs("shape mismatch")

    def __matmul__(self, other: FlatMatrix) -> FlatMatrix:
        """self @ other, exactly, in blocks of the common divisor of both b.

        Each block of self meets the blocks of other in the block row that
        matches its block column, so the cost is O(pairs * b^3).  A factor
        with one block per block column, such as a Frobenius leg or the
        identity, meets each block of the other factor at most once.
        """
        self.check_product(other)
        b = gcd(self.b, other.b)
        a, c = self.with_blocks(b), other.with_blocks(b)
        lo = np.searchsorted(c.brow, a.bcol, side="left")
        counts = np.searchsorted(c.brow, a.bcol, side="right") - lo
        ia = np.repeat(np.arange(a.bcol.size), counts)
        ic = np.arange(ia.size) - np.repeat(np.cumsum(counts) - counts - lo, counts)
        # a block product sums b products of entries below 2^21
        prod = a.blocks[ia] @ c.blocks[ic]
        return FlatMatrix.from_blocks(
            self.p, self.n_prec, (self.rows, other.cols), b, a.brow[ia], c.bcol[ic], prod
        )

    def matmul(self, other: FlatMatrix) -> FlatMatrix:
        """self @ other, under the method name that callers outside the
        library use (the tests, and the tracer of perfbench/)."""
        return self @ other

    def __eq__(self, other):
        if not isinstance(other, FlatMatrix) or (self.p, self.n_prec, self.shape) != (
            other.p,
            other.n_prec,
            other.shape,
        ):
            return False
        b = gcd(self.b, other.b)
        x, y = self.with_blocks(b), other.with_blocks(b)
        return (
            np.array_equal(x.brow, y.brow)
            and np.array_equal(x.bcol, y.bcol)
            and np.array_equal(x.blocks, y.blocks)
        )

    def __repr__(self) -> str:
        return (
            f"FlatMatrix(p={self.p}, n_prec={self.n_prec}, shape={self.shape}, "
            f"b={self.b}, blocks={self.bcol.size})"
        )

    @classmethod
    def identity(cls, p: int, n_prec: int, dim: int) -> FlatMatrix:
        diagonal = np.arange(dim)
        ones = np.ones((dim, 1, 1), dtype=np.int64)
        return cls.from_blocks(p, n_prec, (dim, dim), 1, diagonal, diagonal, ones)


def _stacked(parts: list[FlatMatrix], axis: int) -> FlatMatrix:
    """The parts side by side: one above the other along axis 0, left to
    right along axis 1, in blocks of the common divisor of their b."""
    b = gcd(*(m.b for m in parts))
    parts = [m.with_blocks(b) for m in parts]
    offsets = np.cumsum([0] + [m.shape[axis] // b for m in parts[:-1]])
    placed = [
        (m.brow, m.bcol + off) if axis else (m.brow + off, m.bcol)
        for m, off in zip(parts, offsets)
    ]
    shape = list(parts[0].shape)
    shape[axis] = sum(m.shape[axis] for m in parts)
    return FlatMatrix.from_blocks(
        parts[0].p,
        parts[0].n_prec,
        shape,
        b,
        np.concatenate([r for r, _ in placed]),
        np.concatenate([c for _, c in placed]),
        np.concatenate([m.blocks for m in parts]),
    )


@dataclass
class CohomologyReport:
    h0_invariant_factors: list[int]
    h1_invariant_factors: list[int]

    def to_json(self) -> dict:
        return {
            "h0": list(self.h0_invariant_factors),
            "h1": list(self.h1_invariant_factors),
        }


def kernel_log_cardinalities(mats: list[FlatMatrix]) -> list[int]:
    """log_p of |{v : mat v = 0}| = log_p |domain| - log_p |image| for each
    of mats, all over one Z/p^N, the image read off the Smith exponents:
    position v spans Z/p^(N-v).  One peel of their direct sum serves all
    (`_part_exponents`)."""
    p, N = mats[0].p, mats[0].n_prec
    parts = [mat.coords() for mat in mats]
    row_off = np.cumsum([0] + [mat.rows for mat in mats])
    col_off = np.cumsum([0] + [mat.cols for mat in mats])
    r = np.concatenate([part[0] + off for part, off in zip(parts, row_off)])
    c = np.concatenate([part[1] + off for part, off in zip(parts, col_off)])
    v = np.concatenate([part[2] for part in parts])
    del parts  # the peel's peak memory is then that of the sum alone
    found = _part_exponents(row_off, col_off, r, c, v, p, N)
    return [N * (mat.cols - len(s)) + sum(s) for mat, s in zip(mats, found)]


def kernel_log_cardinality(mat: FlatMatrix) -> int:
    return kernel_log_cardinalities([mat])[0]


def cohomology_of_complex(d0: FlatMatrix) -> CohomologyReport:
    """Kernel and cokernel of d0 decomposed into invariant factors.

    Z/p^N is a chain ring, so d0 is equivalent to its Smith diagonal with
    exponents s: ker d0 is the sum of the Z/p^v, v in s, plus a free
    Z/p^N per column beyond len(s), and coker d0 has the same torsion plus
    a free Z/p^N per row beyond len(s).
    """
    N = d0.n_prec
    s = smith_exponents(d0, d0.p, N)
    torsion = [v for v in s if v > 0]
    h0 = sorted(torsion + [N] * (d0.cols - len(s)))
    h1 = sorted(torsion + [N] * (d0.rows - len(s)))
    return CohomologyReport(h0, h1)


def selection_rows(f: FlatMatrix) -> np.ndarray | None:
    """The row of the one nonzero entry, a 1, of every column of f, when
    those rows are distinct (f sends basis vectors to distinct basis
    vectors); otherwise None."""
    n_rows, n_cols = f.shape
    if not n_rows:
        return None
    r, c, v = f.coords()
    if (
        r.size != n_cols
        or not np.bincount(c, minlength=n_cols).all()
        or np.bincount(r, minlength=n_rows).max() > 1
        or not (v == 1).all()
    ):
        return None
    rows = np.empty(n_cols, dtype=np.intp)
    rows[c] = r
    return rows


def is_chain_map(d0: FlatMatrix, d0p: FlatMatrix, f0: FlatMatrix, f1: FlatMatrix) -> bool:
    """f1 d0 == d0' f0, both sides as block products.

    A leg with one block per block column, as the identity and the
    Frobenius legs are, meets each block of the differential at most once,
    so then each side costs O(blocks of the differential).
    """
    f1.check_product(d0)
    d0p.check_product(f0)
    if (f1.p, f1.n_prec, f1.rows, d0.cols) != (d0p.p, d0p.n_prec, d0p.rows, f0.cols):
        return False
    return f1 @ d0 == d0p @ f0


def require_chain_map(d0: FlatMatrix, d0p: FlatMatrix, f0: FlatMatrix, f1: FlatMatrix) -> None:
    """Raise NotAChainMap unless f1 d0 == d0' f0."""
    if not is_chain_map(d0, d0p, f0, f1):
        raise NotAChainMap("f1 d0 != d0' f0")


def exactness(d0: FlatMatrix, d1: FlatMatrix, k0: int, k1: int) -> tuple[bool, bool, bool]:
    """Whether 0 -> C0 -d0-> C1 -d1-> C2 -> 0 is exact at C0, C1 and C2,
    given k0 = log_p |ker d0| and k1 = log_p |ker d1|, by cardinalities:
    |ker d0| = 1, |ker d1| = |im d0| and |im d1| = |C2|."""
    N = d0.n_prec
    return k0 == 0, k1 == N * d0.cols - k0, N * d1.cols - k1 == N * d1.rows


def cone_acyclic(
    d0: FlatMatrix, d0p: FlatMatrix, f0: FlatMatrix, f1: FlatMatrix
) -> bool:
    """True iff the mapping cone of (f0, f1) : [d0] -> [d0p] is acyclic.

    The cone is C0 -> C1 + C'0 -> C'1 with differentials (d0, -f0) and
    (f1 | d0p); acyclicity is decided by `exactness`, on the kernel counts
    of both differentials from one peel.
    """
    require_chain_map(d0, d0p, f0, f1)
    cone = cone_differentials(d0, d0p, f0, f1)
    return all(exactness(*cone, *kernel_log_cardinalities(cone)))


def cone_differentials(
    d0: FlatMatrix, d0p: FlatMatrix, f0: FlatMatrix, f1: FlatMatrix
) -> tuple[FlatMatrix, FlatMatrix]:
    """The differentials (d0; -f0) and (f1 | d0p) of the mapping cone."""
    return _stacked([d0, -f0], axis=0), _stacked([f1, d0p], axis=1)


# --- flattening W-linear operators -------------------------------------------


def w_mult_block(w: WScalar) -> np.ndarray:
    """Matrix of multiplication by w on the Z/p^N-basis {t^i} of W."""
    m = w.ctx.m_prec
    block = np.zeros((m, m), dtype=np.int64)
    for i, c in enumerate(w.coeffs):
        for j in range(m - i):
            block[i + j, j] = c
    return block


def w_scale_blocks(mat: FlatMatrix, w: WScalar) -> FlatMatrix:
    """mat followed by multiplication by w: every m x m W-block times w."""
    m = w.ctx.m_prec
    mat = mat.with_blocks(m)
    return FlatMatrix.from_blocks(
        mat.p, mat.n_prec, mat.shape, m, mat.brow, mat.bcol, w_mult_block(w) @ mat.blocks
    )


def flat_dim(ctx: RingContext, rank: int, window: int) -> int:
    return rank * (window + 1) * ctx.m_prec


def flatten_operator(
    ctx: RingContext,
    rank_in: int,
    window_in: int,
    rank_out: int,
    window_out: int,
    apply_fn,
) -> FlatMatrix:
    """Flatten a W-linear operator on windowed section vectors.

    apply_fn maps a basis section (component j, degree d) to the list of
    rank_out output QPolynomials.  W-linearity lets every t^i copy share
    one application: each output coefficient is one m x m multiplication
    block.
    """
    from .twisted_calculus import QPolynomial

    dim_in = flat_dim(ctx, rank_in, window_in)
    dim_out = flat_dim(ctx, rank_out, window_out)
    if max(dim_in, dim_out) > max_flat_dim():
        raise InvalidArgs(
            f"flattened dimension exceeds QPRISM_MAX_DIM={max_flat_dim()}"
        )
    m = ctx.m_prec
    brow, bcol, blocks = [], [], [np.zeros((0, m, m), dtype=np.int64)]
    for j in range(rank_in):
        for d in range(window_in + 1):
            for i, poly in enumerate(apply_fn(j, d)):
                if not isinstance(poly, QPolynomial):
                    raise InvalidArgs("apply_fn must return QPolynomial sections")
                for dd, w in poly.coeffs.items():
                    if dd > window_out:
                        raise InvalidArgs("operator escapes the output window")
                    brow.append(i * (window_out + 1) + dd)
                    bcol.append(j * (window_in + 1) + d)
                    blocks.append(w_mult_block(w)[None])
    return FlatMatrix.from_blocks(
        ctx.p, ctx.n_prec, (dim_out, dim_in), m, brow, bcol, np.concatenate(blocks)
    )
