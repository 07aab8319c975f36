"""Exact linear algebra over Z/p^N: Howell forms, kernels, Smith invariant
factors, cohomology of two-term complexes and mapping cones, and the
flattening of W-linear operators to matrices over Z/p^N.

Matrices act on column vectors; a map C0 -> C1 between free modules of
dimensions a and b is a b x a matrix with entries reduced into [0, n).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .base_ring import RingContext, WScalar
from .errors import InvalidArgs, NotAChainMap

# int64 products must not overflow: modulus^2 * max_dim < 2^63.
_MAX_MODULUS = 1 << 21


def max_flat_dim() -> int:
    return int(os.environ.get("QPRISM_MAX_DIM", "4096"))


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
    return not reduce_against(np.asarray(vec), howell_form(mat, n), n).any()


def left_kernel_basis(mat, n: int) -> np.ndarray:
    """Rows spanning {v : v @ mat = 0} over Z/n."""
    _check_modulus(n)
    a = _as_matrix(mat, n)
    rows, cols = a.shape
    h = howell_form(np.hstack([a, np.eye(rows, dtype=np.int64)]), n)
    # by the Howell property, the rows with pivot in the identity block span the kernel
    return h[~h[:, :cols].any(axis=1), cols:]


def right_kernel_basis(mat, n: int) -> np.ndarray:
    """Rows spanning {v : mat @ v = 0} over Z/n."""
    return left_kernel_basis(_as_matrix(mat, n).T, n)


@dataclass
class HowellResult:
    howell_basis: np.ndarray
    kernel_basis: np.ndarray


def howell_reduce(mat, n: int) -> HowellResult:
    """Howell form of the row span plus a spanning set of the right kernel."""
    return HowellResult(howell_form(mat, n), right_kernel_basis(mat, n))


# --- Smith invariant factors over Z/p^N --------------------------------------


def smith_exponents(mat, p: int, N: int) -> list[int]:
    """p-adic valuations of the Smith diagonal over Z/p^N, nondecreasing.

    One entry per diagonal position up to min(rows, cols); positions the
    reduction never reaches carry valuation N.  Works one valuation layer
    at a time: every column of the remaining block with a unit entry gives
    a pivot of valuation v, then the block, now divisible by p, is divided
    by p.  A column without units keeps none while its layer is eliminated,
    so one scan over the columns per layer finds every pivot.
    """
    n = p**N
    if _check_modulus(n) != (p, N):
        raise InvalidArgs(f"{p} is not a prime")
    work = _as_matrix(mat, n)
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
            _eliminate(work[k:, k:], 0, 0, n // p**v)
            out.append(v)
        work[len(out):, len(out):] //= p
    return out + [N] * (size - len(out))


def span_exponents(gen_rows, p: int, N: int) -> list[int]:
    """Cyclic orders (as exponents e, factor Z/p^e) of the module the rows
    generate inside a free Z/p^N-module."""
    g = np.asarray(gen_rows, dtype=np.int64)
    if g.size == 0:
        return []
    return sorted(N - v for v in smith_exponents(g, p, N) if v < N)


def cokernel_exponents(mat, p: int, N: int, target_dim: int | None = None) -> list[int]:
    """Cyclic orders of target / column-span for a map given by mat."""
    a = _as_matrix(mat, p**N)
    rows = a.shape[0] if target_dim is None else target_dim
    s = smith_exponents(a, p, N) if a.size else []
    exps = [v for v in s if v > 0]
    exps += [N] * (rows - len(s))
    return sorted(exps)


# --- complexes ----------------------------------------------------------------


@dataclass
class FlatMatrix:
    """Matrix over Z/p^N acting on column vectors."""

    p: int
    n_prec: int
    entries: np.ndarray

    def __post_init__(self):
        self.entries = _as_matrix(self.entries, self.modulus)

    @property
    def modulus(self) -> int:
        return self.p**self.n_prec

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def matmul(self, other: FlatMatrix) -> FlatMatrix:
        if (self.p, self.n_prec) != (other.p, other.n_prec):
            raise InvalidArgs("mixed moduli")
        if self.cols != other.rows:
            raise InvalidArgs("shape mismatch")
        return FlatMatrix(self.p, self.n_prec, (self.entries @ other.entries) % self.modulus)

    def __eq__(self, other):
        return (
            isinstance(other, FlatMatrix)
            and (self.p, self.n_prec) == (other.p, other.n_prec)
            and self.entries.shape == other.entries.shape
            and bool((self.entries == other.entries).all())
        )

    @classmethod
    def identity(cls, p: int, n_prec: int, dim: int) -> FlatMatrix:
        return cls(p, n_prec, np.eye(dim, dtype=np.int64))

    @classmethod
    def zeros(cls, p: int, n_prec: int, rows: int, cols: int) -> FlatMatrix:
        return cls(p, n_prec, np.zeros((rows, cols), dtype=np.int64))


@dataclass
class TwoTermComplex:
    d0: FlatMatrix


@dataclass
class CohomologyReport:
    h0_invariant_factors: list[int]
    h1_invariant_factors: list[int]
    h0_log_cardinality: int
    h1_log_cardinality: int

    def to_json(self) -> dict:
        return {
            "h0": list(self.h0_invariant_factors),
            "h1": list(self.h1_invariant_factors),
        }


def kernel_log_cardinality(mat: FlatMatrix) -> int:
    """log_p of |{v : mat v = 0}| via the Howell right kernel."""
    k = right_kernel_basis(mat.entries, mat.modulus)
    return sum(span_exponents(k, mat.p, mat.n_prec))


def kernel_log_cardinality_smith(mat: FlatMatrix) -> int:
    """Same count through the Smith route: |ker| = |dom| / |im|."""
    s = smith_exponents(mat.entries, mat.p, mat.n_prec) if mat.entries.size else []
    im = sum(mat.n_prec - v for v in s if v < mat.n_prec)
    return mat.n_prec * mat.cols - im


def cohomology_of_complex(c: TwoTermComplex) -> CohomologyReport:
    """Kernel and cokernel of d0 decomposed into invariant factors."""
    d0 = c.d0
    p, N = d0.p, d0.n_prec
    kern = right_kernel_basis(d0.entries, d0.modulus)
    h0 = span_exponents(kern, p, N)
    h1 = cokernel_exponents(d0.entries, p, N, target_dim=d0.rows)
    return CohomologyReport(h0, h1, sum(h0), sum(h1))


def is_chain_map(d0: FlatMatrix, d0p: FlatMatrix, f0: FlatMatrix, f1: FlatMatrix) -> bool:
    return f1.matmul(d0) == d0p.matmul(f0)


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


def cone_acyclic_smith(
    d0: FlatMatrix, d0p: FlatMatrix, f0: FlatMatrix, f1: FlatMatrix
) -> bool:
    """Independent route for the same verdict, via Smith cardinalities."""
    if not is_chain_map(d0, d0p, f0, f1):
        raise NotAChainMap("f1 d0 != d0' f0")
    p, N = d0.p, d0.n_prec
    delta0 = FlatMatrix(p, N, np.vstack([d0.entries, (-f0.entries) % d0.modulus]))
    delta1 = FlatMatrix(p, N, np.hstack([f1.entries, d0p.entries]))
    k0 = kernel_log_cardinality_smith(delta0)
    k1 = kernel_log_cardinality_smith(delta1)
    if k0 != 0:
        return False
    if k1 != N * d0.cols:
        return False
    return N * delta1.cols - k1 == N * delta1.rows


# --- flattening W-linear operators -------------------------------------------


def w_mult_block(w: WScalar) -> np.ndarray:
    """Matrix of multiplication by w on the Z/p^N-basis {t^i} of W."""
    m = w.ctx.m_prec
    block = np.zeros((m, m), dtype=np.int64)
    for i, c in enumerate(w.coeffs):
        for j in range(m - i):
            block[i + j, j] = c
    return block


def flat_dim(ctx: RingContext, rank: int, window: int) -> int:
    return rank * (window + 1) * ctx.m_prec


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
    one application through multiplication blocks.
    """
    from .twisted_calculus import QPolynomial

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
            out_sections = apply_fn(j, d)
            col0 = (j * (window_in + 1) + d) * m
            for i, poly in enumerate(out_sections):
                if not isinstance(poly, QPolynomial):
                    raise InvalidArgs("apply_fn must return QPolynomial sections")
                for dd, w in poly.coeffs.items():
                    if dd > window_out:
                        raise InvalidArgs("operator escapes the output window")
                    row0 = (i * (window_out + 1) + dd) * m
                    mat[row0 : row0 + m, col0 : col0 + m] = (
                        mat[row0 : row0 + m, col0 : col0 + m] + w_mult_block(w)
                    ) % ctx.pn
    return FlatMatrix(ctx.p, ctx.n_prec, mat)


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
