"""Reference elimination routines over Z/n, kept as test oracles.

These are the earlier general-Z/n implementations: a Howell form built on
extended gcds and unit multipliers, a Smith form with a scalar pivot scan,
and a row-reduction rank over the residue field F_p.  The library now does
all three with one chain-ring elimination step over Z/p^N; the tests check
it against these routines on seeded random matrices.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from qprism.base_ring import WScalar
from qprism.errors import InvalidArgs

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
