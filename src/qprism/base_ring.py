"""Exact arithmetic in the truncated base ring W(p, N, M), in the
coordinate algebra W[x], and q-combinatorics.

W(p, N, M) = Z[q] / (p^N, (q-1)^M) is a finite local ring.  Elements are
stored in the basis t^i with t = q - 1, which aligns the maximal ideal
(p, t) with coordinates and makes the nilpotency of (p)_q manifest.
`WScalar` is one element of W (or a batch of them); `WPoly` is the one
W[x] of the program, an array of t-coordinates with any number of lane
axes: the connection matrix of a spec, its sections, and the lifts of the
axiom suite's x-carrying sweep.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from math import comb
from operator import mul

import numpy as np

from .errors import InvalidArgs, NotAUnit
from .exactpoly import IntPoly, square_and_multiply
from .grammar import parse_poly, poly_to_string

_SMALL_PRIMES = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97}


def is_supported_prime(p: int) -> bool:
    """True iff p is a prime this package works over: the one test that
    rings, spec files and the --p flag share."""
    return p in _SMALL_PRIMES


class RingContext:
    """Parameters (p, N, M) of the truncated base ring."""

    __slots__ = ("p", "n_prec", "m_prec", "pn")

    def __init__(self, p: int, n_prec: int, m_prec: int):
        if not is_supported_prime(p):
            raise InvalidArgs(f"p must be a prime <= 97, got {p}")
        if n_prec < 1:
            raise InvalidArgs(f"n_prec must be >= 1, got {n_prec}")
        if m_prec < 1:
            raise InvalidArgs(f"m_prec must be >= 1, got {m_prec}")
        self.p = p
        self.n_prec = n_prec
        self.m_prec = m_prec
        self.pn = p**n_prec

    def grow(self) -> RingContext:
        """The next finer truncation (N+1, M+1)."""
        return RingContext(self.p, self.n_prec + 1, self.m_prec + 1)

    def __eq__(self, other):
        return (
            isinstance(other, RingContext)
            and (self.p, self.n_prec, self.m_prec)
            == (other.p, other.n_prec, other.m_prec)
        )

    def __hash__(self):
        return hash((self.p, self.n_prec, self.m_prec))

    def __repr__(self):
        return f"RingContext(p={self.p}, n_prec={self.n_prec}, m_prec={self.m_prec})"

    def to_json(self) -> dict:
        return {"p": self.p, "n_prec": self.n_prec, "m_prec": self.m_prec}


class WScalar:
    """Element of W(p, N, M); coefficient i is the t^i coordinate.

    The coordinates may also be equal-length numpy arrays, one lane per
    element: a batch.  Ring operations and `frobenius` act lane-wise;
    `is_zero`, `__eq__` and `__hash__` are for single elements only.  A
    product's coordinate is a sum of at most M products of residues, so
    the lanes may be int64 while M * (p^N)^2 < 2^63, and are Python ints
    (object arrays) above that bound.
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: RingContext, coeffs):
        # excess t-coordinates are killed by the quotient (t^M = 0)
        pn, m = ctx.pn, ctx.m_prec
        cs = [c % pn for c in islice(coeffs, m)]
        if len(cs) < m:
            cs += [0] * (m - len(cs))
        self.ctx = ctx
        self.coeffs = tuple(cs)

    # constructors -----------------------------------------------------
    @classmethod
    def zero(cls, ctx: RingContext) -> WScalar:
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx: RingContext) -> WScalar:
        return cls(ctx, (1,))

    @classmethod
    def from_int(cls, ctx: RingContext, n: int) -> WScalar:
        return cls(ctx, (n,))

    @classmethod
    def q(cls, ctx: RingContext) -> WScalar:
        return cls(ctx, (1, 1))

    @classmethod
    def t(cls, ctx: RingContext) -> WScalar:
        return cls(ctx, (0, 1))

    @classmethod
    def random(cls, ctx: RingContext, rng) -> WScalar:
        """A uniform element, its coordinates drawn from rng in order."""
        return cls(ctx, [rng.randrange(ctx.pn) for _ in range(ctx.m_prec)])

    @classmethod
    def from_int_poly(cls, ctx: RingContext, poly: IntPoly) -> WScalar:
        """Reduce an exact polynomial in q into W via q = 1 + t."""
        extra = poly.variables() - {"q"}
        if extra:
            raise InvalidArgs(f"cannot reduce to a scalar, extra variables {extra}")
        coeffs = [0] * ctx.m_prec
        for j, c in poly.univariate("q").items():
            for i in range(min(j, ctx.m_prec - 1) + 1):
                coeffs[i] += c * comb(j, i)
        return cls(ctx, coeffs)

    @classmethod
    def parse(cls, ctx: RingContext, text: str) -> WScalar:
        return cls.from_int_poly(ctx, parse_poly(text, allowed={"q"}))

    # ring structure ---------------------------------------------------
    def _check(self, other: WScalar):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise InvalidArgs("mixed ring contexts")

    def __add__(self, other: WScalar) -> WScalar:
        self._check(other)
        return WScalar(self.ctx, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: WScalar) -> WScalar:
        self._check(other)
        return WScalar(self.ctx, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> WScalar:
        return WScalar(self.ctx, [-a for a in self.coeffs])

    def __mul__(self, other: WScalar | int) -> WScalar:
        if isinstance(other, int):
            # reduced first, so that an int64 lane never meets a factor past 2^63
            other %= self.ctx.pn
            return WScalar(self.ctx, [a * other for a in self.coeffs])
        if not isinstance(other, WScalar):
            return NotImplemented
        self._check(other)
        m = self.ctx.m_prec
        bs = other.coeffs
        out = [0] * m
        for i, a in enumerate(self.coeffs):
            for j in range(m - i):
                out[i + j] += a * bs[j]
        return WScalar(self.ctx, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> WScalar:
        if n < 0:
            raise InvalidArgs("use w_invert for negative powers")
        return square_and_multiply(self, n) if n else WScalar.one(self.ctx)

    def __eq__(self, other):
        return (
            isinstance(other, WScalar)
            and self.ctx == other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def fp_residue(self) -> int:
        """Image in F_p (set q = 1, reduce mod p)."""
        return self.coeffs[0] % self.ctx.p

    def is_unit(self) -> bool:
        return self.fp_residue() != 0

    # conversions --------------------------------------------------------
    def _q_expansion(self) -> list:
        """sum_i coeffs[i] (q-1)^i in the q-basis, unreduced: the coefficient
        of q^j is sum_i coeffs[i] C(i, j) (-1)^(i-j)."""
        out = [0] * len(self.coeffs)
        for i, c in enumerate(self.coeffs):
            for j in range(i + 1):
                out[j] += c * (comb(i, j) * (-1) ** (i - j))
        return out

    def lift(self) -> IntPoly:
        """Canonical integer lift: sum of coeffs[i] * (q-1)^i, coeffs in [0, p^N)."""
        return IntPoly({(("q", j),) if j else (): c for j, c in enumerate(self._q_expansion())})

    def q_coefficients(self) -> list[int]:
        """Coefficients of the canonical representative in the q-basis."""
        return [v % self.ctx.pn for v in self._q_expansion()]

    def reduce_to(self, ctx: RingContext) -> WScalar:
        """Image under W(p,N,M) -> W(p,N',M') for N' <= N, M' <= M."""
        if ctx.p != self.ctx.p:
            raise InvalidArgs("cannot change the prime")
        if ctx.n_prec > self.ctx.n_prec or ctx.m_prec > self.ctx.m_prec:
            raise InvalidArgs("target truncation is finer than the source")
        return WScalar(ctx, self.coeffs[: ctx.m_prec])

    def frobenius(self) -> WScalar:
        """The ring endomorphism q -> q^p of W (t -> (1+t)^p - 1).

        Well defined on the truncation because q^p - 1 is divisible by
        q - 1; Z/p^N-linear but not W-linear.
        """
        cs = self.coeffs
        return WScalar(self.ctx, [sum(map(mul, row, cs)) for row in frobenius_matrix(self.ctx)])

    def to_string(self) -> str:
        cs = self.q_coefficients()
        poly = IntPoly({(("q", j),) if j else (): c for j, c in enumerate(cs) if c})
        return poly_to_string(poly)

    def __repr__(self):
        return f"WScalar({self.to_string()!r})"


@lru_cache(maxsize=None)
def frobenius_matrix(ctx: RingContext) -> tuple[tuple[int, ...], ...]:
    """The m x m matrix, by rows, of the W-Frobenius in the basis t^j:
    column j holds the t-coordinates of (q^p - 1)^j.  Built once per ring."""
    phi_t = WScalar.q(ctx) ** ctx.p - WScalar.one(ctx)
    columns = [WScalar.one(ctx).coeffs]
    for _ in range(ctx.m_prec - 1):
        columns.append((WScalar(ctx, columns[-1]) * phi_t).coeffs)
    return tuple(zip(*columns))


def lane_dtype(ctx: RingContext):
    """The dtype of array lanes over ctx: int64 while M * (p^N)^2 < 2^63, so
    that a sum of M products of residues fits, and Python ints above."""
    return np.int64 if ctx.m_prec * ctx.pn**2 < 2**63 else object


class WPoly:
    """Polynomials in x over W = W(p, N, M), one per lane: coeffs[i, j, *lanes]
    in [0, p^N) is the t^j coordinate of the coefficient of x^i.

    The lanes are int64 or Python ints by `lane_dtype`, with the same code:
    a sum reduces at once, and a product before its int64 entries could
    overflow.  The first axis bounds the x-degree, and a product's bound is
    the sum of its factors'; the t-degree is truncated at M.  The two sides
    of a sum or a product have the same lanes and dtype.  Windows are not
    stored: `rewindow` maps to W[x]/(x^(D+1)).
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: RingContext, coeffs: np.ndarray):
        self.ctx = ctx
        self.coeffs = coeffs

    @classmethod
    def zeros(cls, ctx: RingContext, lanes: tuple[int, ...] = (), length: int = 1) -> WPoly:
        return cls(ctx, np.zeros((length, ctx.m_prec) + lanes, dtype=lane_dtype(ctx)))

    def _combined(self, other: WPoly, sign: int) -> WPoly:
        a, b = self.coeffs, other.coeffs
        out = np.zeros((max(len(a), len(b)),) + a.shape[1:], a.dtype)
        out[: len(a)] = a
        out[: len(b)] += sign * b
        out %= self.ctx.pn
        return WPoly(self.ctx, out)

    def __add__(self, other: WPoly) -> WPoly:
        return self._combined(other, 1)

    def __sub__(self, other: WPoly) -> WPoly:
        return self._combined(other, -1)

    def __mul__(self, other: WPoly | WScalar | int) -> WPoly:
        pn, m = self.ctx.pn, self.ctx.m_prec
        if isinstance(other, int):
            return WPoly(self.ctx, self.coeffs * (other % pn) % pn)
        if isinstance(other, WScalar):
            return self._scaled(np.array([other.coeffs], dtype=self.coeffs.dtype))
        # loop over the (x, t) positions where the sparser factor is nonzero
        # in some lane, adding that position's shifted multiple of the other
        small, large = self.coeffs, other.coeffs
        support = np.argwhere((small != 0).any(axis=tuple(range(2, small.ndim))))
        other_support = np.argwhere((large != 0).any(axis=tuple(range(2, large.ndim))))
        if len(other_support) < len(support):
            small, large, support = large, small, other_support
        out = np.zeros((len(small) + len(large) - 1,) + large.shape[1:], dtype=large.dtype)
        # each position adds at most one term up to (p^N-1)^2 to an entry, so
        # int64 holds `room` positions between reductions; Python ints need none
        room = (2**63 - pn) // (pn - 1) ** 2 if out.dtype == np.int64 else 0
        for n, (i, j) in enumerate(support.tolist(), 1):
            out[i : i + len(large), j:] += small[i, j] * large[:, : m - j]
            if room and n % room == 0:
                out %= pn
        out %= pn
        return WPoly(self.ctx, out)

    def __pow__(self, n: int) -> WPoly:
        """self**n for n >= 1."""
        return square_and_multiply(self, n)

    def _scaled(self, table: np.ndarray) -> WPoly:
        """Coefficient d times the W element of t-coordinates table[d] (or table[0])."""
        c, m = self.coeffs, self.ctx.m_prec
        table = table.reshape(table.shape + (1,) * (c.ndim - 2))
        out = np.zeros_like(c)
        for j in range(m):
            out[:, j:] += table[:, j : j + 1] * c[:, : m - j]
        return WPoly(self.ctx, out % self.ctx.pn)

    def _q_powers(self, r: int) -> np.ndarray:
        """t-coordinates of q^(r d), one row per degree d of self."""
        rows = [q_power(self.ctx, r * d).coeffs for d in range(len(self.coeffs))]
        return np.array(rows, dtype=self.coeffs.dtype)

    def sigma(self, power: int = 1) -> WPoly:
        """The coordinate twist x -> q^power x, W-linear: an automorphism of
        each W[x]/(x^(D+1)), congruent to the identity modulo (q - 1)."""
        return self._scaled(self._q_powers(power))

    def derive(self, r: int = 1) -> WPoly:
        """The twisted derivation x^n -> (n)_{q^r} x^(n-1), where (n)_{q^r} =
        1 + q^r + ... + q^(r(n-1)): level 0 at r = 1, and at r = p the level
        -1 rule before its (p)_q factor.  analogs[d] is (d+1)_{q^r}."""
        analogs = np.cumsum(self._q_powers(r), axis=0) % self.ctx.pn
        c = self.coeffs
        return WPoly(self.ctx, np.concatenate([c[1:], np.zeros_like(c[:1])]))._scaled(analogs)

    def substitute_x_power(self, e: int, shift: int = 0) -> WPoly:
        """x^shift f(x^e) for every lane f: degree d moves to e d + shift."""
        c = self.coeffs
        out = np.zeros(((len(c) - 1) * e + 1 + shift,) + c.shape[1:], dtype=c.dtype)
        out[shift::e] = c
        return WPoly(self.ctx, out)

    def rewindow(self, window: int) -> WPoly:
        """The image in W[x]/(x^(window+1)), as window + 1 coefficients: the
        degrees above the window cut, or zeros appended."""
        c = self.coeffs
        out = np.zeros((window + 1,) + c.shape[1:], dtype=c.dtype)
        out[: len(c)] = c[: window + 1]
        return WPoly(self.ctx, out)

    def frobenius(self) -> WPoly:
        """The lift x -> x^p, q -> q^p: a strided scatter in x, and
        `frobenius_matrix` on the t-coordinates."""
        ctx, c = self.ctx, self.coeffs
        out = np.zeros(((len(c) - 1) * ctx.p + 1,) + c.shape[1:], dtype=c.dtype)
        phi = np.array(frobenius_matrix(ctx), dtype=c.dtype) @ c.reshape(len(c), ctx.m_prec, -1)
        out[:: ctx.p] = phi.reshape(c.shape) % ctx.pn
        return WPoly(self.ctx, out)

    def delta(self, power: WPoly) -> WPoly:
        """delta = (phi - power) / p, given power = self^p, exact modulo p^(N-1).

        Raises ValueError, as `IntPoly.divide_exact` does, when a coordinate
        of phi - power is not divisible by p, which the true Frobenius and
        p-th power never leave.
        """
        p = self.ctx.p
        diff = (self.frobenius() - power).coeffs
        inexact = diff % p != 0
        if inexact.any():
            raise ValueError(f"coefficient {diff[inexact][0]} not divisible by {p}")
        return WPoly(self.ctx, diff // p)

    def vanishes(self, mod: int) -> np.ndarray:
        """Per lane, whether every coordinate is 0 modulo mod, for mod
        dividing p^N."""
        return ~(self.coeffs % mod != 0).any(axis=(0, 1))


def w_invert(a: WScalar) -> WScalar:
    """Exact inverse in W.

    a is a unit iff its F_p-residue is nonzero.  The residue inverse is
    computed mod p^N, then the nilpotent remainder is absorbed by the
    geometric series, which terminates because (p, t)^k = 0 eventually.
    """
    if not a.is_unit():
        raise NotAUnit("element lies in the maximal ideal (p, q-1)")
    ctx = a.ctx
    c0 = pow(a.coeffs[0], -1, ctx.pn)
    # c0*a = 1 - u with u in (t); 1/(1-u) = sum of u^i, u^M = 0.
    b = a * c0
    u = WScalar.one(ctx) - b
    acc = WScalar.one(ctx)
    powu = WScalar.one(ctx)
    for _ in range(1, ctx.m_prec):
        powu = powu * u
        if powu.is_zero():
            break
        acc = acc + powu
    inv = acc * c0
    return inv


def q_power(ctx: RingContext, e: int) -> WScalar:
    """q^e = (1 + t)^e for e >= 0: its t^i coordinate is C(e, i)."""
    if e < 0:
        raise InvalidArgs("use w_invert for negative powers")
    return WScalar(ctx, [comb(e, i) for i in range(ctx.m_prec)])


def q_int(n: int, r: int, ctx: RingContext) -> WScalar:
    """The q-analog (n)_{q^r} = 1 + q^r + ... + q^{r(n-1)} in W.

    q^{rj} = (1 + t)^{rj}, so the t^i coordinate is sum_{j<n} C(rj, i).
    C(rj, i) is a polynomial of degree i in j whose coordinates in the
    basis C(j, k) are its forward differences at j = 0, and
    sum_{j<n} C(j, k) = C(n, k+1); so the cost does not grow with n.  The
    differences depend on (r, M) only and are computed once for each.
    """
    if n < 0:
        raise InvalidArgs("q_int needs n >= 0")
    if r < 1:
        raise InvalidArgs("q_int needs r >= 1")
    return WScalar(ctx, [
        sum(diff * comb(n, k + 1) for k, diff in enumerate(row))
        for row in _q_int_differences(r, ctx.m_prec)
    ])


@lru_cache(maxsize=None)
def _q_int_differences(r: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Row i holds the forward differences at j = 0 of j -> C(rj, i), for i < m."""
    return tuple(
        tuple(
            sum((-1) ** (k - l) * comb(k, l) * comb(r * l, i) for l in range(k + 1))
            for k in range(i + 1)
        )
        for i in range(m)
    )


def q_int_poly(n: int, r: int = 1) -> IntPoly:
    """(n)_{q^r} = 1 + q^r + ... + q^{r(n-1)} as an exact integer
    polynomial, its n terms built at once (the constant n when r = 0)."""
    if n < 0:
        raise InvalidArgs("q_int needs n >= 0")
    if r == 0:
        return IntPoly.const(n)
    return IntPoly({(("q", r * i),): 1 for i in range(n)})


def q_binomial_rows(n: int, r: int = 1) -> list[list[IntPoly]]:
    """Rows 0..n of the Gaussian binomials in base q^r, exact in Z[q], by
    the q-Pascal recurrence

        C(m, k) = C(m-1, k-1) + q^{rk} C(m-1, k),  C(m, 0) = C(m, m) = 1.
    """
    rows = [[IntPoly.one()]]
    for m in range(1, n + 1):
        prev = rows[-1]
        rows.append(
            [IntPoly.one()]
            + [prev[j - 1] + IntPoly.var("q", r * j) * prev[j] for j in range(1, m)]
            + [IntPoly.one()]
        )
    return rows


def q_binomial_poly(n: int, k: int, r: int = 1) -> IntPoly:
    """Gaussian binomial C(n, k) in base q^r (`q_binomial_rows`)."""
    if k < 0 or k > n:
        raise InvalidArgs(f"need 0 <= k <= n, got n={n}, k={k}")
    return q_binomial_rows(n, r)[n][k]


def q_binomial(n: int, k: int, r: int, ctx: RingContext) -> WScalar:
    return WScalar.from_int_poly(ctx, q_binomial_poly(n, k, r))
