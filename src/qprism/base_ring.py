"""Exact arithmetic in the truncated base ring W(p, N, M) and q-combinatorics.

W(p, N, M) = Z[q] / (p^N, (q-1)^M) is a finite local ring.  Elements are
stored in the basis t^i with t = q - 1, which aligns the maximal ideal
(p, t) with coordinates and makes the nilpotency of (p)_q manifest.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from math import comb
from operator import mul

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

    The coordinates may also be equal-length numpy object arrays, one lane
    per element: a batch.  Ring operations and `frobenius` act lane-wise;
    `is_zero`, `__eq__` and `__hash__` are for single elements only.
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
    def _q_expansion(self) -> list[int]:
        """sum_i coeffs[i] (q-1)^i in the q-basis, unreduced: the coefficient
        of q^j is sum_i coeffs[i] C(i, j) (-1)^(i-j)."""
        out = [0] * len(self.coeffs)
        for i, c in enumerate(self.coeffs):
            if c:
                for j in range(i + 1):
                    out[j] += c * comb(i, j) * (-1) ** (i - j)
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
    return WScalar.q(ctx) ** e


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
