"""The coordinate algebra W[x] with sigma(x) = q x, twisted derivations of
levels 0 and -1, twisted connections on finite free modules, and their
quasi-nilpotence witnesses, iterated on an int64 array by the flattened
connection's blocks.

A degree window D means the quotient W[x]/(x^{D+1}); operators that raise
degree act on the quotient, and window legitimacy is asserted per operator
by the callers that rely on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base_ring import RingContext, WScalar, q_int, q_power
from .errors import InvalidArgs, RankMismatch
from .exactpoly import IntPoly
from .grammar import parse_poly, poly_to_string
from .homology import FlatMatrix


class QPolynomial:
    """Element of W[x], optionally confined to a degree window."""

    __slots__ = ("ctx", "coeffs", "window")

    def __init__(self, ctx: RingContext, coeffs=None, window: int | None = None):
        self.ctx = ctx
        self.window = window
        out: dict[int, WScalar] = {}
        for d, w in (coeffs or {}).items():
            if d < 0:
                raise InvalidArgs("negative degree")
            if window is not None and d > window:
                continue
            if not w.is_zero():
                out[d] = w
        self.coeffs = out

    @classmethod
    def zero(cls, ctx: RingContext, window: int | None = None) -> QPolynomial:
        return cls(ctx, {}, window)

    @classmethod
    def one(cls, ctx: RingContext, window: int | None = None) -> QPolynomial:
        return cls(ctx, {0: WScalar.one(ctx)}, window)

    @classmethod
    def x(cls, ctx: RingContext, exp: int = 1, window: int | None = None) -> QPolynomial:
        return cls(ctx, {exp: WScalar.one(ctx)}, window)

    @classmethod
    def monomial(cls, w: WScalar, exp: int, window: int | None = None) -> QPolynomial:
        return cls(w.ctx, {exp: w}, window)

    @classmethod
    def from_scalar(cls, w: WScalar, window: int | None = None) -> QPolynomial:
        return cls(w.ctx, {0: w}, window)

    @classmethod
    def from_int_poly(
        cls, ctx: RingContext, poly: IntPoly, window: int | None = None
    ) -> QPolynomial:
        extra = poly.variables() - {"q", "x"}
        if extra:
            raise InvalidArgs(f"unexpected variables {extra}")
        return cls(
            ctx,
            {
                d: WScalar.from_int_poly(ctx, slc)
                for d, slc in poly.split_by_degree("x").items()
            },
            window,
        )

    @classmethod
    def parse(cls, ctx: RingContext, text: str, window: int | None = None) -> QPolynomial:
        return cls.from_int_poly(ctx, parse_poly(text, allowed={"q", "x"}), window)

    def _join_window(self, other: QPolynomial) -> int | None:
        if self.window is None:
            return other.window
        if other.window is None or other.window == self.window:
            return self.window
        raise InvalidArgs("mixed degree windows")

    def __add__(self, other: QPolynomial) -> QPolynomial:
        out = dict(self.coeffs)
        for d, w in other.coeffs.items():
            out[d] = out[d] + w if d in out else w
        return QPolynomial(self.ctx, out, self._join_window(other))

    def __sub__(self, other: QPolynomial) -> QPolynomial:
        return self + (-other)

    def __neg__(self) -> QPolynomial:
        return QPolynomial(self.ctx, {d: -w for d, w in self.coeffs.items()}, self.window)

    def __mul__(self, other: QPolynomial | WScalar | int) -> QPolynomial:
        if isinstance(other, int):
            other = WScalar.from_int(self.ctx, other)
        if isinstance(other, WScalar):
            return QPolynomial(
                self.ctx, {d: w * other for d, w in self.coeffs.items()}, self.window
            )
        window = self._join_window(other)
        out: dict[int, WScalar] = {}
        for d1, w1 in self.coeffs.items():
            for d2, w2 in other.coeffs.items():
                d = d1 + d2
                if window is not None and d > window:
                    continue
                prod = w1 * w2
                out[d] = out[d] + prod if d in out else prod
        return QPolynomial(self.ctx, out, window)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, QPolynomial)
            and self.ctx == other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ctx, frozenset(self.coeffs.items())))

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return max(self.coeffs, default=0)

    def rewindow(self, window: int | None) -> QPolynomial:
        return QPolynomial(self.ctx, self.coeffs, window)

    def map_scalars(self, fn) -> QPolynomial:
        return QPolynomial(self.ctx, {d: fn(w) for d, w in self.coeffs.items()}, self.window)

    def substitute_x_power(self, e: int, window: int | None) -> QPolynomial:
        """Image under x -> x^e (the relative Frobenius on coordinates)."""
        return QPolynomial(self.ctx, {d * e: w for d, w in self.coeffs.items()}, window)

    def to_string(self) -> str:
        total = IntPoly()
        for d, w in sorted(self.coeffs.items()):
            piece = w.lift()
            if d:
                piece = piece * IntPoly.var("x", d)
            total = total + piece
        return poly_to_string(total)

    def __repr__(self):
        return f"QPolynomial({self.to_string()!r})"


def sigma(f: QPolynomial, power: int = 1) -> QPolynomial:
    """The coordinate twist x -> q^power x, extended W-linearly.

    An automorphism of each windowed quotient; congruent to the identity
    modulo (q - 1).
    """
    return QPolynomial(
        f.ctx,
        {d: w * q_power(f.ctx, power * d) for d, w in f.coeffs.items()},
        f.window,
    )


def twisted_derive(f: QPolynomial, level: int) -> QPolynomial:
    """Monomial rule of the twisted derivation.

    Level 0 sends x^n to (n)_q x^{n-1}; level -1 applies the raw base-q^p
    rule x^n -> (n)_{q^p} x^{n-1}.  The (p)_q factor of the level -1
    connection is applied by connection_apply, not here.
    """
    if level not in (0, -1):
        raise InvalidArgs("level must be 0 or -1")
    ctx = f.ctx
    r = 1 if level == 0 else ctx.p
    out: dict[int, WScalar] = {}
    for d, w in f.coeffs.items():
        if d == 0:
            continue
        c = w * q_int(d, r, ctx)
        if d - 1 in out:
            out[d - 1] = out[d - 1] + c
        else:
            out[d - 1] = c
    return QPolynomial(ctx, out, f.window)


class ConnectionModule:
    """Finite free module with a twisted connection of level 0 or -1.

    theta[i][j] is the coefficient of e_i in the image of e_j, so the
    connection acts on a section vector f by theta(f)_i = derive(f_i) +
    sum_j sigma-twist(f_j) theta[i][j], with the level -1 rule carrying
    the extra (p)_q factor on the derivation term.
    """

    __slots__ = ("ctx", "rank", "level", "theta", "window")

    def __init__(self, ctx: RingContext, rank: int, level: int, theta, window=None):
        if rank < 1:
            raise InvalidArgs("rank must be >= 1")
        if level not in (0, -1):
            raise InvalidArgs("level must be 0 or -1")
        rows = list(theta)
        if len(rows) != rank or any(len(r) != rank for r in rows):
            raise RankMismatch(f"theta must be {rank} x {rank}")
        self.ctx = ctx
        self.rank = rank
        self.level = level
        self.window = window
        self.theta = tuple(
            tuple(entry.rewindow(window) for entry in row) for row in rows
        )

    @classmethod
    def trivial(cls, ctx: RingContext, rank: int, level: int, window=None):
        z = QPolynomial.zero(ctx, window)
        return cls(ctx, rank, level, [[z] * rank for _ in range(rank)], window)

    def rewindow(self, window: int | None) -> ConnectionModule:
        return ConnectionModule(self.ctx, self.rank, self.level, self.theta, window)

    def reduce_to(self, ctx: RingContext) -> ConnectionModule:
        theta = [
            [e.map_scalars(lambda w: w.reduce_to(ctx)) for e in row]
            for row in self.theta
        ]
        fixed = [
            [QPolynomial(ctx, e.coeffs, self.window) for e in row] for row in theta
        ]
        return ConnectionModule(ctx, self.rank, self.level, fixed, self.window)


def connection_apply(m: ConnectionModule, section) -> list[QPolynomial]:
    """Coefficient vector of the connection applied to a section.

    Level 0: theta(f e_j) = d_q(f) e_j + sigma(f) Theta e_j.
    Level -1: theta'(f e_j) = (p)_q d-rule(f) e_j + sigma^p(f) Theta e_j.
    """
    s = list(section)
    if len(s) != m.rank:
        raise RankMismatch(f"expected {m.rank} components, got {len(s)}")
    ctx = m.ctx
    twist = 1 if m.level == 0 else ctx.p
    scale = (
        WScalar.one(ctx) if m.level == 0 else q_int(ctx.p, 1, ctx)
    )
    out = []
    for i in range(m.rank):
        acc = twisted_derive(s[i].rewindow(m.window), m.level) * scale
        for j in range(m.rank):
            if not s[j].is_zero() and not m.theta[i][j].is_zero():
                acc = acc + sigma(s[j].rewindow(m.window), twist) * m.theta[i][j]
        out.append(acc)
    return out


@dataclass
class NilpotenceReport:
    nilpotent: bool
    witness: list[int | None]


def quasi_nilpotence_check(theta: FlatMatrix, rank: int, iterate_cap: int) -> NilpotenceReport:
    """Least k with theta^k e_j = 0 for each basis section e_j of a flattened
    connection theta on a windowed module of the given rank, or None when
    no k up to the cap works.

    e_j (component j, degree 0, t-power 0) is flat column j * (n / rank).
    The iterates of every e_j are column j of one int64 array of shape
    (n / b, b, rank).  A step multiplies each block of theta by the b x rank
    slab of its block column, sums each block row's products with one
    np.add.reduceat over theta's sorted block rows and reduces once mod
    p^N.  A sum holds (blocks per block row) * b <= n products below 2^42,
    so it stays below 2^63 while n < 2^21.  If theta^k e_j = 0, theta is
    nilpotent on the theta-stable submodule that e_j generates, so the
    kernels of its powers there grow strictly until they fill it; it has
    length at most N * n, the length of (Z/p^N)^n, so the least k is at
    most N * n and the loop stops at min(iterate_cap, N * n).
    """
    n, b = theta.rows, theta.b
    comp = np.arange(rank)
    start = comp * (n // rank)
    iterates = np.zeros((n // b, b, rank), dtype=np.int64)
    iterates[start // b, start % b, comp] = 1
    block_rows, first = np.unique(theta.brow, return_index=True)
    witnesses: list[int | None] = [None] * rank
    for k in range(1, min(iterate_cap, theta.n_prec * n) + 1):
        products = theta.blocks @ iterates[theta.bcol]
        iterates = np.zeros_like(iterates)
        if first.size:
            iterates[block_rows] = np.add.reduceat(products, first, axis=0) % theta.modulus
        for j in np.flatnonzero(~iterates.any(axis=(0, 1))):
            if witnesses[j] is None:
                witnesses[j] = k
        if None not in witnesses:
            break
    return NilpotenceReport(nilpotent=None not in witnesses, witness=witnesses)
