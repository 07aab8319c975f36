"""W[x] as a dict from degree to `WScalar`, kept as the test oracle of
`base_ring.WPoly`, the program's array form.

`QPolynomial` is the earlier element of W[x], with `sigma` and
`twisted_derive`; `QConnection` and `connection_apply` are the earlier
twisted connection on QPolynomial sections.  They share no arithmetic with
`WPoly`: only `WScalar`.  The converters `to_wpoly`, `to_qpolys`,
`connection` and `applied` carry values between the two forms, so tests
can state their cases as QPolynomials and run them through the program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qprism.base_ring import RingContext, WPoly, WScalar, lane_dtype, q_int, q_power
from qprism.errors import InvalidArgs, RankMismatch
from qprism.exactpoly import IntPoly
from qprism.grammar import parse_poly, poly_to_string
from qprism.twisted_calculus import ConnectionModule
from qprism.twisted_calculus import connection_apply as program_apply


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


@dataclass
class QConnection:
    """A twisted connection whose matrix is QPolynomials: theta[i][j] is the
    coefficient of e_i in the image of e_j."""

    ctx: RingContext
    rank: int
    level: int
    theta: list
    window: int | None = None

    @classmethod
    def of(cls, m: ConnectionModule) -> QConnection:
        return cls(m.ctx, m.rank, m.level, to_qpolys(m.theta, m.window), m.window)


def connection_apply(m: QConnection | ConnectionModule, section) -> list[QPolynomial]:
    """Coefficient vector of the connection applied to a section.

    Level 0: theta(f e_j) = d_q(f) e_j + sigma(f) Theta e_j.
    Level -1: theta'(f e_j) = (p)_q d-rule(f) e_j + sigma^p(f) Theta e_j.
    """
    if isinstance(m, ConnectionModule):
        m = QConnection.of(m)
    s = list(section)
    if len(s) != m.rank:
        raise RankMismatch(f"expected {m.rank} components, got {len(s)}")
    ctx = m.ctx
    twist = 1 if m.level == 0 else ctx.p
    scale = WScalar.one(ctx) if m.level == 0 else q_int(ctx.p, 1, ctx)
    out = []
    for i in range(m.rank):
        acc = twisted_derive(s[i].rewindow(m.window), m.level) * scale
        for j in range(m.rank):
            if not s[j].is_zero() and not m.theta[i][j].is_zero():
                acc = acc + sigma(s[j].rewindow(m.window), twist) * m.theta[i][j].rewindow(m.window)
        out.append(acc)
    return out


# --- converters --------------------------------------------------------------------


def to_wpoly(ctx: RingContext, polys, length: int | None = None) -> WPoly:
    """A nested list of QPolynomials as one WPoly whose lane axes are the
    nesting, with `length` coefficients (the highest degree + 1 if None)."""
    grid = np.empty(np.shape(polys), dtype=object)
    grid[...] = polys
    flat = grid.ravel()
    if length is None:
        length = 1 + max((f.degree() for f in flat), default=0)
    out = np.zeros((length, ctx.m_prec, flat.size), dtype=lane_dtype(ctx))
    for lane, f in enumerate(flat):
        for d, w in f.coeffs.items():
            if d < length:
                out[d, :, lane] = w.coeffs
    return WPoly(ctx, out.reshape((length, ctx.m_prec) + grid.shape))


def to_qpolys(w: WPoly, window: int | None = None):
    """The nested list of QPolynomials of w's lanes (one QPolynomial when w
    has no lane axis)."""
    c = w.coeffs
    flat = c.reshape(len(c), c.shape[1], -1)
    polys = np.empty(flat.shape[2], dtype=object)
    for lane in range(flat.shape[2]):
        polys[lane] = QPolynomial(
            w.ctx, {d: WScalar(w.ctx, flat[d, :, lane].tolist()) for d in range(len(c))}, window
        )
    return polys.reshape(c.shape[2:]).tolist()


def connection(ctx: RingContext, rank: int, level: int, theta, window=None) -> ConnectionModule:
    """The program's ConnectionModule of a QPolynomial matrix."""
    return ConnectionModule(ctx, rank, level, to_wpoly(ctx, theta), window)


def applied(m: ConnectionModule, section) -> list[QPolynomial]:
    """The program's `connection_apply` on a list of QPolynomials."""
    return to_qpolys(program_apply(m, to_wpoly(m.ctx, section)), m.window)
