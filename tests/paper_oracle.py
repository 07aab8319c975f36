"""Paper-level constructions that no command runs, kept as test oracles.

The truncated divided-power coalgebra on one generator over W[x]
(`DividedElement`, `comultiply`, `linearized_differential`), differential
operators of bounded order with their composition through
comultiplication (`PrismaticDiffOp`, `diffop_compose`), the canonical
order-one extension of a level -1 connection (`hyperdiff_extend`) and the
Frobenius expansion of the generator (`frobenius_omega`).  Only the
coalgebra structure is built: the multiplication table of the divided
powers is not needed by anything here.  `qprism poincare` checks the
exactness of the divided-power complex on flattened matrices and uses none
of these.

The q-divided-power predicate `qpd_check` decides whether
phi(f) - (p)_q delta(f) lies in the module generated by (p)_q J, by
comparing span orders over Z/p^N (`span_contains`); `nygaard_member` is its
unit-ideal case.

`semilinear_frobenius` is the Frobenius endomorphism of the trivial level -1
complex from a window to its raised window, as a `cartier.ChainMapData`.
Its legs are the descent's Frobenius legs (`cartier._frobenius_leg`) with
each identity block replaced by the matrix of the W-Frobenius.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from delta_oracle import phi_delta
from qpoly_oracle import QPolynomial, to_qpolys

from qprism.base_ring import RingContext, WScalar, frobenius_matrix, q_binomial, q_int, q_int_poly
from qprism.cartier import ChainMapData, _frobenius_leg, flatten_connection, raised_window
from qprism.delta_ring import DeltaElement
from qprism.errors import CapExceeded, InvalidArgs, RankMismatch, WindowTooSmall, WrongLevel
from qprism.exactpoly import IntPoly
from qprism.homology import FlatMatrix, span_exponents, w_mult_block
from qprism.twisted_calculus import ConnectionModule

# --- the divided-power coalgebra -----------------------------------------------


class DividedElement:
    """Finite sum of divided powers with W[x]-coefficients, degree <= dp_cap."""

    __slots__ = ("ctx", "coeffs", "dp_cap")

    def __init__(self, ctx: RingContext, coeffs: dict[int, QPolynomial], dp_cap: int):
        if dp_cap < 0:
            raise CapExceeded("dp_cap must be >= 0")
        for k in coeffs:
            if k < 0 or k > dp_cap:
                raise CapExceeded(f"divided degree {k} beyond cap {dp_cap}")
        self.ctx = ctx
        self.coeffs = {k: c for k, c in coeffs.items() if not c.is_zero()}
        self.dp_cap = dp_cap

    @classmethod
    def unit(cls, ctx: RingContext, dp_cap: int) -> DividedElement:
        return cls(ctx, {0: QPolynomial.one(ctx)}, dp_cap)

    @classmethod
    def generator(cls, ctx: RingContext, k: int, dp_cap: int) -> DividedElement:
        return cls(ctx, {k: QPolynomial.one(ctx)}, dp_cap)

    def __add__(self, other: DividedElement) -> DividedElement:
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out[k] + c if k in out else c
        return DividedElement(self.ctx, out, self.dp_cap)

    def __eq__(self, other):
        return (
            isinstance(other, DividedElement)
            and self.ctx == other.ctx
            and self.coeffs == other.coeffs
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def to_string(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            coeff = self.coeffs[k].to_string()
            if k == 0:
                parts.append(coeff)
            elif coeff == "1":
                parts.append(f"w{{{k}}}")
            else:
                parts.append(f"({coeff})*w{{{k}}}")
        return " + ".join(parts)

    def __repr__(self):
        return f"DividedElement({self.to_string()!r})"


def comultiply(k: int, dp_cap: int) -> list[tuple[int, int]]:
    """The k+1 splittings of the k-th divided power, unit coefficients."""
    if k < 0 or k > dp_cap:
        raise CapExceeded(f"divided degree {k} beyond cap {dp_cap}")
    return [(i, k - i) for i in range(k + 1)]


def linearized_differential(e: DividedElement) -> DividedElement:
    """Comultiply then apply the order-one differential to the right leg.

    Basis action: the (k+1)-st divided power maps to the k-th tensor dx;
    the unit maps to zero.  The result is the dx-coefficient.
    """
    out: dict[int, QPolynomial] = {}
    for k, c in e.coeffs.items():
        if k >= 1:
            out[k - 1] = out[k - 1] + c if k - 1 in out else c
    return DividedElement(e.ctx, out, e.dp_cap)


@dataclass
class PrismaticDiffOp:
    """Differential operator of bounded order between free modules.

    components[k] is the rank_out x rank_in matrix over W[x] giving the
    action on (k-th divided power) tensor (basis vector); components
    vanish beyond order_cap.
    """

    ctx: RingContext
    rank_in: int
    rank_out: int
    order_cap: int
    components: dict[int, tuple[tuple[QPolynomial, ...], ...]] = field(
        default_factory=dict
    )

    def __post_init__(self):
        for k, mat in self.components.items():
            if k < 0 or k > self.order_cap:
                raise CapExceeded(f"component {k} beyond order cap {self.order_cap}")
            if len(mat) != self.rank_out or any(len(r) != self.rank_in for r in mat):
                raise RankMismatch("component matrix shape mismatch")

    def component(self, k: int):
        if k in self.components:
            return self.components[k]
        z = QPolynomial.zero(self.ctx)
        return tuple(tuple(z for _ in range(self.rank_in)) for _ in range(self.rank_out))

    @classmethod
    def identity(cls, ctx: RingContext, rank: int) -> PrismaticDiffOp:
        one = QPolynomial.one(ctx)
        z = QPolynomial.zero(ctx)
        mat = tuple(
            tuple(one if i == j else z for j in range(rank)) for i in range(rank)
        )
        return cls(ctx, rank, rank, 0, {0: mat})

    def apply(self, k: int, section) -> list[QPolynomial]:
        """Value on (k-th divided power) tensor section."""
        mat = self.component(k)
        s = list(section)
        if len(s) != self.rank_in:
            raise RankMismatch("section length mismatch")
        out = []
        for i in range(self.rank_out):
            acc = QPolynomial.zero(self.ctx)
            for j in range(self.rank_in):
                if not s[j].is_zero():
                    acc = acc + mat[i][j] * s[j]
            out.append(acc)
        return out


def _mat_mul(ctx, a, b, rank_out, rank_mid, rank_in):
    z = QPolynomial.zero(ctx)
    out = []
    for i in range(rank_out):
        row = []
        for j in range(rank_in):
            acc = z
            for l in range(rank_mid):
                if not a[i][l].is_zero() and not b[l][j].is_zero():
                    acc = acc + a[i][l] * b[l][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _mat_add(ctx, a, b, rank_out, rank_in):
    return tuple(
        tuple(a[i][j] + b[i][j] for j in range(rank_in)) for i in range(rank_out)
    )


def diffop_compose(D: PrismaticDiffOp, E: PrismaticDiffOp) -> PrismaticDiffOp:
    """Composite E after D through comultiplication: the order-k component
    is the convolution sum of E[i] D[j] over i + j = k."""
    if D.rank_out != E.rank_in:
        raise RankMismatch("inner ranks do not match")
    ctx = D.ctx
    order = D.order_cap + E.order_cap
    comps: dict[int, tuple] = {}
    for k in range(order + 1):
        acc = None
        for i in range(k + 1):
            j = k - i
            if i > E.order_cap or j > D.order_cap:
                continue
            term = _mat_mul(
                ctx, E.component(i), D.component(j), E.rank_out, E.rank_in, D.rank_in
            )
            acc = term if acc is None else _mat_add(ctx, acc, term, E.rank_out, D.rank_in)
        if acc is not None and any(
            not acc[i][j].is_zero() for i in range(E.rank_out) for j in range(D.rank_in)
        ):
            comps[k] = acc
    return PrismaticDiffOp(ctx, D.rank_in, E.rank_out, order, comps)


def hyperdiff_extend(m: ConnectionModule) -> PrismaticDiffOp:
    """Order-one operator canonically extending a level -1 connection.

    Unit component: the connection matrix.  Generator component: the
    identity plus (q-1) x times the connection matrix.
    """
    if m.level != -1:
        raise WrongLevel("hyperdiff extension needs a level -1 connection")
    ctx = m.ctx
    theta = tuple(tuple(row) for row in to_qpolys(m.theta, m.window))
    qm1x = QPolynomial.monomial(WScalar.t(ctx), 1)
    one = QPolynomial.one(ctx)
    z = QPolynomial.zero(ctx)
    comp1 = tuple(
        tuple(
            (one if i == j else z) + qm1x * theta[i][j] for j in range(m.rank)
        )
        for i in range(m.rank)
    )
    return PrismaticDiffOp(ctx, m.rank, m.rank, 1, {0: theta, 1: comp1})


@dataclass
class FrobeniusOmegaTerm:
    index: int
    coefficient: QPolynomial
    divided_degree: int


def frobenius_omega(ctx: RingContext, dp_cap: int) -> list[FrobeniusOmegaTerm]:
    """Expansion of the Frobenius image of the generator, term by term.

    Sum over k = 1..p of binom(p-1, k-1) in base q^p times (p)_q^k x^{p-k},
    every summand carried on the p-th divided power.  A k-dependent divided
    degree would also be a consistent convention; the terms are returned
    individually so the choice stays visible to callers.
    """
    p = ctx.p
    if dp_cap < p:
        raise CapExceeded(f"dp_cap {dp_cap} below p = {p}")
    pq = q_int(p, 1, ctx)
    terms = []
    for k in range(1, p + 1):
        coeff = QPolynomial.monomial(q_binomial(p - 1, k - 1, p, ctx) * pq**k, p - k)
        terms.append(FrobeniusOmegaTerm(k, coeff, p))
    return terms


def frobenius_omega_element(ctx: RingContext, dp_cap: int) -> DividedElement:
    total: dict[int, QPolynomial] = {}
    for term in frobenius_omega(ctx, dp_cap):
        k = term.divided_degree
        total[k] = total[k] + term.coefficient if k in total else term.coefficient
    return DividedElement(ctx, total, dp_cap)


# --- the q-divided-power predicate ---------------------------------------------


def span_contains(rows, extra, p: int, N: int) -> bool:
    """Whether the span of rows inside a free Z/p^N-module contains every
    row of extra: adding them leaves the order of the span unchanged."""
    grown = span_exponents(np.vstack([rows, extra]), p, N)
    return sum(grown) == sum(span_exponents(rows, p, N))


def _flatten_qx(ctx: RingContext, poly: IntPoly, max_xdeg: int) -> np.ndarray:
    """Vector of t-coordinates per x-degree, length (max_xdeg+1)*m_prec."""
    out = np.zeros((max_xdeg + 1) * ctx.m_prec, dtype=np.int64)
    for xdeg, slice_poly in poly.split_by_degree("x").items():
        w = WScalar.from_int_poly(ctx, slice_poly)
        for i, c in enumerate(w.coeffs):
            out[xdeg * ctx.m_prec + i] = c
    return out


def qpd_check(f: DeltaElement, J: list[DeltaElement], window: int = 4) -> bool:
    """Decide phi(f) - (p)_q * delta(f) in the module generated by (p)_q * J.

    The generating set is {(p)_q * g * t^i * x^j} for g in J, i < m_prec and
    j up to the window; the target is a member iff adding it to the
    generators leaves the order of their Z/p^N-span unchanged.  A
    nonzero residue at (q=1 mod p) certifies non-membership outright; for
    x-free data the span is complete and the verdict exact.  Otherwise an
    undecided probe raises WindowTooSmall.
    """
    ctx = f.ctx
    phi, delta = phi_delta(f)
    d_poly = q_int_poly(ctx.p)
    u = phi.poly - d_poly * delta.poly

    if u.is_zero():
        return True

    bad = u.variables() - {"q", "x"}
    for g in J:
        bad |= g.poly.variables() - {"q", "x"}
    if bad:
        raise InvalidArgs(f"qpd_check needs elements of W[x], found {bad}")

    # Every generator carries (p)_q, which dies at (q = 1, mod p).
    residue = u.substitute({"q": IntPoly.one()})
    if any(c % ctx.p for c in residue.terms.values()):
        return False

    uses_x = "x" in u.variables() or any("x" in g.poly.variables() for g in J)
    jmax = window if uses_x else 0
    gen_polys = [d_poly * g.poly * IntPoly.var("x", j) if j else d_poly * g.poly
                 for g in J for j in range(jmax + 1)]
    max_xdeg = max(
        [u.degree("x")] + [gp.degree("x") for gp in gen_polys], default=0
    )

    t = IntPoly.var("q") - 1
    rows = []
    for gp in gen_polys:
        for i in range(ctx.m_prec):
            rows.append(_flatten_qx(ctx, gp * t**i if i else gp, max_xdeg))
    target = _flatten_qx(ctx, u, max_xdeg)

    if rows and span_contains(rows, [target], ctx.p, ctx.n_prec):
        return True
    if not uses_x:
        return False
    raise WindowTooSmall(
        f"membership undecided with x-multipliers up to degree {window}"
    )


def nygaard_member(f: DeltaElement) -> bool:
    """Membership in the Frobenius preimage of ((p)_q): the unit-ideal variant."""
    one = DeltaElement(f.ctx, IntPoly.one(), f.ctx.n_prec, f.omega_cap)
    return qpd_check(f, [one])


# --- the semilinear Frobenius ----------------------------------------------------


def _semilinear_leg(ctx: RingContext, window: int, k: int, w_block: np.ndarray) -> FlatMatrix:
    """x'^n t^i -> x^{pn+k} (w_block t^i) on rank 1: the Frobenius leg of
    grade k with w_block in place of each identity block."""
    leg = _frobenius_leg(ctx, 1, window, k)
    return FlatMatrix.from_blocks(
        leg.p, leg.n_prec, leg.shape, leg.b, leg.brow, leg.bcol, w_block @ leg.blocks
    )


def semilinear_frobenius(ctx: RingContext, window: int) -> ChainMapData:
    """Frobenius endomorphism of the trivial level -1 complex, from the
    window to its raised window.

    The module leg is the ring Frobenius (q -> q^p, x -> x^p); on the
    forms leg the image of the basis form acquires the (p)_q x^{p-1}
    twist.  Both legs are only Z/p^N-linear: W enters through the m x m
    matrix of the W-Frobenius t^i -> (q^p - 1)^i, one block per section
    of the degree selection.
    """
    p = ctx.p
    w_frobenius = np.array(frobenius_matrix(ctx), dtype=np.int64)
    pq = q_int(p, 1, ctx)
    return ChainMapData(
        source_differential=flatten_connection(
            ConnectionModule.trivial(ctx, 1, -1, window=window)
        ),
        target_differential=flatten_connection(
            ConnectionModule.trivial(ctx, 1, -1, window=raised_window(p, window))
        ),
        module_leg=_semilinear_leg(ctx, window, 0, w_frobenius),
        forms_leg=_semilinear_leg(ctx, window, p - 1, w_mult_block(pq) @ w_frobenius),
    )
