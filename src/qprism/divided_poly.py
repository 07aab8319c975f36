"""Truncated divided-power coalgebra on one generator over W[x], with
comultiplication, the linearized differential, differential operators of
bounded order, and the Frobenius expansion of the generator.

Only the coalgebra structure is built here.  The full multiplication
table of the divided powers is treated as a pluggable extra: everything
in scope (exactness bookkeeping, operator composition, the descent
pipeline) is provable from comultiplication and the order-one
differential alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .base_ring import RingContext, WScalar, q_binomial, q_int
from .errors import CapExceeded, RankMismatch, WrongLevel
from .twisted_calculus import ConnectionModule, QPolynomial


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
    qm1x = QPolynomial.monomial(WScalar.t(ctx), 1)
    one = QPolynomial.one(ctx)
    z = QPolynomial.zero(ctx)
    comp1 = tuple(
        tuple(
            (one if i == j else z) + qm1x * m.theta[i][j] for j in range(m.rank)
        )
        for i in range(m.rank)
    )
    return PrismaticDiffOp(ctx, m.rank, m.rank, 1, {0: m.theta, 1: comp1})


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


def poincare_exactness(ctx: RingContext, dp_cap: int, window: int = 2) -> dict:
    """Exactness bookkeeping of the augmented divided-power complex.

    Checks 0 -> A -> A<w> -> A<w> (x) dx -> 0 flattened over the window:
    the augmentation is injective, its image is exactly the kernel of the
    linearized differential, and every divided degree <= dp_cap - 1 is
    hit.  The top degree is excluded because its preimage lies outside
    the truncation.
    """
    import numpy as np

    from .homology import FlatMatrix, exactness, kernel_log_cardinalities

    m = ctx.m_prec
    a_dim = (window + 1) * m
    c1_dim = (dp_cap + 1) * a_dim
    c2_dim = dp_cap * a_dim

    d0 = np.zeros((c1_dim, a_dim), dtype=np.int64)
    d0[:a_dim, :] = np.eye(a_dim, dtype=np.int64)
    d1 = np.zeros((c2_dim, c1_dim), dtype=np.int64)
    for k in range(1, dp_cap + 1):
        d1[(k - 1) * a_dim : k * a_dim, k * a_dim : (k + 1) * a_dim] = np.eye(
            a_dim, dtype=np.int64
        )

    maps = [FlatMatrix(ctx.p, ctx.n_prec, d) for d in (d0, d1)]
    exact_at_a, exact_middle, exact_end = exactness(*maps, *kernel_log_cardinalities(maps))
    return {
        "dp_cap": dp_cap,
        "degree_window": window,
        "exact_at_constants": exact_at_a,
        "exact_at_divided_polynomials": exact_middle,
        "surjective_below_cap": exact_end,
        "ok": exact_at_a and exact_middle and exact_end,
    }
