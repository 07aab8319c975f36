"""Reference delta arithmetic and law sweep on truncated q-lifts, kept as
test oracles.

`_TruncatedDelta` is the earlier second W arithmetic of the axiom suite's
bulk sweep: t-coordinate tuples mod p^(N+1) with their own product, sum,
p-th power, Frobenius and delta.  The library now runs that sweep on
`WScalar` in W(p, N+1, M) with `delta_ring.w_delta`; the tests compare the
two on seeded random elements.  The class is kept verbatim.

`per_pair_sweep` is the earlier bulk sweep of `run_axiom_suite`: one pair
of single `WScalar`s at a time, stopping at the first failing pair.  The
library now sweeps a chunk of pairs as one batch (`delta_ring._bulk_sweep`);
the tests compare the verdicts and the rng state the two leave.  The loop
is kept verbatim.

`per_pair_exact_sweep` is the earlier exact sweep of `run_axiom_suite`:
exact lifts in Z[q, x] as `IntPoly`s, one pair at a time, each law defect
reduced and folded through (q-1)^M by `_congruent`, stopping at the first
failing pair.  The library now runs all the pairs of a context as one
batch modulo p^max(N, 2) (`delta_ring._exact_sweep`); the tests compare the
verdicts and the rng state.  The loop and its helpers `_random_lift`,
`_delta_poly` and `_congruent` are kept verbatim.

`per_pair_q_multiplicative` is the earlier q-multiplicativity check of
`run_axiom_suite`: scalar `q_int` calls, one (m, n) pair at a time,
stopping at the first failure.  The library now checks all 156 pairs as one
batch (`delta_ring._q_multiplicative`); the tests compare the verdicts.  The
loop is kept verbatim.

`phi_map` is the Frobenius lift of a `DeltaElement` on its own, free of
precision cost; the library forms it only together with delta, and the
tests check it is a ring map.

`phi_delta` and `delta_map` are delta on exact polynomials in Z[q, x, w]
for any element, and `exact_is_distinguished` is the earlier
distinguished-element predicate of `run_axiom_suite`: delta of d formed
exactly in Z[q], with its p-th power, then reduced into W.  The library
now reads delta(d) by `w_delta` in W(p, N+1, M)
(`delta_ring.is_distinguished`); the tests compare the two.  The bodies
are kept verbatim.
"""

from __future__ import annotations

from functools import partial

from qprism.base_ring import RingContext, WScalar, q_int
from qprism.delta_ring import (
    DEFAULT_OMEGA_CAP,
    DeltaElement,
    _law_defects,
    _phi_delta_of_power,
    _phi_substitution,
    w_delta,
)
from qprism.errors import PrecisionExhausted
from qprism.exactpoly import IntPoly


def per_pair_sweep(ctx: RingContext, samples: int, rng) -> tuple[bool, bool]:
    """(product law holds, sum law holds) over `samples` pairs drawn one by one."""
    p = ctx.p
    mod = p ** max(ctx.n_prec - 1, 1)
    up = RingContext(p, ctx.n_prec + 1, ctx.m_prec)
    product_ok = sum_ok = True
    for _ in range(samples):
        a = WScalar.random(up, rng)
        b = WScalar.random(up, rng)
        product, sum_ = _law_defects(a, b, w_delta, p)
        if any(c % mod for c in product.coeffs):
            product_ok = False
            break
        if any(c % mod for c in sum_.coeffs):
            sum_ok = False
            break
    return product_ok, sum_ok


def per_pair_exact_sweep(ctx: RingContext, samples: int, rng) -> tuple[bool, bool]:
    """(product law holds, sum law holds) over `samples` pairs of exact lifts
    drawn and judged one by one."""
    p = ctx.p
    mod = p ** max(ctx.n_prec - 1, 1)
    product_ok = sum_ok = True
    for _ in range(samples):
        a = _random_lift(rng, ctx)
        b = _random_lift(rng, ctx)
        product, sum_ = _law_defects(a, b, partial(_delta_poly, ctx), p)
        if not _congruent(product, mod, ctx):
            product_ok = False
            break
        if not _congruent(sum_, mod, ctx):
            sum_ok = False
            break
    return product_ok, sum_ok


def _random_lift(rng, ctx: RingContext) -> IntPoly:
    total = WScalar.random(ctx, rng).lift()
    if rng.random() < 0.3:
        total = total + IntPoly.const(rng.randrange(ctx.pn)) * IntPoly.var("x")
    return total


def _delta_poly(ctx: RingContext, poly: IntPoly, poly_p: IntPoly) -> IntPoly:
    """delta(poly), given poly_p = poly^p."""
    phi = _phi_substitution(ctx, poly, DEFAULT_OMEGA_CAP)
    return (phi - poly_p).divide_exact(ctx.p)


def _congruent(diff: IntPoly, mod: int, ctx: RingContext) -> bool:
    """Zero at precision (mod, (q-1)^M): reduce and compare."""
    reduced = diff.map_coefficients(lambda c: c % mod)
    if reduced.is_zero():
        return True
    # fold through the (q-1)-truncation before judging; mod divides p^N
    return not any(
        c % mod
        for slc in reduced.split_by_degree("x").values()
        for c in WScalar.from_int_poly(ctx, slc).coeffs
    )


class _TruncatedDelta:
    """Delta arithmetic on q-only lifts in the truncated model.

    Elements are t-coordinate tuples of length M with entries mod p^{N+1}
    (one digit of headroom for the division by p); the Frobenius lift and
    delta descend to this quotient, so law checks at precision N-1 are
    exact statements about the truncation.
    """

    def __init__(self, ctx: RingContext):
        self.p = ctx.p
        self.m = ctx.m_prec
        self.mod = ctx.p ** (ctx.n_prec + 1)
        phi_t = self._phi_t()
        pows = [self._one()]
        for _ in range(self.m - 1):
            pows.append(self.mul(pows[-1], phi_t))
        self.phi_t_pows = pows

    def _one(self):
        return tuple([1] + [0] * (self.m - 1))

    def _phi_t(self):
        # (1+t)^p - 1 truncated; the constant coefficient vanishes
        from math import comb

        return tuple(
            (comb(self.p, i) if i >= 1 else 0) % self.mod for i in range(self.m)
        )

    def mul(self, u, v):
        out = [0] * self.m
        for i, a in enumerate(u):
            if a:
                for j in range(self.m - i):
                    b = v[j]
                    if b:
                        out[i + j] = (out[i + j] + a * b) % self.mod
        return tuple(out)

    def add(self, u, v):
        return tuple((a + b) % self.mod for a, b in zip(u, v))

    def sub(self, u, v):
        return tuple((a - b) % self.mod for a, b in zip(u, v))

    def scale(self, u, c):
        return tuple((a * c) % self.mod for a in u)

    def powp(self, u):
        out = self._one()
        base = u
        e = self.p
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def phi(self, u):
        out = tuple([0] * self.m)
        for i, c in enumerate(u):
            if c:
                out = self.add(out, self.scale(self.phi_t_pows[i], c))
        return out

    def delta(self, u):
        diff = self.sub(self.phi(u), self.powp(u))
        # representatives of classes divisible by p stay divisible by p
        return tuple((c % self.mod) // self.p for c in diff)


def per_pair_q_multiplicative(ctx: RingContext) -> bool:
    """(mn)_q = (m)_q (n)_{q^m} in W for 1 <= m <= 12 and 0 <= n <= 12,
    forming each (m)_q once and stopping at the first failure."""
    for m0 in range(1, 13):
        m_int = q_int(m0, 1, ctx)
        if not all(q_int(m0 * n0, 1, ctx) == m_int * q_int(n0, m0, ctx) for n0 in range(13)):
            return False
    return True


def phi_map(f: DeltaElement) -> DeltaElement:
    """Frobenius lift; free of precision cost."""
    return f._like(_phi_substitution(f.ctx, f.poly, f.omega_cap))


def phi_delta(f: DeltaElement) -> tuple[DeltaElement, DeltaElement]:
    """Return (phi(f), delta(f)) with delta = (phi(f) - f^p)/p exactly.

    delta spends one p-adic digit: its precision is f.precision - 1.
    """
    if f.precision < 2:
        raise PrecisionExhausted("delta needs precision >= 2")
    return _phi_delta_of_power(f, f.poly ** f.ctx.p)


def delta_map(f: DeltaElement) -> DeltaElement:
    return phi_delta(f)[1]


def exact_is_distinguished(d: DeltaElement) -> bool:
    """True iff delta(d) is a unit of W (nonzero F_p-residue)."""
    return delta_map(d).reduce_to_w().is_unit()
