"""Delta-structures, Frobenius lifts, distinguished and q-divided-power
predicates, and truncated envelope presentations.

All computations run on exact integer polynomials in q, x and the free
generators w0, w1, ...; the Frobenius lift acts by q -> q^p, x -> x^p and
w_k -> w_k^p + p*w_{k+1}, and delta(f) = (phi(f) - f^p) / p is an exact
integer division.  A precision ledger records that each delta application
costs one p-adic digit of validity on truncated lifts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base_ring import RingContext, WScalar, q_int_poly
from .errors import InvalidArgs, OrderOverflow, PrecisionExhausted, WindowTooSmall
from .exactpoly import IntPoly
from .grammar import parse_poly

DEFAULT_OMEGA_CAP = 16


class DeltaElement:
    """Exact polynomial with a precision ledger and a generator-order cap."""

    __slots__ = ("ctx", "poly", "precision", "omega_cap")

    def __init__(
        self,
        ctx: RingContext,
        poly: IntPoly,
        precision: int | None = None,
        omega_cap: int = DEFAULT_OMEGA_CAP,
    ):
        self.ctx = ctx
        self.poly = poly
        self.precision = ctx.n_prec if precision is None else precision
        if self.precision < 1:
            raise InvalidArgs("precision must stay >= 1")
        if self.precision > ctx.n_prec:
            raise InvalidArgs("precision cannot exceed n_prec")
        self.omega_cap = omega_cap
        if self.delta_order > omega_cap:
            raise OrderOverflow(
                f"generator index {self.delta_order} beyond cap {omega_cap}"
            )

    @property
    def delta_order(self) -> int:
        best = -1
        for var in self.poly.variables():
            if var.startswith("w"):
                best = max(best, int(var[1:]))
        return best

    @classmethod
    def parse(cls, ctx: RingContext, text: str, **kw) -> DeltaElement:
        return cls(ctx, parse_poly(text), **kw)

    @classmethod
    def from_scalar(cls, w: WScalar, **kw) -> DeltaElement:
        return cls(w.ctx, w.lift(), **kw)

    def _like(self, poly: IntPoly, precision: int | None = None) -> DeltaElement:
        return DeltaElement(
            self.ctx,
            poly,
            self.precision if precision is None else precision,
            self.omega_cap,
        )

    def __add__(self, other: DeltaElement | int) -> DeltaElement:
        o = other.poly if isinstance(other, DeltaElement) else IntPoly.const(other)
        prec = min(self.precision, other.precision) if isinstance(other, DeltaElement) else self.precision
        return self._like(self.poly + o, prec)

    def __sub__(self, other: DeltaElement | int) -> DeltaElement:
        o = other.poly if isinstance(other, DeltaElement) else IntPoly.const(other)
        prec = min(self.precision, other.precision) if isinstance(other, DeltaElement) else self.precision
        return self._like(self.poly - o, prec)

    def __mul__(self, other: DeltaElement | int) -> DeltaElement:
        o = other.poly if isinstance(other, DeltaElement) else IntPoly.const(other)
        prec = min(self.precision, other.precision) if isinstance(other, DeltaElement) else self.precision
        return self._like(self.poly * o, prec)

    def __eq__(self, other):
        return (
            isinstance(other, DeltaElement)
            and self.ctx == other.ctx
            and self.poly == other.poly
        )

    def __hash__(self):
        return hash((self.ctx, self.poly))

    def reduce_to_w(self) -> WScalar:
        return WScalar.from_int_poly(self.ctx, self.poly)

    def __repr__(self):
        from .grammar import poly_to_string

        return f"DeltaElement({poly_to_string(self.poly)!r}, precision={self.precision})"


def _phi_substitution(ctx: RingContext, poly: IntPoly, omega_cap: int) -> IntPoly:
    p = ctx.p
    mapping: dict[str, IntPoly] = {}
    for var in poly.variables():
        if var == "q":
            mapping[var] = IntPoly.var("q", p)
        elif var == "x":
            mapping[var] = IntPoly.var("x", p)
        elif var.startswith("w"):
            k = int(var[1:])
            if k + 1 > omega_cap:
                raise OrderOverflow(
                    f"phi needs generator w{k + 1} beyond cap {omega_cap}"
                )
            mapping[var] = IntPoly.var(var, p) + IntPoly.const(p) * IntPoly.var(
                f"w{k + 1}"
            )
        else:
            raise InvalidArgs(f"unknown variable {var!r} in a delta computation")
    return poly.substitute(mapping)


def phi_map(f: DeltaElement) -> DeltaElement:
    """Frobenius lift; free of precision cost."""
    return f._like(_phi_substitution(f.ctx, f.poly, f.omega_cap))


def phi_delta(f: DeltaElement) -> tuple[DeltaElement, DeltaElement]:
    """Return (phi(f), delta(f)) with delta = (phi(f) - f^p)/p exactly.

    delta spends one p-adic digit: its precision is f.precision - 1.
    """
    if f.precision < 2:
        raise PrecisionExhausted("delta needs precision >= 2")
    phi_poly = _phi_substitution(f.ctx, f.poly, f.omega_cap)
    delta_poly = (phi_poly - f.poly ** f.ctx.p).divide_exact(f.ctx.p)
    phi = f._like(phi_poly)
    delta = f._like(delta_poly, f.precision - 1)
    return phi, delta


def delta_map(f: DeltaElement) -> DeltaElement:
    return phi_delta(f)[1]


def is_distinguished(d: DeltaElement, ctx: RingContext | None = None) -> bool:
    """True iff delta(d) is a unit of W (nonzero F_p-residue)."""
    ctx = ctx or d.ctx
    dd = delta_map(d)
    return dd.reduce_to_w().is_unit()


def _flatten_qx(ctx: RingContext, poly: IntPoly, max_xdeg: int) -> np.ndarray:
    """Vector of t-coordinates per x-degree, length (max_xdeg+1)*m_prec."""
    out = np.zeros((max_xdeg + 1) * ctx.m_prec, dtype=np.int64)
    for xdeg, slice_poly in poly.split_by_degree("x").items():
        w = WScalar.from_int_poly(ctx, slice_poly)
        for i, c in enumerate(w.coeffs):
            out[xdeg * ctx.m_prec + i] = c
    return out


def qpd_check(
    f: DeltaElement,
    J: list[DeltaElement],
    ctx: RingContext | None = None,
    window: int = 4,
) -> bool:
    """Decide phi(f) - (p)_q * delta(f) in the module generated by (p)_q * J.

    The generating set is {(p)_q * g * t^i * x^j} for g in J, i < m_prec and
    j up to the window; membership is a normal-form probe over Z/p^N.  A
    nonzero residue at (q=1 mod p) certifies non-membership outright; for
    x-free data the span is complete and the verdict exact.  Otherwise an
    undecided probe raises WindowTooSmall.
    """
    ctx = ctx or f.ctx
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

    from .homology import howell_form, reduce_against

    if not rows:
        member = False
    else:
        h = howell_form(np.array(rows, dtype=np.int64), ctx.pn)
        member = not reduce_against(target, h, ctx.pn).any()
    if member:
        return True
    if not uses_x:
        return False
    raise WindowTooSmall(
        f"membership undecided with x-multipliers up to degree {window}"
    )


def nygaard_member(f: DeltaElement, ctx: RingContext | None = None) -> bool:
    """Membership in the Frobenius preimage of ((p)_q): the unit-ideal variant."""
    one = DeltaElement(f.ctx, IntPoly.one(), f.ctx.n_prec, f.omega_cap)
    return qpd_check(f, [one], ctx)


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


def run_axiom_suite(
    contexts: list[RingContext],
    samples: int = 1000,
    seed: int = 0,
    exact_samples: int = 40,
) -> dict:
    """Exact delta-ring and q-combinatorics property sweep.

    The bulk sweep draws random truncated q-lifts and checks the product
    and sum laws exactly at precision N-1 inside the truncation; a smaller
    sample repeats both laws on exact multivariate lifts carrying the
    coordinate x.  The q-analog identities are checked exactly in Z[q].
    """
    import random as _random
    from math import comb

    from .base_ring import q_binomial_poly, q_int, q_int_poly

    report: dict = {"contexts": [], "ok": True}
    # the q-Pascal identity lives in Z[q] and holds or fails for every context
    binom = [[q_binomial_poly(n0, k0, 1) for k0 in range(n0 + 1)] for n0 in range(13)]
    pascal_ok = all(
        binom[n0][k0] == binom[n0 - 1][k0 - 1] + IntPoly.var("q", k0) * binom[n0 - 1][k0]
        for n0 in range(2, 13)
        for k0 in range(1, n0)
    )
    for ctx in contexts:
        rng = _random.Random((seed, ctx.p, ctx.n_prec, ctx.m_prec).__hash__())
        p = ctx.p
        mod = p ** max(ctx.n_prec - 1, 1)
        product_ok = sum_ok = True
        trunc = _TruncatedDelta(ctx)
        sum_coeffs = [comb(p, i) // p for i in range(1, p)]

        def law_mismatch(u, v) -> tuple[bool, bool]:
            da, db = trunc.delta(u), trunc.delta(v)
            lhs = trunc.delta(trunc.mul(u, v))
            rhs = trunc.mul(trunc.powp(u), db)
            rhs = trunc.add(rhs, trunc.mul(trunc.powp(v), da))
            rhs = trunc.add(rhs, trunc.scale(trunc.mul(da, db), p))
            bad_prod = any((a - b) % mod for a, b in zip(lhs, rhs))
            lhs = trunc.delta(trunc.add(u, v))
            rhs = trunc.add(da, db)
            corr = tuple([0] * trunc.m)
            vpows = [trunc._one()]
            for _ in range(p):
                vpows.append(trunc.mul(vpows[-1], v))
            upow = trunc._one()
            for i in range(1, p):
                upow = trunc.mul(upow, u)
                corr = trunc.add(
                    corr, trunc.scale(trunc.mul(upow, vpows[p - i]), sum_coeffs[i - 1])
                )
            rhs = trunc.sub(rhs, corr)
            bad_sum = any((a - b) % mod for a, b in zip(lhs, rhs))
            return bad_prod, bad_sum

        for _ in range(samples):
            u = tuple(rng.randrange(trunc.mod) for _ in range(trunc.m))
            v = tuple(rng.randrange(trunc.mod) for _ in range(trunc.m))
            bad_prod, bad_sum = law_mismatch(u, v)
            if bad_prod:
                product_ok = False
                break
            if bad_sum:
                sum_ok = False
                break
        for _ in range(exact_samples):
            a = _random_lift(rng, ctx)
            b = _random_lift(rng, ctx)
            da = _delta_poly(ctx, a)
            db = _delta_poly(ctx, b)
            lhs = _delta_poly(ctx, a * b)
            rhs = a**p * db + b**p * da + IntPoly.const(p) * da * db
            if not _congruent(lhs - rhs, mod, ctx):
                product_ok = False
                break
            lhs = _delta_poly(ctx, a + b)
            corr = IntPoly()
            for i in range(1, p):
                corr = corr + IntPoly.const(comb(p, i) // p) * a**i * b ** (p - i)
            rhs = da + db - corr
            if not _congruent(lhs - rhs, mod, ctx):
                sum_ok = False
                break
        dist_ok = is_distinguished(DeltaElement(ctx, q_int_poly(p, 1)))
        qm1_ok = not is_distinguished(DeltaElement(ctx, IntPoly.var("q") - 1))
        mult_ok = all(
            q_int(m0 * n0, 1, ctx) == q_int(m0, 1, ctx) * q_int(n0, m0, ctx)
            for m0 in range(13)
            for n0 in range(13)
            if m0 > 0
        )
        entry = {
            "context": ctx.to_json(),
            "samples": samples,
            "product_law": product_ok,
            "sum_law": sum_ok,
            "p_q_distinguished": dist_ok,
            "q_minus_one_not_distinguished": qm1_ok,
            "q_analog_multiplicativity": mult_ok,
            "q_pascal": pascal_ok,
        }
        report["contexts"].append(entry)
        report["ok"] = report["ok"] and all(
            v for k, v in entry.items() if isinstance(v, bool)
        )
    return report


def _random_lift(rng, ctx: RingContext) -> IntPoly:
    total = IntPoly()
    for i in range(ctx.m_prec):
        c = rng.randrange(ctx.pn)
        if c:
            total = total + IntPoly.const(c) * (IntPoly.var("q") - 1) ** i
    if rng.random() < 0.3:
        total = total + IntPoly.const(rng.randrange(ctx.pn)) * IntPoly.var("x")
    return total


def _delta_poly(ctx: RingContext, poly: IntPoly) -> IntPoly:
    phi = _phi_substitution(ctx, poly, DEFAULT_OMEGA_CAP)
    return (phi - poly**ctx.p).divide_exact(ctx.p)


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


@dataclass
class EnvelopePresentation:
    generators: list[str]
    relations: list[DeltaElement]
    order_cap: int


def envelope_presentation(
    g: DeltaElement, d: DeltaElement, K: int
) -> EnvelopePresentation:
    """Relations of the truncated envelope adjoining a root of d*w0 = g.

    General case: relations r_i = delta^i(d*w0 - g) for i = 0..K.  When
    g = -x the relation list follows the convention for the polynomial
    envelope in the coordinate: r_i = delta^{i+1}(x + d*w0), so r_0 is
    already the first delta-image.
    """
    if K < 0:
        raise InvalidArgs("order cap K must be >= 0")
    ctx = g.ctx
    cap = K + 1
    prispol = g.poly == -IntPoly.var("x")
    applications = K + 1 if prispol else K
    precision = min(g.precision, d.precision)
    if precision < applications + 1:
        raise PrecisionExhausted(
            f"need precision >= {applications + 1}, have {precision}"
        )
    base = DeltaElement(
        ctx,
        d.poly * IntPoly.var("w0") - g.poly,
        precision,
        omega_cap=cap,
    )
    relations = []
    current = base
    if prispol:
        current = delta_map(current)
    relations.append(current)
    for _ in range(K):
        current = delta_map(current)
        relations.append(current)
    gens = ["x"] + [f"w{i}" for i in range(cap + 1)]
    return EnvelopePresentation(gens, relations, K)
