"""Delta-structures, Frobenius lifts, the distinguished-element predicate,
the axiom suite and truncated envelope presentations.

Envelope relations are exact integer polynomials in q, x and the free
generators w0, w1, ...; the Frobenius lift acts by q -> q^p, x -> x^p and
w_k -> w_k^p + p*w_{k+1}, and delta(f) = (phi(f) - f^p) / p is an exact
integer division.  A precision ledger records that each delta application
costs one p-adic digit of validity on truncated lifts.

Every delta of the axiom suite runs on t-coordinates of W, through
`w_delta` on `WScalar`, the one W arithmetic: the bulk sweep and the
distinguished checks in W(p, N+1, M), where the extra digit pays for the
division by p.  The bulk sweep runs on batches, one `WScalar` whose
coordinates are arrays with one lane per pair, int64 while
M * (p^(N+1))^2 < 2^63 and Python ints above that, so each chunk of pairs
costs one pass of Python-level arithmetic; q-multiplicativity checks its
156 pairs (m, n) as one such batch in W(p, N, M).  The sweep of lifts
carrying the coordinate x runs all its pairs as one `_WXBatch`, polynomials
in x over W(p, max(N, 2), M), with the same digit of headroom.  Z[q, x] /
(q-1)^M is p-torsion-free and phi(q-1) lies in (q-1), so phi and delta
descend to it, and a law defect computed there is the image of the exact
one.  One helper, `_law_defects`, states the product and sum laws on every
carrier: `WScalar`, single or batched, `_WXBatch`, and `IntPoly`.

No command runs the q-divided-power predicate, the bare Frobenius lift or
delta on exact polynomials outside the envelope: `qpd_check` is kept in
`tests/paper_oracle.py`, and `phi_map`, `phi_delta` and `delta_map` in
`tests/delta_oracle.py`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

import numpy as np

from .base_ring import (
    RingContext,
    WScalar,
    _q_int_differences,
    frobenius_matrix,
    q_binomial_rows,
    q_int_poly,
)
from .errors import InvalidArgs, OrderOverflow, PrecisionExhausted
from .exactpoly import IntPoly, square_and_multiply
from .grammar import checked_power, parse_poly

DEFAULT_OMEGA_CAP = 16
# pairs per batch of the axiom suite's bulk sweep; bounds its memory at any --samples
SWEEP_CHUNK = 4096
# pairs of exact lifts in Z[q, x] that the axiom suite checks per context
EXACT_SAMPLES = 40


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


def _phi_delta_of_power(f: DeltaElement, power: IntPoly) -> tuple[DeltaElement, DeltaElement]:
    """(phi(f), delta(f)) from f^p, already formed, for f of precision >= 2;
    delta spends one p-adic digit: its precision is f.precision - 1."""
    phi_poly = _phi_substitution(f.ctx, f.poly, f.omega_cap)
    delta_poly = (phi_poly - power).divide_exact(f.ctx.p)
    phi = f._like(phi_poly)
    delta = f._like(delta_poly, f.precision - 1)
    return phi, delta


def is_distinguished(d: DeltaElement) -> bool:
    """True iff delta(d) is a unit of W (nonzero F_p-residue), for d in Z[q].

    delta(d) is `w_delta` of the image of d in W(p, N+1, M), the bulk
    sweep's ring; it is the image of the exact delta(d) (module docstring).
    d needs precision >= 2, as any delta does.  An element carrying x or a
    w-generator is refused with InvalidArgs.
    """
    if d.precision < 2:
        raise PrecisionExhausted("delta needs precision >= 2")
    ctx = d.ctx
    u = WScalar.from_int_poly(RingContext(ctx.p, ctx.n_prec + 1, ctx.m_prec), d.poly)
    return w_delta(u, u**ctx.p).is_unit()


def w_delta(u: WScalar, u_p: WScalar) -> WScalar:
    """delta(u) = (phi(u) - u^p) / p for u in W(p, N+1, M), in the same ring,
    given u_p = u^p.

    The coordinates of phi(u) - u^p in [0, p^(N+1)) are all divisible by p,
    so delta(u) is exact modulo p^N: the extra digit is the headroom the
    division by p spends.
    """
    p = u.ctx.p
    return WScalar(u.ctx, (c // p for c in (u.frobenius() - u_p).coeffs))


def _law_defects(a, b, delta, p: int):
    """lhs - rhs of the product and the sum law of delta at (a, b):

        delta(ab)  = a^p delta(b) + b^p delta(a) + p delta(a) delta(b),
        delta(a+b) = delta(a) + delta(b) - sum_{0<i<p} C(p, i)/p a^i b^(p-i).

    a and b are both WScalars (single, or batches of the same lanes), both
    _WXBatches of the same lanes or both IntPolys, and delta(f, f^p) is
    delta on their ring; a^1..a^p and b^1..b^p are formed once and serve
    both laws.
    """
    apow, bpow = [a], [b]
    for _ in range(p - 1):
        apow.append(apow[-1] * a)
        bpow.append(bpow[-1] * b)
    ap, bp = apow[-1], bpow[-1]
    da, db = delta(a, ap), delta(b, bp)
    product = delta(a * b, ap * bp) - (ap * db + bp * da + da * db * p)
    corr = da + db
    for i in range(1, p):
        corr = corr - apow[i - 1] * bpow[p - i - 1] * (comb(p, i) // p)
    s = a + b
    return product, delta(s, s**p) - corr


def _lane_dtype(ctx: RingContext):
    """The dtype of `WScalar` lanes in ctx: int64 while M * (p^N)^2 < 2^63."""
    return np.int64 if ctx.m_prec * ctx.pn**2 < 2**63 else object


def _q_multiplicative(ctx: RingContext) -> bool:
    """(mn)_q = (m)_q (n)_{q^m} in W for 1 <= m <= 12 and 0 <= n <= 12, all
    156 pairs as one batch, lane (m - 1) * 13 + n.

    (n)_{q^r} has t^i coordinate sum_k D_r[i][k] C(n, k+1), with D_r the
    forward differences of `base_ring.q_int`; both tables are read mod p^N.
    """
    pn, m_prec, dtype = ctx.pn, ctx.m_prec, _lane_dtype(ctx)
    diffs = np.zeros((13, m_prec, m_prec), dtype=dtype)  # diffs[r] = D_r; r = 0 unused
    for r in range(1, 13):
        for i, row in enumerate(_q_int_differences(r, m_prec)):
            diffs[r, i, : i + 1] = [d % pn for d in row]
    binom = np.array([[comb(n, k + 1) % pn for k in range(m_prec)] for n in range(145)], dtype=dtype)

    def analog(n, r):
        return WScalar(ctx, (diffs[r] * binom[n][:, None, :]).sum(axis=2).T)

    m, n = np.divmod(np.arange(156), 13)
    m += 1
    defect = analog(m * n, 1) - analog(m, 1) * analog(n, m)
    return not any(c.any() for c in defect.coeffs)


def run_axiom_suite(contexts: list[RingContext], samples: int = 1000, seed: int = 0) -> dict:
    """Exact delta-ring and q-combinatorics property sweep.

    The bulk sweep (`_bulk_sweep`) checks the product and sum laws on
    `samples` random pairs of W(p, N+1, M), a batch at a time.  The exact
    sweep (`_exact_sweep`) repeats both laws on EXACT_SAMPLES pairs of lifts
    carrying the coordinate x, as one batch in W(p, max(N, 2), M)[x], and
    its first failing pair in draw order decides which law it fails.  Both
    sweeps draw from one rng per context, the bulk sweep first.  The
    distinguished checks run `w_delta` in W(p, N+1, M), q-multiplicativity
    in W; the q-Pascal identity is checked exactly in Z[q].
    """
    report: dict = {"contexts": [], "ok": True}
    # the q-Pascal identity lives in Z[q] and holds or fails for every context.
    # The triangle is built by C(n,k) = C(n-1,k-1) + q^k C(n-1,k), so the check
    # is the mirror recurrence C(n,k) = q^(n-k) C(n-1,k-1) + C(n-1,k).
    binom = q_binomial_rows(12)
    pascal_ok = all(
        binom[n0][k0] == IntPoly.var("q", n0 - k0) * binom[n0 - 1][k0 - 1] + binom[n0 - 1][k0]
        for n0 in range(2, 13)
        for k0 in range(1, n0)
    )
    for ctx in contexts:
        rng = random.Random((seed, ctx.p, ctx.n_prec, ctx.m_prec).__hash__())
        p = ctx.p
        bulk_product, bulk_sum = _bulk_sweep(ctx, samples, rng)
        exact_product, exact_sum = _exact_sweep(ctx, EXACT_SAMPLES, rng)
        dist_ok = is_distinguished(DeltaElement(ctx, q_int_poly(p, 1)))
        qm1_ok = not is_distinguished(DeltaElement(ctx, IntPoly.var("q") - 1))
        mult_ok = _q_multiplicative(ctx)
        entry = {
            "context": ctx.to_json(),
            "samples": samples,
            "product_law": bulk_product and exact_product,
            "sum_law": bulk_sum and exact_sum,
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


def _bulk_sweep(ctx: RingContext, samples: int, rng) -> tuple[bool, bool]:
    """(product law holds, sum law holds) on `samples` random pairs of
    W(p, N+1, M), judged at precision N-1 with `w_delta`.

    Each chunk of pairs is one batch `WScalar` per side, so `_law_defects`
    runs once per chunk.  The coordinates come from rng.randrange(p^(N+1))
    in the order of drawing pair by pair (a's M coordinates, then b's), so
    a sweep that passes leaves rng as drawing pair by pair does.  A chunk
    is judged whole, and the sweep stops after the first chunk in which a
    law fails.
    """
    p, m = ctx.p, ctx.m_prec
    mod = p ** max(ctx.n_prec - 1, 1)
    up = RingContext(p, ctx.n_prec + 1, m)
    for start in range(0, samples, SWEEP_CHUNK):
        lanes = min(SWEEP_CHUNK, samples - start)
        draws = np.array([rng.randrange(up.pn) for _ in range(lanes * 2 * m)], dtype=_lane_dtype(up))
        # axis 0: a or b, axis 1: the t-coordinate, axis 2: the pair
        coords = draws.reshape(lanes, 2, m).transpose(1, 2, 0)
        product, sum_ = _law_defects(WScalar(up, coords[0]), WScalar(up, coords[1]), w_delta, p)
        product_ok, sum_ok = (
            not any((c % mod).any() for c in defect.coeffs) for defect in (product, sum_)
        )
        if not (product_ok and sum_ok):
            return product_ok, sum_ok
    return True, True


def _exact_sweep(ctx: RingContext, samples: int, rng) -> tuple[bool, bool]:
    """(product law holds, sum law holds) on `samples` random pairs of lifts
    carrying the coordinate x, judged at precision (p^max(N-1, 1), (q-1)^M).

    Each lift is a uniform element of W(p, N, M) plus, with probability
    0.3, a multiple c*x, c < p^N; pair by pair, a then b, each draws its M
    t-coordinates, then rng.random(), then c if it carries x.  All pairs
    run as one `_WXBatch` over W(p, max(N, 2), M): the laws apply delta only
    to inputs and to their sums and products, so one digit above the judged
    precision pays for every division by p.  The first failing pair in draw
    order decides the verdict: the product law if its product defect fails,
    else the sum law.
    """
    p, m = ctx.p, ctx.m_prec
    ring = RingContext(p, max(ctx.n_prec, 2), m)
    draws = []
    for _ in range(2 * samples):
        coords = [rng.randrange(ctx.pn) for _ in range(m)]
        c = rng.randrange(ctx.pn) if rng.random() < 0.3 else 0
        draws.append([coords, [c] + [0] * (m - 1)])
    # axis 0: a or b, axis 1: the x-degree, axis 2: the t-degree, axis 3: the pair
    lifts = np.array(draws, dtype=_lane_dtype(ring)).reshape(samples, 2, 2, m).transpose(1, 2, 3, 0)
    a, b = (_WXBatch(ring, lifts[side]) for side in (0, 1))
    product, sum_ = _law_defects(a, b, _WXBatch.delta, p)
    mod = ring.pn // p
    product_bad, sum_bad = (~defect.vanishes(mod) for defect in (product, sum_))
    bad = product_bad | sum_bad
    if not bad.any():
        return True, True
    return (False, True) if product_bad[np.argmax(bad)] else (True, False)


class _WXBatch:
    """Polynomials in x over W = W(p, N, M), one per lane: coeffs[i, j, k]
    in [0, p^N) is the t^j coordinate of the coefficient of x^i in lane k.

    The lanes are int64 while M * (p^N)^2 < 2^63 (`_lane_dtype`), so that a
    Frobenius coordinate, a sum of M products of residues, fits, and Python
    ints above that, with the same code: a sum reduces at once, and a
    product before its int64 entries could overflow.  The first axis bounds
    the x-degree, and a product's bound is the sum of its factors'; the
    t-degree is truncated at M.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: RingContext, coeffs: np.ndarray):
        self.ring = ring
        self.coeffs = coeffs

    def _like(self, coeffs: np.ndarray) -> _WXBatch:
        return _WXBatch(self.ring, coeffs)

    def _combined(self, other: _WXBatch, sign: int) -> _WXBatch:
        a, b = self.coeffs, other.coeffs
        out = np.zeros((max(len(a), len(b)),) + a.shape[1:], a.dtype)
        out[: len(a)] = a
        out[: len(b)] += sign * b
        out %= self.ring.pn
        return self._like(out)

    def __add__(self, other: _WXBatch) -> _WXBatch:
        return self._combined(other, 1)

    def __sub__(self, other: _WXBatch) -> _WXBatch:
        return self._combined(other, -1)

    def __mul__(self, other: _WXBatch | int) -> _WXBatch:
        pn, m = self.ring.pn, self.ring.m_prec
        if isinstance(other, int):
            return self._like(self.coeffs * (other % pn) % pn)
        # loop over the (x, t) positions where the sparser factor is nonzero
        # in some lane, adding that position's shifted multiple of the other
        small, large = self.coeffs, other.coeffs
        support = np.argwhere((small != 0).any(axis=2))
        other_support = np.argwhere((large != 0).any(axis=2))
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
        return self._like(out)

    def __pow__(self, n: int) -> _WXBatch:
        """self**n for n >= 1."""
        return square_and_multiply(self, n)

    def frobenius(self) -> _WXBatch:
        """The lift x -> x^p, q -> q^p: a strided scatter in x, and
        `frobenius_matrix` on the t-coordinates."""
        ring, c = self.ring, self.coeffs
        out = np.zeros(((len(c) - 1) * ring.p + 1,) + c.shape[1:], dtype=c.dtype)
        out[:: ring.p] = np.array(frobenius_matrix(ring), dtype=c.dtype) @ c % ring.pn
        return self._like(out)

    def delta(self, power: _WXBatch) -> _WXBatch:
        """delta = (phi - power) / p, given power = self^p, exact modulo p^(N-1).

        Raises ValueError, as `IntPoly.divide_exact` does, when a coordinate
        of phi - power is not divisible by p, which the true Frobenius and
        p-th power never leave.
        """
        p = self.ring.p
        diff = (self.frobenius() - power).coeffs
        inexact = diff % p != 0
        if inexact.any():
            raise ValueError(f"coefficient {diff[inexact][0]} not divisible by {p}")
        return self._like(diff // p)

    def vanishes(self, mod: int) -> np.ndarray:
        """Per lane, whether every coordinate is 0 modulo mod, for mod
        dividing p^N."""
        return ~(self.coeffs % mod != 0).any(axis=(0, 1))


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

    Each delta forms its p-th power first by `grammar.checked_power`, which
    holds each of its products to MAX_TERMS monomial products; past it
    SpecError is raised.
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
    iterates = [base]
    for _ in range(applications):
        f = iterates[-1]
        iterates.append(_phi_delta_of_power(f, checked_power(f.poly, ctx.p))[1])
    gens = ["x"] + [f"w{i}" for i in range(cap + 1)]
    return EnvelopePresentation(gens, iterates[-(K + 1):], K)
