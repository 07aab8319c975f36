"""Delta-structures, Frobenius lifts, the distinguished-element predicate,
the axiom suite and truncated envelope presentations.

All computations run on exact integer polynomials in q, x and the free
generators w0, w1, ...; the Frobenius lift acts by q -> q^p, x -> x^p and
w_k -> w_k^p + p*w_{k+1}, and delta(f) = (phi(f) - f^p) / p is an exact
integer division.  A precision ledger records that each delta application
costs one p-adic digit of validity on truncated lifts.

The axiom suite's bulk sweep runs on q-only elements in W(p, N+1, M)
through `WScalar`, the one W arithmetic: the extra digit pays for the
division by p, and `w_delta` is delta there.  It runs on batches, one
`WScalar` whose coordinates are object arrays with one lane per pair, so
each chunk of pairs costs one pass of Python-level arithmetic.  The exact
sweep on lifts in Z[q, x] runs the same way, all its pairs as one
`_QXBatch`: polynomials in (q, x) modulo p^(N-1) times one more digit of
headroom, the same argument as for `w_delta`.  One helper, `_law_defects`,
states the product and sum laws on every carrier: `WScalar`, single or
batched, `_QXBatch`, and `IntPoly`.

No command runs the q-divided-power predicate or the bare Frobenius lift:
`qpd_check` is kept in `tests/paper_oracle.py` and `phi_map` in
`tests/delta_oracle.py`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

import numpy as np

from .base_ring import RingContext, WScalar, q_binomial_rows, q_int, q_int_poly
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


def phi_delta(f: DeltaElement) -> tuple[DeltaElement, DeltaElement]:
    """Return (phi(f), delta(f)) with delta = (phi(f) - f^p)/p exactly.

    delta spends one p-adic digit: its precision is f.precision - 1.
    """
    if f.precision < 2:
        raise PrecisionExhausted("delta needs precision >= 2")
    return _phi_delta_of_power(f, f.poly ** f.ctx.p)


def _phi_delta_of_power(f: DeltaElement, power: IntPoly) -> tuple[DeltaElement, DeltaElement]:
    """phi_delta(f) from f^p, already formed, for f of precision >= 2."""
    phi_poly = _phi_substitution(f.ctx, f.poly, f.omega_cap)
    delta_poly = (phi_poly - power).divide_exact(f.ctx.p)
    phi = f._like(phi_poly)
    delta = f._like(delta_poly, f.precision - 1)
    return phi, delta


def delta_map(f: DeltaElement) -> DeltaElement:
    return phi_delta(f)[1]


def is_distinguished(d: DeltaElement) -> bool:
    """True iff delta(d) is a unit of W (nonzero F_p-residue)."""
    return delta_map(d).reduce_to_w().is_unit()


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
    _QXBatches of the same lanes or both IntPolys, and delta(f, f^p) is
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


def _q_multiplicative(ctx: RingContext) -> bool:
    """(mn)_q = (m)_q (n)_{q^m} in W for 1 <= m <= 12 and 0 <= n <= 12,
    forming each (m)_q once and stopping at the first failure."""
    for m0 in range(1, 13):
        m_int = q_int(m0, 1, ctx)
        if not all(q_int(m0 * n0, 1, ctx) == m_int * q_int(n0, m0, ctx) for n0 in range(13)):
            return False
    return True


def run_axiom_suite(contexts: list[RingContext], samples: int = 1000, seed: int = 0) -> dict:
    """Exact delta-ring and q-combinatorics property sweep.

    The bulk sweep (`_bulk_sweep`) checks the product and sum laws on
    `samples` random pairs of W(p, N+1, M), a batch at a time.  The exact
    sweep (`_exact_sweep`) repeats both laws on EXACT_SAMPLES pairs of lifts
    in Z[q, x] carrying the coordinate x, as one batch modulo p^max(N, 2),
    and its first failing pair in draw order decides which law it fails.
    Both sweeps draw from one rng per context, the bulk sweep first.  The
    q-analog identities are checked exactly in Z[q].
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
        draws = np.array([rng.randrange(up.pn) for _ in range(lanes * 2 * m)], dtype=object)
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
    """(product law holds, sum law holds) on `samples` random pairs of exact
    lifts in Z[q, x], judged at precision (p^max(N-1, 1), (q-1)^M).

    Each lift is the q-expansion of a uniform element of W(p, N, M), and with
    probability 0.3 a multiple c*x, c < p^N; pair by pair, a then b, each
    draws its M coordinates, then rng.random(), then c if it carries x.  All
    pairs run as one `_QXBatch` modulo P = p * p^max(N-1, 1): the laws apply
    delta only to inputs and to their sums and products, so one digit above
    the judged precision pays for every division by p.  The first failing
    pair in draw order decides the verdict: the product law if its product
    defect fails, else the sum law.
    """
    p, m = ctx.p, ctx.m_prec
    mod = p ** max(ctx.n_prec - 1, 1)
    modulus = p * mod
    # axis 1: a or b, axis 2: the x-degree, axis 3: the q-degree
    lifts = np.zeros((samples, 2, 2, m), dtype=np.int64 if modulus < 2**31 else object)
    for k in range(samples):
        for side in (0, 1):
            lifts[k, side, 0] = [c % modulus for c in WScalar.random(ctx, rng)._q_expansion()]
            if rng.random() < 0.3:
                lifts[k, side, 1, 0] = rng.randrange(ctx.pn)
    a, b = (_QXBatch(lifts[:, side], p, modulus) for side in (0, 1))
    product, sum_ = _law_defects(a, b, _QXBatch.delta, p)
    product_bad, sum_bad = (~defect.vanishes(mod, m) for defect in (product, sum_))
    bad = product_bad | sum_bad
    if not bad.any():
        return True, True
    return (False, True) if product_bad[np.argmax(bad)] else (True, False)


class _QXBatch:
    """Polynomials in (q, x) modulo P, one per lane: coeffs[k, i, j] in [0, P)
    is the coefficient of x^i q^j in lane k.

    The coefficients are int64 when P < 2^31, so that a product of two
    residues plus a third stays below 2^63, and Python ints otherwise, with
    the same code: a sum reduces at once, and a product before its int64
    entries could overflow.  The shape of an array bounds the degrees and
    nothing is truncated: a product's shape is the sum of its factors'
    degree bounds.
    """

    __slots__ = ("coeffs", "p", "modulus")

    def __init__(self, coeffs: np.ndarray, p: int, modulus: int):
        self.coeffs = coeffs
        self.p = p
        self.modulus = modulus

    def _like(self, coeffs: np.ndarray) -> _QXBatch:
        return _QXBatch(coeffs, self.p, self.modulus)

    def _combined(self, other: _QXBatch, sign: int) -> _QXBatch:
        a, b = self.coeffs, other.coeffs
        out = np.zeros((a.shape[0], max(a.shape[1], b.shape[1]), max(a.shape[2], b.shape[2])), a.dtype)
        out[:, : a.shape[1], : a.shape[2]] = a
        out[:, : b.shape[1], : b.shape[2]] += sign * b
        out %= self.modulus
        return self._like(out)

    def __add__(self, other: _QXBatch) -> _QXBatch:
        return self._combined(other, 1)

    def __sub__(self, other: _QXBatch) -> _QXBatch:
        return self._combined(other, -1)

    def __mul__(self, other: _QXBatch | int) -> _QXBatch:
        modulus = self.modulus
        if isinstance(other, int):
            return self._like(self.coeffs * (other % modulus) % modulus)
        # loop over the (x, q) positions where the sparser factor is nonzero
        # in some lane, adding that position's shifted multiple of the other
        small, large = self.coeffs, other.coeffs
        support = np.argwhere((small != 0).any(axis=0))
        other_support = np.argwhere((large != 0).any(axis=0))
        if len(other_support) < len(support):
            small, large, support = large, small, other_support
        lanes, nx, nq = large.shape
        out = np.zeros((lanes, small.shape[1] + nx - 1, small.shape[2] + nq - 1), dtype=large.dtype)
        # each position adds at most one term up to (P-1)^2 to an entry, so
        # int64 holds `room` positions between reductions; Python ints need none
        room = (2**63 - modulus) // (modulus - 1) ** 2 if out.dtype == np.int64 else 0
        term = np.empty_like(large)
        for n, (i, j) in enumerate(support.tolist(), 1):
            window = out[:, i : i + nx, j : j + nq]
            np.multiply(small[:, i, j, None, None], large, out=term)
            window += term
            if room and n % room == 0:
                out %= modulus
        out %= modulus
        return self._like(out)

    def __pow__(self, n: int) -> _QXBatch:
        """self**n for n >= 1."""
        return square_and_multiply(self, n)

    def frobenius(self) -> _QXBatch:
        """The lift q -> q^p, x -> x^p: a strided scatter of the coefficients."""
        p = self.p
        lanes, nx, nq = self.coeffs.shape
        out = np.zeros((lanes, (nx - 1) * p + 1, (nq - 1) * p + 1), dtype=self.coeffs.dtype)
        out[:, ::p, ::p] = self.coeffs
        return self._like(out)

    def delta(self, power: _QXBatch) -> _QXBatch:
        """delta = (phi - power) / p, given power = self^p, exact modulo P / p.

        Raises ValueError, as `IntPoly.divide_exact` does, when a residue of
        phi - power is not divisible by p; it is exactly when the difference
        of the exact lifts is not, since p divides P.
        """
        diff = (self.frobenius() - power).coeffs
        inexact = diff % self.p != 0
        if inexact.any():
            raise ValueError(f"coefficient {diff[inexact][0]} not divisible by {self.p}")
        return self._like(diff // self.p)

    def vanishes(self, mod: int, m: int) -> np.ndarray:
        """Per lane, whether the polynomial is zero at precision (mod, (q-1)^m),
        for mod dividing P: each x-slice folds to its t-coordinates
        sum_j c_j C(j, i), i < m, reducing after every term."""
        coeffs = self.coeffs % mod
        folded = np.zeros(coeffs.shape[:2] + (m,), dtype=coeffs.dtype)
        for j in range(coeffs.shape[2]):
            binomials = np.array([comb(j, i) % mod for i in range(m)], dtype=coeffs.dtype)
            folded += coeffs[:, :, j, None] * binomials
            folded %= mod
        return ~(folded != 0).any(axis=(1, 2))


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
