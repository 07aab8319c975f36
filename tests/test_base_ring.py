import random
from math import comb

import numpy as np
import pytest

from qprism.base_ring import (
    RingContext,
    WScalar,
    q_binomial,
    q_binomial_poly,
    q_int,
    q_int_poly,
    w_invert,
)
from qprism.errors import InvalidArgs, NotAUnit
from qprism.exactpoly import IntPoly


def ctx222():
    return RingContext(2, 2, 2)


def ctx322():
    return RingContext(3, 2, 2)


def random_scalar(rng, ctx):
    return WScalar(ctx, [rng.randrange(ctx.pn) for _ in range(ctx.m_prec)])


def test_context_validation():
    with pytest.raises(InvalidArgs):
        RingContext(4, 2, 2)
    with pytest.raises(InvalidArgs):
        RingContext(101, 2, 2)
    with pytest.raises(InvalidArgs):
        RingContext(2, 0, 2)


def test_q_representation():
    ctx = ctx222()
    assert WScalar.q(ctx).coeffs == (1, 1)


def test_invert_one():
    ctx = ctx322()
    one = WScalar.one(ctx)
    assert w_invert(one) == one


def test_invert_q_geometric_series():
    # (1+t)^{-1} = 1 - t + t^2 - ... truncated; W(3,2,2) gives coeffs [1, 8]
    ctx = ctx322()
    inv = w_invert(WScalar.q(ctx))
    assert inv.coeffs == (1, 8)
    assert inv == WScalar.parse(ctx, "2-q")
    assert inv * WScalar.q(ctx) == WScalar.one(ctx)


def test_invert_distinguished_element_fails():
    for p in (2, 3, 5):
        ctx = RingContext(p, 2, 2)
        with pytest.raises(NotAUnit):
            w_invert(q_int(p, 1, ctx))


def test_invert_multiplies_back():
    rng = random.Random(7)
    for p in (2, 3, 5):
        ctx = RingContext(p, 3, 3)
        hits = 0
        while hits < 50:
            a = random_scalar(rng, ctx)
            if not a.is_unit():
                with pytest.raises(NotAUnit):
                    w_invert(a)
                continue
            assert a * w_invert(a) == WScalar.one(ctx)
            hits += 1


def test_q_int_definition():
    ctx = ctx222()
    assert q_int(3, 1, ctx) == WScalar.parse(ctx, "1+q+q^2")
    assert q_int(0, 1, ctx) == WScalar.zero(ctx)


def test_q_int_product_rule():
    # (4)_q = (2)_q * (2)_{q^2}, checked by brute-force polynomial expansion
    expected = (IntPoly.const(1) + IntPoly.var("q")) * (
        IntPoly.const(1) + IntPoly.var("q", 2)
    )
    assert q_int_poly(4, 1) == expected
    ctx = ctx322()
    assert q_int(4, 1, ctx) == q_int(2, 1, ctx) * q_int(2, 2, ctx)


def _q_int_poly_by_summation(n, r=1):
    """(n)_{q^r} as the earlier loop built it, one monomial added at a time."""
    total = IntPoly()
    for i in range(n):
        total = total + IntPoly.var("q", r * i)
    return total


def test_q_int_poly_matches_the_summation_loop():
    for n in (0, 1, 2, 3, 7, 40):
        for r in (0, 1, 2, 5):
            assert q_int_poly(n, r) == _q_int_poly_by_summation(n, r), (n, r)
    assert q_int_poly(7, 0) == IntPoly.const(7)
    with pytest.raises(InvalidArgs):
        q_int_poly(-1)


def _q_int_uncached(n, r, ctx):
    """The forward-difference formula of `q_int`, recomputed on every call."""
    coeffs = []
    for i in range(ctx.m_prec):
        total = 0
        for k in range(i + 1):
            diff = sum((-1) ** (k - l) * comb(k, l) * comb(r * l, i) for l in range(k + 1))
            total += diff * comb(n, k + 1)
        coeffs.append(total)
    return WScalar(ctx, coeffs)


def test_q_int_matches_the_power_sum_and_the_uncached_formula():
    for r in range(1, 6):
        for m in range(1, 7):
            ctx = RingContext((2, 3, 5)[(r + m) % 3], 3, m)
            step = WScalar.q(ctx) ** r
            power, total = WScalar.one(ctx), WScalar.zero(ctx)
            for n in range(41):
                # total = sum_{j<n} q^(rj)
                assert q_int(n, r, ctx) == total, (r, m, n)
                assert q_int(n, r, ctx) == _q_int_uncached(n, r, ctx), (r, m, n)
                total, power = total + power, power * step


def test_batched_wscalar_acts_lane_wise():
    rng = random.Random(21)
    for p, n, m in ((2, 3, 1), (3, 2, 3), (5, 4, 4), (7, 3, 5)):
        ctx = RingContext(p, n, m)
        xs = [random_scalar(rng, ctx) for _ in range(9)]
        ys = [random_scalar(rng, ctx) for _ in range(9)]
        # coordinate i of the batch is the object array of the lanes' coordinates i
        bx, by = (WScalar(ctx, np.array([w.coeffs for w in ws], dtype=object).T) for ws in (xs, ys))
        results = (
            (bx * by, [x * y for x, y in zip(xs, ys)]),
            (bx + by, [x + y for x, y in zip(xs, ys)]),
            (bx - by, [x - y for x, y in zip(xs, ys)]),
            (-bx, [-x for x in xs]),
            (bx * (p + 2), [x * (p + 2) for x in xs]),
            (bx**p, [x**p for x in xs]),
            (bx.frobenius(), [x.frobenius() for x in xs]),
        )
        for batch, singles in results:
            for lane, single in enumerate(singles):
                assert tuple(c[lane] for c in batch.coeffs) == single.coeffs, (p, n, m, lane)


def _factorial_quotient_oracle(n, k):
    """(n)_q! / ((k)_q! (n-k)_q!) by exact division in Z[q]."""
    def fact(m):
        total = IntPoly.one()
        for i in range(1, m + 1):
            total = total * q_int_poly(i, 1)
        return total

    num = fact(n)
    den = fact(k) * fact(n - k)
    # exact univariate division
    quot = _poly_divide_exact(num, den)
    return quot


def _poly_divide_exact(num: IntPoly, den: IntPoly) -> IntPoly:
    num_c = _to_coeff_list(num)
    den_c = _to_coeff_list(den)
    out = [0] * (len(num_c) - len(den_c) + 1)
    rem = list(num_c)
    for i in range(len(out) - 1, -1, -1):
        c = rem[i + len(den_c) - 1]
        assert c % den_c[-1] == 0
        out[i] = c // den_c[-1]
        for j, d in enumerate(den_c):
            rem[i + j] -= out[i] * d
    assert all(v == 0 for v in rem)
    return IntPoly({(("q", i),) if i else (): c for i, c in enumerate(out) if c})


def _to_coeff_list(poly: IntPoly) -> list[int]:
    deg = poly.degree("q")
    out = [0] * (deg + 1)
    for j, c in poly.univariate("q").items():
        out[j] = c
    return out


def test_q_binomial_boundaries():
    ctx = ctx222()
    for n in range(6):
        assert q_binomial(n, 0, 1, ctx) == WScalar.one(ctx)
        assert q_binomial(n, n, 1, ctx) == WScalar.one(ctx)


def test_q_binomial_against_factorial_oracle():
    assert q_binomial_poly(2, 1, 1) == _factorial_quotient_oracle(2, 1)
    assert q_binomial_poly(4, 2, 1) == _factorial_quotient_oracle(4, 2)
    # frozen expansion from the oracle
    assert q_binomial_poly(4, 2, 1) == IntPoly(
        {
            (): 1,
            (("q", 1),): 1,
            (("q", 2),): 2,
            (("q", 3),): 1,
            (("q", 4),): 1,
        }
    )
    for n in range(8):
        for k in range(n + 1):
            assert q_binomial_poly(n, k, 1) == _factorial_quotient_oracle(n, k)


def test_q_binomial_invalid():
    ctx = ctx222()
    with pytest.raises(InvalidArgs):
        q_binomial(3, 4, 1, ctx)
    with pytest.raises(InvalidArgs):
        q_binomial(3, -1, 1, ctx)


def test_q_pascal_recurrence_in_w():
    ctx = RingContext(5, 2, 2)
    for n in range(1, 9):
        for k in range(1, n):
            lhs = q_binomial(n, k, 1, ctx)
            rhs = q_binomial(n - 1, k - 1, 1, ctx) + q_binomial(n - 1, k, 1, ctx) * (
                WScalar.q(ctx) ** k
            )
            assert lhs == rhs


def test_ring_axioms_sampled():
    rng = random.Random(11)
    for p in (2, 3):
        ctx = RingContext(p, 2, 3)
        for _ in range(1000):
            a, b, c = (random_scalar(rng, ctx) for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a


def test_unit_criterion_matches_residue():
    rng = random.Random(13)
    ctx = ctx222()
    for _ in range(100):
        a = random_scalar(rng, ctx)
        assert a.is_unit() == (a.fp_residue() != 0)


def test_lift_round_trip():
    rng = random.Random(17)
    ctx = RingContext(3, 2, 3)
    for _ in range(50):
        a = random_scalar(rng, ctx)
        assert WScalar.from_int_poly(ctx, a.lift()) == a


def test_string_round_trip():
    rng = random.Random(19)
    ctx = ctx322()
    for _ in range(50):
        a = random_scalar(rng, ctx)
        assert WScalar.parse(ctx, a.to_string()) == a


def test_reduce_to_smaller_context():
    ctx = RingContext(2, 3, 3)
    small = RingContext(2, 2, 2)
    a = WScalar(ctx, (5, 7, 3))
    assert a.reduce_to(small) == WScalar(small, (1, 3))


def test_frobenius_endomorphism_of_w():
    ctx = RingContext(3, 2, 3)
    q = WScalar.q(ctx)
    assert q.frobenius() == q**3
    rng = random.Random(23)
    for _ in range(40):
        a = random_scalar(rng, ctx)
        b = random_scalar(rng, ctx)
        assert (a * b).frobenius() == a.frobenius() * b.frobenius()
        assert (a + b).frobenius() == a.frobenius() + b.frobenius()


def test_power_does_no_product_beyond_its_last_bit(monkeypatch):
    calls = []
    mul = WScalar.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(WScalar, "__mul__", counted)
    ctx = RingContext(3, 4, 12)
    t = WScalar.t(ctx)
    for n, products in [(0, 0), (1, 0), (2, 1), (5, 3), (8, 3)]:
        calls.clear()
        assert t**n == WScalar(ctx, [0] * n + [1]), n
        assert len(calls) == products, n


def test_mixed_contexts_refused():
    a = WScalar.one(RingContext(2, 2, 2))
    with pytest.raises(InvalidArgs):
        a + WScalar.one(RingContext(2, 3, 2))
    # an equal context built separately mixes freely
    assert a * WScalar.one(RingContext(2, 2, 2)) == a


def test_q_binomial_base_power_is_substitution():
    # the Gaussian binomial in base q^r is the base-q polynomial in q^r
    for n in range(6):
        for k in range(n + 1):
            base = q_binomial_poly(n, k, 1)
            subbed = base.substitute({"q": IntPoly.var("q", 2)})
            assert q_binomial_poly(n, k, 2) == subbed


def _lift_by_powers(w: WScalar) -> IntPoly:
    """The earlier body of `WScalar.lift`: the sum of c_i (q - 1)^i through
    IntPoly products."""
    t = IntPoly.var("q") - 1
    total = IntPoly()
    for i, c in enumerate(w.coeffs):
        if c:
            total = total + IntPoly.const(c) * t**i
    return total


def test_lift_matches_the_sum_of_powers():
    rng = random.Random(47)
    checked = 0
    for p in (2, 3, 5):
        for n_prec in (1, 2, 3):
            for m_prec in (1, 2, 3, 4):
                ctx = RingContext(p, n_prec, m_prec)
                elements = [WScalar.zero(ctx), WScalar.one(ctx), WScalar.t(ctx)]
                elements += [WScalar.random(ctx, rng) for _ in range(12)]
                for w in elements:
                    assert w.lift() == _lift_by_powers(w), (p, n_prec, m_prec, w.coeffs)
                    checked += 1
    assert checked == 540
