import itertools
import random
from math import comb

import numpy as np
import pytest
import delta_oracle
from delta_oracle import (
    _congruent,
    _delta_poly,
    _random_lift,
    _TruncatedDelta,
    delta_map,
    exact_is_distinguished,
    per_pair_exact_sweep,
    per_pair_q_multiplicative,
    per_pair_sweep,
    phi_delta,
    phi_map,
)
from paper_oracle import nygaard_member, qpd_check

import qprism.grammar
from qprism import delta_ring

from qprism.base_ring import RingContext, WPoly, WScalar, frobenius_matrix, lane_dtype, q_int_poly
from qprism.delta_ring import (
    DeltaElement,
    _law_defects,
    envelope_presentation,
    is_distinguished,
    run_axiom_suite,
    w_delta,
)
from qprism.errors import (
    InvalidArgs,
    OrderOverflow,
    PrecisionExhausted,
    SpecError,
    WindowTooSmall,
)
from qprism.exactpoly import IntPoly
from qprism.grammar import parse_poly


def elem(ctx, text, **kw):
    return DeltaElement.parse(ctx, text, **kw)


def test_delta_of_q_and_x_vanish():
    ctx = RingContext(3, 3, 2)
    assert delta_map(elem(ctx, "q")).poly.is_zero()
    assert delta_map(elem(ctx, "x")).poly.is_zero()


def test_delta_of_p():
    # delta(p) = (p - p^p)/p = 1 - p^{p-1}
    for p, expected in ((2, -1), (3, -8)):
        ctx = RingContext(p, 2, 2)
        assert delta_map(elem(ctx, str(p))).poly == IntPoly.const(expected)


def test_phi_is_p_power_plus_p_delta():
    rng = random.Random(3)
    ctx = RingContext(2, 3, 2)
    for _ in range(30):
        f = DeltaElement(ctx, _random_poly(rng, ctx))
        phi, delta = phi_delta(f)
        assert phi.poly == f.poly**ctx.p + IntPoly.const(ctx.p) * delta.poly


def test_phi_ring_homomorphism():
    rng = random.Random(5)
    ctx = RingContext(3, 2, 2)
    for _ in range(20):
        a = DeltaElement(ctx, _random_poly(rng, ctx))
        b = DeltaElement(ctx, _random_poly(rng, ctx))
        assert phi_map(a * b).poly == (phi_map(a).poly * phi_map(b).poly)
        assert phi_map(a + b).poly == (phi_map(a).poly + phi_map(b).poly)


def test_phi_on_q_analogs():
    ctx = RingContext(3, 2, 2)
    for n in range(7):
        f = DeltaElement(ctx, q_int_poly(n, 1))
        assert phi_map(f).poly == q_int_poly(n, ctx.p)


def _random_poly(rng, ctx, with_x=True, with_omega=False):
    total = IntPoly()
    for _ in range(rng.randrange(1, 4)):
        c = rng.randrange(ctx.pn)
        mono = IntPoly.const(c)
        mono = mono * IntPoly.var("q", rng.randrange(ctx.m_prec))
        if with_x and rng.random() < 0.5:
            mono = mono * IntPoly.var("x", rng.randrange(3))
        if with_omega and rng.random() < 0.3:
            mono = mono * IntPoly.var("w0", rng.randrange(2))
        total = total + mono
    return total


def test_product_law():
    rng = random.Random(7)
    for p in (2, 3):
        ctx = RingContext(p, 3, 2)
        for _ in range(25):
            a = DeltaElement(ctx, _random_poly(rng, ctx, with_omega=True))
            b = DeltaElement(ctx, _random_poly(rng, ctx, with_omega=True))
            da, db = delta_map(a).poly, delta_map(b).poly
            lhs = delta_map(a * b).poly
            rhs = a.poly**p * db + b.poly**p * da + IntPoly.const(p) * da * db
            assert lhs == rhs


def test_sum_law():
    rng = random.Random(9)
    for p in (2, 3, 5):
        ctx = RingContext(p, 3, 2)
        for _ in range(15):
            a = DeltaElement(ctx, _random_poly(rng, ctx))
            b = DeltaElement(ctx, _random_poly(rng, ctx))
            lhs = delta_map(a + b).poly
            correction = IntPoly()
            for i in range(1, p):
                correction = correction + IntPoly.const(comb(p, i) // p) * a.poly**i * b.poly ** (p - i)
            rhs = delta_map(a).poly + delta_map(b).poly - correction
            assert lhs == rhs


def test_lift_independence():
    # two lifts differing by p^N h give the same delta at precision N-1
    rng = random.Random(11)
    ctx = RingContext(2, 3, 2)
    for _ in range(20):
        f = DeltaElement(ctx, _random_poly(rng, ctx))
        h = _random_poly(rng, ctx)
        g = DeltaElement(ctx, f.poly + IntPoly.const(ctx.pn) * h)
        diff = delta_map(f).poly - delta_map(g).poly
        mod = ctx.p ** (ctx.n_prec - 1)
        assert all(c % mod == 0 for c in diff.terms.values())


def test_precision_ledger():
    ctx = RingContext(2, 3, 2)
    f = elem(ctx, "x+q")
    d1 = delta_map(f)
    assert d1.precision == 2
    d2 = delta_map(d1)
    assert d2.precision == 1
    with pytest.raises(PrecisionExhausted):
        delta_map(d2)


def test_order_overflow():
    ctx = RingContext(2, 3, 2)
    f = DeltaElement(ctx, IntPoly.var("w0"), omega_cap=1)
    d1 = delta_map(f)
    assert d1.delta_order == 1
    with pytest.raises(OrderOverflow):
        delta_map(d1)


def test_distinguished_p_q():
    for p in (2, 3, 5):
        ctx = RingContext(p, 2, 2)
        assert is_distinguished(DeltaElement(ctx, q_int_poly(p, 1)))


def test_distinguished_p2_exact_value():
    # delta((2)_q) = ((1+q^2) - (1+q)^2)/2 = -q
    ctx = RingContext(2, 2, 2)
    d = delta_map(DeltaElement(ctx, q_int_poly(2, 1)))
    assert d.poly == -IntPoly.var("q")


def test_q_minus_one_not_distinguished():
    for p in (2, 3):
        ctx = RingContext(p, 2, 2)
        assert not is_distinguished(elem(ctx, "q-1"))
        # oracle: delta(q-1) vanishes at q=1
        d = delta_map(elem(ctx, "q-1"))
        assert d.poly.eval_int({"q": 1}) == 0


def test_p_is_distinguished():
    ctx = RingContext(2, 2, 2)
    assert is_distinguished(elem(ctx, "2"))


def test_qpd_zero_element():
    ctx = RingContext(2, 2, 2)
    assert qpd_check(elem(ctx, "0"), [elem(ctx, "q-1")])


def test_qpd_q_minus_one_in_its_own_ideal():
    # phi(q-1) = (p)_q (q-1) and delta(q-1) is divisible by q-1
    for p in (2, 3):
        ctx = RingContext(p, 3, 3)
        assert qpd_check(elem(ctx, "q-1"), [elem(ctx, "q-1")])


def test_qpd_unit_not_in_zero_ideal():
    ctx = RingContext(2, 2, 2)
    assert not qpd_check(elem(ctx, "1"), [elem(ctx, "0")])


def test_qpd_window_semantics():
    # p = 3, f = (q-1)x: phi(f) - (3)_q delta(f) = -(3)_q (q-1)^2 x^3, which
    # needs the x^2 multiplier of the generator x, so the verdict flips from
    # undecided to member exactly when the window reaches 2
    ctx = RingContext(3, 2, 3)
    f = elem(ctx, "(q-1)*x")
    J = [elem(ctx, "x")]
    with pytest.raises(WindowTooSmall):
        qpd_check(f, J, window=1)
    assert qpd_check(f, J, window=2)


def test_qpd_window_too_small_reported():
    # x-free probe against an x-carrying ideal: undecided at any window
    # (m_prec = 3 keeps the probe nonzero after truncation)
    ctx = RingContext(3, 2, 3)
    with pytest.raises(WindowTooSmall):
        qpd_check(elem(ctx, "q-1"), [elem(ctx, "x")], window=3)


def test_nygaard_unit_ideal_variant():
    ctx = RingContext(2, 3, 3)
    # phi(q-1) = (q^2-1) = (2)_q (q-1) lies in ((2)_q)
    assert nygaard_member(elem(ctx, "q-1"))
    assert not nygaard_member(elem(ctx, "1"))


def test_only_the_envelope_holds_delta_to_the_term_budget(monkeypatch):
    # with a cap of one monomial product per multiplication the envelope is
    # refused, while the other users of delta keep their verdicts
    monkeypatch.setattr(qprism.grammar, "MAX_TERMS", 1)
    ctx = RingContext(2, 3, 3)
    d = DeltaElement(ctx, q_int_poly(2, 1))
    assert is_distinguished(d)
    assert qpd_check(elem(ctx, "q-1"), [elem(ctx, "q-1")])
    assert nygaard_member(elem(ctx, "q-1"))
    with pytest.raises(SpecError):
        envelope_presentation(DeltaElement(ctx, -IntPoly.var("x")), d, 0)


def test_q_integer_past_the_term_budget_is_distinguished():
    # in Z[q], ((53)_q)^53 would form a 1093*1665 product, over the cap of a
    # parsed power; the predicate runs in W and holds to no such cap
    ctx = RingContext(53, 2, 2)
    assert 1093 * 1665 > qprism.grammar.MAX_TERMS
    assert is_distinguished(DeltaElement(ctx, q_int_poly(53, 1)))


def _random_q_poly(rng, degree):
    return IntPoly({(("q", j),) if j else (): rng.randint(-9, 9) for j in range(degree + 1)})


def test_distinguished_in_w_matches_the_exact_oracle():
    rng = random.Random(2030)
    q = IntPoly.var("q")
    verdicts = set()
    for p in (2, 3, 5, 7, 23, 53):
        for n in range(2, 5):
            for m in range(1, 5):
                ctx = RingContext(p, n, m)
                polys = [q_int_poly(k, 1) for k in range(5)] + [q**k - 1 for k in range(1, 4)]
                if p <= 23 or (n, m) == (2, 2):
                    polys.append(q_int_poly(p, 1))
                for _ in range(3):
                    u, v = _random_q_poly(rng, 2), _random_q_poly(rng, 2)
                    polys += [IntPoly.const(p) * u + v, _random_q_poly(rng, 3)]
                for poly in polys:
                    d = DeltaElement(ctx, poly)
                    got = is_distinguished(d)
                    assert got is exact_is_distinguished(d), (p, n, m, poly)
                    verdicts.add(got)
                    # precision 1 leaves no digit for the division by p
                    low = DeltaElement(ctx, poly, precision=1)
                    for predicate in (is_distinguished, exact_is_distinguished):
                        with pytest.raises(PrecisionExhausted):
                            predicate(low)
    assert verdicts == {True, False}


def test_distinguished_refuses_an_element_outside_z_q():
    ctx = RingContext(3, 2, 2)
    for text in ("x", "q + x", "w0", "(1 + q + q^2) * w0 - x"):
        d = elem(ctx, text)
        with pytest.raises(InvalidArgs):
            is_distinguished(d)
    # the exact route read False there, as delta(x^k) = 0
    assert exact_is_distinguished(elem(ctx, "x")) is False


def test_envelope_prispol_relation_p2():
    # delta(x + (2)_q w0) = (1+q^2) w1 - q w0^2 - (1+q) x w0, by the
    # symbolic rule delta(a+b) = delta(a) + delta(b) - ab at p = 2
    ctx = RingContext(2, 3, 2)
    g = DeltaElement(ctx, -IntPoly.var("x"))
    d = DeltaElement(ctx, q_int_poly(2, 1))
    pres = envelope_presentation(g, d, 0)
    expected = parse_poly("(1+q^2)*w1 - q*w0^2 - (1+q)*x*w0")
    assert pres.relations[0].poly == expected
    # independent oracle: delta(d*w0) via the product rule with delta(d) = -q
    dd = delta_map(d).poly
    oracle = (
        d.poly**2 * IntPoly.var("w1")
        + IntPoly.var("w0", 2) * dd
        + IntPoly.const(2) * dd * IntPoly.var("w1")
        - IntPoly.var("x") * d.poly * IntPoly.var("w0")
    )
    assert pres.relations[0].poly == oracle


def test_envelope_degenerate_relation():
    ctx = RingContext(2, 3, 2)
    g = DeltaElement(ctx, IntPoly())
    d = DeltaElement(ctx, q_int_poly(2, 1))
    pres = envelope_presentation(g, d, 0)
    assert pres.relations[0].poly == d.poly * IntPoly.var("w0")


def test_envelope_iterates_are_deltas():
    ctx = RingContext(2, 4, 2)
    g = DeltaElement(ctx, IntPoly.var("q"))
    d = DeltaElement(ctx, q_int_poly(2, 1))
    pres = envelope_presentation(g, d, 2)
    assert len(pres.relations) == 3
    assert pres.relations[1].poly == delta_map(pres.relations[0]).poly
    assert pres.relations[2].poly == delta_map(pres.relations[1]).poly


def test_envelope_unit_multiple_reduces():
    # g = d*h with h a unit: the relation ideal contains w0 - h up to units,
    # checked at K=1 by substituting w0 = h and x = 0 into every relation
    ctx = RingContext(2, 4, 2)
    h = IntPoly.const(3)
    d = DeltaElement(ctx, q_int_poly(2, 1))
    g = DeltaElement(ctx, d.poly * h)
    pres = envelope_presentation(g, d, 1)
    for rel in pres.relations:
        subbed = rel.poly.substitute({"w0": h, "w1": delta_map(DeltaElement(ctx, h)).poly})
        assert subbed.is_zero()


def test_envelope_requires_precision():
    ctx = RingContext(2, 2, 2)
    g = DeltaElement(ctx, -IntPoly.var("x"))
    d = DeltaElement(ctx, q_int_poly(2, 1))
    with pytest.raises(PrecisionExhausted):
        envelope_presentation(g, d, 3)


def test_reduce_to_w_rejects_x():
    ctx = RingContext(2, 2, 2)
    with pytest.raises(InvalidArgs):
        elem(ctx, "x").reduce_to_w()


def test_w_delta_and_frobenius_match_the_truncated_oracle():
    rng = random.Random(13)
    for p in (2, 3, 5, 7):
        for n in range(1, 5):
            for m in range(1, 6):
                ctx = RingContext(p, n, m)
                up = RingContext(p, n + 1, m)
                trunc = _TruncatedDelta(ctx)
                for _ in range(8):
                    u = tuple(rng.randrange(trunc.mod) for _ in range(m))
                    w = WScalar(up, u)
                    assert w_delta(w, w**p).coeffs == trunc.delta(u), (p, n, m, u)
                    assert w.frobenius().coeffs == trunc.phi(u), (p, n, m, u)
                    low = WScalar(ctx, u).frobenius().coeffs
                    assert low == tuple(c % ctx.pn for c in trunc.phi(u)), (p, n, m, u)


def test_frobenius_matrix_matches_the_power_construction():
    # the W-Frobenius of the descent legs, as cartier.semilinear_frobenius built it
    for p in (2, 3, 5, 7):
        for n in range(1, 4):
            for m in range(1, 6):
                ctx = RingContext(p, n, m)
                phi_t = WScalar.q(ctx) ** p - WScalar.one(ctx)
                w_frobenius = np.array([(phi_t**i).coeffs for i in range(ctx.m_prec)], dtype=np.int64).T
                assert np.array_equal(np.array(frobenius_matrix(ctx), dtype=np.int64), w_frobenius)


def _scalar_sweep(p, n, m):
    up = RingContext(p, n + 1, m)
    rng = random.Random(p * 100 + n * 10 + m)
    pairs = [
        tuple(WScalar(up, [rng.randrange(up.pn) for _ in range(m)]) for _ in range(2))
        for _ in range(20)
    ]
    return up, pairs, p ** (n - 1)


def test_law_defects_vanish_for_delta_and_not_for_a_corrupted_delta():
    for p in (2, 3, 5):
        # WScalar carrier: the bulk sweep's ring W(p, N+1, M)
        up, pairs, mod = _scalar_sweep(p, 3, 3)
        one = WScalar.one(up)
        for delta, holds in ((w_delta, True), (lambda f, f_p: w_delta(f, f_p) + one, False)):
            defects = [_law_defects(a, b, delta, p) for a, b in pairs]
            product_bad = [any(c % mod for c in d[0].coeffs) for d in defects]
            sum_bad = [any(c % mod for c in d[1].coeffs) for d in defects]
            if holds:
                assert not any(product_bad) and not any(sum_bad), p
            else:
                # delta + 1 shifts the sum law by -1 on every pair
                assert all(sum_bad) and any(product_bad), p
        # IntPoly carrier: exact lifts with the coordinate x
        ctx = RingContext(p, 3, 2)
        mod = p ** (ctx.n_prec - 1)
        rng = random.Random(p)
        lifts = [(_random_lift(rng, ctx), _random_lift(rng, ctx)) for _ in range(6)]

        def exact_delta(f, f_p):
            return _delta_poly(ctx, f, f_p)

        # WPoly carrier: the same lifts, one lane per pair, over W(p, N, M)
        a, b = (_batch_of([pair[side] for pair in lifts], ctx) for side in (0, 1))
        batch_delta = WPoly.delta
        for (delta, bdelta), holds in (
            ((exact_delta, batch_delta), True),
            ((lambda f, f_p: exact_delta(f, f_p) + 1, _batch_delta_corrupted(plus_f=False)), False),
        ):
            defects = [_law_defects(a, b, delta, p) for a, b in lifts]
            product_bad = [not _congruent(d[0], mod, ctx) for d in defects]
            sum_bad = [not _congruent(d[1], mod, ctx) for d in defects]
            if holds:
                assert not any(product_bad) and not any(sum_bad), p
            else:
                assert all(sum_bad) and any(product_bad), p
            # the batch judges every lane as the IntPoly carrier judges its pair
            batch = _law_defects(a, b, bdelta, p)
            assert [not v for v in batch[0].vanishes(mod)] == product_bad, p
            assert [not v for v in batch[1].vanishes(mod)] == sum_bad, p


def _batch_of(polys, ring):
    """The lifts a0 + a1 x, a0 and a1 in Z[q], as one WPoly over ring:
    the t-coordinates of each x-slice in W."""
    coeffs = np.zeros((2, ring.m_prec, len(polys)), dtype=np.int64)
    for lane, poly in enumerate(polys):
        for xdeg, slc in poly.split_by_degree("x").items():
            coeffs[xdeg, :, lane] = WScalar.from_int_poly(ring, slc).coeffs
    return WPoly(ring, coeffs)


def test_axiom_suite_fails_with_a_wrong_frobenius(monkeypatch):
    contexts = [RingContext(2, 2, 2), RingContext(3, 3, 3)]
    assert run_axiom_suite(contexts, samples=50)["ok"]
    monkeypatch.setattr(WScalar, "frobenius", lambda self: self)
    suite = run_axiom_suite(contexts, samples=50)
    assert not suite["ok"]
    for entry in suite["contexts"]:
        assert entry["product_law"] is False, entry["context"]


def test_axiom_suite_fails_with_a_wrong_delta_on_the_exact_carrier_alone(monkeypatch):
    # w_delta is untouched, so the bulk sweep passes and every failure below
    # comes from the exact sweep
    contexts = [RingContext(p, n, m) for p in (2, 3, 5) for n in (2, 3) for m in (2, 3)]
    # delta + 1 breaks the sum law, and the product law too on most pairs;
    # the first failing pair names one of them
    monkeypatch.setattr(WPoly, "delta", _batch_delta_corrupted(plus_f=False))
    for entry in run_axiom_suite(contexts, samples=50)["contexts"]:
        assert not (entry["product_law"] and entry["sum_law"]), entry["context"]
    # delta = 0 makes phi(f) = f^p, multiplicative but not additive: only the
    # sum law fails, in every context
    monkeypatch.setattr(WPoly, "delta", lambda f, f_p: f_p * 0)
    for entry in run_axiom_suite(contexts, samples=50)["contexts"]:
        assert entry["product_law"] is True and entry["sum_law"] is False, entry["context"]


def _states_after(sweep, ctx, samples, seed):
    rng = random.Random(seed)
    verdict = sweep(ctx, samples, rng)
    return verdict, rng.getstate()


def test_bulk_sweep_matches_the_per_pair_oracle(monkeypatch):
    # a small chunk puts the sample counts on both sides of chunk boundaries
    monkeypatch.setattr(delta_ring, "SWEEP_CHUNK", 7)
    counts = itertools.cycle((0, 1, 6, 7, 8, 15, 23))
    for p in (2, 3, 5, 7):
        for n in range(1, 5):
            for m in range(1, 6):
                ctx = RingContext(p, n, m)
                samples = next(counts)
                seed = p * 100 + n * 10 + m
                got = _states_after(delta_ring._bulk_sweep, ctx, samples, seed)
                want = _states_after(per_pair_sweep, ctx, samples, seed)
                assert got == want, (p, n, m, samples)
                assert got[0] == (True, True)


def test_bulk_sweep_matches_the_oracle_past_one_full_chunk():
    ctx = RingContext(2, 2, 2)
    samples = delta_ring.SWEEP_CHUNK + 5
    assert _states_after(delta_ring._bulk_sweep, ctx, samples, 1) == _states_after(
        per_pair_sweep, ctx, samples, 1
    )


def _delta_corrupted_at(lane, only_lanes=None):
    """w_delta plus 1 in the t^0 coordinate of one lane of a batch, in batches
    of `only_lanes` lanes if given.  delta + 1 shifts the sum law by -1."""

    def corrupted(u, u_p):
        d = w_delta(u, u_p)
        c0 = d.coeffs[0].copy()
        if only_lanes is None or c0.size == only_lanes:
            c0[lane] += 1
        return WScalar(d.ctx, (c0,) + d.coeffs[1:])

    return corrupted


def test_bulk_sweep_catches_a_delta_corrupted_on_one_lane(monkeypatch):
    monkeypatch.setattr(delta_ring, "SWEEP_CHUNK", 7)
    for p in (2, 3, 5, 7):
        for n, m in ((2, 1), (3, 3), (4, 5)):
            ctx = RingContext(p, n, m)
            seed = p + n + m
            # the last pair of 25 sits alone in the tail chunk of 4 lanes: the
            # sweep reaches it, having drawn every pair
            monkeypatch.setattr(delta_ring, "w_delta", _delta_corrupted_at(3, only_lanes=4))
            verdict, state = _states_after(delta_ring._bulk_sweep, ctx, 25, seed)
            assert verdict[1] is False, (p, n, m)
            assert state == _states_after(per_pair_sweep, ctx, 25, seed)[1]
            # a lane of every chunk: the sweep stops after the first chunk
            monkeypatch.setattr(delta_ring, "w_delta", _delta_corrupted_at(2))
            verdict, state = _states_after(delta_ring._bulk_sweep, ctx, 25, seed)
            assert verdict[1] is False, (p, n, m)
            assert state == _states_after(per_pair_sweep, ctx, 7, seed)[1]


def test_exact_sweep_matches_the_per_pair_oracle():
    counts = itertools.cycle((40, 0, 1, 6, 13))
    for p in (2, 3, 5, 7):
        for n in range(1, 5):
            for m in range(1, 6):
                ctx = RingContext(p, n, m)
                samples = next(counts)
                seed = p * 100 + n * 10 + m
                got = _states_after(delta_ring._exact_sweep, ctx, samples, seed)
                assert got == _states_after(per_pair_exact_sweep, ctx, samples, seed), (p, n, m)
                assert got[0] == (True, True)


@pytest.mark.parametrize("p, n, m", [(2, 30, 5), (2, 30, 6), (2, 31, 5), (2, 31, 6), (3, 20, 4)])
def test_exact_sweep_matches_the_oracle_across_the_int64_boundary(p, n, m):
    # P = 2^30 runs on int64 and P = 2^31 (and 3^20) on Python ints
    ring = RingContext(p, max(n, 2), m)
    assert lane_dtype(ring) is (np.int64 if ring.pn == 2**30 else object)
    for seed in (1, 2):
        ctx = RingContext(p, n, m)
        got = _states_after(delta_ring._exact_sweep, ctx, delta_ring.EXACT_SAMPLES, seed)
        assert got == _states_after(per_pair_exact_sweep, ctx, delta_ring.EXACT_SAMPLES, seed)


def test_wx_batch_arithmetic_agrees_in_int64_and_object():
    # W(3, 19, 6) is the last int64 ring at p 3, M = 6; residues p^N - 1 put
    # every product term at its largest, so a product must reduce between
    # positions (an odd modulus, as a wrap mod 2^64 is harmless mod 2^N)
    ring = RingContext(3, 19, 6)
    assert lane_dtype(RingContext(3, 20, 6)) is object
    assert lane_dtype(ring) is np.int64
    rng = np.random.default_rng(7)
    draws = rng.integers(0, ring.pn, size=(4, ring.m_prec, 3))
    draws[:, :, 0] = ring.pn - 1
    batches = [WPoly(ring, draws.astype(dtype)) for dtype in (np.int64, object)]
    results = [
        (b * b, b**3, b.frobenius(), b * (2**70 + 3), b + b * b - b.frobenius())
        for b in batches
    ]
    for native, python_ints in zip(*results):
        assert native.coeffs.dtype == np.int64
        assert np.array_equal(native.coeffs, python_ints.coeffs.astype(np.int64))


def _batch_delta_corrupted(plus_f, lane=None):
    """WPoly.delta plus f (additive: breaks only the product law) or plus 1
    (breaks the sum law), on every lane or on one."""
    delta = WPoly.delta

    def corrupted(f, f_p):
        extra = f.coeffs.copy() if plus_f else np.zeros_like(f.coeffs)
        if not plus_f:
            extra[0, 0] = 1
        if lane is not None:
            extra[..., np.arange(extra.shape[-1]) != lane] = 0
        return delta(f, f_p) + WPoly(f.ctx, extra)

    return corrupted


def _oracle_delta_corrupted(plus_f, pair=None):
    """The oracle's delta with the same corruption; each pair makes four
    delta calls (a, b, ab, a + b), so the call count names the pair."""
    delta = delta_oracle._delta_poly
    calls = itertools.count()

    def corrupted(ctx, poly, poly_p):
        d = delta(ctx, poly, poly_p)
        if next(calls) // 4 != pair and pair is not None:
            return d
        return d + poly if plus_f else d + 1

    return corrupted


def test_exact_sweep_matches_the_oracle_under_a_corrupted_delta(monkeypatch):
    verdicts = set()
    for p in (2, 3, 5, 7):
        for n, m in ((2, 2), (3, 4)):
            ctx = RingContext(p, n, m)
            for plus_f in (False, True):
                for pair in (None, 0, 9, 39):
                    seed = p + n + m + pair if pair is not None else p
                    monkeypatch.setattr(WPoly, "delta", _batch_delta_corrupted(plus_f, pair))
                    got = _states_after(delta_ring._exact_sweep, ctx, 40, seed)[0]
                    monkeypatch.undo()
                    monkeypatch.setattr(delta_oracle, "_delta_poly", _oracle_delta_corrupted(plus_f, pair))
                    want = _states_after(per_pair_exact_sweep, ctx, 40, seed)[0]
                    monkeypatch.undo()
                    assert got == want, (p, n, m, plus_f, pair)
                    # delta + f is additive, so the sum law holds under it;
                    # on one pair its product defect may still vanish
                    if plus_f:
                        assert got[1] is True, (p, n, m, pair)
                    if pair is None:
                        assert got != (True, True), (p, n, m, plus_f)
                    verdicts.add(got)
    # between them the corruptions name each law on some pair
    assert {(False, True), (True, False)} <= verdicts


def test_q_pascal_catches_a_corrupted_triangle(monkeypatch):
    contexts = [RingContext(2, 2, 2), RingContext(3, 2, 2)]
    assert run_axiom_suite(contexts, samples=5)["ok"]
    build = delta_ring.q_binomial_rows

    def corrupted(n, r=1):
        rows = build(n, r)
        rows[7][3] = rows[7][3] + IntPoly.var("q", 2)
        return rows

    monkeypatch.setattr(delta_ring, "q_binomial_rows", corrupted)
    suite = run_axiom_suite(contexts, samples=5)
    assert not suite["ok"]
    for entry in suite["contexts"]:
        assert entry["q_pascal"] is False
        assert entry["product_law"] and entry["sum_law"]


# the batch runs in Python ints past M * (p^N)^2 < 2^63
_PYTHON_INT_CONTEXTS = [RingContext(97, 5, 2), RingContext(2, 31, 3), RingContext(3, 20, 5)]


def _q_multiplicative_contexts():
    grid = [RingContext(p, n, m) for p in (2, 3, 5, 7, 97) for n in range(1, 5) for m in range(1, 6)]
    assert all(lane_dtype(ctx) is np.int64 for ctx in grid)
    assert all(lane_dtype(ctx) is object for ctx in _PYTHON_INT_CONTEXTS)
    return grid + _PYTHON_INT_CONTEXTS


def test_q_multiplicative_batch_matches_the_per_pair_oracle():
    for ctx in _q_multiplicative_contexts():
        assert delta_ring._q_multiplicative(ctx) is per_pair_q_multiplicative(ctx) is True, ctx


def _product_corrupted_at(lane):
    """WScalar.__mul__ plus 1 in the t^0 coordinate of one lane of the
    156-lane batches, and untouched on everything else."""
    mul = WScalar.__mul__

    def corrupted(self, other):
        out = mul(self, other)
        c0 = out.coeffs[0]
        if not isinstance(c0, np.ndarray) or c0.size != 156:
            return out
        c0 = c0.copy()
        c0[lane] += 1
        return WScalar(out.ctx, (c0,) + out.coeffs[1:])

    return corrupted


def test_q_multiplicative_batch_catches_one_corrupted_pair(monkeypatch):
    rng = random.Random(2029)
    for ctx in _q_multiplicative_contexts():
        # pairs (1, 0), (12, 12) and one drawn; lane (m - 1) * 13 + n
        for lane in (0, 155, rng.randrange(156)):
            monkeypatch.setattr(WScalar, "__mul__", _product_corrupted_at(lane))
            assert delta_ring._q_multiplicative(ctx) is False, (ctx, lane)
            monkeypatch.undo()
            # the oracle's scalar products are untouched by the corruption
            assert per_pair_q_multiplicative(ctx) is True


@pytest.mark.parametrize(
    "p, n, m, lanes",
    # the bulk sweep runs in W(p, N+1, M): int64 while M * p^(2N+2) < 2^63
    [(2, 29, 2, np.int64), (2, 30, 2, object), (2, 29, 5, np.int64), (2, 30, 5, object),
     (3, 18, 5, np.int64), (3, 19, 5, object), (97, 2, 2, np.int64), (97, 2, 3, np.int64)],
)
def test_bulk_sweep_lanes_agree_in_int64_and_object(monkeypatch, p, n, m, lanes):
    ctx = RingContext(p, n, m)
    up = RingContext(p, n + 1, m)
    assert lane_dtype(up) is lanes
    samples = 9 if p == 97 else 30
    for seed in (1, 2):
        for corrupt in (False, True):
            if corrupt:
                monkeypatch.setattr(delta_ring, "w_delta", _delta_corrupted_at(samples - 1))
            native = _states_after(delta_ring._bulk_sweep, ctx, samples, seed)
            monkeypatch.setattr(delta_ring, "lane_dtype", lambda ctx: object)
            python_ints = _states_after(delta_ring._bulk_sweep, ctx, samples, seed)
            monkeypatch.undo()
            assert native == python_ints, (seed, corrupt)
            if corrupt:
                # delta + 1 on the last lane breaks the sum law there
                assert native[0][1] is False
            else:
                assert native[0] == (True, True)
            assert native[1] == _states_after(per_pair_sweep, ctx, samples, seed)[1]
