import itertools
import random

import numpy as np
import pytest

import qpoly_oracle as oracle
from qpoly_oracle import QConnection, QPolynomial, applied, to_qpolys, to_wpoly
from qprism.base_ring import RingContext, WPoly, WScalar, q_int, q_power, w_invert
from qprism.cartier import flatten_connection, level_raise, raised_window
from qprism.errors import InvalidArgs, RankMismatch
from qprism.homology import flatten_operator
from qprism.twisted_calculus import ConnectionModule, connection_apply, quasi_nilpotence_check


def x(ctx, d=1, lanes=()):
    """x^d in every lane."""
    out = WPoly.zeros(ctx, lanes, d + 1)
    out.coeffs[d, 0] = 1
    return out


def monomial(w: WScalar, d: int) -> WPoly:
    out = WPoly.zeros(w.ctx, (), d + 1)
    out.coeffs[d] = w.coeffs
    return out


def random_wpoly(rng, ctx, max_deg, lanes=()):
    """Coefficients of degree <= max_deg, each zero with odds 0.4."""
    shape = (max_deg + 1, ctx.m_prec) + lanes
    coeffs = np.array([rng.randrange(ctx.pn) for _ in range(np.prod(shape))]).reshape(shape)
    keep = np.array([rng.random() < 0.6 for _ in range(np.prod(shape[:1] + lanes))])
    coeffs *= keep.reshape(shape[:1] + (1,) + lanes)
    return WPoly(ctx, coeffs)


def same(a: WPoly, b: WPoly) -> bool:
    """Equal as polynomials: the shorter array read with zeros appended."""
    n = max(len(a.coeffs), len(b.coeffs))

    def padded(c):
        return np.concatenate([c, np.zeros((n - len(c),) + c.shape[1:], dtype=c.dtype)])

    return a.coeffs.shape[1:] == b.coeffs.shape[1:] and np.array_equal(
        padded(a.coeffs), padded(b.coeffs)
    )


def sigma_inverse(f: WPoly, power: int = 1) -> WPoly:
    """x -> q^(-power) x, the inverse of `WPoly.sigma`, lane by lane with
    batched WScalars."""
    qinv = w_invert(q_power(f.ctx, power))
    out = f.coeffs.copy()
    for d in range(len(out)):
        out[d] = np.array((WScalar(f.ctx, out[d]) * qinv**d).coeffs)
    return WPoly(f.ctx, out)


def test_derive_level0_monomial():
    ctx = RingContext(2, 2, 2)
    assert same(x(ctx, 3).derive(1), monomial(q_int(3, 1, ctx), 2))


def test_derive_level_minus1_monomial():
    ctx = RingContext(2, 2, 2)
    assert same(x(ctx, 2).derive(ctx.p), monomial(q_int(2, ctx.p, ctx), 1))


def test_derive_leibniz_cross_check():
    # d_q(x * x) = d_q(x) x + sigma(x) d_q(x) = (1 + q) x = (2)_q x
    ctx = RingContext(3, 2, 2)
    lhs = (x(ctx) * x(ctx)).derive()
    rhs = x(ctx).derive() * x(ctx) + x(ctx).sigma() * x(ctx).derive()
    assert same(lhs, rhs) and same(lhs, monomial(q_int(2, 1, ctx), 1))


def test_twisted_leibniz_sampled():
    # 40 pairs per level, one lane each: d(fg) = d(f) g + sigma^r(f) d(g)
    # with r = 1 at level 0 and r = p at level -1
    rng = random.Random(43)
    ctx = RingContext(3, 2, 2)
    for r in (1, ctx.p):
        f, g = (random_wpoly(rng, ctx, 3, (40,)) for _ in range(2))
        assert same((f * g).derive(r), f.derive(r) * g + f.sigma(r) * g.derive(r))


def test_sigma_automorphism():
    rng = random.Random(47)
    ctx = RingContext(2, 2, 3)
    f, g = (random_wpoly(rng, ctx, 4, (30,)) for _ in range(2))
    assert same((f * g).sigma(), f.sigma() * g.sigma())
    assert same(sigma_inverse(f.sigma()), f)
    # sigma is the identity modulo (q - 1): the t^0 coordinates agree
    assert np.array_equal(f.sigma().coeffs[:, 0], f.coeffs[:, 0])


def test_connection_trivial_level_minus1():
    ctx = RingContext(2, 2, 2)
    m = ConnectionModule.trivial(ctx, 1, -1)
    out = connection_apply(m, x(ctx, 2, (1,)))
    expected = monomial(q_int(ctx.p, 1, ctx) * q_int(2, ctx.p, ctx), 1)
    assert same(out, WPoly(ctx, expected.coeffs[..., None]))


def test_connection_zero_section():
    ctx = RingContext(2, 2, 2)
    theta = WPoly.zeros(ctx, (2, 2), 2)
    theta.coeffs[1, 0, 0] = theta.coeffs[0, 0, 1] = 1  # [[x, x], [1, 1]]
    m = ConnectionModule(ctx, 2, 0, theta)
    assert not connection_apply(m, WPoly.zeros(ctx, (2,))).coeffs.any()


def test_connection_trivial_level0_x():
    ctx = RingContext(2, 2, 2)
    m = ConnectionModule.trivial(ctx, 1, 0)
    assert same(connection_apply(m, x(ctx, 1, (1,))), x(ctx, 0, (1,)))


def test_connection_leibniz_level0():
    # theta(f s) = d_q(f) s + sigma(f) theta(s), 25 pairs (f, s); f is
    # repeated on both components of s
    rng = random.Random(53)
    ctx = RingContext(2, 2, 2)
    theta = random_wpoly(rng, ctx, 3, (2, 2))
    m = ConnectionModule(ctx, 2, 0, theta)
    f, s = random_wpoly(rng, ctx, 3, (25, 1)), random_wpoly(rng, ctx, 3, (25, 2))
    for k in range(25):
        fk = WPoly(ctx, np.repeat(f.coeffs[..., k, :], 2, axis=-1))
        sk = WPoly(ctx, s.coeffs[..., k, :])
        lhs = connection_apply(m, fk * sk)
        rhs = fk.derive() * sk + fk.sigma() * connection_apply(m, sk)
        assert same(lhs, rhs), k


def test_connection_leibniz_level_minus1():
    rng = random.Random(59)
    ctx = RingContext(3, 2, 2)
    m = ConnectionModule(ctx, 1, -1, random_wpoly(rng, ctx, 3, (1, 1)))
    pq = q_int(ctx.p, 1, ctx)
    for _ in range(25):
        f, s = random_wpoly(rng, ctx, 3, (1,)), random_wpoly(rng, ctx, 3, (1,))
        lhs = connection_apply(m, f * s)
        rhs = f.derive(ctx.p) * pq * s + f.sigma(ctx.p) * connection_apply(m, s)
        assert same(lhs, rhs)


def test_rank_mismatch():
    ctx = RingContext(2, 2, 2)
    m = ConnectionModule.trivial(ctx, 2, 0)
    with pytest.raises(RankMismatch):
        connection_apply(m, x(ctx, 0, (1,)))
    with pytest.raises(RankMismatch):
        ConnectionModule(ctx, 2, 0, WPoly.zeros(ctx, (2, 1)))


def test_nilpotence_zero_connection():
    ctx = RingContext(2, 2, 2)
    m = ConnectionModule.trivial(ctx, 2, 0, window=3)
    report = quasi_nilpotence_check(flatten_connection(m), m.rank, 5)
    assert report.nilpotent and report.witness == [1, 1]


def _parsed(ctx, text, window):
    """A rank-1 connection matrix parsed by the oracle."""
    return to_wpoly(ctx, [[QPolynomial.parse(ctx, text, window)]])


def test_nilpotence_qminus1_x_twist():
    ctx = RingContext(2, 2, 2)
    m = ConnectionModule(ctx, 1, 0, _parsed(ctx, "(q-1)*x", 4), window=4)
    report = quasi_nilpotence_check(flatten_connection(m), m.rank, 10)
    assert report.nilpotent
    k = report.witness[0]
    # oracle: iterate through the flattened matrix power independently
    op = flatten_operator(ctx, 1, 4, 1, 4, lambda j, d: connection_apply(m, x(ctx, d, (1,))))
    power = np.eye(op.entries.shape[0], dtype=np.int64)
    for _ in range(k):
        power = (op.entries @ power) % ctx.pn
    assert not power[:, 0].any()


def test_nilpotence_unit_connection_fails():
    ctx = RingContext(2, 2, 2)
    m = ConnectionModule(ctx, 1, 0, _parsed(ctx, "1", 3), window=3)
    report = quasi_nilpotence_check(flatten_connection(m), m.rank, 8)
    assert not report.nilpotent
    assert report.witness == [None]


def reduce_to(m: ConnectionModule, ctx: RingContext) -> ConnectionModule:
    theta = WPoly(ctx, m.theta.coeffs[:, : ctx.m_prec] % ctx.pn)
    return ConnectionModule(ctx, m.rank, m.level, theta, m.window)


def test_nilpotence_monotone_under_truncation():
    # nilpotent at (N, M) stays nilpotent at smaller (N', M')
    big = RingContext(2, 3, 3)
    small = RingContext(2, 2, 2)
    m = ConnectionModule(big, 1, 0, _parsed(big, "(q-1)*x+2", 4), window=4)
    rep = quasi_nilpotence_check(flatten_connection(m), m.rank, 12)
    assert rep.nilpotent
    rep_small = quasi_nilpotence_check(flatten_connection(reduce_to(m, small)), m.rank, 12)
    assert rep_small.nilpotent
    assert all(
        ws <= wb for ws, wb in zip(rep_small.witness, rep.witness)
    )


def test_window_required_for_nilpotence():
    ctx = RingContext(2, 2, 2)
    m = ConnectionModule.trivial(ctx, 1, 0)
    with pytest.raises(InvalidArgs):
        quasi_nilpotence_check(flatten_connection(m), m.rank, 3)


# --- WPoly against the QPolynomial oracle ------------------------------------------


def _random_qpoly(rng, ctx, max_deg, window=None):
    coeffs = {
        d: WScalar.random(ctx, rng) for d in range(max_deg + 1) if rng.random() < 0.6
    }
    return QPolynomial(ctx, coeffs, window)


def test_wpoly_matches_the_qpolynomial_oracle():
    # every operation of W[x] that the program has, on seeded operands, for
    # p in 2/3/5 and N, M <= 3, unwindowed and at windows 0..4
    cases = 0
    for seed, (p, n, m) in enumerate(itertools.product((2, 3, 5), (1, 2, 3), (1, 2, 3))):
        rng = random.Random(seed)
        ctx = RingContext(p, n, m)
        for window in (None, 0, rng.randrange(1, 5)):
            f, g = (_random_qpoly(rng, ctx, rng.randrange(5), window) for _ in range(2))
            wf, wg = to_wpoly(ctx, f), to_wpoly(ctx, g)
            w = WScalar.random(ctx, rng)

            def agree(got: WPoly, want: QPolynomial) -> bool:
                if window is not None:
                    got = got.rewindow(window)
                return to_qpolys(got, window) == want

            assert agree(wf + wg, f + g) and agree(wf - wg, f - g), (p, n, m, window)
            assert agree(wf * wg, f * g) and agree(wf * w, f * w), (p, n, m, window)
            assert agree(wf * 7, f * 7), (p, n, m, window)
            for r in (1, p):
                assert agree(wf.sigma(r), oracle.sigma(f, r)), (p, n, m, window, r)
            assert agree(wf.derive(1), oracle.twisted_derive(f, 0)), (p, n, m, window)
            assert agree(wf.derive(p), oracle.twisted_derive(f, -1)), (p, n, m, window)
            # connection_apply and level_raise on a seeded connection and section
            rank, level = rng.randint(1, 3), rng.choice((0, -1))
            theta = [[_random_qpoly(rng, ctx, 2, window) for _ in range(rank)] for _ in range(rank)]
            section = [_random_qpoly(rng, ctx, 3, window) for _ in range(rank)]
            conn = oracle.connection(ctx, rank, level, theta, window)
            want = oracle.connection_apply(QConnection(ctx, rank, level, theta, window), section)
            assert applied(conn, section) == want, (p, n, m, window, rank, level)
            if level == -1:
                raised = None if window is None else raised_window(p, window)
                shift = QPolynomial.x(ctx, p - 1, raised)
                want = [[shift * e.substitute_x_power(p, raised) for e in row] for row in theta]
                assert to_qpolys(level_raise(conn).theta, raised) == want, (p, n, m, window)
            cases += 1
    assert cases == 81
