import random

import pytest

from qprism.base_ring import RingContext, WScalar, q_int, q_power, w_invert
from qprism.cartier import flatten_connection
from qprism.errors import InvalidArgs, RankMismatch
from qprism.twisted_calculus import (
    ConnectionModule,
    QPolynomial,
    connection_apply,
    quasi_nilpotence_check,
    sigma,
    twisted_derive,
)


def sigma_inverse(f: QPolynomial, power: int = 1) -> QPolynomial:
    """x -> q^(-power) x, the inverse of `sigma`."""
    qinv = w_invert(q_power(f.ctx, power))
    return QPolynomial(f.ctx, {d: w * qinv**d for d, w in f.coeffs.items()}, f.window)


def random_qpoly(rng, ctx, max_deg, window=None):
    # Leibniz-style identities are exact on the full polynomial model;
    # quotient windows lose cross terms, so tests pass window only when
    # the operator under test is degree-stable.
    coeffs = {}
    for d in range(max_deg + 1):
        if rng.random() < 0.6:
            coeffs[d] = WScalar(ctx, [rng.randrange(ctx.pn) for _ in range(ctx.m_prec)])
    return QPolynomial(ctx, coeffs, window)


def test_derive_level0_monomial():
    ctx = RingContext(2, 2, 2)
    out = twisted_derive(QPolynomial.x(ctx, 3), 0)
    assert out == QPolynomial.monomial(q_int(3, 1, ctx), 2)


def test_derive_level_minus1_monomial():
    ctx = RingContext(2, 2, 2)
    out = twisted_derive(QPolynomial.x(ctx, 2), -1)
    assert out == QPolynomial.monomial(q_int(2, ctx.p, ctx), 1)


def test_derive_leibniz_cross_check():
    # d_q(x * x) = d_q(x) x + sigma(x) d_q(x) = (1 + q) x = (2)_q x
    ctx = RingContext(3, 2, 2)
    x = QPolynomial.x(ctx)
    lhs = twisted_derive(x * x, 0)
    rhs = twisted_derive(x, 0) * x + sigma(x) * twisted_derive(x, 0)
    assert lhs == rhs == QPolynomial.monomial(q_int(2, 1, ctx), 1)


def test_twisted_leibniz_sampled():
    rng = random.Random(43)
    for level, twist in ((0, 1), (-1, 3)):
        ctx = RingContext(3, 2, 2)
        for _ in range(40):
            f = random_qpoly(rng, ctx, 3)
            g = random_qpoly(rng, ctx, 3)
            lhs = twisted_derive(f * g, level)
            rhs = twisted_derive(f, level) * g + sigma(f, twist) * twisted_derive(
                g, level
            )
            assert lhs == rhs


def test_sigma_automorphism():
    rng = random.Random(47)
    ctx = RingContext(2, 2, 3)
    for _ in range(30):
        f = random_qpoly(rng, ctx, 4)
        g = random_qpoly(rng, ctx, 4)
        assert sigma(f * g) == sigma(f) * sigma(g)
        assert sigma_inverse(sigma(f)) == f
        # sigma is the identity modulo (q - 1)
        small = RingContext(ctx.p, ctx.n_prec, 1)
        reduced = f.map_scalars(lambda w: w.reduce_to(small))
        twisted = sigma(f).map_scalars(lambda w: w.reduce_to(small))
        assert QPolynomial(small, reduced.coeffs, f.window) == QPolynomial(
            small, twisted.coeffs, f.window
        )


def test_connection_trivial_level_minus1():
    ctx = RingContext(2, 2, 2)
    m = ConnectionModule.trivial(ctx, 1, -1)
    out = connection_apply(m, [QPolynomial.x(ctx, 2)])
    expected = QPolynomial.monomial(q_int(ctx.p, 1, ctx) * q_int(2, ctx.p, ctx), 1)
    assert out == [expected]


def test_connection_zero_section():
    ctx = RingContext(2, 2, 2)
    m = ConnectionModule(
        ctx, 2, 0, [[QPolynomial.x(ctx)] * 2, [QPolynomial.one(ctx)] * 2]
    )
    out = connection_apply(m, [QPolynomial.zero(ctx)] * 2)
    assert all(c.is_zero() for c in out)


def test_connection_trivial_level0_x():
    ctx = RingContext(2, 2, 2)
    m = ConnectionModule.trivial(ctx, 1, 0)
    assert connection_apply(m, [QPolynomial.x(ctx)]) == [QPolynomial.one(ctx)]


def test_connection_leibniz_level0():
    rng = random.Random(53)
    ctx = RingContext(2, 2, 2)
    theta = [[random_qpoly(rng, ctx, 3) for _ in range(2)] for _ in range(2)]
    m = ConnectionModule(ctx, 2, 0, theta)
    for _ in range(25):
        f = random_qpoly(rng, ctx, 3)
        s = [random_qpoly(rng, ctx, 3) for _ in range(2)]
        lhs = connection_apply(m, [f * c for c in s])
        ds = connection_apply(m, s)
        rhs = [twisted_derive(f, 0) * c + sigma(f) * d for c, d in zip(s, ds)]
        assert lhs == rhs


def test_connection_leibniz_level_minus1():
    rng = random.Random(59)
    ctx = RingContext(3, 2, 2)
    theta = [[random_qpoly(rng, ctx, 3)]]
    m = ConnectionModule(ctx, 1, -1, theta)
    pq = q_int(ctx.p, 1, ctx)
    for _ in range(25):
        f = random_qpoly(rng, ctx, 3)
        s = [random_qpoly(rng, ctx, 3)]
        lhs = connection_apply(m, [f * s[0]])
        ds = connection_apply(m, s)
        rhs = [twisted_derive(f, -1) * pq * s[0] + sigma(f, ctx.p) * ds[0]]
        assert lhs == rhs


def test_rank_mismatch():
    ctx = RingContext(2, 2, 2)
    m = ConnectionModule.trivial(ctx, 2, 0)
    with pytest.raises(RankMismatch):
        connection_apply(m, [QPolynomial.one(ctx)])


def test_nilpotence_zero_connection():
    ctx = RingContext(2, 2, 2)
    m = ConnectionModule.trivial(ctx, 2, 0, window=3)
    report = quasi_nilpotence_check(flatten_connection(m), m.rank, 5)
    assert report.nilpotent and report.witness == [1, 1]


def test_nilpotence_qminus1_x_twist():
    ctx = RingContext(2, 2, 2)
    theta = [[QPolynomial.parse(ctx, "(q-1)*x", 4)]]
    m = ConnectionModule(ctx, 1, 0, theta, window=4)
    report = quasi_nilpotence_check(flatten_connection(m), m.rank, 10)
    assert report.nilpotent
    k = report.witness[0]
    # oracle: iterate through the flattened matrix power independently
    import numpy as np

    from qprism.homology import flatten_operator

    op = flatten_operator(
        ctx, 1, 4, 1, 4, lambda j, d: connection_apply(m, _basis(ctx, 1, 4, j, d))
    )
    power = np.eye(op.entries.shape[0], dtype=np.int64)
    for _ in range(k):
        power = (op.entries @ power) % ctx.pn
    col = power[:, _flat_index(ctx, 4, 0, 0)]
    assert not col.any()


def _basis(ctx, rank, window, j, d):
    return [
        QPolynomial.x(ctx, d, window) if i == j else QPolynomial.zero(ctx, window)
        for i in range(rank)
    ]


def _flat_index(ctx, window, j, d):
    return (j * (window + 1) + d) * ctx.m_prec


def test_nilpotence_unit_connection_fails():
    ctx = RingContext(2, 2, 2)
    theta = [[QPolynomial.one(ctx, 3)]]
    m = ConnectionModule(ctx, 1, 0, theta, window=3)
    report = quasi_nilpotence_check(flatten_connection(m), m.rank, 8)
    assert not report.nilpotent
    assert report.witness == [None]


def test_nilpotence_monotone_under_truncation():
    # nilpotent at (N, M) stays nilpotent at smaller (N', M')
    big = RingContext(2, 3, 3)
    small = RingContext(2, 2, 2)
    theta = [[QPolynomial.parse(big, "(q-1)*x+2", 4)]]
    m = ConnectionModule(big, 1, 0, theta, window=4)
    rep = quasi_nilpotence_check(flatten_connection(m), m.rank, 12)
    assert rep.nilpotent
    rep_small = quasi_nilpotence_check(flatten_connection(m.reduce_to(small)), m.rank, 12)
    assert rep_small.nilpotent
    assert all(
        ws <= wb for ws, wb in zip(rep_small.witness, rep.witness)
    )


def test_window_required_for_nilpotence():
    ctx = RingContext(2, 2, 2)
    m = ConnectionModule.trivial(ctx, 1, 0)
    with pytest.raises(InvalidArgs):
        quasi_nilpotence_check(flatten_connection(m), m.rank, 3)

