import json
import random
from pathlib import Path

import pytest

from qprism.base_ring import RingContext, WScalar, q_binomial, q_int
from qprism.cli import load_connection_spec
from qprism.divided_poly import (
    DividedElement,
    PrismaticDiffOp,
    comultiply,
    diffop_compose,
    frobenius_omega,
    frobenius_omega_element,
    hyperdiff_extend,
    linearized_differential,
)
from qprism.errors import CapExceeded, RankMismatch, WrongLevel
from qprism.twisted_calculus import ConnectionModule, QPolynomial, connection_apply

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
LEVEL_MINUS_ONE_FIXTURES = sorted(
    path.name
    for path in FIXTURES.glob("*.json")
    if json.loads(path.read_text()).get("level") == -1 and path.name != "bad_rank.json"
)


def test_comultiply_counit():
    assert comultiply(0, 4) == [(0, 0)]


def test_comultiply_k2():
    assert comultiply(2, 4) == [(0, 2), (1, 1), (2, 0)]


def test_comultiply_cap():
    with pytest.raises(CapExceeded):
        comultiply(5, 4)


def test_coassociativity_k3():
    # (delta x id) delta = (id x delta) delta, both with 10 triples
    left = sorted(
        (a, b, j) for i, j in comultiply(3, 8) for a, b in comultiply(i, 8)
    )
    right = sorted(
        (i, a, b) for i, j in comultiply(3, 8) for a, b in comultiply(j, 8)
    )
    assert left == right
    assert len(left) == 10


def test_counit_law():
    # both counit contractions of the comultiplication return the input
    for k in range(6):
        pairs = comultiply(k, 8)
        assert [j for i, j in pairs if i == 0] == [k]
        assert [i for i, j in pairs if j == 0] == [k]


def test_linearized_differential_basis_action():
    ctx = RingContext(2, 2, 2)
    assert linearized_differential(
        DividedElement.generator(ctx, 1, 4)
    ) == DividedElement.unit(ctx, 4)
    assert linearized_differential(
        DividedElement.generator(ctx, 3, 4)
    ) == DividedElement.generator(ctx, 2, 4)
    assert linearized_differential(DividedElement.unit(ctx, 4)).is_zero()


def test_augmented_complex_exactness_bookkeeping():
    # kernel of the linearized differential in degrees <= cap-1 is exactly
    # the unit component
    ctx = RingContext(2, 2, 2)
    cap = 5
    e = DividedElement(
        ctx,
        {k: QPolynomial.one(ctx) for k in range(cap + 1)},
        cap,
    )
    image = linearized_differential(e)
    assert set(image.coeffs) == set(range(cap))


def _const_op(ctx, rank, entries_by_order):
    comps = {}
    for k, scalars in entries_by_order.items():
        comps[k] = tuple(
            tuple(
                QPolynomial.from_scalar(WScalar.from_int(ctx, scalars[i][j]))
                for j in range(rank)
            )
            for i in range(rank)
        )
    return PrismaticDiffOp(ctx, rank, rank, max(entries_by_order), comps)


def test_compose_with_identity():
    ctx = RingContext(2, 2, 2)
    rng = random.Random(61)
    e = _const_op(
        ctx,
        2,
        {
            0: [[rng.randrange(4) for _ in range(2)] for _ in range(2)],
            1: [[rng.randrange(4) for _ in range(2)] for _ in range(2)],
        },
    )
    ident = PrismaticDiffOp.identity(ctx, 2)
    for k in range(e.order_cap + 1):
        assert diffop_compose(ident, e).component(k) == e.component(k)
        assert diffop_compose(e, ident).component(k) == e.component(k)


def test_d_after_d_vanishes_in_one_variable():
    # d: A -> forms has unit component 0 and generator component 1; the
    # second d lands in the rank-zero module of two-forms, so the
    # composite through comultiplication is the zero operator
    ctx = RingContext(2, 2, 2)
    one = QPolynomial.one(ctx)
    z = QPolynomial.zero(ctx)
    d0 = PrismaticDiffOp(ctx, 1, 1, 1, {0: ((z,),), 1: ((one,),)})
    d1 = PrismaticDiffOp(ctx, 1, 0, 1, {})  # two-forms vanish
    composed = diffop_compose(d0, d1)
    assert composed.rank_out == 0
    assert composed.components == {}


def test_compose_associative():
    ctx = RingContext(3, 2, 2)
    rng = random.Random(67)

    def rand_op():
        return _const_op(
            ctx,
            2,
            {
                0: [[rng.randrange(9) for _ in range(2)] for _ in range(2)],
                1: [[rng.randrange(9) for _ in range(2)] for _ in range(2)],
            },
        )

    for _ in range(5):
        a, b, c = rand_op(), rand_op(), rand_op()
        left = diffop_compose(diffop_compose(a, b), c)
        right = diffop_compose(a, diffop_compose(b, c))
        for k in range(left.order_cap + 1):
            assert left.component(k) == right.component(k)


def test_compose_rank_mismatch():
    ctx = RingContext(2, 2, 2)
    a = PrismaticDiffOp.identity(ctx, 2)
    b = PrismaticDiffOp.identity(ctx, 3)
    with pytest.raises(RankMismatch):
        diffop_compose(a, b)


def test_hyperdiff_trivial_connection():
    ctx = RingContext(2, 2, 2)
    m = ConnectionModule.trivial(ctx, 1, -1)
    op = hyperdiff_extend(m)
    assert op.apply(1, [QPolynomial.one(ctx)]) == [QPolynomial.one(ctx)]
    assert op.apply(0, [QPolynomial.one(ctx)]) == [QPolynomial.zero(ctx)]


def test_hyperdiff_constant_twist():
    ctx = RingContext(2, 2, 2)
    c = QPolynomial.parse(ctx, "q")
    m = ConnectionModule(ctx, 1, -1, [[c]])
    op = hyperdiff_extend(m)
    expected = QPolynomial.one(ctx) + QPolynomial.parse(ctx, "(q-1)*x") * c
    assert op.apply(1, [QPolynomial.one(ctx)]) == [expected]


@pytest.mark.parametrize("name", LEVEL_MINUS_ONE_FIXTURES)
def test_hyperdiff_components_match_the_connection_on_basis_sections(name):
    # the connection of e_j is column j of theta, as d_q(1) = 0 and sigma(1) = 1
    conn, _, _ = load_connection_spec(str(FIXTURES / name))
    ctx = conn.ctx
    op = hyperdiff_extend(conn)
    qm1x = QPolynomial.monomial(WScalar.t(ctx), 1)
    for j in range(conn.rank):
        unit = [QPolynomial.one(ctx) if i == j else QPolynomial.zero(ctx) for i in range(conn.rank)]
        image = connection_apply(conn, unit)
        assert [row[j] for row in op.component(0)] == image
        assert [row[j] for row in op.component(1)] == [u + qm1x * c for u, c in zip(unit, image)]


def test_hyperdiff_wrong_level():
    ctx = RingContext(2, 2, 2)
    with pytest.raises(WrongLevel):
        hyperdiff_extend(ConnectionModule.trivial(ctx, 1, 0))


def test_frobenius_omega_p2():
    ctx = RingContext(2, 2, 2)
    terms = frobenius_omega(ctx, 4)
    assert len(terms) == 2
    pq = q_int(2, 1, ctx)
    assert terms[0].coefficient == QPolynomial.monomial(pq, 1)
    assert terms[0].divided_degree == 2
    assert terms[1].coefficient == QPolynomial.from_scalar(pq * pq)
    assert terms[1].divided_degree == 2
    collapsed = frobenius_omega_element(ctx, 4)
    assert collapsed.coeffs[2] == QPolynomial.monomial(pq, 1) + QPolynomial.from_scalar(
        pq * pq
    )


def test_frobenius_omega_term_count_p3():
    ctx = RingContext(3, 2, 2)
    assert len(frobenius_omega(ctx, 4)) == 3


def test_frobenius_omega_coefficients_in_maximal_ideal():
    for p in (2, 3):
        ctx = RingContext(p, 2, 2)
        for term in frobenius_omega(ctx, p + 1):
            for w in term.coefficient.coeffs.values():
                assert w.fp_residue() == 0


def test_frobenius_omega_matches_formula():
    # direct recomputation of each printed summand
    for p in (2, 3, 5):
        ctx = RingContext(p, 2, 2)
        pq = q_int(p, 1, ctx)
        for term in frobenius_omega(ctx, p):
            k = term.index
            expected = QPolynomial.monomial(
                q_binomial(p - 1, k - 1, p, ctx) * pq**k, p - k
            )
            assert term.coefficient == expected


def test_frobenius_omega_cap():
    ctx = RingContext(3, 2, 2)
    with pytest.raises(CapExceeded):
        frobenius_omega(ctx, 2)


def test_divided_element_rendering():
    ctx = RingContext(2, 2, 2)
    e = DividedElement(
        ctx,
        {0: QPolynomial.parse(ctx, "q"), 2: QPolynomial.parse(ctx, "1+x")},
        4,
    )
    assert e.to_string() == "q + (1+x)*w{2}"
    assert DividedElement(ctx, {}, 4).to_string() == "0"
