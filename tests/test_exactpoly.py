"""The packed-monomial IntPoly against the tuple-monomial oracle in
poly_oracle, the product count of powers, the guard against exponent
overflow, and the closed-form q_int against the WScalar loop."""

import random

import pytest

import poly_oracle as oracle
from qprism import exactpoly
from qprism.base_ring import RingContext, q_int
from qprism.errors import InvalidArgs
from qprism.exactpoly import SLOT_BITS, SLOT_MAX, IntPoly
from qprism.grammar import parse_poly, poly_to_string

VARIABLES = ("q", "x", "w0", "w1", "w2", "w3")


def _random_terms(rng: random.Random) -> dict:
    """A {Monomial: int} dict in a random subset of VARIABLES."""
    names = rng.sample(VARIABLES, rng.randrange(1, 4))
    terms = {}
    for _ in range(rng.randrange(0, 6)):
        exps = {v: rng.randrange(0, 4) for v in names}
        mono = tuple(sorted((v, e) for v, e in exps.items() if e))
        terms[mono] = rng.randrange(-9, 10)
    return terms


def _pair(terms: dict):
    return IntPoly(terms), oracle.IntPoly(terms)


def _same(new: IntPoly, old: oracle.IntPoly) -> bool:
    return new.monomials() == old.terms and poly_to_string(new) == oracle.poly_to_string(old)


def test_packed_polynomials_match_oracle_sweep():
    rng = random.Random(20260)
    for _ in range(400):
        a, a0 = _pair(_random_terms(rng))
        b, b0 = _pair(_random_terms(rng))
        assert _same(a, a0)
        assert _same(a + b, a0 + b0)
        assert _same(a - b, a0 - b0)
        assert _same(a * b, a0 * b0)
        assert _same(a * 7 - 3, a0 * 7 - 3)
        n = rng.randrange(0, 5)
        assert _same(a**n, a0**n)
        assert (a == b) == (a0.terms == b0.terms)
        assert a.variables() == a0.variables()
        for var in VARIABLES:
            assert a.degree(var) == a0.degree(var)
            split, split0 = a.split_by_degree(var), a0.split_by_degree(var)
            assert set(split) == set(split0)
            assert all(_same(split[d], split0[d]) for d in split)
            for e in range(4):
                assert _same(a.coefficient_poly(var, e), a0.coefficient_poly(var, e))
        mapping_names = rng.sample(VARIABLES, rng.randrange(0, 4))
        images = {v: _pair(_random_terms(rng)) for v in mapping_names}
        assert _same(
            a.substitute({v: new for v, (new, _) in images.items()}),
            a0.substitute({v: old for v, (_, old) in images.items()}),
        )
        k = rng.choice((2, 3, 5))
        assert _same((a * k).divide_exact(k), (a0 * k).divide_exact(k))
        if any(c % k for c in a0.terms.values()):
            with pytest.raises(ValueError):
                a.divide_exact(k)


def test_univariate_reads_exponents_and_refuses_other_variables():
    q = IntPoly.var("q")
    assert (3 * q**5 - q + 2).univariate("q") == {5: 3, 1: -1, 0: 2}
    assert IntPoly().univariate("q") == {}
    with pytest.raises(InvalidArgs):
        (q * IntPoly.var("x")).univariate("q")


def test_power_does_no_product_beyond_its_last_bit(monkeypatch):
    calls = []
    mul = IntPoly.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(IntPoly, "__mul__", counted)
    x = IntPoly.var("x")
    for n, products in [(0, 0), (1, 0), (2, 1), (5, 3), (8, 3)]:
        calls.clear()
        assert (x**n).monomials() == ({(("x", n),): 1} if n else {(): 1})
        assert len(calls) == products, n


def test_exponent_overflow_raises_instead_of_wrapping():
    # the lowest slot would carry into x, the highest past every slot
    for var in ("q", "x", "w3"):
        top = IntPoly.var(var, SLOT_MAX)
        with pytest.raises(InvalidArgs):
            top * IntPoly.var(var)
        with pytest.raises(InvalidArgs):
            IntPoly.var(var, SLOT_MAX + 1)
        with pytest.raises(InvalidArgs):
            top.substitute({var: IntPoly.var(var, 2)})
    with pytest.raises(InvalidArgs):
        IntPoly({(("x", -1),): 1})
    assert (IntPoly.var("x", SLOT_MAX - 1) * IntPoly.var("x")).degree("x") == SLOT_MAX


def test_key_size_does_not_depend_on_the_generator_index():
    poly = parse_poly("w{999999}^2*w{999998}")
    assert poly_to_string(poly) == "w999998*w999999^2"
    # slots are handed out by name: the key spans the slots seen so far
    assert max(poly.terms).bit_length() <= SLOT_BITS * len(exactpoly._NAMES)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_q_int_matches_the_wscalar_loop(p):
    for n_prec in (1, 2, 3):
        for m_prec in (1, 2, 3, 4):
            ctx = RingContext(p, n_prec, m_prec)
            for n in range(30):
                for r in range(1, 6):
                    assert q_int(n, r, ctx) == oracle.q_int(n, r, ctx), (ctx, n, r)
