import time

import pytest

from qprism.errors import SpecError
from qprism.exactpoly import IntPoly
from qprism.grammar import MAX_EXPONENT, MAX_NESTING, MAX_TERMS, parse_poly, poly_to_string


def test_basic_terms():
    assert parse_poly("1+q+2*q^2") == IntPoly.const(1) + IntPoly.var("q") + 2 * IntPoly.var("q", 2)
    assert parse_poly("0") == IntPoly()
    assert parse_poly("-q") == -IntPoly.var("q")


def test_juxtaposition_and_star_agree():
    assert parse_poly("2q^2") == parse_poly("2*q^2")
    assert parse_poly("q x") == parse_poly("q*x")


def test_parentheses():
    assert parse_poly("(q-1)*x") == (IntPoly.var("q") - 1) * IntPoly.var("x")
    assert parse_poly("(1+q)^2") == (IntPoly.var("q") + 1) ** 2


def test_prime_coordinate_is_x():
    assert parse_poly("x'") == IntPoly.var("x")
    assert parse_poly("(q-1)*x'^3") == (IntPoly.var("q") - 1) * IntPoly.var("x", 3)


def test_free_generators():
    assert parse_poly("w0*w1") == IntPoly.var("w0") * IntPoly.var("w1")
    assert parse_poly("w{2}") == IntPoly.var("w2")


def test_allowed_variables_enforced():
    with pytest.raises(SpecError):
        parse_poly("x", allowed={"q"})


def test_malformed():
    for bad in ["", "q+", "((q)", "q^", "2**q", "y"]:
        with pytest.raises(SpecError):
            parse_poly(bad)


def test_round_trip():
    samples = [
        "1+q+2*q^2",
        "-1+q^3",
        "q*x^2",
        "2+3*x+q^2*x^3",
        "w1+q^2*w1",
        "0",
    ]
    for text in samples:
        poly = parse_poly(text)
        assert parse_poly(poly_to_string(poly)) == poly


def test_render_matches_the_oracle_when_slot_order_differs_from_print_order():
    import random

    import poly_oracle

    from qprism import exactpoly

    # slots go to names in the order first seen: w4012 before w403, so the
    # slot order of these names is not their print order
    names = ["w4012", "q", "w403", "x", "w40"]
    for name in names:
        IntPoly.var(name)
    assert exactpoly._SLOT["w4012"] < exactpoly._SLOT["w403"] < exactpoly._SLOT["w40"]
    rng = random.Random(4012)
    for _ in range(300):
        terms = {}
        for _ in range(rng.randrange(0, 8)):
            chosen = rng.sample(names, rng.randrange(0, 4))
            mono = tuple(sorted((v, rng.randrange(1, 13)) for v in chosen))
            terms[mono] = rng.choice((1, -1, 2, -7, 10, -123, 99999, -(10**20)))
        poly = IntPoly(terms)
        text = poly_to_string(poly)
        assert text == poly_oracle.poly_to_string(poly_oracle.IntPoly(terms)), terms
        assert parse_poly(text) == poly, text
    assert poly_to_string(IntPoly()) == "0"
    assert poly_to_string(IntPoly.const(-42)) == "-42"


def test_render_matches_spec_style():
    assert poly_to_string(parse_poly("1 + q + 2*q^2")) == "1+q+2*q^2"


def test_nesting_limit():
    deepest = "(" * MAX_NESTING + "q" + ")" * MAX_NESTING
    assert parse_poly(deepest) == IntPoly.var("q")
    with pytest.raises(SpecError, match="nested deeper"):
        parse_poly("(" + deepest + ")")
    with pytest.raises(SpecError, match="nested deeper"):
        parse_poly("(" * 5000 + "q" + ")" * 5000)


def test_exponent_cap():
    assert parse_poly(f"x^{MAX_EXPONENT}") == IntPoly.var("x", MAX_EXPONENT)
    assert parse_poly(f"2^{MAX_EXPONENT}") == IntPoly.const(2**MAX_EXPONENT)
    for bad in (
        f"x^{MAX_EXPONENT + 1}",
        "(1+x)^99999999",
        f"(q^2)^{MAX_EXPONENT // 2 + 1}",
        # powers of powers cannot compound past the cap
        "((1+x)^32)^33",
    ):
        with pytest.raises(SpecError, match="exponent cap"):
            parse_poly(bad)


def test_overlong_integer_literal_is_a_spec_error():
    for bad in ("9" * 5000 + "*x", "x^" + "9" * 5000):
        with pytest.raises(SpecError, match="too long"):
            parse_poly(bad)


def test_term_cap():
    # (1+q+x)^32 has 561 terms and (1+q+x)^64 2145: squaring the first fits
    # the cap, multiplying the two does not
    assert 561 * 561 <= MAX_TERMS < 561 * 2145
    assert len(parse_poly("(1+q+x)^64").terms) == 2145
    assert len(parse_poly("(1+x)^1024").terms) == 1025
    assert parse_poly("(x-x)^3") == IntPoly()
    for bad in (
        "(1+q+x)^128",
        "(1+q+x)^256",
        "(1+q+x)^1024",
        "(1+q+x)^64*(1+q+x)^64",
        "(1+q+x)^32*(1+q+x)^32*(1+q+x)^32",
        "(1+q+x)^32(2+q+x)^32(3+q+x)^32",
    ):
        with pytest.raises(SpecError, match="monomial products"):
            parse_poly(bad)


def test_term_cap_holds_a_whole_literal():
    # each (1+q+x)^64 forms 340425 monomial products: three fit the budget
    # of one literal, a fourth does not, however the literal combines them
    power = parse_poly("(1+q+x)^64")
    assert parse_poly("+".join(["(1+q+x)^64"] * 3)) == 3 * power
    start = time.perf_counter()
    with pytest.raises(SpecError, match="in this literal"):
        parse_poly("+".join(["(1+q+x)^64"] * 40))
    assert time.perf_counter() - start < 1
    with pytest.raises(SpecError, match="in this literal"):
        parse_poly("(1+q+x)^64-(1+q+x)^64+(1+q+x)^64-(1+q+x)^64")
