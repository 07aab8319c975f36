"""Shared polynomial literal grammar.

Every module exchanges scalars and polynomials as decimal strings such as
``1+q+2*q^2`` or ``(q-1)*x``.  Formal grammar (EBNF, documented in the
README as the interface contract):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*'? factor)*
    factor := INT | VAR ['^' INT] | '(' expr ')'
    VAR    := 'q' | 'x' | "x'" | 'w' INT | 'w{' INT '}'
    INT    := [0-9]+

Juxtaposition multiplies, so ``2q^2`` and ``2*q^2`` agree.  ``x'`` and
``x`` name the same coordinate (the prime marks presentation only).
``w{k}`` and ``wk`` both name the k-th free generator.
"""

from __future__ import annotations

import re

from .errors import SpecError
from .exactpoly import _FIELD, _NAMES, SLOT_BITS, IntPoly, square_and_multiply

# Each level of parentheses costs three parser frames; 64 levels stay far
# below the interpreter's recursion limit of 1000.
MAX_NESTING = 64

# Largest exponent a power may give any variable: a literal `^n` above it,
# or one that would lift the base's largest exponent above it, is refused
# before the power is expanded.  Powers can then never compound (nested
# `((1+x)^k)^k`), and every spec field stays far below this in practice.
MAX_EXPONENT = 1024

# Cap on the monomial products one literal may form: a*b for an a-term times
# a b-term polynomial, summed over every product of the literal and checked
# before each product is expanded.  A power is charged at each product of its
# square-and-multiply, so `(1+q+x)^64` (about 0.34M products) passes and
# `(1+q+x)^128` exits 2 at its last squaring (2145*2145), as does a sum of
# four `(1+q+x)^64`.
MAX_TERMS = 1 << 20

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<var>x'|x|q|w\{\d+\}|w\d+)|(?P<op>[-+*^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise SpecError(f"unexpected character at position {pos}: {text[pos]!r}")
        if m.lastgroup == "int":
            tokens.append(("int", m.group("int")))
        elif m.lastgroup == "var":
            tokens.append(("var", m.group("var")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    return tokens


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:  # beyond the interpreter's digit limit
        raise SpecError(f"integer literal of {len(text)} digits is too long") from exc


def _check_terms(a: int, b: int, what: str, spent: int = 0) -> int:
    """spent + a*b, the monomial products formed so far with one a-term
    times b-term product more; refused past MAX_TERMS."""
    total = spent + a * b
    if total > MAX_TERMS:
        so_far = f", {total} in this literal" if spent else ""
        raise SpecError(
            f"{what} would form {a}*{b} monomial products{so_far}, over the cap {MAX_TERMS}"
        )
    return total


class _Capped:
    """A polynomial whose every product is passed to `charge` with the real
    term counts of its operands before it is formed."""

    def __init__(self, poly: IntPoly, what: str, charge):
        self.poly = poly
        self.what = what
        self.charge = charge

    def __mul__(self, other: _Capped) -> _Capped:
        self.charge(len(self.poly.terms), len(other.poly.terms), self.what)
        return _Capped(self.poly * other.poly, self.what, self.charge)


def checked_power(base: IntPoly, n: int, charge=_check_terms) -> IntPoly:
    """base**n by the square-and-multiply of `IntPoly.__pow__`, each
    product first passed to charge(a, b, what), which raises to refuse it.
    By default a product is refused when it alone would form more than
    MAX_TERMS monomial products."""
    if not n:
        return IntPoly.one()
    return square_and_multiply(_Capped(base, f"power ^{n}", charge), n).poly


def _canonical_var(name: str) -> str:
    if name == "x'":
        return "x"
    if name.startswith("w{"):
        return "w" + name[2:-1]
    return name


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]], allowed: set[str] | None):
        self.tokens = tokens
        self.pos = 0
        self.allowed = allowed
        self.spent = 0  # monomial products this literal has formed

    def charge(self, a: int, b: int, what: str) -> None:
        self.spent = _check_terms(a, b, what, self.spent)

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise SpecError("unexpected end of polynomial")
        self.pos += 1
        return tok

    def parse_expr(self) -> IntPoly:
        sign = 1
        tok = self.peek()
        if tok == ("op", "-"):
            self.take()
            sign = -1
        elif tok == ("op", "+"):
            self.take()
        total = self.parse_term() * sign
        while True:
            tok = self.peek()
            if tok == ("op", "+"):
                self.take()
                total = total + self.parse_term()
            elif tok == ("op", "-"):
                self.take()
                total = total - self.parse_term()
            else:
                return total

    def parse_term(self) -> IntPoly:
        result = self.parse_factor()
        while True:
            tok = self.peek()
            if tok == ("op", "*"):
                self.take()
            elif tok is None or not (tok[0] in ("int", "var") or tok == ("op", "(")):
                return result
            factor = self.parse_factor()
            self.charge(len(result.terms), len(factor.terms), "product")
            result = result * factor

    def parse_factor(self) -> IntPoly:
        kind, text = self.take()
        if kind == "int":
            base = IntPoly.const(_int(text))
        elif kind == "var":
            name = _canonical_var(text)
            if self.allowed is not None and name not in self.allowed:
                raise SpecError(f"variable {text!r} not allowed here")
            base = IntPoly.var(name)
        elif (kind, text) == ("op", "("):
            base = self.parse_expr()
            if self.take() != ("op", ")"):
                raise SpecError("missing closing parenthesis")
        else:
            raise SpecError(f"unexpected token {text!r}")
        if self.peek() == ("op", "^"):
            self.take()
            ekind, etext = self.take()
            if ekind != "int":
                raise SpecError("exponent must be a decimal integer")
            n = _int(etext)
            # a constant base counts as degree 1, so the literal is capped too
            degree = max([1] + [base.degree(v) for v in base.variables()])
            if n * degree > MAX_EXPONENT:
                raise SpecError(f"power ^{n} exceeds the exponent cap {MAX_EXPONENT}")
            base = checked_power(base, n, self.charge)
        return base


def parse_poly(text: str, allowed: set[str] | None = None) -> IntPoly:
    """Parse a polynomial literal into an exact integer polynomial.

    allowed restricts variable names after canonicalization (x' -> x,
    w{k} -> wk); None accepts any variable the grammar can spell.
    Parentheses may nest at most MAX_NESTING deep, which keeps the
    recursive descent far from the interpreter's recursion limit, no
    power may raise an exponent above MAX_EXPONENT, and the products and
    powers of the whole literal may form at most MAX_TERMS monomial products.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise SpecError("empty polynomial literal")
    depth = 0
    for tok in tokens:
        depth += (tok == ("op", "(")) - (tok == ("op", ")"))
        if depth > MAX_NESTING:
            raise SpecError(f"parentheses nested deeper than {MAX_NESTING}")
    parser = _Parser(tokens, allowed)
    poly = parser.parse_expr()
    if parser.peek() is not None:
        raise SpecError(f"trailing input after polynomial: {parser.peek()[1]!r}")
    return poly


def _var_key(var: str) -> tuple[int, int]:
    # q < x < w0 < w1 < ...
    if var == "q":
        return (0, 0)
    if var == "x":
        return (1, 0)
    if var.startswith("w"):
        return (2, int(var[1:]))
    return (3, 0)


def poly_to_string(poly: IntPoly) -> str:
    """Render in the shared grammar; canonical term order, round-trips.

    Terms go by variable count, then by their (variable, exponent) pairs in
    the order q < x < w0 < w1 < ...: the slots in use are put in that order
    once, and each packed key is read once for its sort key and its string.
    """
    if poly.is_zero():
        return "0"
    seen = 0
    for key in poly.terms:
        seen |= key
    slots = sorted(
        (_var_key(name), name, shift)
        for shift, name in zip(range(0, seen.bit_length(), SLOT_BITS), _NAMES)
        if (seen >> shift) & _FIELD
    )
    rows = []
    for key, c in poly.terms.items():
        order, parts = [], []
        for var_key, name, shift in slots:
            e = (key >> shift) & _FIELD
            if e:
                order += var_key, e
                parts.append(name if e == 1 else f"{name}^{e}")
        mono = "*".join(parts)
        mag = abs(c)
        body = f"{mag}*{mono}" if mono and mag != 1 else mono or str(mag)
        rows.append((len(parts), order, ("-" if c < 0 else "+") + body))
    rows.sort(key=lambda row: row[:2])
    text = "".join(row[2] for row in rows)
    return text[1:] if text[0] == "+" else text
