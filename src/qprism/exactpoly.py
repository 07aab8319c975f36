"""Exact multivariate integer polynomials.

The substrate for every delta-ring computation: coefficients are Python
ints, never truncated.  Monomials are sorted tuples of (variable, exponent)
pairs with positive exponents; the empty tuple is the constant monomial.
"""

from __future__ import annotations

from collections.abc import Mapping

Monomial = tuple[tuple[str, int], ...]

_EMPTY: Monomial = ()


def _merge_monomials(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    exps: dict[str, int] = dict(a)
    for var, e in b:
        exps[var] = exps.get(var, 0) + e
    return tuple(sorted(exps.items()))


class IntPoly:
    """Immutable exact polynomial with integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        self.terms: dict[Monomial, int] = {
            m: c for m, c in (terms or {}).items() if c != 0
        }

    @classmethod
    def const(cls, c: int) -> IntPoly:
        return cls({_EMPTY: c})

    @classmethod
    def var(cls, name: str, exp: int = 1) -> IntPoly:
        if exp == 0:
            return cls.const(1)
        return cls({((name, exp),): 1})

    zero = classmethod(lambda cls: cls())
    one = classmethod(lambda cls: cls.const(1))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPoly):
            return self.terms == other.terms
        if isinstance(other, int):
            return self.terms == IntPoly.const(other).terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: IntPoly | int) -> IntPoly:
        if isinstance(other, int):
            other = IntPoly.const(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return IntPoly(out)

    __radd__ = __add__

    def __neg__(self) -> IntPoly:
        return IntPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: IntPoly | int) -> IntPoly:
        if isinstance(other, int):
            other = IntPoly.const(other)
        return self + (-other)

    def __rsub__(self, other: int) -> IntPoly:
        return IntPoly.const(other) - self

    def __mul__(self, other: IntPoly | int) -> IntPoly:
        if isinstance(other, int):
            if other == 0:
                return IntPoly()
            return IntPoly({m: c * other for m, c in self.terms.items()})
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _merge_monomials(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> IntPoly:
        if n < 0:
            raise ValueError("negative exponent on a polynomial")
        result = IntPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def variables(self) -> set[str]:
        return {var for m in self.terms for var, _ in m}

    def degree(self, var: str) -> int:
        """Largest exponent of var appearing; 0 when absent or zero poly."""
        best = 0
        for m in self.terms:
            for v, e in m:
                if v == var and e > best:
                    best = e
        return best

    def coefficient_poly(self, var: str, exp: int) -> IntPoly:
        """Coefficient of var**exp as a polynomial in the other variables."""
        out: dict[Monomial, int] = {}
        for m, c in self.terms.items():
            got = 0
            rest = []
            for v, e in m:
                if v == var:
                    got = e
                else:
                    rest.append((v, e))
            if got == exp:
                out[tuple(rest)] = out.get(tuple(rest), 0) + c
        return IntPoly(out)

    def split_by_degree(self, var: str) -> dict[int, IntPoly]:
        out: dict[int, dict[Monomial, int]] = {}
        for m, c in self.terms.items():
            got = 0
            rest = []
            for v, e in m:
                if v == var:
                    got = e
                else:
                    rest.append((v, e))
            out.setdefault(got, {})[tuple(rest)] = (
                out.get(got, {}).get(tuple(rest), 0) + c
            )
        return {d: IntPoly(t) for d, t in out.items()}

    def substitute(self, mapping: Mapping[str, IntPoly]) -> IntPoly:
        """Simultaneous substitution of variables by polynomials."""
        cache: dict[tuple[str, int], IntPoly] = {}

        def power(var: str, exp: int) -> IntPoly:
            key = (var, exp)
            if key not in cache:
                base = mapping.get(var)
                cache[key] = IntPoly.var(var, exp) if base is None else base**exp
            return cache[key]

        total = IntPoly()
        for m, c in self.terms.items():
            term = IntPoly.const(c)
            for var, e in m:
                term = term * power(var, e)
            total = total + term
        return total

    def divide_exact(self, k: int) -> IntPoly:
        """Divide every coefficient by k; raises if any division is inexact."""
        out = {}
        for m, c in self.terms.items():
            q, r = divmod(c, k)
            if r:
                raise ValueError(f"coefficient {c} not divisible by {k}")
            out[m] = q
        return IntPoly(out)

    def eval_int(self, values: Mapping[str, int]) -> int:
        total = 0
        for m, c in self.terms.items():
            v = c
            for var, e in m:
                v *= values[var] ** e
            total += v
        return total

    def map_coefficients(self, fn) -> IntPoly:
        return IntPoly({m: fn(c) for m, c in self.terms.items()})

    def __repr__(self):
        from .grammar import poly_to_string

        return f"IntPoly({poly_to_string(self)})"
