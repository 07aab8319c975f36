"""Exact multivariate integer polynomials.

The substrate for every delta-ring computation: coefficients are Python
ints, never truncated.

A monomial is stored packed into one int.  Every variable owns a slot of
SLOT_BITS bits, assigned by name the first time the name is seen, and its
exponent sits in that slot; so a product of monomials is one integer
addition, and reading or removing one variable is a shift and a mask.
The top bit of every slot is a guard bit that a stored key never sets.
Adding two keys can therefore set a guard bit but never carry into the
next slot, and every product checks the guard bits of its result keys:
an exponent above SLOT_MAX raises InvalidArgs instead of wrapping.
Slots are handed out by name, not by the index k of `wk`, so the size of
a key depends on how many variables the process has seen, not on k.

The public form of a monomial is `Monomial`, a sorted tuple of
(variable, exponent) pairs with positive exponents; the constructor
accepts it and `monomials()` returns it.  Outside this module only
`grammar.poly_to_string` reads the packed keys, to render without unpacking.
"""

from __future__ import annotations

from collections.abc import Mapping

from .errors import InvalidArgs

Monomial = tuple[tuple[str, int], ...]

SLOT_BITS = 32
SLOT_MAX = (1 << (SLOT_BITS - 1)) - 1
_FIELD = (1 << SLOT_BITS) - 1

_SLOT: dict[str, int] = {}  # variable name -> bit offset of its slot
_NAMES: list[str] = []  # slot number -> variable name
_guard = 0  # the guard bit of every assigned slot


def _shift(name: str) -> int:
    """Bit offset of the slot of `name`, assigning the next slot if new."""
    global _guard
    shift = _SLOT.get(name)
    if shift is None:
        shift = _SLOT[name] = SLOT_BITS * len(_NAMES)
        _NAMES.append(name)
        _guard |= 1 << (shift + SLOT_BITS - 1)
    return shift


# q and x take the two lowest slots, so keys of W[x] elements stay small
_shift("q")
_shift("x")


def _exponent_key(name: str, exp: int) -> int:
    if not 0 <= exp <= SLOT_MAX:
        raise InvalidArgs(f"exponent {exp} of {name} outside [0, {SLOT_MAX}]")
    return exp << _shift(name)


def _pack(m: Monomial) -> int:
    return sum(_exponent_key(name, e) for name, e in m)


def _unpack(key: int) -> Monomial:
    out = []
    slot = 0
    while key:
        e = key & _FIELD
        if e:
            out.append((_NAMES[slot], e))
        key >>= SLOT_BITS
        slot += 1
    return tuple(sorted(out))


def square_and_multiply(base, n: int):
    """base**n for n >= 1 by repeated squaring, with no product by one and
    no squaring beyond the last bit of n."""
    result = None
    while True:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if not n:
            return result
        base = base * base


def _checked(terms: dict[int, int]) -> IntPoly:
    """The polynomial of freshly summed keys, after the guard-bit check."""
    seen = 0
    for key in terms:
        seen |= key
    if seen & _guard:
        raise InvalidArgs(f"exponent beyond {SLOT_MAX} in a polynomial product")
    return IntPoly._packed({m: c for m, c in terms.items() if c})


class IntPoly:
    """Immutable exact polynomial with integer coefficients.

    `terms` maps packed monomial keys to nonzero coefficients.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        packed: dict[int, int] = {}
        for m, c in (terms or {}).items():
            key = _pack(m)
            packed[key] = packed.get(key, 0) + c
        self.terms: dict[int, int] = {m: c for m, c in packed.items() if c}

    @classmethod
    def _packed(cls, terms: dict[int, int]) -> IntPoly:
        """Adopt a dict of packed keys with nonzero coefficients, unchecked."""
        poly = object.__new__(cls)
        poly.terms = terms
        return poly

    @classmethod
    def const(cls, c: int) -> IntPoly:
        return cls._packed({0: c} if c else {})

    @classmethod
    def var(cls, name: str, exp: int = 1) -> IntPoly:
        return cls._packed({_exponent_key(name, exp): 1})

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

    def _combined(self, other: IntPoly | int, sign: int) -> IntPoly:
        if isinstance(other, int):
            other = IntPoly.const(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + sign * c
            if s:
                out[m] = s
            else:
                del out[m]
        return IntPoly._packed(out)

    def __add__(self, other: IntPoly | int) -> IntPoly:
        return self._combined(other, 1)

    __radd__ = __add__

    def __neg__(self) -> IntPoly:
        return IntPoly._packed({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: IntPoly | int) -> IntPoly:
        return self._combined(other, -1)

    def __rsub__(self, other: int) -> IntPoly:
        return IntPoly.const(other) - self

    def __mul__(self, other: IntPoly | int) -> IntPoly:
        if isinstance(other, int):
            if other == 0:
                return IntPoly()
            return IntPoly._packed({m: c * other for m, c in self.terms.items()})
        out: dict[int, int] = {}
        get = out.get
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 + m2
                out[m] = get(m, 0) + c1 * c2
        return _checked(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> IntPoly:
        if n < 0:
            raise ValueError("negative exponent on a polynomial")
        return square_and_multiply(self, n) if n else IntPoly.one()

    def monomials(self) -> dict[Monomial, int]:
        """The terms keyed by `Monomial` tuples."""
        return {_unpack(m): c for m, c in self.terms.items()}

    def variables(self) -> set[str]:
        seen = 0
        for m in self.terms:
            seen |= m
        return {name for name, _ in _unpack(seen)}

    def degree(self, var: str) -> int:
        """Largest exponent of var appearing; 0 when absent or zero poly."""
        shift = _SLOT.get(var)
        if shift is None:
            return 0
        return max(((m >> shift) & _FIELD for m in self.terms), default=0)

    def univariate(self, var: str) -> dict[int, int]:
        """Exponent -> coefficient map of a polynomial in var alone."""
        shift = _shift(var)
        out = {}
        for m, c in self.terms.items():
            e = (m >> shift) & _FIELD
            if m != e << shift:
                raise InvalidArgs(f"not a polynomial in {var} alone")
            out[e] = c
        return out

    def split_by_degree(self, var: str) -> dict[int, IntPoly]:
        """Coefficient of every power of var, as polynomials in the others."""
        shift = _shift(var)
        out: dict[int, dict[int, int]] = {}
        for m, c in self.terms.items():
            e = (m >> shift) & _FIELD
            # terms of one degree differ outside var's slot, so no two collide
            out.setdefault(e, {})[m - (e << shift)] = c
        return {e: IntPoly._packed(t) for e, t in out.items()}

    def coefficient_poly(self, var: str, exp: int) -> IntPoly:
        """Coefficient of var**exp as a polynomial in the other variables."""
        return self.split_by_degree(var).get(exp, IntPoly())

    def substitute(self, mapping: Mapping[str, IntPoly]) -> IntPoly:
        """Simultaneous substitution of variables by polynomials."""
        slots = [
            (name, _SLOT[name])
            for name, image in mapping.items()
            if image is not None and name in _SLOT
        ]
        cache: dict[tuple[str, int], IntPoly] = {}
        out: dict[int, int] = {}
        for m, c in self.terms.items():
            image = None
            for name, shift in slots:
                e = (m >> shift) & _FIELD
                if e:
                    m -= e << shift
                    if (name, e) not in cache:
                        cache[name, e] = mapping[name] ** e
                    power = cache[name, e]
                    image = power if image is None else image * power
            if image is None:
                out[m] = out.get(m, 0) + c
                continue
            for k, v in image.terms.items():
                k += m
                out[k] = out.get(k, 0) + c * v
        return _checked(out)

    def divide_exact(self, k: int) -> IntPoly:
        """Divide every coefficient by k; raises if any division is inexact."""
        out = {}
        for m, c in self.terms.items():
            q, r = divmod(c, k)
            if r:
                raise ValueError(f"coefficient {c} not divisible by {k}")
            out[m] = q
        return IntPoly._packed(out)

    def eval_int(self, values: Mapping[str, int]) -> int:
        total = 0
        for m, c in self.terms.items():
            v = c
            for var, e in _unpack(m):
                v *= values[var] ** e
            total += v
        return total

    def map_coefficients(self, fn) -> IntPoly:
        return IntPoly._packed({m: d for m, c in self.terms.items() if (d := fn(c))})

    def __repr__(self):
        from .grammar import poly_to_string

        return f"IntPoly({poly_to_string(self)})"
