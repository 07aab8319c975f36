"""Predicates on finitely generated modules over exact or truncated bases:
torsion bounds, the Koszul reduction cone, boundedness,
complete and formal flatness, and pro-system stabilization.

Supported bases: "Z" (exact integers), "Zpn" (Z/p^N), "W" (the truncated
two-variable base ring), and "Zq" (exact Z[q], restricted to free modules
and quotients by a single monic relation per generator so every question
reduces to exact integer linear algebra; anything wilder is refused with
an explicit error rather than approximated).

Each base's algorithms sit behind one engine, chosen by `_engine`:
`_ZEngine` (closed forms on the cyclic decomposition of a Z-module, and as
`_ZpnEngine` on the Smith exponents of a Zpn-module's relations),
`_FiniteEngine` (W, flattened to spans over Z/p^N, where every question
compares span orders read off Smith exponents and the one kernel computed
is the annihilator of the relations) and `_ZqEngine` (integer matrices on
diagonal monic summands, compared by rank).  A presentation builds its
engine once, on first use (`ModulePresentation.engine`), and is not
mutated after that.  The engines share these methods:

- `torsion_step(f, b)`: a key that stops changing exactly when the
  f^b-torsion does, and the orders reported for that torsion;
- `kills(f, s, k)`: whether f^s kills the f^k-torsion;
- `quotient(s)`: the engine of M/sM, built from the engine's own data;
- `reduction_cone_acyclic(a, b)`: whether a acts bijectively on the
  b-torsion, which decides the Koszul reduction cone at a = f^n, b = g^m;
- `flatness(f, g, details)`: the complete and formal flatness core.

The predicates below are written once on top of the engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd

import numpy as np

from .base_ring import RingContext, WScalar
from .errors import InvalidArgs, NotBounded
from .exactpoly import IntPoly
from .homology import (
    howell_form,
    right_kernel_basis,
    smith_exponents,
    span_exponents,
    w_mult_block,
)

# the powers (f, g)^j, j <= FORMAL_WINDOW, on which `_ZEngine` decides formal flatness
FORMAL_WINDOW = 3

# --- integer Smith form -------------------------------------------------------


def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def _swap_cols(m, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]


def snf_z(mat: list[list[int]]) -> list[int]:
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns the diagonal, not forced into a divisibility chain; callers use
    it as a multiset.
    """
    a = [list(map(int, row)) for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    diag = []
    top = 0
    while top < min(rows, cols):
        # locate a minimal nonzero entry in the remaining block
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i0, j0 = best
        _swap_rows(a, top, i0)
        _swap_cols(a, top, j0)
        dirty = True
        while dirty:
            dirty = False
            for i in range(top + 1, rows):
                if a[i][top]:
                    quo = a[i][top] // a[top][top]
                    for j in range(cols):
                        a[i][j] -= quo * a[top][j]
                    if a[i][top]:
                        _swap_rows(a, top, i)
                        dirty = True
            for j in range(top + 1, cols):
                if a[top][j]:
                    quo = a[top][j] // a[top][top]
                    for i in range(rows):
                        a[i][j] -= quo * a[i][top]
                    if a[top][j]:
                        _swap_cols(a, top, j)
                        dirty = True
        diag.append(abs(a[top][top]))
        top += 1
    return diag


def _z_rank(mat: list[list[int]]) -> int:
    # snf_z stops at the first all-zero block, so its diagonal has no zeros
    return len(snf_z(mat))


# --- presentations ------------------------------------------------------------


@dataclass
class ModulePresentation:
    """Cokernel presentation: base^generators modulo the row span of
    relations.  Relation entries may be ints or IntPolys in q on every
    base, or WScalars on W; `scalar` stores them as the base's own type."""

    base: str
    generators: int
    relations: list[list]
    ctx: RingContext | None = None

    def __post_init__(self):
        if self.base not in ("Z", "Zpn", "W", "Zq"):
            raise InvalidArgs(f"unknown base {self.base!r}")
        if self.base in ("Zpn", "W") and self.ctx is None:
            raise InvalidArgs(f"base {self.base} needs a ring context")
        if self.generators < 0:
            raise InvalidArgs("generators must be >= 0")
        for row in self.relations:
            if len(row) != self.generators:
                raise InvalidArgs("relation matrix columns count must equal generators")
        # one conversion per distinct entry object; a spec loader passes one per literal
        distinct = {id(v): v for row in self.relations for v in row}
        scalars = {key: self.scalar(v) for key, v in distinct.items()}
        self.relations = [[scalars[id(v)] for v in row] for row in self.relations]

    @cached_property
    def engine(self):
        """The base's engine for this module, built on first use from the
        relations as they are then; the presentation is not mutated after."""
        return _engine(self)

    def scalar(self, value):
        return base_scalar(self.base, self.ctx, value)


def base_scalar(base: str, ctx: RingContext | None, value):
    """value, an int, an IntPoly in q or a scalar of the base, as an element
    of the base: an int for Z, an int in [0, p^N) for Zpn, a WScalar for W
    (q = 1 + t) and an IntPoly in q for Zq."""
    if base == "W":
        if isinstance(value, WScalar):
            return value
        if isinstance(value, IntPoly):
            return WScalar.from_int_poly(ctx, value)
        return WScalar.from_int(ctx, int(value))
    if base == "Zq":
        return value if isinstance(value, IntPoly) else IntPoly.const(int(value))
    if isinstance(value, IntPoly):
        if value.variables():
            raise InvalidArgs(f"base {base} takes integer scalars")
        value = value.eval_int({})
    return int(value) % ctx.pn if base == "Zpn" else int(value)


def _engine(m: ModulePresentation):
    if m.base == "Z":
        return _ZEngine(_z_cyclic_orders(m), m)
    if m.base == "Zq":
        return _ZqEngine(_monic_action_basis(m), bool(m.relations))
    if m.base == "W":
        return _FiniteEngine(m)
    # M is the sum of Z/p^e over the Smith exponents e, e = N where no relation reaches
    rels = np.array(m.relations, dtype=np.int64).reshape(len(m.relations), m.generators)
    s = smith_exponents(rels, m.ctx.p, m.ctx.n_prec)
    return _ZpnEngine([m.ctx.p**e for e in s if e] + [m.ctx.pn] * (m.generators - len(s)), m)


@dataclass
class TorsionReport:
    bound: int | None  # None means unbounded at the cap
    cap: int
    torsion_generators: dict[int, list]

    @property
    def bounded(self) -> bool:
        return self.bound is not None

    def to_json(self) -> dict:
        return {
            "bound": self.bound if self.bound is not None else "unbounded-at-cap",
            "cap": self.cap,
            "torsion_orders": {str(k): v for k, v in sorted(self.torsion_generators.items())},
        }


# --- engine: base Z through cyclic decomposition ------------------------------


def _z_cyclic_orders(m: ModulePresentation) -> list[int]:
    """Orders of the cyclic factors (0 for a free factor)."""
    diag = snf_z(m.relations)
    return [d for d in diag if d != 1] + [0] * (m.generators - len(diag))


class _ZEngine:
    """Base Z: M is a sum of cyclic groups Z/d (d = 0 for Z), and every
    predicate is a closed form in the orders d."""

    def __init__(self, orders: list[int], m: ModulePresentation):
        self.orders, self.m = orders, m  # M/sM keeps m, which `_ZpnEngine` reads

    def torsion_step(self, f: int, b: int):
        fb = f**b
        # order of the f^b-torsion of each factor, 0 marking an infinite one
        sizes = [gcd(d, fb) if d else int(fb != 0) for d in self.orders]
        return sizes, [s for s in sizes if s != 1]

    def kills(self, f: int, s: int, k: int) -> bool:
        fs, fk = f**s, f**k
        # the f^k-torsion of Z/d is generated by d / gcd(d, f^k)
        return all(
            d // gcd(d, fk) * fs % d == 0 if d else fk != 0 or fs == 0 for d in self.orders
        )

    def quotient(self, s: int) -> _ZEngine:
        # (Z/d) / s(Z/d) is Z/gcd(d, s), and the factors Z/1 drop out
        return type(self)([e for e in (gcd(d, s) for d in self.orders) if e != 1], self.m)

    def reduction_cone_acyclic(self, a: int, b: int) -> bool:
        # the b-torsion of Z/d is Z/gcd(d, b); that of a free factor is 0 unless b = 0
        return all(gcd(a, b, d) == 1 for d in self.orders if d or not b)

    def flatness(self, f: int, g: int, details: dict):
        d0 = gcd(f, g)
        details["ideal"] = d0
        if d0 == 0:
            completely = all(d == 0 for d in self.orders)
            return completely, completely
        if d0 == 1:
            return True, True
        completely = all(d == 0 or gcd(d, d0) == 1 for d in self.orders)
        # d0 > 1 divides every h_j, the generator of (f, g)^j
        formally = True
        for j in range(1, FORMAL_WINDOW + 1):
            hj = gcd(*(f**a * g ** (j - a) for a in range(j + 1)))
            formally = formally and all(d == 0 or gcd(d, hj) in (1, hj) for d in self.orders)
        details["formal_window"] = FORMAL_WINDOW
        return completely, formally


class _ZpnEngine(_ZEngine):
    """Base Zpn: M is the sum of the cyclic groups Z/p^e over the Smith
    exponents e of the relations S, decided on the orders p^e with e >= 1.
    The reports keep the flattened route's, in closed forms in e: torsion as
    its preimage in (Z/p^N)^g, and the details of W's flatness core.
    `kills`, `quotient` and the reduction cone are `_ZEngine`'s."""

    def torsion_step(self, f: int, b: int):
        pn, N = self.m.ctx.pn, self.m.ctx.n_prec
        log = {self.m.ctx.p**k: k for k in range(N + 1)}
        # on Z/p^e the preimage {x : f^b x in S} is p^max(0, e - v) Z/p^N, p^v = (f^b, p^N)
        v = log[gcd(pow(f, b, pn), pn)]
        units = [N] * (self.m.generators - len(self.orders))
        orders = sorted(o for o in [N - log[d] + min(log[d], v) for d in self.orders] + units if o)
        return orders, orders

    def flatness(self, f: int, g: int, details: dict):
        pn, N = self.m.ctx.pn, self.m.ctx.n_prec
        log = {self.m.ctx.p**k: k for k in range(N + 1)}
        q = log[gcd(f, g, pn)]  # (f, g) is the ideal (p^q)
        if q == 0:
            details["ideal"] = "unit"
            return True, True
        exps = [log[d] for d in self.orders]
        free_ok = all(e >= q for e in exps)
        # Tor_1(Z/p^e, Z/p^q) is p^max(e, q) / p^min(e + q, N)
        tor_ok = all(min(e + q, N) == max(e, q) for e in exps)
        details.update(minimal_generators=len(exps), quotient_free=free_ok, tor1_zero=tor_ok)
        # the powers (p^jq) stop shrinking at j = ceil(N / q) + 1, where M is free iff e = N
        details["formal_powers_checked"] = -(-N // q) + 1
        return free_ok and tor_ok, all(e == N for e in exps)


# --- engine: W via flattening ---------------------------------------------------


class _FiniteEngine:
    """Base W: M flattened to a Z/p^N-module F/S, one block of m
    coordinates per generator on which a scalar acts by `w_mult_block`.
    Submodules are spans of rows.

    Every question is a comparison of span orders.  Z/p^N is a Frobenius
    ring, so under the dot product a submodule K of F has K^perp^perp = K
    and K is isomorphic to F/K^perp.  The f^k-torsion, lifted to F, is
    K_k = {v : f^k v in S}, whose annihilator is S^perp f^k: the one
    kernel the engine computes is `perp`, spanning S^perp."""

    def __init__(self, m: ModulePresentation, rows: np.ndarray | None = None):
        # given rows, the module on m's generators with the relations they span
        self.m = m
        self.p, self.N, self.modulus = m.ctx.p, m.ctx.n_prec, m.ctx.pn
        self.width = m.ctx.m_prec
        self.dim = m.generators * self.width
        if rows is None:
            rels = m.relations
            # the relations S: columns of the presentation map base^relations -> base^generators
            rows = self._flat([[rel[j] for rel in rels] for j in range(m.generators)], len(rels)).T
        self.rows = rows
        self.perp = right_kernel_basis(rows, self.modulus)
        # log_p of the order of the span of _annihilator(f, k), by (f, k)
        self._annihilator_logs: dict = {}

    def _flat(self, scalars: list[list], cols: int) -> np.ndarray:
        """The Z/p^N matrix of a matrix of scalars, one block per scalar."""
        w = self.width
        blocks = np.zeros((len(scalars), cols, w, w), dtype=np.int64)
        for i, row in enumerate(scalars):
            for j, s in enumerate(row):
                blocks[i, j] = w_mult_block(self.m.scalar(s))
        return blocks.transpose(0, 2, 1, 3).reshape(len(scalars) * w, cols * w)

    def _per_generator(self, rows: np.ndarray, block: np.ndarray) -> np.ndarray:
        """rows with the coordinates of each generator multiplied by block."""
        shape = (len(rows), self.m.generators, self.width)
        return (rows.reshape(shape) @ block).reshape(rows.shape) % self.modulus

    def _log(self, rows: np.ndarray) -> int:
        """log_p of the order of the submodule the rows span."""
        return sum(span_exponents(rows, self.p, self.N))

    def multiples(self, scalars, copies: int) -> np.ndarray:
        """Rows spanning (scalars) * base^copies: the Howell form of the
        ideal inside one copy of the base, repeated on every copy."""
        ideal = np.vstack([w_mult_block(self.m.scalar(s)).T for s in scalars])
        return np.kron(np.eye(copies, dtype=np.int64), howell_form(ideal, self.modulus))

    def quotient_rows(self, scalars) -> np.ndarray:
        """Rows spanning the relations of M / (scalars) M."""
        if not scalars:
            return self.rows
        return np.vstack([self.rows, self.multiples(scalars, self.m.generators)])

    def quotient_log(self, scalars) -> int:
        return self.N * self.dim - self._log(self.quotient_rows(scalars))

    def quotient(self, s) -> _FiniteEngine:
        return _FiniteEngine(self.m, self.quotient_rows([s]))

    def _annihilator(self, f, k: int) -> np.ndarray:
        """Rows spanning K_k^perp = S^perp f^k, K_k the lifted f^k-torsion:
        each generator's coordinates of S^perp times the block of f^k."""
        return self._per_generator(self.perp, w_mult_block(self.m.scalar(f**k)))

    def torsion_step(self, f, b: int):
        # K_b is isomorphic to F / K_b^perp, the cokernel of the annihilator's rows;
        # the torsion grows with b, so its orders change until it stabilizes
        s = smith_exponents(self._annihilator(f, b), self.p, self.N)
        self._annihilator_logs[f, b] = sum(self.N - v for v in s)
        orders = sorted([v for v in s if v > 0] + [self.N] * (self.dim - len(s)))
        return orders, orders

    def kills(self, f, s: int, k: int) -> bool:
        # f^s kills K_k iff K_k lies in K_s iff K_s^perp lies in K_k^perp, that
        # is iff adding K_s^perp leaves the order of K_k^perp unchanged
        annihilator = self._annihilator(f, k)
        if (f, k) not in self._annihilator_logs:
            self._annihilator_logs[f, k] = self._log(annihilator)
        grown = self._log(np.vstack([annihilator, self._annihilator(f, s)]))
        return grown == self._annihilator_logs[f, k]

    def reduction_cone_acyclic(self, a, b) -> bool:
        # a is injective on the b-torsion iff K_a meet K_b = S, iff S^perp a + S^perp b = S^perp
        stacked = np.vstack([self._annihilator(b, 1), self._annihilator(a, 1)])
        return self._log(stacked) == self._log(self.perp)

    def _residue_rank(self) -> int:
        """F_p-rank of the relations modulo p and t, each generator's first coordinate."""
        residues = self.rows.reshape(len(self.rows), self.m.generators, self.width)[:, :, 0]
        return smith_exponents(residues, self.p, 1).count(0)

    def flatness(self, f, g, details: dict):
        """Complete flatness: M/(f,g)M is free over base/(f,g) and the
        first Tor against base/(f,g) vanishes.  Formal flatness: the same
        freeness for every power of (f,g) until the powers stabilize."""
        m = self.m
        base = ModulePresentation(m.base, 1, [], m.ctx).engine
        q_log = base.quotient_log([f, g])
        if q_log == 0:
            details["ideal"] = "unit"
            return True, True
        mu = m.generators - self._residue_rank()
        free_ok = self.quotient_log([f, g]) == mu * q_log
        tor_ok = self._tor1_vanishes([f, g])
        details.update(minimal_generators=mu, quotient_free=free_ok, tor1_zero=tor_ok)
        formally, prev, j = True, None, 1
        while j <= self.N + m.ctx.m_prec + 2:
            powers = [f**a * g ** (j - a) for a in range(j + 1)]
            qj_log = base.quotient_log(powers)
            formally = formally and self.quotient_log(powers) == mu * qj_log
            # the powers shrink, so equal orders mean equal ideals
            if qj_log == prev:
                break
            prev, j = qj_log, j + 1
        details["formal_powers_checked"] = j
        return free_ok and tor_ok, formally

    def _tor1_vanishes(self, ideal) -> bool:
        """First Tor of M = F/S against base/(ideal).  From 0 -> S -> F -> M
        -> 0 it is (S meet IF)/IS, so it vanishes iff |S| |IF| / |S + IF|
        equals |IS|, I the ideal."""
        rows, ideal_f = self.rows, self.multiples(ideal, self.m.generators)
        # S is spanned by the relations times each t^i, so IS by the rows times the ideal
        ideal_s = np.vstack([self._per_generator(rows, w_mult_block(s).T) for s in ideal])
        meet = self._log(rows) + self._log(ideal_f) - self._log(np.vstack([rows, ideal_f]))
        return meet == self._log(ideal_s)


# --- engine: exact Z[q], monic normal forms ------------------------------------


def _monic_action_basis(m: ModulePresentation):
    """Per-generator monic relations (None marks a free generator).  Only
    diagonal monic presentations are supported; a free generator
    contributes an infinite Z[q]-summand."""
    rels = m.relations
    if not rels:
        return [None] * m.generators
    if len(rels) != m.generators:
        raise InvalidArgs(
            "Zq base supports one monic relation per generator (diagonal)"
        )
    mono = []
    for i, row in enumerate(rels):
        if any(not entry.is_zero() for j, entry in enumerate(row) if j != i):
            raise InvalidArgs("Zq relation matrix must be diagonal")
        mono.append(_monic(row[i]))
    return mono


def _monic(entry: IntPoly) -> IntPoly | None:
    """A diagonal relation: None when it is zero, else the monic entry."""
    if entry.is_zero():
        return None
    if entry.coefficient_poly("q", entry.degree("q")) != IntPoly.const(1):
        raise InvalidArgs("Zq relations must be monic in q")
    return entry


def _poly_mod_monic(poly: IntPoly, monic: IntPoly) -> IntPoly:
    """Remainder of poly modulo a monic univariate polynomial in q."""
    deg_m = monic.degree("q")
    rem = poly
    while True:
        deg = rem.degree("q")
        if rem.is_zero() or deg < deg_m:
            return rem
        lead = rem.coefficient_poly("q", deg)
        rem = rem - lead * monic * IntPoly.var("q", deg - deg_m)


def _zq_mult_matrix(f: IntPoly, monic: IntPoly) -> list[list[int]]:
    """Integer matrix of multiplication by f on Z[q]/(monic)."""
    e = monic.degree("q")
    cols = []
    for i in range(e):
        image = _poly_mod_monic(f * IntPoly.var("q", i), monic)
        col = [0] * e
        for j, c in image.univariate("q").items():
            col[j] = c
        cols.append(col)
    return [[cols[j][i] for j in range(e)] for i in range(e)]


class _ZqEngine:
    """Base Zq on a diagonal monic presentation: each generator spans
    Z[q], a domain, or Z[q]/(monic), a free Z-module of rank deg(monic) on
    which a scalar acts by an integer matrix."""

    def __init__(self, mono: list, presented: bool):
        self.mono, self.presented = mono, presented

    def torsion_step(self, f: IntPoly, b: int):
        key, orders = [], []
        for i, monic in enumerate(self.mono):
            if monic is None:
                # torsion-free unless f = 0
                key.append(b > 0 and f.is_zero())
            else:
                rank = _z_rank(_zq_mult_matrix(f**b, monic))
                key.append(rank)
                orders.append(monic.degree("q") - rank)
        # free summands report no orders, so a free module reports none at all
        return key, orders or None

    def kills(self, f: IntPoly, s: int, k: int) -> bool:
        for i, monic in enumerate(self.mono):
            if monic is None:
                # the f^k-torsion is 0, or everything when f = 0, which f^s kills for s > 0
                if f.is_zero() and s == 0:
                    return False
                continue
            # integer kernels are saturated, so ker f^k lies in ker f^s iff
            # the rows of f^s lie in the rational row space of f^k
            power = _zq_mult_matrix(f**k, monic)
            if _z_rank(power + _zq_mult_matrix(f**s, monic)) != _z_rank(power):
                return False
        return True

    def quotient(self, s: IntPoly) -> _ZqEngine:
        # s times each generator joins the relations, one per generator only when M is free
        if self.presented:
            raise InvalidArgs("Zq base supports one monic relation per generator (diagonal)")
        return _ZqEngine([_monic(s)] * len(self.mono) if self.mono else [], bool(self.mono))

    def reduction_cone_acyclic(self, a, b):
        raise InvalidArgs("Koszul complexes are not supported over exact Z[q]")

    def flatness(self, f, g, details: dict):
        if any(monic is not None for monic in self.mono):
            raise InvalidArgs(
                "Zq flatness checks support free modules only; quotient inputs must "
                "be phrased over W or Zpn"
            )
        if not g.is_zero() and g.coefficient_poly("q", g.degree("q")) != IntPoly.const(1):
            raise InvalidArgs("Zq flatness checks need g monic in q (or g = 0)")
        details["free"] = True
        return True, True


# --- torsion bounds -------------------------------------------------------------


def torsion_bound(m: ModulePresentation, f, cap: int = 8) -> TorsionReport:
    """Least b <= cap with ker(f^{b+1}) = ker(f^b), else unbounded-at-cap.

    The per-exponent report records the structure of the f^b-torsion: for
    base Z the factor orders, for Zpn and W the log_p of the cyclic orders
    of its preimage {v : f^b v in S} in the flattened free module, relations
    S included, and for Zq the Z-rank of the torsion of each monic summand.
    """
    return _torsion_report(m.engine, m.scalar(f), cap)


def _torsion_report(eng, f, cap: int) -> TorsionReport:
    gens: dict[int, list] = {}
    prev = None
    for b in range(cap + 2):
        key, orders = eng.torsion_step(f, b)
        if b and key == prev:
            return TorsionReport(b - 1, cap, gens)
        if b <= cap and orders is not None:
            gens[b] = orders
        prev = key
    return TorsionReport(None, cap, gens)


def _g_torsion_free(m: ModulePresentation, g) -> bool:
    """Whether g acts injectively: the g-torsion equals the g^0-torsion, 0."""
    eng, g = m.engine, m.scalar(g)
    return eng.torsion_step(g, 1)[0] == eng.torsion_step(g, 0)[0]


# --- the Koszul reduction cone ------------------------------------------------------


def koszul_reduction_cone_acyclic(m: ModulePresentation, f, g, n: int = 1, mexp: int = 1) -> bool:
    """Acyclicity of the cone comparing the two-variable Koszul complex
    K(f^n, g^m; M) with [M/g^m -> M/g^m] via f^n, the reduction that holds
    for g-torsion-free modules.

    The comparison is onto in every degree, and its kernel is the Koszul
    complex of f^n on [M -> g^m M].  That two-term complex is
    quasi-isomorphic to M[g^m] = {x : g^m x = 0} in degree 0, so the cone
    is acyclic exactly when f^n acts bijectively on M[g^m]; on a finite
    module, injectively.
    """
    return m.engine.reduction_cone_acyclic(m.scalar(f) ** n, m.scalar(g) ** mexp)


# --- pro-isomorphism --------------------------------------------------------------


@dataclass
class ProIsoReport:
    shift: int
    bound: int
    per_level: dict[int, bool]
    matches_bound: bool

    def to_json(self) -> dict:
        return {
            "shift": self.shift,
            "torsion_bound": self.bound,
            "per_level": {str(k): v for k, v in sorted(self.per_level.items())},
            "shift_equals_bound": self.matches_bound,
        }


def pro_iso_check(
    m: ModulePresentation, f, torsion: TorsionReport, n_max: int = 4
) -> ProIsoReport:
    """Stabilization shift of the torsion pro-system, given the torsion
    report of f (`torsion_bound`), whose cap also caps the shift.

    The transition from level n+s to level n on the f-power-torsion is
    multiplication by f^s; the system is pro-zero exactly when some shift
    kills all of it, and the least such shift is reported together with
    per-level verdicts at that shift, all true by construction.  The
    f^k-torsion grows with k and is the f^b-torsion from the bound b on, so
    s holds at every level n <= n_max iff f^s kills the f^min(n_max+s, b)-torsion.
    """
    if not torsion.bounded:
        raise NotBounded("torsion unbounded at the cap")
    eng, f, b = m.engine, m.scalar(f), torsion.bound
    shift = next((s for s in range(torsion.cap + 1) if eng.kills(f, s, min(n_max + s, b))), None)
    if shift is None:
        raise NotBounded("no stabilization shift at the cap")
    return ProIsoReport(shift, b, dict.fromkeys(range(1, n_max + 1), True), shift == b)


# --- boundedness and flatness ---------------------------------------------------


@dataclass
class FlatnessReport:
    bounded: bool
    completely_flat: bool
    formally_flat: bool
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "bounded": self.bounded,
            "completely_flat": self.completely_flat,
            "formally_flat": self.formally_flat,
            "details": {k: v for k, v in sorted(self.details.items())},
        }


def bounded_and_flat_check(m: ModulePresentation, f, g, torsion_cap: int = 8) -> FlatnessReport:
    """Boundedness plus the complete and formal flatness predicates.

    bounded: g-torsion-free and M/gM has a finite f-power-torsion bound.
    completely_flat: M/(f,g)M free over the quotient base and the first
    Tor against base/(f,g) vanishes.
    formally_flat: M/(f,g)^j M free over base/(f,g)^j for every j, over Z
    for j up to FORMAL_WINDOW.
    """
    f, g = m.scalar(f), m.scalar(g)
    details: dict = {}
    # first, so an engine refusing the inputs says why before M/gM is built
    completely, formally = m.engine.flatness(f, g, details)
    tf = _g_torsion_free(m, g)
    tb = _torsion_report(m.engine.quotient(g), f, torsion_cap)
    details["g_torsion_free"] = tf
    details["quotient_torsion_bound"] = tb.bound if tb.bounded else "unbounded-at-cap"
    return FlatnessReport(tf and tb.bounded, completely, formally, details)
