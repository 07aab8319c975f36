"""Predicates on finitely generated modules over exact or truncated bases:
torsion bounds, Koszul complexes and their reductions, boundedness,
complete and formal flatness, and pro-system stabilization.

Supported bases: "Z" (exact integers), "Zpn" (Z/p^N), "W" (the truncated
two-variable base ring), and "Zq" (exact Z[q], restricted to free modules
and quotients by a single monic relation per generator so every question
reduces to exact integer linear algebra; anything wilder is refused with
an explicit error rather than approximated).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

import numpy as np

from .base_ring import RingContext, WScalar
from .errors import InvalidArgs, NotBounded
from .exactpoly import IntPoly
from .homology import (
    howell_form,
    reduce_against,
    right_kernel_basis,
    smith_exponents,
    span_exponents,
    w_mult_block,
)

# --- integer Smith form -------------------------------------------------------


def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def _swap_cols(m, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]


def snf_z(mat: list[list[int]], want_transforms: bool = False):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns (diag, U, V) with U @ mat @ V diagonal when transforms are
    requested, else just the diagonal list.  The diagonal is not forced
    into a divisibility chain; callers use it as a multiset.
    """
    a = [list(map(int, row)) for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]
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
        _swap_rows(U, top, i0)
        _swap_cols(a, top, j0)
        _swap_cols(V, top, j0)
        dirty = True
        while dirty:
            dirty = False
            for i in range(top + 1, rows):
                if a[i][top]:
                    quo = a[i][top] // a[top][top]
                    for j in range(cols):
                        a[i][j] -= quo * a[top][j]
                    for j in range(rows):
                        U[i][j] -= quo * U[top][j]
                    if a[i][top]:
                        _swap_rows(a, top, i)
                        _swap_rows(U, top, i)
                        dirty = True
            for j in range(top + 1, cols):
                if a[top][j]:
                    quo = a[top][j] // a[top][top]
                    for i in range(rows):
                        a[i][j] -= quo * a[i][top]
                    for i in range(cols):
                        V[i][j] -= quo * V[i][top]
                    if a[top][j]:
                        _swap_cols(a, top, j)
                        _swap_cols(V, top, j)
                        dirty = True
        diag.append(abs(a[top][top]))
        top += 1
    if want_transforms:
        return diag, U, V
    return diag


def z_kernel_basis(mat: list[list[int]]) -> list[list[int]]:
    """Columns spanning {v : mat v = 0} over Z (a saturated lattice basis)."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    if cols == 0:
        return []
    if rows == 0:
        return [[int(i == j) for j in range(cols)] for i in range(cols)]
    diag, _U, V = snf_z(mat, want_transforms=True)
    rank = sum(1 for d in diag if d)
    # kernel = V columns beyond the rank
    return [[V[i][j] for j in range(rank, cols)] for i in range(cols)]


def z_lattice_solvable(L: list[list[int]], v: list[int]) -> bool:
    """Whether v lies in the lattice generated by the columns of L."""
    rows = len(L)
    cols = len(L[0]) if rows and L[0] is not None else 0
    if cols == 0:
        return not any(v)
    diag, U, _V = snf_z(L, want_transforms=True)
    rank = sum(1 for d in diag if d)
    uv = [sum(U[i][k] * v[k] for k in range(rows)) for i in range(rows)]
    for i in range(rows):
        if i < rank:
            if uv[i] % diag[i]:
                return False
        elif uv[i]:
            return False
    return True


def _columns(mat: list[list[int]]) -> list[list[int]]:
    if not mat:
        return []
    return [[row[j] for row in mat] for j in range(len(mat[0]))]


def _hstack_z(a: list[list[int]] | None, b: list[list[int]] | None, rows: int):
    cols = []
    for m in (a, b):
        if m:
            cols.extend(_columns(m))
    if not cols:
        return [[0] for _ in range(rows)], 0
    return [[col[i] for col in cols] for i in range(rows)], len(cols)


def z_exact_at(
    incoming: list[list[int]] | None,
    relations_mid: list[list[int]] | None,
    outgoing: list[list[int]] | None,
    relations_next: list[list[int]] | None,
    dim: int,
) -> bool:
    """Exactness of a complex of presented abelian groups at one spot.

    The middle group is Z^dim modulo the columns of relations_mid; kernels
    are preimage lattices through the relations of the next group, and
    exactness is lattice containment of the kernel in image + relations.
    """
    if outgoing is None:
        ker_cols = [[int(i == j) for j in range(dim)] for i in range(dim)]
        ker_cols = _columns(ker_cols)
    else:
        out_rows = len(outgoing)
        stacked, width = _hstack_z(outgoing, relations_next, out_rows)
        if width == 0:
            ker_cols = _columns([[int(i == j) for j in range(dim)] for i in range(dim)])
        else:
            kern = z_kernel_basis(stacked)
            kcols = len(kern[0]) if kern and kern[0] is not None else 0
            ncols_out = len(outgoing[0]) if outgoing and outgoing[0] else 0
            ker_cols = [
                [kern[i][j] for i in range(ncols_out)] for j in range(kcols)
            ]
    L_im, _ = _hstack_z(incoming, relations_mid, dim)
    for col in ker_cols:
        if not z_lattice_solvable(L_im, col):
            return False
    return True


# --- presentations ------------------------------------------------------------


@dataclass
class ModulePresentation:
    """Cokernel presentation: base^generators modulo the row span of
    relations.  Relation entries are ints (Z, Zpn), WScalar (W), or
    IntPoly in q (Zq)."""

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


@dataclass
class TorsionReport:
    bound: int | None  # None means unbounded at the cap
    cap: int
    torsion_generators: dict[int, list]
    caps_note: str = ""

    @property
    def bounded(self) -> bool:
        return self.bound is not None

    def to_json(self) -> dict:
        return {
            "bound": self.bound if self.bound is not None else "unbounded-at-cap",
            "cap": self.cap,
            "torsion_orders": {
                str(k): v for k, v in sorted(self.torsion_generators.items())
            },
        }


# --- engine: base Z through cyclic decomposition ------------------------------


def _z_cyclic_orders(m: ModulePresentation) -> list[int]:
    """Orders of the cyclic factors (0 for a free factor)."""
    g = m.generators
    if not m.relations:
        return [0] * g
    diag = snf_z([list(map(int, row)) for row in m.relations])
    rank = len(diag)
    orders = [d for d in diag if d != 1]
    orders += [0] * (g - rank)
    return orders


def _order_after_power(d: int, f: int, b: int) -> int:
    """Order of the f^b-torsion of Z/d (d = 0 means Z)."""
    if d == 0:
        return 1 if f != 0 or b == 0 else 0  # 0 marks infinite kernel
    if b == 0:
        return 1
    if f == 0:
        return d
    return gcd(d, f**b)


# --- engine: finite bases via flattening --------------------------------------


class _FiniteEngine:
    """Z/p^N-span machinery for presented modules over Zpn or W."""

    def __init__(self, m: ModulePresentation):
        self.m = m
        self.ctx = m.ctx
        self.modulus = self.ctx.pn
        self.block = 1 if m.base == "Zpn" else self.ctx.m_prec
        self.dim = m.generators * self.block

    def scalar_block(self, value) -> np.ndarray:
        if self.m.base == "Zpn":
            return np.array([[int(value) % self.modulus]], dtype=np.int64)
        if isinstance(value, int):
            value = WScalar.from_int(self.ctx, value)
        return w_mult_block(value)

    def relation_rows(self, extra_scalars=()) -> np.ndarray:
        """Flattened Z-span of the relations plus scalar multiples of the
        generators (used for quotients by ideal elements)."""
        rows = []
        for rel in self.m.relations:
            blocks = [self.scalar_block(v) for v in rel]
            for i in range(self.block):
                row = np.zeros(self.dim, dtype=np.int64)
                for gidx, blk in enumerate(blocks):
                    row[gidx * self.block : (gidx + 1) * self.block] = blk[:, i]
                rows.append(row)
        for s in extra_scalars:
            blk = self.scalar_block(s)
            for gidx in range(self.m.generators):
                for i in range(self.block):
                    row = np.zeros(self.dim, dtype=np.int64)
                    row[gidx * self.block : (gidx + 1) * self.block] = blk[:, i]
                    rows.append(row)
        if not rows:
            return np.zeros((0, self.dim), dtype=np.int64)
        return np.array(rows, dtype=np.int64) % self.modulus

    def mult_matrix(self, f) -> np.ndarray:
        blk = self.scalar_block(f)
        out = np.zeros((self.dim, self.dim), dtype=np.int64)
        for gidx in range(self.m.generators):
            out[
                gidx * self.block : (gidx + 1) * self.block,
                gidx * self.block : (gidx + 1) * self.block,
            ] = blk
        return out


# --- engine: exact Z[q], monic normal forms ------------------------------------


def _monic_action_basis(m: ModulePresentation):
    """Z-basis data for a Zq module: list of per-generator monic relations
    (None marks a free generator).  Only diagonal monic presentations are
    supported; a free generator contributes an infinite Z[q]-summand."""
    rels = m.relations
    if not rels:
        return [None] * m.generators
    if len(rels) != m.generators:
        raise InvalidArgs(
            "Zq base supports one monic relation per generator (diagonal)"
        )
    mono = []
    for i, row in enumerate(rels):
        for j, entry in enumerate(row):
            if j != i and not (isinstance(entry, IntPoly) and entry.is_zero()):
                raise InvalidArgs("Zq relation matrix must be diagonal")
        entry = row[i]
        if not isinstance(entry, IntPoly):
            raise InvalidArgs("Zq relations must be exact polynomials in q")
        if entry.is_zero():
            mono.append(None)
            continue
        deg = entry.degree("q")
        lead = entry.coefficient_poly("q", deg)
        if lead != IntPoly.const(1):
            raise InvalidArgs("Zq relations must be monic in q")
        mono.append(entry)
    return mono


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
        for mon, c in image.terms.items():
            col[mon[0][1] if mon else 0] = c
        cols.append(col)
    return [[cols[j][i] for j in range(e)] for i in range(e)]


# --- torsion bounds -------------------------------------------------------------


def torsion_bound(m: ModulePresentation, f, cap: int = 8) -> TorsionReport:
    """Least b <= cap with ker(f^{b+1}) = ker(f^b), else unbounded-at-cap.

    The per-exponent report records the structure of the f^b-torsion: for
    base Z the factor orders, for finite bases the cyclic orders of the
    flattened torsion subquotient.
    """
    if m.base == "Z":
        orders = _z_cyclic_orders(m)
        f = int(f)
        gens: dict[int, list] = {}
        prev = None
        bound = None
        for b in range(cap + 2):
            sizes = [_order_after_power(d, f, b) for d in orders]
            gens[b] = [s for s in sizes if s != 1]
            if prev is not None and sizes == prev and bound is None:
                bound = b - 1
                break
            prev = sizes
        gens = {b: v for b, v in gens.items() if b <= (bound if bound is not None else cap)}
        return TorsionReport(bound, cap, gens)

    if m.base in ("Zpn", "W"):
        eng = _FiniteEngine(m)
        span = howell_form(eng.relation_rows(), eng.modulus)
        prev_h = None
        gens = {}
        bound = None
        phi = eng.mult_matrix(f)
        power = np.eye(eng.dim, dtype=np.int64)
        for b in range(cap + 2):
            K = _finite_preimage(power, span, eng.modulus)
            h = howell_form(np.vstack([K, span]) if span.shape[0] else K, eng.modulus)
            gens[b] = [int(v) for v in span_exponents(h, eng.ctx.p, eng.ctx.n_prec)]
            if prev_h is not None and _same_span(h, prev_h):
                bound = b - 1
                break
            prev_h = h
            power = (phi @ power) % eng.modulus
        gens = {b: v for b, v in gens.items() if b <= (bound if bound is not None else cap)}
        return TorsionReport(bound, cap, gens)

    if m.base == "Zq":
        mono = _monic_action_basis(m)
        if not isinstance(f, IntPoly):
            f = IntPoly.const(int(f))
        bounds = []
        gens: dict[int, list] = {}
        for relation in mono:
            if relation is None:
                # free summand over a domain: torsion-free unless f = 0
                bounds.append(1 if f.is_zero() else 0)
                continue
            F = _zq_mult_matrix(f, relation)
            e = len(F)
            prev_rank = None
            power = [[int(i == j) for j in range(e)] for i in range(e)]
            local_bound = None
            for b in range(cap + 2):
                diag = snf_z(power) if any(any(r) for r in power) else []
                rank = sum(1 for d in diag if d)
                kdim = e - rank
                gens.setdefault(b, []).append(kdim)
                if prev_rank is not None and rank == prev_rank:
                    local_bound = b - 1
                    break
                prev_rank = rank
                power = [
                    [sum(F[i][k] * power[k][j] for k in range(e)) for j in range(e)]
                    for i in range(e)
                ]
            bounds.append(local_bound)
        if any(b is None for b in bounds):
            return TorsionReport(None, cap, gens, caps_note="monic-basis")
        return TorsionReport(max(bounds, default=0), cap, gens, caps_note="monic-basis")

    raise InvalidArgs(f"unsupported base {m.base}")


def _same_span(h1: np.ndarray, h2: np.ndarray) -> bool:
    return h1.shape == h2.shape and bool((h1 == h2).all())


# --- complexes of presented modules --------------------------------------------


@dataclass
class PresentedComplex:
    """Bounded cochain complex whose terms are direct sums of copies of a
    presented module (possibly further quotiented), with scalar-matrix
    differentials.

    Base Z: terms are lists of cyclic orders (0 = free), differentials are
    integer matrices acting factor-wise.  Finite bases: terms are
    (ambient_dim, relation-span rows), differentials are matrices over
    Z/p^N.
    """

    base: str
    ctx: RingContext | None
    terms: list
    differentials: list

    def exact_at(self, i: int) -> bool:
        if self.base == "Z":
            orders = self.terms[i]
            dim = len(orders)
            incoming = self.differentials[i - 1] if i >= 1 else None
            rel_mid = _orders_to_relations(orders)
            outgoing = self.differentials[i] if i < len(self.differentials) else None
            rel_next = (
                _orders_to_relations(self.terms[i + 1])
                if i + 1 < len(self.terms)
                else None
            )
            return z_exact_at(incoming, rel_mid, outgoing, rel_next, dim)
        # finite bases
        eng_mod = self.ctx.pn
        dim, span = self.terms[i]
        if i < len(self.differentials):
            out_mat = self.differentials[i]
            _dim_next, span_next = self.terms[i + 1]
            K = _finite_preimage(out_mat, span_next, eng_mod)
        else:
            K = np.eye(dim, dtype=np.int64)
        im_rows = [span] if span.shape[0] else []
        if i >= 1:
            im_rows.append(self.differentials[i - 1].T % eng_mod)
        stacked_im = (
            np.vstack(im_rows) if im_rows else np.zeros((0, dim), dtype=np.int64)
        )
        ker_rows = np.vstack([K, span]) if span.shape[0] else K
        p, N = self.ctx.p, self.ctx.n_prec
        return sum(span_exponents(ker_rows, p, N)) == sum(
            span_exponents(stacked_im, p, N)
        )

    def acyclic(self) -> bool:
        return all(self.exact_at(i) for i in range(len(self.terms)))


def _orders_to_relations(orders: list[int]) -> list[list[int]]:
    """Diagonal relation columns for a sum of cyclic groups."""
    dim = len(orders)
    cols = [
        [orders[k] if i == k else 0 for i in range(dim)]
        for k in range(dim)
        if orders[k]
    ]
    if not cols:
        return []
    return [[col[i] for col in cols] for i in range(dim)]


def _finite_preimage(mat: np.ndarray, span: np.ndarray, n: int) -> np.ndarray:
    """Rows spanning {v : mat v in row-span(span)} over Z/n."""
    dim = mat.shape[1]
    if span.shape[0] == 0:
        return right_kernel_basis(mat, n)
    stacked = np.hstack([mat % n, (-span.T) % n])
    kern = right_kernel_basis(stacked, n)
    if kern.shape[0] == 0:
        return np.zeros((0, dim), dtype=np.int64)
    proj = kern[:, :dim] % n
    return proj[proj.any(axis=1)]


def _scalar_pow(m: ModulePresentation, f, e: int):
    if m.base == "Z":
        return int(f) ** e
    if m.base == "Zpn":
        return pow(int(f), e, m.ctx.pn)
    if m.base == "W":
        w = f if isinstance(f, WScalar) else WScalar.from_int(m.ctx, int(f))
        return w**e
    return (f if isinstance(f, IntPoly) else IntPoly.const(int(f))) ** e


def _z_block(scalars: list[list], orders: list[int]) -> list[list[int]]:
    """Integer matrix for a scalar-entry block map on copies of a module
    with the given cyclic orders."""
    a_out = len(scalars)
    a_in = len(scalars[0]) if a_out else 0
    dim = len(orders)
    out = [[0] * (a_in * dim) for _ in range(a_out * dim)]
    for bi in range(a_out):
        for bj in range(a_in):
            s = int(scalars[bi][bj])
            if s:
                for k in range(dim):
                    out[bi * dim + k][bj * dim + k] = s
    return out


def _finite_block(eng: _FiniteEngine, scalars: list[list], extra=()) -> np.ndarray:
    a_out = len(scalars)
    a_in = len(scalars[0]) if a_out else 0
    dim = eng.dim
    out = np.zeros((a_out * dim, a_in * dim), dtype=np.int64)
    for bi in range(a_out):
        for bj in range(a_in):
            out[bi * dim : (bi + 1) * dim, bj * dim : (bj + 1) * dim] = (
                eng.mult_matrix(scalars[bi][bj])
            )
    return out % eng.modulus


def _finite_term(eng: _FiniteEngine, copies: int, quotient_scalars=()) -> tuple:
    span = eng.relation_rows(extra_scalars=quotient_scalars)
    dim = eng.dim
    rows = []
    for c in range(copies):
        for r in span:
            row = np.zeros(copies * dim, dtype=np.int64)
            row[c * dim : (c + 1) * dim] = r
            rows.append(row)
    stacked = (
        np.array(rows, dtype=np.int64)
        if rows
        else np.zeros((0, copies * dim), dtype=np.int64)
    )
    return copies * dim, howell_form(stacked, eng.modulus) if stacked.shape[0] else stacked


def _z_term(m: ModulePresentation, copies: int, quotient_scalars=()) -> list[int]:
    orders = _z_cyclic_orders(m)
    if quotient_scalars:
        s = 1
        for q in quotient_scalars:
            s *= int(q)
        s = abs(s)
        # chained principal quotients collapse to the product for cyclic factors
        orders = [d if s == 0 else (gcd(d, s) if d else s) for d in orders]
    return orders * copies


def koszul_build(
    m: ModulePresentation, f, g=None, n: int = 1, mexp: int = 1
) -> PresentedComplex:
    """One- or two-variable Koszul complex on a presented module.

    One variable: [M -> M] via f^n.  Two variables: the total complex
    M -> M + M -> M of the commuting square with horizontal g^m and
    vertical f^n.
    """
    if n < 1 or mexp < 1:
        raise InvalidArgs("Koszul exponents must be >= 1")
    if m.base == "Zq":
        raise InvalidArgs("Koszul complexes are not supported over exact Z[q]")
    fn = _scalar_pow(m, f, n)
    if m.base == "Z":
        orders = _z_cyclic_orders(m)
        if g is None:
            return PresentedComplex(
                "Z", None, [orders, list(orders)], [_z_block([[fn]], orders)]
            )
        gm = _scalar_pow(m, g, mexp)
        d0 = _z_block([[gm], [fn]], orders)
        d1 = _z_block([[fn, -gm]], orders)
        return PresentedComplex(
            "Z", None, [orders, orders * 2, list(orders)], [d0, d1]
        )
    eng = _FiniteEngine(m)
    t1 = _finite_term(eng, 1)
    if g is None:
        return PresentedComplex(
            m.base, m.ctx, [t1, _finite_term(eng, 1)], [_finite_block(eng, [[fn]])]
        )
    gm = _scalar_pow(m, g, mexp)
    d0 = _finite_block(eng, [[gm], [fn]])
    d1 = _finite_block(eng, [[fn, _neg(m, gm)]])
    return PresentedComplex(
        m.base, m.ctx, [t1, _finite_term(eng, 2), _finite_term(eng, 1)], [d0, d1]
    )


def _neg(m: ModulePresentation, s):
    if m.base == "W":
        return -(s if isinstance(s, WScalar) else WScalar.from_int(m.ctx, int(s)))
    return -int(s)


def koszul_reduction_cone_acyclic(
    m: ModulePresentation, f, g, n: int = 1, mexp: int = 1
) -> bool:
    """Acyclicity of the cone comparing the two-variable Koszul complex
    with [M/g^m -> M/g^m] via f^n, the reduction that holds for
    g-torsion-free modules.

    Cone terms: M -> M+M -> M + M/g^m -> M/g^m, with the comparison legs
    projecting onto the second factor and the quotient.
    """
    if m.base == "Zq":
        raise InvalidArgs("Koszul complexes are not supported over exact Z[q]")
    fn = _scalar_pow(m, f, n)
    gm = _scalar_pow(m, g, mexp)
    if m.base == "Z":
        orders = _z_cyclic_orders(m)
        dim = len(orders)
        q_orders = _z_term(m, 1, [gm])
        d0 = _z_block([[gm], [fn]], orders)
        # (y, z) -> (f^n y - g^m z, ybar)
        d1_top = _z_block([[fn, -gm]], orders)
        d1_bot = _z_block([[1, 0]], orders)
        d1 = [row[:] for row in d1_top] + [row[:] for row in d1_bot]
        # (z, t) -> zbar - f^n tbar
        d2 = _z_block([[1, -fn]], orders)
        terms = [orders, orders * 2, orders + q_orders, q_orders]
        return PresentedComplex("Z", None, terms, [d0, d1, d2]).acyclic()
    eng = _FiniteEngine(m)
    d0 = _finite_block(eng, [[gm], [fn]])
    d1 = np.vstack(
        [
            _finite_block(eng, [[fn, _neg(m, gm)]]),
            _finite_block(eng, [[1, 0]]),
        ]
    )
    d2 = _finite_block(eng, [[1, _neg(m, fn)]])
    dim, span_m = _finite_term(eng, 1)
    _dimq, span_q = _finite_term(eng, 1, [gm])
    span_mid = _direct_sum_spans([span_m, span_q], [dim, dim])
    terms = [
        (dim, span_m),
        _finite_term(eng, 2),
        (2 * dim, span_mid),
        (dim, span_q),
    ]
    return PresentedComplex(m.base, m.ctx, terms, [d0, d1, d2]).acyclic()


def _direct_sum_spans(spans: list[np.ndarray], dims: list[int]) -> np.ndarray:
    total = sum(dims)
    rows = []
    offset = 0
    for span, dim in zip(spans, dims):
        for r in span:
            row = np.zeros(total, dtype=np.int64)
            row[offset : offset + dim] = r
            rows.append(row)
        offset += dim
    return (
        np.array(rows, dtype=np.int64) if rows else np.zeros((0, total), dtype=np.int64)
    )


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
    m: ModulePresentation, f, n_max: int = 4, cap: int = 8
) -> ProIsoReport:
    """Stabilization shift of the torsion pro-system.

    The transition from level n+s to level n on the f-power-torsion is
    multiplication by f^s; the system is pro-zero exactly when some shift
    kills all of it, and the least such shift is reported together with
    per-level verdicts at that shift.
    """
    bound_report = torsion_bound(m, f, cap)
    if not bound_report.bounded:
        raise NotBounded("torsion unbounded at the cap")
    b = bound_report.bound

    def killed(s: int, n: int) -> bool:
        if m.base == "Z":
            orders = _z_cyclic_orders(m)
            fi = int(f)
            for d in orders:
                if d == 0:
                    if fi == 0:
                        return False
                    continue
                g0 = gcd(d, fi ** (n + s)) if fi else d
                elem = d // g0
                if (elem * fi**s) % d:
                    return False
            return True
        if m.base in ("Zpn", "W"):
            eng = _FiniteEngine(m)
            span = howell_form(eng.relation_rows(), eng.modulus)
            phi = eng.mult_matrix(f)
            acc = np.eye(eng.dim, dtype=np.int64)
            for _ in range(n + s):
                acc = (phi @ acc) % eng.modulus
            K = _finite_preimage(acc, span, eng.modulus)
            fs = np.eye(eng.dim, dtype=np.int64)
            for _ in range(s):
                fs = (phi @ fs) % eng.modulus
            h = span if span.shape[0] else None
            for row in K:
                image = (fs @ row) % eng.modulus
                if h is None:
                    if image.any():
                        return False
                elif reduce_against(image, howell_form(span, eng.modulus), eng.modulus).any():
                    return False
            return True
        # Zq, per monic summand
        mono = _monic_action_basis(m)
        fq = f if isinstance(f, IntPoly) else IntPoly.const(int(f))
        for relation in mono:
            if relation is None:
                if fq.is_zero():
                    return False
                continue
            F = _zq_mult_matrix(fq, relation)
            e = len(F)
            acc = [[int(i == j) for j in range(e)] for i in range(e)]
            for _ in range(n + s):
                acc = [
                    [sum(F[i][k] * acc[k][j] for k in range(e)) for j in range(e)]
                    for i in range(e)
                ]
            kern = z_kernel_basis(acc)
            kcols = len(kern[0]) if kern and kern[0] is not None else 0
            fs = [[int(i == j) for j in range(e)] for i in range(e)]
            for _ in range(s):
                fs = [
                    [sum(F[i][k] * fs[k][j] for k in range(e)) for j in range(e)]
                    for i in range(e)
                ]
            for j in range(kcols):
                col = [kern[i][j] for i in range(e)]
                image = [sum(fs[i][k] * col[k] for k in range(e)) for i in range(e)]
                if any(image):
                    return False
        return True

    shift = None
    for s in range(cap + 1):
        if all(killed(s, n) for n in range(1, n_max + 1)):
            shift = s
            break
    if shift is None:
        raise NotBounded("no stabilization shift at the cap")
    per_level = {n: killed(shift, n) for n in range(1, n_max + 1)}
    return ProIsoReport(shift, b, per_level, shift == b)


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


def _quotient_presentation(m: ModulePresentation, scalar) -> ModulePresentation:
    extra = []
    for i in range(m.generators):
        if m.base == "Z":
            row = [int(scalar) if j == i else 0 for j in range(m.generators)]
        elif m.base == "Zpn":
            row = [int(scalar) if j == i else 0 for j in range(m.generators)]
        elif m.base == "W":
            w = scalar if isinstance(scalar, WScalar) else WScalar.from_int(m.ctx, int(scalar))
            row = [w if j == i else WScalar.zero(m.ctx) for j in range(m.generators)]
        else:
            s = scalar if isinstance(scalar, IntPoly) else IntPoly.const(int(scalar))
            row = [s if j == i else IntPoly() for j in range(m.generators)]
        extra.append(row)
    return ModulePresentation(m.base, m.generators, list(m.relations) + extra, m.ctx)


def _g_torsion_free(m: ModulePresentation, g) -> bool:
    if m.base == "Z":
        gi = int(g)
        if gi == 0:
            return all(d == 0 for d in _z_cyclic_orders(m)) and m.generators == 0
        return all(d == 0 or gcd(d, gi) == 1 for d in _z_cyclic_orders(m))
    if m.base in ("Zpn", "W"):
        eng = _FiniteEngine(m)
        span = howell_form(eng.relation_rows(), eng.modulus)
        K = _finite_preimage(eng.mult_matrix(g), span, eng.modulus)
        all_rows = np.vstack([K, span]) if span.shape[0] else K
        p, N = m.ctx.p, m.ctx.n_prec
        return sum(span_exponents(all_rows, p, N)) == sum(span_exponents(span, p, N))
    mono = _monic_action_basis(m)
    gq = g if isinstance(g, IntPoly) else IntPoly.const(int(g))
    if gq.is_zero():
        return all(r is None for r in mono) and m.generators == 0
    for relation in mono:
        if relation is None:
            continue
        F = _zq_mult_matrix(gq, relation)
        diag = snf_z(F) if any(any(r) for r in F) else []
        if sum(1 for d in diag if d) < len(F):
            return False
    return True


def _residue_matrix(m: ModulePresentation) -> np.ndarray:
    """The relation matrix over the residue field F_p."""
    p = m.ctx.p
    out = np.zeros((len(m.relations), m.generators), dtype=np.int64)
    for i, rel in enumerate(m.relations):
        for j, v in enumerate(rel):
            out[i, j] = v.fp_residue() if isinstance(v, WScalar) else int(v) % p
    return out


def bounded_and_flat_check(
    m: ModulePresentation, f, g, torsion_cap: int = 8, formal_window: int = 3
) -> FlatnessReport:
    """Boundedness plus the complete and formal flatness predicates.

    bounded: g-torsion-free and M/gM has a finite f-power-torsion bound.
    completely_flat: M/(f,g)M free over the quotient base and the first
    Tor against base/(f,g) vanishes (computed from a syzygy step).
    formally_flat: M/(f,g)^j M free over base/(f,g)^j through the window.
    """
    details: dict = {}
    quotient = _quotient_presentation(m, g)
    tf = _g_torsion_free(m, g)
    tb = torsion_bound(quotient, f, torsion_cap)
    bounded = tf and tb.bounded
    details["g_torsion_free"] = tf
    details["quotient_torsion_bound"] = tb.bound if tb.bounded else "unbounded-at-cap"

    if m.base == "Z":
        d0 = gcd(int(f), int(g))
        orders = _z_cyclic_orders(m)
        if d0 == 0:
            completely = all(d == 0 for d in orders)
            formally = completely
            details["ideal"] = 0
        elif d0 == 1:
            completely = formally = True
            details["ideal"] = 1
        else:
            completely = all(d == 0 or gcd(d, d0) == 1 for d in orders)
            formally = True
            for j in range(1, formal_window + 1):
                hj = 0
                for a in range(j + 1):
                    hj = gcd(hj, int(f) ** a * int(g) ** (j - a))
                if hj == 0:
                    formally = formally and all(d == 0 for d in orders)
                elif hj > 1:
                    formally = formally and all(
                        d == 0 or gcd(d, hj) in (1, hj) for d in orders
                    )
            details["ideal"] = d0
            details["formal_window"] = formal_window
        return FlatnessReport(bounded, completely, formally, details)

    if m.base in ("Zpn", "W"):
        eng = _FiniteEngine(m)
        p, N = m.ctx.p, m.ctx.n_prec
        # ideal span of (f, g) inside the base ring, flattened
        base_one = ModulePresentation(m.base, 1, [], m.ctx)
        beng = _FiniteEngine(base_one)
        ideal_span = howell_form(beng.relation_rows(extra_scalars=[f, g]), beng.modulus)
        base_log = N * beng.dim
        ideal_log = sum(span_exponents(ideal_span, p, N))
        if ideal_log == base_log:
            details["ideal"] = "unit"
            return FlatnessReport(bounded, True, True, details)
        mu = m.generators - smith_exponents(_residue_matrix(m), p, 1).count(0)
        q_log = base_log - ideal_log
        mq_span = howell_form(
            eng.relation_rows(extra_scalars=[f, g]), eng.modulus
        )
        mq_log = N * eng.dim - sum(span_exponents(mq_span, p, N))
        free_ok = mq_log == mu * q_log
        details["minimal_generators"] = mu
        tor_ok = _tor1_vanishes(m, [f, g])
        completely = free_ok and tor_ok
        details["quotient_free"] = free_ok
        details["tor1_zero"] = tor_ok
        # formal flatness through increasing ideal powers
        formally = True
        power_scalars = [[f, g]]
        j = 1
        prev = ideal_span
        while True:
            span_j = howell_form(
                beng.relation_rows(extra_scalars=_products(m, f, g, j)), beng.modulus
            )
            qj_log = base_log - sum(span_exponents(span_j, p, N))
            mqj_span = howell_form(
                eng.relation_rows(extra_scalars=_products(m, f, g, j)), eng.modulus
            )
            mqj_log = N * eng.dim - sum(span_exponents(mqj_span, p, N))
            if mqj_log != mu * qj_log:
                formally = False
            if _same_span(span_j, prev) and j > 1:
                break
            prev = span_j
            j += 1
            if j > N + m.ctx.m_prec + 2:
                break
        details["formal_powers_checked"] = j
        return FlatnessReport(bounded, completely, formally, details)

    # Zq
    mono = _monic_action_basis(m)
    if all(r is None for r in mono):
        details["free"] = True
        return FlatnessReport(bounded, True, True, details)
    raise InvalidArgs(
        "Zq flatness checks support free modules only; quotient inputs must "
        "be phrased over W or Zpn"
    )


def _products(m: ModulePresentation, f, g, j: int):
    out = []
    for a in range(j + 1):
        out.append(
            _mul_scalar(m, _scalar_pow(m, f, a), _scalar_pow(m, g, j - a))
        )
    return out


def _mul_scalar(m: ModulePresentation, a, b):
    if m.base == "W":
        wa = a if isinstance(a, WScalar) else WScalar.from_int(m.ctx, int(a))
        wb = b if isinstance(b, WScalar) else WScalar.from_int(m.ctx, int(b))
        return wa * wb
    return int(a) * int(b)


def _tor1_vanishes(m: ModulePresentation, ideal_gens) -> bool:
    """First Tor of the module against base/(ideal), from a two-step
    flattened resolution.

    The presentation map sends one free copy of the base per relation onto
    the relation submodule; its flattened kernel supplies the syzygy step,
    so the Tor vanishes iff the preimage of ideal * base^g under the
    presentation equals syzygies + ideal * base^r.
    """
    r = len(m.relations)
    if r == 0:
        return True  # free module
    ctx = m.ctx
    n = ctx.pn
    p, N = ctx.p, ctx.n_prec
    eng = _FiniteEngine(m)
    block = eng.block
    # presentation matrix D1 : base^r -> base^g, flattened blockwise
    d1 = np.zeros((m.generators * block, r * block), dtype=np.int64)
    for c, rel in enumerate(m.relations):
        for gidx, entry in enumerate(rel):
            d1[
                gidx * block : (gidx + 1) * block, c * block : (c + 1) * block
            ] = eng.scalar_block(entry)
    d1 %= n
    free_g = _FiniteEngine(ModulePresentation(m.base, m.generators, [], ctx))
    free_r = _FiniteEngine(ModulePresentation(m.base, r, [], ctx))
    ideal_f0 = howell_form(free_g.relation_rows(extra_scalars=ideal_gens), n)
    ideal_f1 = free_r.relation_rows(extra_scalars=ideal_gens)
    pre = _finite_preimage(d1, ideal_f0, n)
    syz = right_kernel_basis(d1, n)
    im_rows = [rows for rows in (syz, ideal_f1) if rows.shape[0]]
    stacked_im = (
        np.vstack(im_rows)
        if im_rows
        else np.zeros((0, r * block), dtype=np.int64)
    )
    pre_all = np.vstack([pre, stacked_im]) if stacked_im.shape[0] else pre
    return sum(span_exponents(pre_all, p, N)) == sum(
        span_exponents(stacked_im, p, N)
    )
