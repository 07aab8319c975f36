import glob
import os
import random

import pytest

from qprism.adic_diagnostics import (
    ModulePresentation,
    _residue_matrix,
    bounded_and_flat_check,
    koszul_build,
    koszul_reduction_cone_acyclic,
    pro_iso_check,
    torsion_bound,
)
from qprism.base_ring import RingContext, WScalar
from qprism.errors import InvalidArgs, NotBounded
from qprism.exactpoly import IntPoly
from qprism.homology import smith_exponents

from elim_oracle import _fp_rank

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def z_module(generators, relations):
    return ModulePresentation("Z", generators, relations)


def w_module(ctx, generators, relations):
    return ModulePresentation("W", generators, relations, ctx)


def zpn_module(ctx, generators, relations):
    return ModulePresentation("Zpn", generators, relations, ctx)


# --- torsion bounds -------------------------------------------------------------


def test_torsion_bound_free_regular():
    m = z_module(2, [])
    rep = torsion_bound(m, 5)
    assert rep.bound == 0


def test_torsion_bound_z_plus_zp2():
    # Z + Z/p^2 with f = p stabilizes at exponent 2; oracle by enumeration
    # of kernel orders gcd(p^2, p^b): 1, p, p^2, p^2
    for p in (2, 3):
        m = z_module(2, [[0, p * p]])
        rep = torsion_bound(m, p)
        assert rep.bound == 2


def test_torsion_bound_full_torsion():
    ctx = RingContext(2, 4, 1)
    m = zpn_module(ctx, 1, [])
    rep = torsion_bound(m, 2, cap=6)
    assert rep.bound == 4


def test_torsion_bound_w_t_multiplication():
    # t = q - 1 on W: kernel chain stabilizes after one step since t^M = 0
    ctx = RingContext(2, 2, 2)
    m = w_module(ctx, 1, [])
    rep = torsion_bound(m, WScalar.t(ctx), cap=5)
    assert rep.bound == 2  # t, t^2 = 0: kernels grow then stop


def test_torsion_bound_unbounded_never_happens_for_finite():
    ctx = RingContext(2, 2, 1)
    m = zpn_module(ctx, 1, [])
    rep = torsion_bound(m, 2, cap=8)
    assert rep.bounded


def test_torsion_bound_zq_free():
    m = ModulePresentation("Zq", 1, [])
    rep = torsion_bound(m, IntPoly.const(3))
    assert rep.bound == 0


def test_torsion_bound_zq_cyclotomic_quotient():
    # Z[q]/((p)_q) is p-torsion free: bound 0
    from qprism.base_ring import q_int_poly

    for p in (2, 3):
        m = ModulePresentation("Zq", 1, [[q_int_poly(p, 1)]])
        rep = torsion_bound(m, IntPoly.const(p))
        assert rep.bound == 0


# --- Koszul ---------------------------------------------------------------------


def test_koszul_one_variable_cokernel():
    # free rank 1 over W: the end of [M -> M] via 2 is W/2W, nonzero, and
    # 2-torsion exists in the truncation (2 * 2 = 0)
    ctx = RingContext(2, 2, 2)
    m = w_module(ctx, 1, [])
    cx = koszul_build(m, WScalar.from_int(ctx, 2))
    assert not cx.exact_at(1)
    assert not cx.exact_at(0)


def test_koszul_one_variable_regular_element():
    m = z_module(1, [])
    cx = koszul_build(m, 3)
    assert cx.exact_at(0)       # 3 is regular on Z
    assert not cx.exact_at(1)   # Z/3 survives


def test_koszul_zero_module():
    m = z_module(0, [])
    cx = koszul_build(m, 5, 7)
    assert cx.acyclic()


def test_koszul_two_variable_square():
    # total complex of the f,g square on Z: H^2 = Z/(f, g) = Z/gcd
    m = z_module(1, [])
    cx = koszul_build(m, 4, 6)
    assert not cx.exact_at(2)  # Z/gcd(4,6) = Z/2 survives
    assert cx.exact_at(0)


def test_koszul_reduction_cone_z():
    # g-torsion-free fixture: Z + Z/25 with g = 3 coprime to 5
    m = z_module(2, [[0, 25]])
    assert koszul_reduction_cone_acyclic(m, 5, 3, n=1, mexp=1)
    assert koszul_reduction_cone_acyclic(m, 5, 3, n=2, mexp=2)


def test_koszul_reduction_cone_w():
    # free module over W: g = q-1... needs g-torsion-free, so use Zpn base
    ctx = RingContext(3, 2, 1)
    m = zpn_module(ctx, 1, [])
    # over Z/9: g = 1 + 3 = 4 is a unit (torsion-free); f = 3
    assert koszul_reduction_cone_acyclic(m, 3, 4)


def test_koszul_reduction_requires_torsion_free_to_hold():
    # g-torsion present: Z/9 with f = g = 3; the source has kernel in
    # degree zero while the target starts in degree one
    m = z_module(1, [[9]])
    assert not koszul_reduction_cone_acyclic(m, 3, 3)


def test_koszul_zq_unsupported():
    m = ModulePresentation("Zq", 1, [])
    with pytest.raises(InvalidArgs):
        koszul_build(m, IntPoly.const(2))


# --- pro-isomorphism ------------------------------------------------------------


def test_pro_iso_torsion_free_shift_zero():
    m = z_module(1, [])
    rep = pro_iso_check(m, 7, n_max=3)
    assert rep.shift == 0
    assert rep.matches_bound
    assert all(rep.per_level.values())


def test_pro_iso_z_plus_zp2_shift_two():
    for p in (2, 5):
        m = z_module(2, [[0, p * p]])
        rep = pro_iso_check(m, p, n_max=4)
        assert rep.shift == 2
        assert rep.bound == 2
        assert rep.matches_bound


def test_pro_iso_unbounded_raises():
    # f = 0 on a finite group never stabilizes the kernel chain downward,
    # but the chain is constant, so craft an actually-unbounded case is
    # impossible over these bases; instead check the NotBounded wiring via
    # a tiny cap that cuts the search short
    ctx = RingContext(2, 3, 1)
    m = zpn_module(ctx, 1, [])
    with pytest.raises(NotBounded):
        pro_iso_check(m, 2, n_max=2, cap=1)


def test_pro_iso_w_base():
    ctx = RingContext(2, 2, 2)
    m = w_module(ctx, 1, [])
    rep = pro_iso_check(m, WScalar.from_int(ctx, 2), n_max=3, cap=6)
    assert rep.matches_bound


# --- boundedness and flatness ----------------------------------------------------


def test_free_module_all_flat():
    # the truncated base ring itself has (q-1)-torsion, so boundedness
    # fails down here even though both flatness predicates hold; honest
    # bounded fixtures live over the exact bases
    ctx = RingContext(2, 2, 2)
    m = w_module(ctx, 1, [])
    rep = bounded_and_flat_check(m, WScalar.from_int(ctx, 2), WScalar.t(ctx))
    assert rep.completely_flat and rep.formally_flat
    assert not rep.details["g_torsion_free"]


def test_w_mod_t_not_completely_flat():
    # W/(q-1) over W: Tor_1 against W/(p, q-1) is nonzero because q-1 is a
    # zero divisor direction; computed from the length-1 resolution
    ctx = RingContext(2, 2, 2)
    m = w_module(ctx, 1, [[WScalar.t(ctx)]])
    rep = bounded_and_flat_check(m, WScalar.from_int(ctx, 2), WScalar.t(ctx))
    assert not rep.completely_flat
    assert rep.details["tor1_zero"] is False


def test_zq_free_bounded():
    # Z[q] with (f, g) = (p, (p)_q): g-torsion free, quotient p-torsion free
    from qprism.base_ring import q_int_poly

    for p in (2, 3):
        m = ModulePresentation("Zq", 1, [])
        rep = bounded_and_flat_check(m, IntPoly.const(p), q_int_poly(p, 1))
        assert rep.bounded
        assert rep.completely_flat and rep.formally_flat


def test_z_flatness_examples():
    # free: all true
    rep = bounded_and_flat_check(z_module(1, []), 2, 3)
    assert rep.bounded and rep.completely_flat and rep.formally_flat
    # the unit ideal makes the predicates vacuous
    rep = bounded_and_flat_check(z_module(1, [[4]]), 2, 3)
    assert rep.completely_flat and rep.details["ideal"] == 1
    # p-torsion kills complete flatness against a non-unit ideal
    rep = bounded_and_flat_check(z_module(1, [[4]]), 2, 6)
    assert not rep.completely_flat


def test_complete_implies_formal_on_fixtures():
    ctx = RingContext(2, 2, 2)
    fixtures = [
        (w_module(ctx, 1, []), WScalar.from_int(ctx, 2), WScalar.t(ctx)),
        (w_module(ctx, 2, []), WScalar.from_int(ctx, 2), WScalar.t(ctx)),
        (w_module(ctx, 1, [[WScalar.t(ctx)]]), WScalar.from_int(ctx, 2), WScalar.t(ctx)),
        (z_module(2, [[0, 9]]), 3, 5),
    ]
    for m, f, g in fixtures:
        rep = bounded_and_flat_check(m, f, g)
        if rep.completely_flat:
            assert rep.formally_flat


def test_zq_quotient_flatness_unsupported():
    from qprism.base_ring import q_int_poly

    m = ModulePresentation("Zq", 1, [[q_int_poly(2, 1)]])
    with pytest.raises(InvalidArgs):
        bounded_and_flat_check(m, IntPoly.const(2), IntPoly.const(3))


def test_presentation_validation():
    with pytest.raises(InvalidArgs):
        ModulePresentation("Q", 1, [])
    with pytest.raises(InvalidArgs):
        ModulePresentation("W", 1, [])
    with pytest.raises(InvalidArgs):
        ModulePresentation("Z", 2, [[1]])


def test_torsion_bound_monotone_under_regular_quotients():
    # quotient by an element acting injectively cannot raise the bound
    cases = [
        (z_module(2, [[0, 4]]), 2, [3, 5, 7]),
        (z_module(2, [[0, 27]]), 3, [2, 5]),
        (z_module(1, []), 2, [3, 9]),
    ]
    for m, f, regulars in cases:
        base_bound = torsion_bound(m, f).bound
        for h in regulars:
            rows = [list(r) for r in m.relations]
            rows += [
                [h if j == i else 0 for j in range(m.generators)]
                for i in range(m.generators)
            ]
            quotient = z_module(m.generators, rows)
            q_bound = torsion_bound(quotient, f).bound
            assert q_bound is not None and q_bound <= base_bound


def test_pro_iso_zq_monic_quotient():
    from qprism.base_ring import q_int_poly

    m = ModulePresentation("Zq", 1, [[q_int_poly(3, 1)]])
    rep = pro_iso_check(m, IntPoly.const(3), n_max=3)
    assert rep.shift == 0 and rep.matches_bound


def test_pro_iso_bound_one_completion_agreement():
    # torsion bound 1: the completion towers agree levelwise with shift 1
    for p in (2, 3):
        m = z_module(2, [[0, p]])
        assert torsion_bound(m, p).bound == 1
        rep = pro_iso_check(m, p, n_max=4)
        assert rep.shift == 1 and rep.matches_bound
        assert all(rep.per_level.values())


# --- F_p rank of the relations: chain-ring kernel against the oracle -----------


def fp_rank(m):
    return smith_exponents(_residue_matrix(m), m.ctx.p, 1).count(0)


def test_fp_rank_on_adic_fixtures():
    from qprism.cli import _load_adic_spec

    paths = sorted(glob.glob(os.path.join(FIXTURES, "adic_*.json")))
    assert len(paths) == 3
    for path in paths:
        m, _f, _g, _spec = _load_adic_spec(path)
        if m.base in ("Zpn", "W"):
            modules = [m]
        else:
            # exact bases: read the relations over Z/p^2 at q = 1
            rows = [
                [v.eval_int({"q": 1}) if isinstance(v, IntPoly) else int(v) for v in rel]
                for rel in m.relations
            ]
            modules = [
                zpn_module(RingContext(p, 2, 1), m.generators, rows) for p in (2, 3)
            ]
        for mod in modules:
            assert fp_rank(mod) == _fp_rank(mod), path


def test_fp_rank_on_random_relations():
    rng = random.Random(227)
    for _ in range(200):
        p = rng.choice((2, 3, 5))
        ctx = RingContext(p, rng.randint(1, 3), rng.randint(1, 3))
        gens, rels = rng.randint(0, 5), rng.randint(0, 5)
        if rng.random() < 0.5:
            rows = [[rng.randrange(ctx.pn) for _ in range(gens)] for _ in range(rels)]
            m = zpn_module(ctx, gens, rows)
        else:
            rows = [
                [
                    WScalar(ctx, [rng.randrange(ctx.pn) for _ in range(ctx.m_prec)])
                    for _ in range(gens)
                ]
                for _ in range(rels)
            ]
            m = w_module(ctx, gens, rows)
        assert fp_rank(m) == _fp_rank(m)
