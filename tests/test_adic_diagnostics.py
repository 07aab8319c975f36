import glob
import itertools
import os
import random
import time

import pytest

from qprism.adic_diagnostics import (
    ModulePresentation,
    _engine,
    _ZqEngine,
    _g_torsion_free,
    _torsion_report,
    bounded_and_flat_check,
    koszul_reduction_cone_acyclic,
    pro_iso_check,
    torsion_bound,
)
from qprism.base_ring import RingContext, WScalar
from qprism.errors import InvalidArgs, NotBounded
from qprism.exactpoly import IntPoly
from elim_oracle import (
    PresentedComplex,
    _fp_rank,
    _quotient_presentation,
    complex_engine,
    generic_cone_acyclic,
    koszul_build,
    oracle_engine,
    w_twin,
)

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


ZQ_KOSZUL_REFUSAL = "Koszul complexes are not supported over exact Z[q]"


def _cone_verdict(cone, m, *args):
    """A cone's verdict, or the refusal it raises."""
    try:
        return cone(m, *args)
    except InvalidArgs as exc:
        return f"InvalidArgs: {exc}"


def test_reduction_cone_matches_the_generic_cone():
    # each engine's closed form, f^n bijective on the g^m-torsion, against
    # the four-term cone of the generic complex route, verdict by verdict and
    # refusal by refusal; scalars lean to 0, +-1, p-powers and units so that
    # both verdicts, free factors with g = 0, g^m = 0 and the Zq refusal
    # come up
    rng = random.Random(313)
    q = IntPoly.var("q")
    verdicts = {(base, v): 0 for base in ("Z", "Zpn", "W") for v in (True, False)}
    seen = dict.fromkeys(("z_free_g_zero", "finite_gm_zero", "zq_refusal"), 0)
    for case in range(2400):
        base = ("Z", "Zpn", "W", "Zq")[case % 4]
        p, N, mp = rng.choice((2, 3, 5)), rng.randint(1, 3), rng.randint(1, 3)
        ctx = RingContext(p, N, mp if base == "W" else 1) if base in ("Zpn", "W") else None

        def integer():
            kind = rng.random()
            if kind < 0.3:
                return rng.choice((0, 1, -1))
            unit = rng.choice((1, -1, p + 1, 2 * p - 1, -p - 1))
            return unit if kind < 0.4 else unit * p ** rng.randint(1, 3)

        def scalar():
            if base == "W":
                lead = 0 if rng.random() < 0.6 else rng.randint(1, mp)
                return WScalar(ctx, [0] * lead + [integer() % ctx.pn for _ in range(mp - lead)])
            return integer() + integer() * q if base == "Zq" else integer()

        gens = rng.randint(0, 4)
        rows = [] if base == "Zq" and rng.random() < 0.5 else [
            [scalar() for _ in range(gens)] for _ in range(rng.randint(0, 4))
        ]
        m = ModulePresentation(base, gens, rows, ctx)
        args = scalar(), scalar(), rng.randint(1, 3), rng.randint(1, 3)
        got = _cone_verdict(koszul_reduction_cone_acyclic, m, *args)
        assert got == _cone_verdict(generic_cone_acyclic, m, *args), case
        if base == "Zq":
            seen["zq_refusal"] += got == f"InvalidArgs: {ZQ_KOSZUL_REFUSAL}"
            continue
        verdicts[base, got] += 1
        g_zero = m.scalar(m.scalar(args[1]) ** args[3]) == m.scalar(0)
        seen["z_free_g_zero"] += base == "Z" and 0 in m.engine.orders and g_zero
        seen["finite_gm_zero"] += base != "Z" and g_zero
        # the reduction holds for g-torsion-free modules
        if _g_torsion_free(m, args[1]):
            assert got, case
    assert min(verdicts.values()) >= 100, verdicts
    assert min(seen.values()) >= 20, seen


# --- pro-isomorphism ------------------------------------------------------------


def test_pro_iso_torsion_free_shift_zero():
    m = z_module(1, [])
    rep = pro_iso_check(m, 7, torsion_bound(m, 7), n_max=3)
    assert rep.shift == 0
    assert rep.matches_bound
    assert all(rep.per_level.values())


def test_pro_iso_z_plus_zp2_shift_two():
    for p in (2, 5):
        m = z_module(2, [[0, p * p]])
        rep = pro_iso_check(m, p, torsion_bound(m, p), n_max=4)
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
        pro_iso_check(m, 2, torsion_bound(m, 2, 1), n_max=2)


def test_pro_iso_w_base():
    ctx = RingContext(2, 2, 2)
    m = w_module(ctx, 1, [])
    f = WScalar.from_int(ctx, 2)
    rep = pro_iso_check(m, f, torsion_bound(m, f, 6), n_max=3)
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
    rep = pro_iso_check(m, IntPoly.const(3), torsion_bound(m, IntPoly.const(3)), n_max=3)
    assert rep.shift == 0 and rep.matches_bound


def test_pro_iso_bound_one_completion_agreement():
    # torsion bound 1: the completion towers agree levelwise with shift 1
    for p in (2, 3):
        m = z_module(2, [[0, p]])
        assert torsion_bound(m, p).bound == 1
        rep = pro_iso_check(m, p, torsion_bound(m, p), n_max=4)
        assert rep.shift == 1 and rep.matches_bound
        assert all(rep.per_level.values())


# --- F_p rank of the relations: chain-ring kernel against the oracle -----------


def fp_rank(m):
    # a Zpn module's engine keeps no flattened rows, so read them off its W twin
    return (w_twin(m) if m.base == "Zpn" else m).engine._residue_rank()


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


# --- f = 0 and g = 0 edge cases ------------------------------------------------


def test_pro_iso_zero_f_kills_from_shift_one():
    # 0^s kills everything once s >= 1, free summands included
    ctx = RingContext(3, 2, 1)
    cases = [
        (z_module(1, []), 0),
        (z_module(2, [[0, 4]]), 0),
        (ModulePresentation("Zq", 1, []), IntPoly()),
        (ModulePresentation("Zq", 1, [[IntPoly.var("q") - 2]]), IntPoly.var("q") - 2),
        (zpn_module(ctx, 1, []), 0),
        (w_module(RingContext(2, 2, 2), 1, []), 0),
    ]
    for m, f in cases:
        rep = pro_iso_check(m, f, torsion_bound(m, f), n_max=3)
        assert (rep.shift, rep.bound) == (1, 1), m
        assert rep.matches_bound and all(rep.per_level.values())


def test_zero_module_is_torsion_free_for_g_zero():
    ctx = RingContext(2, 2, 2)
    modules = [
        z_module(1, [[1]]),
        z_module(2, [[1, 0], [0, -1]]),
        ModulePresentation("Zq", 1, [[IntPoly.const(1)]]),
        zpn_module(ctx, 1, [[1]]),
        w_module(ctx, 1, [[WScalar.one(ctx)]]),
    ]
    for m in modules:
        assert _g_torsion_free(m, 0), m
    for m in modules[:2] + modules[3:]:
        rep = bounded_and_flat_check(m, 2, 0)
        assert rep.details["g_torsion_free"] and rep.bounded, m
    # a nonzero module has 0-torsion
    assert not _g_torsion_free(z_module(1, [[3]]), 0)
    assert not _g_torsion_free(ModulePresentation("Zq", 1, []), 0)


# --- cross-base oracle -----------------------------------------------------------


def _predicates(m, f, g, n, mexp):
    rep = pro_iso_check(m, f, torsion_bound(m, f), n_max=3)
    cx = koszul_build(m, f, g, n, mexp)
    return {
        "bound": torsion_bound(m, f).bound,
        "shift": rep.shift,
        "per_level": rep.per_level,
        "g_torsion_free": _g_torsion_free(m, g),
        "koszul": [cx.exact_at(i) for i in range(3)],
        "cone": koszul_reduction_cone_acyclic(m, f, g, n, mexp),
    }


def test_cross_base_oracle_z_zpn_w():
    # M over Z/p^N, presented over Z (with p^N I among the relations), over
    # Zpn and over W with m_prec = 1, where W is Z/p^N: every predicate agrees
    rng = random.Random(303)
    for _ in range(150):
        p, N = rng.choice((2, 3)), rng.randint(1, 3)
        pn = p**N
        ctx = RingContext(p, N, 1)
        gens = rng.randint(1, 3)
        rows = [[rng.randrange(pn) for _ in range(gens)] for _ in range(rng.randint(0, 3))]
        f, g = rng.randrange(pn), rng.randrange(pn)
        n, mexp = rng.randint(1, 2), rng.randint(1, 2)
        torsion = [[pn if j == i else 0 for j in range(gens)] for i in range(gens)]
        want = _predicates(z_module(gens, rows + torsion), f, g, n, mexp)
        assert _predicates(zpn_module(ctx, gens, rows), f, g, n, mexp) == want
        assert _predicates(w_module(ctx, gens, rows), f, g, n, mexp) == want


def test_cross_base_oracle_zq_line():
    # Z[q]/(q - a) is Z with q acting as a, so f acts as the integer f(a)
    rng = random.Random(304)
    q = IntPoly.var("q")
    for _ in range(60):
        a = rng.randint(-3, 3)
        f = (q - a) * rng.randint(-2, 2) * q + rng.choice((0, 0, 1, 2, 3, -2))
        g = q ** rng.randint(0, 2) - rng.choice((a, a, 1, 0))
        fa, ga = f.eval_int({"q": a}), g.eval_int({"q": a})
        zq, z = ModulePresentation("Zq", 1, [[q - a]]), z_module(1, [])
        assert torsion_bound(zq, f).bound == torsion_bound(z, fa).bound
        rq = pro_iso_check(zq, f, torsion_bound(zq, f), n_max=3)
        rz = pro_iso_check(z, fa, torsion_bound(z, fa), n_max=3)
        assert (rq.shift, rq.per_level) == (rz.shift, rz.per_level)
        assert _g_torsion_free(zq, g) == _g_torsion_free(z, ga)


def test_pro_iso_zq_degree_two_summand():
    # Z[q]/(q^2 - q) with f = q: q is idempotent there, so the q-torsion,
    # spanned by 1 - q, is all of the q^k-torsion and q kills it
    q = IntPoly.var("q")
    m = ModulePresentation("Zq", 1, [[q * q - q]])
    assert torsion_bound(m, q).bound == 1
    rep = pro_iso_check(m, q, torsion_bound(m, q), n_max=3)
    assert rep.shift == 1 and all(rep.per_level.values())
    # q on Z[q]/(q^2) is nilpotent: the q-torsion is everything from q^2 on
    m = ModulePresentation("Zq", 1, [[q * q]])
    rep = pro_iso_check(m, q, torsion_bound(m, q), n_max=3)
    assert (rep.shift, rep.bound) == (2, 2)


def test_w_flatness_details_on_quotient_fixture():
    # W/(q-1) with (f, g) = (2, q-1), as in fixtures/adic_w_quotient.json and
    # its --grow rerun; every detail of the finite flatness core is pinned
    for (n, mp), powers, bound in (((2, 2), 4, 2), ((3, 3), 6, 3)):
        ctx = RingContext(2, n, mp)
        t = WScalar.t(ctx)
        rep = bounded_and_flat_check(w_module(ctx, 1, [[t]]), 2, t)
        assert (rep.bounded, rep.completely_flat, rep.formally_flat) == (False, False, False)
        assert rep.details == {
            "formal_powers_checked": powers,
            "g_torsion_free": False,
            "minimal_generators": 1,
            "quotient_free": True,
            "quotient_torsion_bound": bound,
            "tor1_zero": False,
        }


def _enumerated_torsion(m, f, k_max):
    """For k <= k_max, which vectors of the flattened ambient group of a
    W-module lie in the f^k-torsion, found by listing the relation group."""
    ctx = m.ctx
    n, mp, t = ctx.pn, ctx.m_prec, WScalar.t(ctx)
    relations = {(0,) * (m.generators * mp)}
    for rel in m.relations:
        for i in range(mp):
            gen = sum(((v * t**i).coeffs for v in rel), ())
            relations = {
                tuple((a + c * b) % n for a, b in zip(vec, gen))
                for vec in relations
                for c in range(n)
            }
    vectors = list(itertools.product(range(n), repeat=m.generators * mp))

    def zero_after(vec, k):
        """Whether f^k kills the class of vec."""
        blocks = [WScalar(ctx, vec[j * mp : (j + 1) * mp]) for j in range(m.generators)]
        return sum(((w * f**k).coeffs for w in blocks), ()) in relations

    torsion = [[v for v in vectors if zero_after(v, k)] for k in range(k_max + 1)]
    return torsion, zero_after


def test_w_torsion_and_pro_iso_against_enumeration():
    rng = random.Random(305)
    for _ in range(30):
        p, N, mp = rng.choice(((2, 1, 2), (2, 2, 2), (3, 1, 2), (2, 1, 3)))
        ctx = RingContext(p, N, mp)
        gens = rng.randint(1, 2)

        def scalar():
            return WScalar(ctx, [rng.randrange(ctx.pn) for _ in range(mp)])

        m = w_module(ctx, gens, [[scalar() for _ in range(gens)] for _ in range(rng.randint(0, 2))])
        f = scalar()
        torsion, zero_after = _enumerated_torsion(m, f, 12)
        bound = next(b for b in range(12) if len(torsion[b + 1]) == len(torsion[b]))
        assert torsion_bound(m, f).bound == bound
        rep = pro_iso_check(m, f, torsion_bound(m, f), n_max=3)

        def kills(s, k):
            return all(zero_after(v, s) for v in torsion[k])

        shift = next(s for s in range(9) if all(kills(s, n + s) for n in (1, 2, 3)))
        assert rep.shift == shift
        assert rep.per_level == {n: kills(shift, n + shift) for n in (1, 2, 3)}


def test_pro_iso_check_builds_one_engine(monkeypatch):
    # the torsion bound and the shift search share one engine and its annihilator
    from qprism import adic_diagnostics

    built = []
    engine = adic_diagnostics._engine
    monkeypatch.setattr(adic_diagnostics, "_engine", lambda m: built.append(m) or engine(m))
    ctx = RingContext(2, 2, 2)
    m = w_module(ctx, 1, [[WScalar.t(ctx)]])
    report = pro_iso_check(m, 2, torsion_bound(m, 2))
    assert len(built) == 1
    assert report.bound == torsion_bound(m, 2).bound


# --- the earlier engine routes as oracles ------------------------------------------


def _outcome(call):
    """A predicate's report as JSON, or the refusal it raises."""
    try:
        return call().to_json()
    except NotBounded as exc:
        return f"NotBounded: {exc}"


def _every_predicate(m, f, g, n, mexp):
    one, two = koszul_build(m, f, None, n), koszul_build(m, f, g, n, mexp)
    return {
        "bound": _outcome(lambda: torsion_bound(m, f)),
        "pro_iso": _outcome(lambda: pro_iso_check(m, f, torsion_bound(m, f), n_max=3)),
        "flat": _outcome(lambda: bounded_and_flat_check(m, f, g)),
        "koszul_one": [one.exact_at(i) for i in range(2)],
        "koszul_two": [two.exact_at(i) for i in range(3)],
        "cone": koszul_reduction_cone_acyclic(m, f, g, n, mexp),
    }


def _with_oracle(monkeypatch, predicates, m, *args):
    """The predicates from the library's engines and from the oracle's.  A
    presentation keeps the engine it built first, so the oracle's side runs
    on a fresh copy, and it must have built an oracle engine for it."""
    from qprism import adic_diagnostics

    got = predicates(m, *args)
    built = []
    fresh = ModulePresentation(m.base, m.generators, m.relations, m.ctx)
    with monkeypatch.context() as patch:
        patch.setattr(adic_diagnostics, "_engine", lambda m: built.append(m) or oracle_engine(m))
        want = predicates(fresh, *args)
    assert built and built[0] is fresh
    assert type(fresh.engine).__module__ == "elim_oracle"
    return got, want


def _engine_answers(eng, m, f, g, n, mexp, rng):
    """One answer from eng to each engine question: torsion orders, kills,
    exactness and Tor_1."""
    two = koszul_build(m, f, g, n, mexp)
    s, k = rng.randint(0, 2), rng.randint(0, 3)
    return {
        "torsion": _torsion_report(eng, f, 8).to_json(),
        "kills": eng.kills(f, s, k),
        "exact": PresentedComplex(complex_engine(eng), two.terms, two.differentials).exact_at(
            rng.randint(0, 2)
        ),
        "tor1": eng._tor1_vanishes([f, g]),
    }


def test_finite_engines_match_the_preimage_oracle(monkeypatch):
    # span orders off one annihilator against a Howell preimage kernel per
    # question, engine by engine on every case and through every predicate
    # on every 20th; scalars lean to high p- and t-adic valuation so that
    # the modules have torsion and Tor, and a Zpn module is flattened as its
    # W twin
    rng = random.Random(306)
    tor1 = 0
    for case in range(1000):
        p, N, mp = rng.choice((2, 3, 5)), rng.randint(1, 3), rng.randint(1, 3)
        base = rng.choice(("Zpn", "W"))
        ctx = RingContext(p, N, mp if base == "W" else 1)

        def scalar():
            coeffs = [p ** rng.randint(0, N) * rng.randrange(ctx.pn) % ctx.pn for _ in range(mp)]
            if base == "Zpn":
                return coeffs[0]
            lead = rng.randint(0, mp - 1)
            return WScalar(ctx, [0] * lead + coeffs[lead:])

        gens = rng.randint(1, 3)
        rows = [[scalar() for _ in range(gens)] for _ in range(rng.randint(0, 3))]
        m = ModulePresentation(base, gens, rows, ctx)
        m = w_twin(m) if base == "Zpn" else m
        args = m, m.scalar(scalar()), m.scalar(scalar()), rng.randint(1, 2), rng.randint(1, 2)
        seed = rng.random()
        got = _engine_answers(_engine(m), *args, random.Random(seed))
        assert got == _engine_answers(oracle_engine(m), *args, random.Random(seed)), case
        tor1 += not got["tor1"]
        if case % 20 == 0:
            got, want = _with_oracle(monkeypatch, _every_predicate, *args)
            assert got == want, case
    assert tor1 >= 10


def test_z_engine_matches_the_per_vector_oracle(monkeypatch):
    rng = random.Random(307)
    for case in range(200):
        gens = rng.randint(1, 3)
        rows = [[rng.randint(-6, 6) for _ in range(gens)] for _ in range(rng.randint(0, 3))]
        args = z_module(gens, rows), rng.randint(-4, 4), rng.randint(-4, 4), 1, rng.randint(1, 2)
        got, want = _with_oracle(monkeypatch, _every_predicate, *args)
        assert got == want, case


def _zq_predicates(m, f, g):
    return {
        "bound": _outcome(lambda: torsion_bound(m, f)),
        "pro_iso": _outcome(lambda: pro_iso_check(m, f, torsion_bound(m, f), n_max=3)),
        "g_torsion_free": _g_torsion_free(m, g),
    }


def test_zq_kills_matches_the_kernel_oracle(monkeypatch):
    # ranks of stacked powers against dot products with integer kernel vectors
    rng = random.Random(308)
    q = IntPoly.var("q")

    def poly(degree):
        return sum((rng.randint(-2, 2) * q**i for i in range(degree + 1)), IntPoly.const(0))

    shifts = set()
    for case in range(300):
        gens = rng.randint(1, 3)
        degrees = [rng.randint(0, 3) for _ in range(gens)]
        # degree 0 marks a free generator
        diagonal = [q**e + poly(e - 1) if e else 0 for e in degrees]
        rows = [[diagonal[i] if j == i else 0 for j in range(gens)] for i in range(gens)]
        m = ModulePresentation("Zq", gens, rows)
        got, want = _with_oracle(monkeypatch, _zq_predicates, m, poly(2), poly(1))
        assert got == want, case
        shifts.add(got["pro_iso"]["shift"] if isinstance(got["pro_iso"], dict) else None)
    assert len(shifts) >= 3


# --- one engine per module, and M/sM built by the engine ---------------------------


def test_adic_w_quotient_builds_three_engines(monkeypatch, capsys):
    # M, M/gM and the base: every predicate shares the module's engine
    from qprism import adic_diagnostics
    from qprism.cli import run_command

    built = []
    init = adic_diagnostics._FiniteEngine.__init__
    monkeypatch.setattr(
        adic_diagnostics._FiniteEngine, "__init__", lambda *a, **k: built.append(a) or init(*a, **k)
    )
    assert run_command(["adic", "--spec", os.path.join(FIXTURES, "adic_w_quotient.json")]) == 0
    capsys.readouterr()
    assert len(built) == 3


def _random_module(rng, base, gens):
    """A seeded module over base on gens generators with sparse relations,
    and a draw of its scalars.  Scalars lean to high valuation, and over Z
    to a few small values, so that torsion is common and cyclic orders
    repeat."""
    q = IntPoly.var("q")
    if base == "Z":
        def scalar():
            return rng.choice((0, 1, 2, 3, 4, 6, 9, -2, -3))
        ctx = None
    elif base == "Zq":
        def scalar():
            return sum((rng.randint(-2, 2) * q**i for i in range(3)), IntPoly.const(0))
        # diagonal monic relations, zero ones marking free generators, or none at all
        if rng.random() < 0.4:
            return ModulePresentation("Zq", gens, []), scalar
        diagonal = [q**e + scalar() * (e > 2) + rng.randint(-2, 2) if e else 0
                    for e in (rng.randint(0, 2) for _ in range(gens))]
        rows = [[diagonal[i] if j == i else 0 for j in range(gens)] for i in range(gens)]
        return ModulePresentation("Zq", gens, rows), scalar
    else:
        p, N, mp = rng.choice((2, 3)), rng.randint(1, 3), rng.randint(1, 2)
        ctx = RingContext(p, N, mp if base == "W" else 1)

        def scalar():
            coeffs = [p ** rng.randint(0, N) * rng.randrange(ctx.pn) % ctx.pn for _ in range(mp)]
            if base == "Zpn":
                return coeffs[0]
            lead = rng.randint(0, mp - 1)
            return WScalar(ctx, [0] * lead + coeffs[lead:])
    rows = []
    for _ in range(rng.randint(0, min(gens, 4))):
        row = [0] * gens
        for j in rng.sample(range(gens), min(gens, rng.randint(1, 2))):
            row[j] = scalar()
        rows.append(row)
    return ModulePresentation(base, gens, rows, ctx), scalar


def _koszul_on(eng, fn, gm):
    """The two-variable Koszul complex of `koszul_build`, on an engine."""
    eng = complex_engine(eng)
    terms = [eng.term([None]), eng.term([None, None]), eng.term([None])]
    return PresentedComplex(eng, terms, [eng.block([[gm], [fn]]), eng.block([[fn, -gm]])])


def _quotient_answers(make, f, g, s, k):
    """Torsion report, one `kills` and Koszul exactness from the engine
    make() builds, or the refusal it raises."""
    try:
        eng = make()
    except InvalidArgs as exc:
        return f"InvalidArgs: {exc}"
    torsion = _torsion_report(eng, f, 8).to_json()
    # Z reports its cyclic orders as a multiset, in the order of a Smith form
    torsion["torsion_orders"] = {b: sorted(v) for b, v in torsion["torsion_orders"].items()}
    answers = {"torsion": torsion, "kills": eng.kills(f, s, k)}
    if not isinstance(eng, _ZqEngine):
        answers["koszul"] = [_koszul_on(eng, f, g).exact_at(i) for i in range(3)]
    return answers


def test_quotient_matches_the_dense_quotient_presentation():
    # M/sM from the engine's own data against the engine of the presentation
    # with s times each generator among the relations; over Z and the finite
    # bases the oracle engine of that presentation answers too
    rng = random.Random(310)
    bases = ("Z", "Zpn", "W", "Zq")
    repeated, refusals = 0, set()
    for case in range(160):
        base = bases[case % 4]
        gens = 0 if case < 8 else rng.randint(4, 12)
        m, scalar = _random_module(rng, base, gens)
        s = m.scalar(0 if case % 5 == 0 else scalar())
        f, g = m.scalar(scalar()), m.scalar(scalar())
        args = f, g, rng.randint(0, 2), rng.randint(0, 3)
        got = _quotient_answers(lambda: m.engine.quotient(s), *args)
        dense = _quotient_presentation(m, s)
        assert got == _quotient_answers(lambda: _engine(dense), *args), case
        if base != "Zq":
            assert got == _quotient_answers(lambda: oracle_engine(dense), *args), case
        if base == "Z":
            orders = m.engine.quotient(s).orders
            repeated += len(set(orders)) < len(orders)
        if isinstance(got, str):
            refusals.add(got)
    assert repeated >= 10
    assert refusals == {
        "InvalidArgs: Zq base supports one monic relation per generator (diagonal)",
        "InvalidArgs: Zq relations must be monic in q",
    }


def test_pro_iso_check_matches_the_per_level_definition():
    # one `kills` per candidate shift against the definition: the least s at
    # which f^s kills the f^(n+s)-torsion at every level n, and those verdicts
    rng = random.Random(311)
    bases = ("Z", "Zpn", "W", "Zq")
    shifts = set()
    for case in range(200):
        m, scalar = _random_module(rng, bases[case % 4], rng.randint(1, 4))
        f, n_max, cap = m.scalar(scalar()), rng.randint(1, 5), rng.randint(0, 6)
        eng, levels = m.engine, range(1, n_max + 1)
        if not _torsion_report(eng, f, cap).bounded:
            with pytest.raises(NotBounded):
                pro_iso_check(m, f, torsion_bound(m, f, cap), n_max)
            continue
        shift = next(s for s in range(cap + 1) if all(eng.kills(f, s, n + s) for n in levels))
        rep = pro_iso_check(m, f, torsion_bound(m, f, cap), n_max)
        assert rep.shift == shift, case
        assert rep.per_level == {n: eng.kills(f, shift, n + shift) for n in levels}, case
        shifts.add(shift)
    assert len(shifts) >= 3


def test_pro_iso_check_with_20000_levels_is_fast():
    from qprism.cli import _load_adic_spec

    for name in ("adic_w_quotient.json", "adic_z_torsion.json"):
        m, f, _g, _spec = _load_adic_spec(os.path.join(FIXTURES, name))
        start = time.perf_counter()
        rep = pro_iso_check(m, f, torsion_bound(m, f), n_max=20000)
        assert time.perf_counter() - start < 1
        assert len(rep.per_level) == 20000 and all(rep.per_level.values())


# --- Zpn on Smith exponents against the flattened route of its W twin ----------------


def test_zpn_engine_matches_its_w_twin():
    # W(p, N, 1) is Z/p^N, so the W engine's flattened route is the oracle of
    # the Zpn engine's closed forms; entries and scalars lean to zero and to
    # high p-adic valuation, so that every case named in `seen` comes up
    rng = random.Random(312)
    seen = dict.fromkeys(("tor1_nonzero", "unit_ideal", "f_zero", "free", "unit_relation"), 0)
    for case in range(1000):
        p, N = rng.choice((2, 3, 5)), rng.randint(1, 4)
        ctx = RingContext(p, N, rng.randint(1, 2))

        def scalar():
            return 0 if rng.random() < 0.25 else p ** rng.randint(0, N) * rng.randrange(1, ctx.pn)

        gens = rng.randint(0, 4)
        rows = [[scalar() for _ in range(gens)] for _ in range(rng.randint(0, 4))]
        m = zpn_module(ctx, gens, rows)
        args = scalar(), scalar(), rng.randint(1, 2), rng.randint(1, 2)
        got = _every_predicate(m, *args)
        assert got == _every_predicate(w_twin(m), *args), case
        details = got["flat"]["details"]
        seen["tor1_nonzero"] += details.get("tor1_zero") is False
        seen["unit_ideal"] += details.get("ideal") == "unit"
        seen["f_zero"] += args[0] % ctx.pn == 0
        seen["free"] += ctx.pn in m.engine.orders
        # a unit relation leaves a generator with exponent 0, which has no order
        seen["unit_relation"] += len(m.engine.orders) < gens
    assert min(seen.values()) >= 50, seen
