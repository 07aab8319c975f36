import itertools
import random

import numpy as np
import pytest

from qprism.base_ring import RingContext, WScalar
from qprism.errors import InvalidArgs, NotAChainMap
from qprism.homology import (
    FlatMatrix,
    TwoTermComplex,
    cohomology_of_complex,
    cokernel_exponents,
    cone_acyclic,
    cone_acyclic_smith,
    flatten_operator,
    flatten_sections,
    howell_form,
    howell_reduce,
    kernel_log_cardinality,
    kernel_log_cardinality_smith,
    right_kernel_basis,
    row_span_member,
    smith_exponents,
    span_exponents,
    w_mult_block,
)
from qprism.twisted_calculus import QPolynomial

import elim_oracle
from elim_oracle import annihilator, unit_multiplier


def brute_right_kernel(mat, n):
    mat = np.array(mat) % n
    cols = mat.shape[1]
    return {
        v
        for v in itertools.product(range(n), repeat=cols)
        if not (mat @ np.array(v) % n).any()
    }


def spanned_vectors(rows, n):
    rows = np.array(rows) % n
    if rows.size == 0:
        return {tuple([0] * rows.shape[1])} if rows.ndim == 2 else {()}
    out = set()
    for combo in itertools.product(range(n), repeat=rows.shape[0]):
        out.add(tuple((np.array(combo) @ rows) % n))
    return out


def test_unit_multiplier_and_annihilator():
    for n in (4, 8, 9):
        for a in range(n):
            u = unit_multiplier(a, n)
            from math import gcd

            assert gcd(u, n) == 1
            if a:
                assert (u * a) % n == gcd(a, n)
            x = annihilator(a, n)
            if a % n == 0:
                assert x == 1
            elif gcd(a, n) == 1:
                assert x == 0
            else:
                assert (x * a) % n == 0 and x > 0


def test_kernel_of_two_mod_four():
    k = right_kernel_basis([[2]], 4)
    assert spanned_vectors(k, 4) == {(0,), (2,)}


def test_kernel_identity_trivial():
    k = right_kernel_basis(np.eye(3, dtype=int), 8)
    assert k.shape[0] == 0


def test_kernel_zero_matrix_full():
    k = right_kernel_basis(np.zeros((2, 2), dtype=int), 4)
    assert spanned_vectors(k, 4) == set(itertools.product(range(4), repeat=2))


def test_howell_row_span_preserved():
    rng = random.Random(23)
    for n in (4, 8, 9):
        for _ in range(20):
            mat = [[rng.randrange(n) for _ in range(3)] for _ in range(3)]
            h = howell_form(mat, n)
            assert spanned_vectors(mat, n) == spanned_vectors(h, n)


def test_howell_membership_probe():
    rng = random.Random(29)
    n = 8
    for _ in range(20):
        mat = np.array([[rng.randrange(n) for _ in range(3)] for _ in range(2)])
        span = spanned_vectors(mat, n)
        for v in itertools.product(range(n), repeat=3):
            assert row_span_member(list(v), mat, n) == (v in span)


def test_kernel_exhaustive_small():
    # spot version of the acceptance sweep: all shapes <= 2 over Z/4
    n = 4
    for shape in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        for entries in itertools.product(range(n), repeat=shape[0] * shape[1]):
            mat = np.array(entries).reshape(shape)
            kb = right_kernel_basis(mat, n)
            assert spanned_vectors(kb, n) if kb.size else True
            got = (
                spanned_vectors(kb, n)
                if kb.size
                else {tuple([0] * shape[1])}
            )
            assert got == brute_right_kernel(mat, n)


def test_cardinality_identity():
    rng = random.Random(31)
    n = 8
    for _ in range(30):
        mat = np.array([[rng.randrange(n) for _ in range(2)] for _ in range(2)])
        ker = brute_right_kernel(mat, n)
        image = {tuple((mat @ np.array(v)) % n) for v in itertools.product(range(n), repeat=2)}
        assert len(ker) * len(image) == n**2
        fm = FlatMatrix(2, 3, mat)
        assert 2 ** kernel_log_cardinality(fm) == len(ker)
        assert 2 ** kernel_log_cardinality_smith(fm) == len(ker)


def test_smith_exponents_examples():
    assert smith_exponents([[2]], 2, 2) == [1]
    assert smith_exponents([[1, 0], [0, 2]], 2, 2) == [0, 1]
    assert smith_exponents([[0]], 2, 2) == [2]
    # determinism under the stated tie-break
    assert smith_exponents([[2, 2], [2, 2]], 2, 2) == [1, 2]


def test_span_and_cokernel_exponents():
    # submodule generated by (2, 0) in (Z/4)^2 is cyclic of order 2
    assert span_exponents([[2, 0]], 2, 2) == [1]
    # cokernel of multiplication by p on Z/p^2
    assert cokernel_exponents([[2]], 2, 2) == [1]
    # zero map keeps the whole target
    assert cokernel_exponents([[0]], 2, 2) == [2]


def test_cohomology_identity_and_zero():
    ident = TwoTermComplex(FlatMatrix(2, 2, [[1]]))
    rep = cohomology_of_complex(ident)
    assert rep.h0_invariant_factors == [] and rep.h1_invariant_factors == []
    zero = TwoTermComplex(FlatMatrix(2, 2, [[0]]))
    rep = cohomology_of_complex(zero)
    assert rep.h0_invariant_factors == [2] and rep.h1_invariant_factors == [2]


def test_cohomology_mult_by_p():
    c = TwoTermComplex(FlatMatrix(2, 2, [[2]]))
    rep = cohomology_of_complex(c)
    # enumeration: kernel of 2 on Z/4 is {0, 2} = Z/2, cokernel = Z/2
    assert rep.h0_invariant_factors == [1]
    assert rep.h1_invariant_factors == [1]
    assert rep.to_json() == {"h0": [1], "h1": [1]}


def test_cone_identity_chain_map():
    d = FlatMatrix(2, 2, [[2, 1], [0, 2]])
    ident = FlatMatrix.identity(2, 2, 2)
    assert cone_acyclic(d, d, ident, ident)
    assert cone_acyclic_smith(d, d, ident, ident)


def test_cone_zero_map_detects_h0():
    d = FlatMatrix(2, 2, [[1]])
    z = FlatMatrix(2, 2, [[0]])
    # zero map between complexes with nonzero H^0 on the target side
    dd = FlatMatrix(2, 2, [[0]])
    assert not cone_acyclic(dd, dd, z, z)


def test_cone_rejects_non_chain_map():
    d = FlatMatrix(2, 2, [[2]])
    dp = FlatMatrix(2, 2, [[1]])
    ident = FlatMatrix.identity(2, 2, 1)
    with pytest.raises(NotAChainMap):
        cone_acyclic(d, dp, ident, ident)


def test_cone_routes_agree_randomly():
    rng = random.Random(37)
    for _ in range(25):
        a = np.array([[rng.randrange(8) for _ in range(2)] for _ in range(2)])
        u = np.array([[1, rng.randrange(8)], [0, 1]])  # invertible
        d = FlatMatrix(2, 3, a)
        dp = FlatMatrix(2, 3, (u @ a @ u) % 8)
        f0 = FlatMatrix(2, 3, u)
        f1 = FlatMatrix(2, 3, u)
        if not np.array_equal(
            (u @ a) % 8, ((u @ a @ u) % 8 @ u) % 8
        ):
            continue
        assert cone_acyclic(d, dp, f0, f1) == cone_acyclic_smith(d, dp, f0, f1)


def test_w_mult_block_is_regular_representation():
    ctx = RingContext(2, 2, 3)
    rng = random.Random(41)
    for _ in range(20):
        a = WScalar(ctx, [rng.randrange(ctx.pn) for _ in range(3)])
        b = WScalar(ctx, [rng.randrange(ctx.pn) for _ in range(3)])
        ab = a * b
        assert np.array_equal(
            (w_mult_block(a) @ w_mult_block(b)) % ctx.pn, w_mult_block(ab)
        )


def test_flatten_functorial():
    # flatten(g o f) = flatten(g) flatten(f) for W[x]-multiplication maps
    ctx = RingContext(2, 2, 2)
    window = 3
    f_poly = QPolynomial.parse(ctx, "1+q*x", window)
    g_poly = QPolynomial.parse(ctx, "x+(q-1)*x^2", window)

    def mult_by(poly):
        def apply(j, d):
            return [QPolynomial.x(ctx, d, window) * poly]

        return apply

    ff = flatten_operator(ctx, 1, window, 1, window, mult_by(f_poly))
    gg = flatten_operator(ctx, 1, window, 1, window, mult_by(g_poly))
    comp = flatten_operator(ctx, 1, window, 1, window, mult_by(f_poly * g_poly))
    assert gg.matmul(ff) == comp


def test_flatten_sections_round_trip_action():
    ctx = RingContext(2, 2, 2)
    window = 2
    poly = QPolynomial.parse(ctx, "1+x", window)

    def apply(j, d):
        return [QPolynomial.x(ctx, d, window) * poly]

    op = flatten_operator(ctx, 1, window, 1, window, apply)
    s = QPolynomial.parse(ctx, "q+x^2", window)
    vec = flatten_sections(ctx, 1, window, [s])
    out = (op.entries @ vec) % ctx.pn
    expected = flatten_sections(ctx, 1, window, [s * poly])
    assert np.array_equal(out, expected)


def test_howell_reduce_membership_probes():
    # row span preserved and kernel rows annihilate, verified by probes
    rng = random.Random(97)
    n = 8
    for _ in range(15):
        mat = np.array([[rng.randrange(n) for _ in range(3)] for _ in range(3)])
        result = howell_reduce(mat, n)
        for row in mat:
            assert row_span_member(row, result.howell_basis, n)
        for row in result.howell_basis:
            assert row_span_member(row, mat, n)
        for row in result.kernel_basis:
            assert not (mat @ row % n).any()


def test_max_dim_guard(monkeypatch):
    from qprism.errors import InvalidArgs

    monkeypatch.setenv("QPRISM_MAX_DIM", "4")
    ctx = RingContext(2, 2, 2)

    def apply(j, d):
        return [QPolynomial.x(ctx, d, 3)]

    with pytest.raises(InvalidArgs):
        flatten_operator(ctx, 1, 3, 1, 3, apply)


def test_kernel_oracle_three_dims_sampled():
    rng = random.Random(101)
    n = 8
    for _ in range(40):
        mat = np.array([[rng.randrange(n) for _ in range(3)] for _ in range(3)])
        kb = right_kernel_basis(mat, n)
        enumerated = brute_right_kernel(mat, n)
        got = spanned_vectors(kb, n) if kb.size else {(0, 0, 0)}
        assert got == enumerated


def test_cone_verdict_against_enumeration():
    # independent oracle: enumerate the three-term cone cohomology directly
    n, p, N = 4, 2, 2
    rng = random.Random(103)
    for _ in range(200):
        d0v, d0pv, f0v, f1v = (rng.randrange(n) for _ in range(4))
        if (f1v * d0v - d0pv * f0v) % n:
            continue
        d0 = FlatMatrix(p, N, [[d0v]])
        d0p = FlatMatrix(p, N, [[d0pv]])
        f0 = FlatMatrix(p, N, [[f0v]])
        f1 = FlatMatrix(p, N, [[f1v]])
        # brute force on Z/4: C0 -> C1 + C'0 -> C'1
        ker0 = [x for x in range(n) if (d0v * x) % n == 0 and (f0v * x) % n == 0]
        mid = [
            (y, z)
            for y in range(n)
            for z in range(n)
            if (f1v * y + d0pv * z) % n == 0
        ]
        im0 = {((d0v * x) % n, (-f0v * x) % n) for x in range(n)}
        im1 = {(f1v * y + d0pv * z) % n for y in range(n) for z in range(n)}
        acyclic = len(ker0) == 1 and len(mid) == len(im0) and len(im1) == n
        assert cone_acyclic(d0, d0p, f0, f1) == acyclic
        assert cone_acyclic_smith(d0, d0p, f0, f1) == acyclic


def test_kernel_exhaustive_z9():
    n = 9
    for shape in [(1, 1), (1, 2), (2, 1)]:
        for entries in itertools.product(range(n), repeat=shape[0] * shape[1]):
            mat = np.array(entries, dtype=np.int64).reshape(shape)
            kb = right_kernel_basis(mat, n)
            got = spanned_vectors(kb, n) if kb.size else {tuple([0] * shape[1])}
            assert got == brute_right_kernel(mat, n)


def test_smith_rectangular_cokernel_cardinality():
    rng = random.Random(107)
    p, N = 3, 2
    n = p**N
    for _ in range(30):
        rows, cols = rng.choice([(2, 3), (3, 2), (1, 3)])
        mat = np.array([[rng.randrange(n) for _ in range(cols)] for _ in range(rows)])
        exps = cokernel_exponents(mat, p, N, target_dim=rows)
        image = {
            tuple((mat @ np.array(v)) % n)
            for v in itertools.product(range(n), repeat=cols)
        }
        assert p ** sum(exps) * len(image) == n**rows


def test_two_term_cohomology_against_full_enumeration():
    # trivial level -1 connection on a small window: the flattened module
    # has 4^6 elements, small enough to enumerate the kernel and image
    from qprism.cartier import flatten_connection
    from qprism.twisted_calculus import ConnectionModule

    ctx = RingContext(2, 2, 2)
    conn = ConnectionModule.trivial(ctx, 1, -1, window=2)
    d0 = flatten_connection(conn)
    rep = cohomology_of_complex(TwoTermComplex(d0))
    n = d0.modulus
    dim = d0.cols
    kernel = 0
    images = set()
    for v in itertools.product(range(n), repeat=dim):
        image = tuple((d0.entries @ np.array(v)) % n)
        images.add(image)
        if not any(image):
            kernel += 1
    assert 2 ** rep.h0_log_cardinality == kernel
    assert 2 ** rep.h1_log_cardinality * len(images) == n**dim


# --- the chain-ring kernel against the general-Z/n oracle and sympy -----------


def random_matrix(rng, p, N, rows, cols, kind):
    n = p**N
    a = rng.integers(0, n, size=(rows, cols))
    if kind == "p-divisible":
        a = (p * a) % n
    elif kind == "sparse":
        a = np.where(rng.random((rows, cols)) < 0.3, a, 0)
    return a.astype(np.int64)


def sweep_matrices(seed, count):
    rng = np.random.default_rng(seed)
    for p in (2, 3, 5):
        for N in range(1, 5):
            for kind in ("dense", "p-divisible", "sparse"):
                for _ in range(count):
                    rows, cols = (int(x) for x in rng.integers(0, 9, size=2))
                    yield p, N, random_matrix(rng, p, N, rows, cols, kind)


def test_chain_ring_kernel_matches_oracle_sweep():
    for p, N, mat in sweep_matrices(seed=211, count=40):
        n = p**N
        got = howell_form(mat, n)
        want = elim_oracle.howell_form(mat, n)
        assert got.shape == want.shape and np.array_equal(got, want), (p, N, mat)
        assert smith_exponents(mat, p, N) == elim_oracle.smith_exponents(mat, p, N)


def test_smith_exponents_against_sympy_smith_form():
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form

    for p, N, mat in sweep_matrices(seed=223, count=5):
        rows, cols = mat.shape
        if rows == 0:
            continue
        n = p**N
        aug = np.hstack([mat, n * np.eye(rows, dtype=np.int64)])
        snf = smith_normal_form(Matrix(aug), domain=ZZ)
        capped = []
        for i in range(rows):
            d, v = abs(int(snf[i, i])), 0
            while v < N and d % p == 0:
                d //= p
                v += 1
            capped.append(v)
        padded = smith_exponents(mat, p, N) + [N] * (rows - min(rows, cols))
        assert sorted(capped) == padded, (p, N, mat)


def test_moduli_must_be_prime_powers():
    mat = [[1, 2], [3, 4]]
    for n in (6, 10, 12):
        with pytest.raises(InvalidArgs):
            howell_form(mat, n)
        with pytest.raises(InvalidArgs):
            right_kernel_basis(mat, n)
        with pytest.raises(InvalidArgs):
            smith_exponents(mat, n, 1)
    with pytest.raises(InvalidArgs):
        smith_exponents(mat, 4, 1)
