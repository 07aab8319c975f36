import itertools
import json
import random
from pathlib import Path

import numpy as np
import pytest

from qprism import homology
from qprism.base_ring import RingContext, WScalar
from qprism.cartier import (
    STABILITY_WINDOW_STEP,
    CartierProblem,
    block_split,
    chain_map_build,
    flatten_connection,
)
from qprism.cli import load_connection_spec
from qprism.errors import InvalidArgs, NotAChainMap
from qprism.homology import (
    FlatMatrix,
    cohomology_of_complex,
    cone_acyclic,
    cone_differentials,
    is_chain_map,
    flatten_operator,
    howell_form,
    kernel_log_cardinalities,
    kernel_log_cardinality,
    right_kernel_basis,
    selection_rows,
    smith_exponents,
    span_exponents,
    w_mult_block,
)

import elim_oracle
from dense_oracle import dense_flat, flat_identity
from flatten_oracle import flatten_sections, random_nilpotent_theta
from qpoly_oracle import QPolynomial, connection, to_wpoly
from paper_oracle import span_contains
from elim_oracle import (
    annihilator,
    cokernel_exponents,
    howell_reduce,
    row_span_member,
    unit_multiplier,
)


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
        fm = dense_flat(2, 3, mat)
        assert 2 ** kernel_log_cardinality(fm) == len(ker)
        assert 2 ** elim_oracle.kernel_log_cardinality(fm) == len(ker)


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
    rep = cohomology_of_complex(dense_flat(2, 2, [[1]]))
    assert rep.h0_invariant_factors == [] and rep.h1_invariant_factors == []
    rep = cohomology_of_complex(dense_flat(2, 2, [[0]]))
    assert rep.h0_invariant_factors == [2] and rep.h1_invariant_factors == [2]


def test_cohomology_mult_by_p():
    rep = cohomology_of_complex(dense_flat(2, 2, [[2]]))
    # enumeration: kernel of 2 on Z/4 is {0, 2} = Z/2, cokernel = Z/2
    assert rep.h0_invariant_factors == [1]
    assert rep.h1_invariant_factors == [1]
    assert rep.to_json() == {"h0": [1], "h1": [1]}


def test_cone_identity_chain_map():
    d = dense_flat(2, 2, [[2, 1], [0, 2]])
    ident = flat_identity(2, 2, 2)
    assert cone_acyclic(d, d, ident, ident)
    assert elim_oracle.cone_acyclic(d, d, ident, ident)


def test_cone_zero_map_detects_h0():
    d = dense_flat(2, 2, [[1]])
    z = dense_flat(2, 2, [[0]])
    # zero map between complexes with nonzero H^0 on the target side
    dd = dense_flat(2, 2, [[0]])
    assert not cone_acyclic(dd, dd, z, z)


def test_cone_rejects_non_chain_map():
    d = dense_flat(2, 2, [[2]])
    dp = dense_flat(2, 2, [[1]])
    ident = flat_identity(2, 2, 1)
    with pytest.raises(NotAChainMap):
        cone_acyclic(d, dp, ident, ident)


def test_chain_map_test_by_indexing_matches_the_products():
    rng = np.random.default_rng(3)
    verdicts = set()
    for trial in range(300):
        a, b, b2 = (int(v) for v in rng.integers(1, 5, size=3))
        a2 = a + int(rng.integers(0, 3))
        d0 = rng.integers(0, 8, size=(b, a))
        # f0 sends basis vectors to distinct ones, f1's rows may repeat
        rows0 = rng.permutation(a2)[:a]
        f0 = np.zeros((a2, a), dtype=np.int64)
        f0[rows0, np.arange(a)] = 1
        f1 = np.zeros((b2, b), dtype=np.int64)
        f1[rng.integers(0, b2, size=b), np.arange(b)] = 1
        d0p = rng.integers(0, 8, size=(b2, a2))
        if trial % 2:
            d0p[:, rows0] = (f1 @ d0) % 8
        d, dp, g0, g1 = (dense_flat(2, 3, m) for m in (d0, d0p, f0, f1))
        verdict = is_chain_map(d, dp, g0, g1)
        assert verdict == (g1.matmul(d) == dp.matmul(g0)), trial
        verdicts.add(verdict)
    assert verdicts == {True, False}


def _selection_rows_by_argmax(f):
    """The earlier body of `selection_rows`: a column-wise argmax."""
    e = f.entries
    if not e.shape[0]:
        return None
    rows = e.argmax(axis=0)
    if (
        np.count_nonzero(e) != e.shape[1]
        or not (e[rows, np.arange(e.shape[1])] == 1).all()
        or np.unique(rows).size != rows.size
    ):
        return None
    return rows


def test_selection_rows_matches_the_argmax_body():
    rng = np.random.default_rng(17)
    found = {True: 0, False: 0}
    for trial in range(400):
        cols = int(rng.integers(0, 7))
        rows = cols + int(rng.integers(0, 4))
        e = np.zeros((rows, cols), dtype=np.int64)
        e[rng.permutation(rows)[:cols], np.arange(cols)] = 1
        miss = trial % 7
        if cols and miss == 1:  # a zero column
            e[:, rng.integers(cols)] = 0
        elif cols and miss == 2 and rows > 1:  # two nonzeros in one column
            j = rng.integers(cols)
            e[rng.choice(np.flatnonzero(e[:, j] == 0)), j] = int(rng.integers(1, 8))
        elif cols and miss == 3:  # an entry other than 1
            j = rng.integers(cols)
            e[:, j] *= int(rng.integers(2, 8))
        elif cols > 1 and miss == 4:  # a repeated row
            j, k = rng.choice(cols, 2, replace=False)
            e[:, k] = e[:, j]
        elif miss == 5:  # no rows
            e = e[:0]
        elif cols > 1 and miss == 6:  # one column's 1 moved into another column
            j, k = rng.choice(cols, 2, replace=False)
            e[:, k] += e[:, j]
            e[:, j] = 0
        f = dense_flat(2, 3, e)
        got, want = selection_rows(f), _selection_rows_by_argmax(f)
        assert (got is None) == (want is None), (trial, e)
        if got is not None:
            assert np.array_equal(got, want), (trial, e)
        found[got is None] += 1
    assert min(found.values()) > 50


def test_cone_routes_agree_randomly():
    rng = random.Random(37)
    for _ in range(25):
        a = np.array([[rng.randrange(8) for _ in range(2)] for _ in range(2)])
        u = np.array([[1, rng.randrange(8)], [0, 1]])  # invertible
        d = dense_flat(2, 3, a)
        dp = dense_flat(2, 3, (u @ a @ u) % 8)
        f0 = dense_flat(2, 3, u)
        f1 = dense_flat(2, 3, u)
        if not np.array_equal(
            (u @ a) % 8, ((u @ a @ u) % 8 @ u) % 8
        ):
            continue
        assert cone_acyclic(d, dp, f0, f1) == elim_oracle.cone_acyclic(d, dp, f0, f1)


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
            return to_wpoly(ctx, [QPolynomial.x(ctx, d, window) * poly])

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
        return to_wpoly(ctx, [QPolynomial.x(ctx, d, window) * poly])

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
        return to_wpoly(ctx, [QPolynomial.x(ctx, d, 3)])

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
        d0 = dense_flat(p, N, [[d0v]])
        d0p = dense_flat(p, N, [[d0pv]])
        f0 = dense_flat(p, N, [[f0v]])
        f1 = dense_flat(p, N, [[f1v]])
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
        assert elim_oracle.cone_acyclic(d0, d0p, f0, f1) == acyclic


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
    rep = cohomology_of_complex(d0)
    n = d0.modulus
    dim = d0.cols
    kernel = 0
    images = set()
    for v in itertools.product(range(n), repeat=dim):
        image = tuple((d0.entries @ np.array(v)) % n)
        images.add(image)
        if not any(image):
            kernel += 1
    assert 2 ** sum(rep.h0_invariant_factors) == kernel
    assert 2 ** sum(rep.h1_invariant_factors) * len(images) == n**dim


# --- the chain-ring kernel against the general-Z/n oracle and sympy -----------


def random_matrix(rng, p, N, rows, cols, kind):
    n = p**N
    a = rng.integers(0, n, size=(rows, cols))
    if kind == "p-divisible":
        a = (p * a) % n
    elif kind == "sparse":
        a = np.where(rng.random((rows, cols)) < 0.3, a, 0)
    return a.astype(np.int64)


def test_span_contains_matches_the_howell_probe_on_a_seeded_sweep():
    # the library's rule (the span's order is unchanged) against the Howell
    # normal form of the oracle, on vectors in and out of random spans
    rng = np.random.default_rng(31)
    cases = members = 0
    for p, N in ((2, 1), (2, 3), (3, 2), (5, 2), (7, 1)):
        n = p**N
        for kind in ("dense", "p-divisible", "sparse"):
            for _ in range(8):
                rows, cols = (int(x) for x in rng.integers(1, 7, size=2))
                mat = random_matrix(rng, p, N, rows, cols, kind)
                inside = rng.integers(0, n, size=rows) @ mat % n
                outside = rng.integers(0, n, size=cols)
                for vec in (inside, outside, p * outside % n):
                    member = row_span_member(vec, mat, n)
                    assert span_contains(mat, [vec], p, N) == member, (p, N, mat, vec)
                    cases += 1
                    members += member
    assert cases == 360 and 120 <= members < cases


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


def sympy_exponents(mat, p, N):
    """Smith exponents over Z/p^N from sympy's Smith form of [mat | p^N I]
    over Z, one per row of mat, capped at N."""
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form

    rows = mat.shape[0]
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
    return sorted(capped)


def test_smith_exponents_against_sympy_smith_form():
    for p, N, mat in sweep_matrices(seed=223, count=5):
        rows, cols = mat.shape
        if rows == 0:
            continue
        padded = smith_exponents(mat, p, N) + [N] * (rows - min(rows, cols))
        assert sympy_exponents(mat, p, N) == padded, (p, N, mat)


# --- unit-singleton peeling ---------------------------------------------------


def random_unit(rng, p, n):
    return int(rng.integers(0, n // p)) * p + int(rng.integers(1, p))


def permuted(rng, mat):
    return mat[rng.permutation(mat.shape[0])][:, rng.permutation(mat.shape[1])]


def basis_columns(rng, p, n, rows, count, valuation):
    """count columns p^valuation * u * e_r, u a unit and r random."""
    out = np.zeros((rows, count), dtype=np.int64)
    out[rng.integers(0, rows, size=count), np.arange(count)] = [
        p**valuation * random_unit(rng, p, n) % n for _ in range(count)
    ]
    return out


def peeling_case(rng, p, N, kind):
    """One matrix of the given kind, reduced mod p^N."""
    n = p**N
    rows, cols = (int(x) for x in rng.integers(1, 7, size=2))
    sparse = random_matrix(rng, p, N, rows, cols, "sparse")
    if kind == "selection":
        # a selection block, its ones sometimes scaled by units, stacked with a sparse block
        size = int(rng.integers(1, 7))
        sel = np.eye(size, dtype=np.int64)[:, rng.permutation(size)[: int(rng.integers(1, size + 1))]]
        sel = sel * (random_unit(rng, p, n) if rng.random() < 0.5 else 1)
        other = random_matrix(rng, p, N, int(rng.integers(0, 5)), sel.shape[1], "sparse")
        mat = np.vstack([sel, other]) if rng.random() < 0.5 else np.vstack([other, sel]).T
    elif kind == "non-unit singleton":
        valuation = int(rng.integers(1, N + 1))
        mat = np.hstack([sparse, basis_columns(rng, p, n, rows, 2, valuation)])
        if rng.random() < 0.5:
            mat = mat.T
    elif kind == "two singletons in a row":
        mat = np.hstack([sparse, basis_columns(rng, p, n, rows, 2, 0)])
        mat[:, -1] = 0
        mat[int(np.flatnonzero(mat[:, -2])[0]), -1] = random_unit(rng, p, n)
        if rng.random() < 0.5:
            mat = mat.T
    elif kind == "shared pivot":
        # a unit alone in both its row and its column
        mat = np.zeros((rows + 1, cols + 1), dtype=np.int64)
        mat[0, 0] = random_unit(rng, p, n)
        mat[1:, 1:] = random_matrix(rng, p, N, rows, cols, "dense")
    elif kind == "zero lines":
        mat = np.zeros((rows + 2, cols + 2), dtype=np.int64)
        mat[:rows, :cols] = random_matrix(rng, p, N, rows, cols, "dense")
    elif kind == "empty":
        mat = np.zeros((0, cols) if rng.random() < 0.5 else (rows, 0), dtype=np.int64)
    elif kind == "unit triangular":
        size = int(rng.integers(1, 9))
        mat = np.triu(random_matrix(rng, p, N, size, size, "dense"), 1)
        mat[np.arange(size), np.arange(size)] = [random_unit(rng, p, n) for _ in range(size)]
    else:  # "nothing peels": every row and column holds at least two nonzeros
        rows, cols = (int(x) for x in rng.integers(2, 7, size=2))
        mat = random_matrix(rng, p, N, rows, cols, "dense")
        mat[mat == 0] = p ** int(rng.integers(0, N))
    return permuted(rng, mat)


PEELING_KINDS = (
    "selection",
    "non-unit singleton",
    "two singletons in a row",
    "shared pivot",
    "zero lines",
    "empty",
    "unit triangular",
    "nothing peels",
)


def test_peeled_smith_exponents_match_the_oracles_on_a_seeded_sweep():
    # the peeled Smith form against the pivot-scan oracle on every case and
    # against sympy on the first few of each kind; the input is passed
    # reduced, unreduced and as a list, and must come back unchanged;
    # 467 of the 720 cases peel at least one pivot
    rng = np.random.default_rng(239)
    cases = against_sympy = peeled = 0
    for p in (2, 3, 5):
        for N in (1, 2, 3):
            n = p**N
            for kind in PEELING_KINDS:
                for draw in range(10):
                    mat = peeling_case(rng, p, N, kind)
                    want = elim_oracle.smith_exponents(mat, p, N)
                    if draw < 3 and mat.shape[0]:
                        padded = want + [N] * (mat.shape[0] - len(want))
                        assert sympy_exponents(mat, p, N) == padded, (p, N, kind, mat)
                        against_sympy += 1
                    # multiples of p^N large enough to overflow int64 products
                    unreduced = mat + n * rng.integers(-(2**50), 2**50, size=mat.shape)
                    # a list with no rows reads as 1-D, so 0 x k goes as arrays only
                    as_list = [unreduced.tolist()] if mat.shape[0] else []
                    for given in [mat, unreduced, *as_list]:
                        kept = np.array(given, dtype=np.int64)
                        assert smith_exponents(given, p, N) == want, (p, N, kind, mat)
                        assert np.array_equal(np.array(given, dtype=np.int64), kept)
                    left_rows, left_cols = homology._peel_unit_singletons(
                        mat.shape, *dense_flat(p, N, mat).coords(), p
                    )
                    if kind == "unit triangular":
                        assert left_rows.size == left_cols.size == 0
                    if kind == "nothing peels":
                        assert (left_rows.size, left_cols.size) == mat.shape
                    peeled += left_rows.size < mat.shape[0]
                    cases += 1
    assert (cases, against_sympy, peeled) == (720, 203, 467)


# --- the layered elimination ---------------------------------------------------


def layered_case(rng, p, N, kind):
    """One matrix of the given kind, reduced mod p^N."""
    n = p**N
    rows, cols = (int(x) for x in rng.integers(1, 10, size=2))
    if kind in ("dense", "p-divisible", "sparse"):
        return random_matrix(rng, p, N, rows, cols, kind)
    mat = random_matrix(rng, p, N, rows, cols, "dense")
    if kind == "zero lines":
        mat = np.insert(mat, rng.integers(0, rows + 1, size=2), 0, axis=0)
        return np.insert(mat, rng.integers(0, cols + 1, size=2), 0, axis=1)
    if kind == "late units":
        # some columns times p^k, 1 <= k <= N: no unit before layer k, and
        # the updates of earlier pivots must keep them divisible by p
        scale = p ** rng.integers(1, N + 1, size=cols)
        return mat * np.where(rng.random(cols) < 0.6, scale, 1) % n
    # "banded": nonzeros on the diagonal offsets lo..hi only
    lo, hi = sorted(int(x) for x in rng.integers(-3, 4, size=2))
    offset = np.arange(cols)[None, :] - np.arange(rows)[:, None]
    return np.where((offset >= lo) & (offset <= hi), mat, 0)


LAYERED_KINDS = ("dense", "p-divisible", "sparse", "zero lines", "late units", "banded")


def connection_operators():
    """theta' of every connection fixture, and of seeded level -1 specs at
    ranks 1-3 and windows 0-12."""
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    for path in sorted(fixtures.glob("*.json")):
        spec = json.loads(path.read_text())
        if "level" in spec and path.name != "bad_rank.json":
            yield flatten_connection(load_connection_spec(str(path))[0])
    rng = random.Random(263)
    for p in (2, 3, 5):
        for rank in (1, 2, 3):
            for window in rng.sample(range(13), 4):
                ctx = RingContext(p, rng.randint(1, 3), rng.randint(1, 3))
                theta = random_nilpotent_theta(ctx, rank, window, seed=rng.randrange(10**6))
                yield flatten_connection(connection(ctx, rank, -1, theta, window))


def test_layered_smith_exponents_match_both_oracles_on_a_seeded_sweep():
    # the in-place layered kernel against the layered loop it replaced and
    # the pivot-scan oracle, each input as a FlatMatrix and as an array
    rng = np.random.default_rng(257)
    mats = [
        (p, N, dense_flat(p, N, layered_case(rng, p, N, kind)))
        for p in (2, 3, 5)
        for N in range(1, 5)
        for kind in LAYERED_KINDS
        for _ in range(8)
    ]
    mats += [(op.p, op.n_prec, op) for op in connection_operators()]
    late = 0
    for p, N, mat in mats:
        dense = mat.dense()
        want = elim_oracle.smith_exponents(dense, p, N)
        assert elim_oracle.layered_smith_exponents(mat, p, N) == want, (p, N, dense)
        assert smith_exponents(mat, p, N) == want, (p, N, dense)
        assert smith_exponents(dense, p, N) == want, (p, N, dense)
        late += any(0 < v < N for v in want)
    assert (len(mats), late) == (626, 205)


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


# --- Smith-route counts against the Howell-kernel route -------------------------


def shaped_sweep(seed, count):
    """Seeded matrices over p in {2, 3, 5}, N in 1..4: random shapes 0..10, a
    square one and a 0-row and a 0-column one per draw, in three kinds."""
    rng = np.random.default_rng(seed)
    for p in (2, 3, 5):
        for N in range(1, 5):
            for kind in ("dense", "p-divisible", "sparse"):
                for _ in range(count):
                    rows, cols, side = (int(x) for x in rng.integers(0, 11, size=3))
                    for shape in ((rows, cols), (side, side), (0, cols), (rows, 0)):
                        yield p, N, random_matrix(rng, p, N, *shape, kind)


def test_smith_cohomology_matches_howell_kernel_sweep():
    seen_shapes = set()
    for p, N, mat in shaped_sweep(seed=227, count=6):
        rows, cols = mat.shape
        seen_shapes.add((rows == 0, cols == 0, rows == cols))
        fm = dense_flat(p, N, mat)
        rep = cohomology_of_complex(fm)
        kern = right_kernel_basis(mat, p**N)
        assert rep.h0_invariant_factors == span_exponents(kern, p, N), (p, N, mat)
        assert rep.h1_invariant_factors == cokernel_exponents(mat, p, N, target_dim=rows)
        assert kernel_log_cardinality(fm) == elim_oracle.kernel_log_cardinality(fm)
        assert sum(rep.h0_invariant_factors) == kernel_log_cardinality(fm)
    assert {(True, True, True), (True, False, False), (False, True, False)} <= seen_shapes
    assert (False, False, True) in seen_shapes and (False, False, False) in seen_shapes


def fixture_run_operators():
    """The operators of every fixture's descent run at its window and at the
    window of the stability re-run, in the order `_verify_once` counts
    their kernels: op_k and twisted_k for k = 1..p-1, then the cone."""
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    for path in sorted(fixtures.glob("*.json")):
        if json.loads(path.read_text()).get("level") != -1 or path.name == "bad_rank.json":
            continue
        conn = load_connection_spec(str(path))[0]
        for window in (conn.window, conn.window + STABILITY_WINDOW_STEP):
            run = conn.rewindow(window)
            data = chain_map_build(run)
            split = block_split(CartierProblem(run), data)
            cone = cone_differentials(
                data.source_differential, data.target_differential, data.module_leg, data.forms_leg
            )
            yield [*split.operators.values(), *split.twisted_operators.values(), *cone]


def test_kernel_log_cardinalities_match_the_howell_oracle_part_by_part(monkeypatch):
    # random direct sums of one to five parts over one Z/p^N, drawn from the
    # peeling kinds (parts that peel completely, parts that need elimination,
    # 0-row and 0-column parts), then every fixture run's operator list
    rng = np.random.default_rng(269)
    sums = []
    for p in (2, 3, 5):
        for N in (1, 2, 3):
            for _ in range(16):
                kinds = rng.choice(PEELING_KINDS, size=int(rng.integers(1, 6)))
                sums.append([dense_flat(p, N, peeling_case(rng, p, N, kind)) for kind in kinds])
    runs = list(fixture_run_operators())
    eliminated = []
    eliminate = homology._eliminate_layers

    def counted(work, p, N):
        eliminated.append(work.shape)
        return eliminate(work, p, N)

    monkeypatch.setattr(homology, "_eliminate_layers", counted)
    per_sum = []
    for parts in sums + runs:
        want = [elim_oracle.kernel_log_cardinality(mat) for mat in parts]
        del eliminated[:]  # the oracle's span orders eliminate too
        assert kernel_log_cardinalities(parts) == want, parts
        per_sum.append(len(eliminated))
    singles = sum(len(parts) == 1 for parts in sums)
    empties = sum(0 in mat.shape for parts in sums for mat in parts)
    mixed = sum(len(parts) > 1 and any(0 in m.shape for m in parts) for parts in sums)
    assert (len(sums), len(runs), singles, empties, mixed) == (144, 26, 33, 42, 35)
    # sums with two or more parts to eliminate; a descent run peels completely
    assert sum(count > 1 for count in per_sum[: len(sums)]) == 68
    assert sum(per_sum[len(sums) :]) == 0


def test_negation_keeps_zero_entries_of_a_block_zero():
    # -I_2 in one 2 x 2 block at p^N = 4: its zero entries must stay 0, not 4
    minus = -flat_identity(2, 2, 2).with_blocks(2)
    assert minus.dense().tolist() == [[3, 0], [0, 3]]
    rng = np.random.default_rng(277)
    for p, N, b in ((2, 2, 2), (3, 1, 3), (5, 2, 2)):
        n = p**N
        mat = random_matrix(rng, p, N, 6 * b, 4 * b, "sparse")
        f = dense_flat(p, N, mat).with_blocks(b)
        assert np.array_equal((-f).dense(), -f.dense() % n)
        _, _, values = (-f).coords()
        assert (values % n != 0).all()


def test_kernel_log_cardinality_against_enumeration():
    rng = np.random.default_rng(229)
    for p, N in ((2, 2), (3, 2)):
        n = p**N
        for rows in range(4):
            for cols in range(4):
                for kind in ("dense", "p-divisible", "sparse"):
                    mat = random_matrix(rng, p, N, rows, cols, kind)
                    fm = dense_flat(p, N, mat)
                    assert p ** kernel_log_cardinality(fm) == len(brute_right_kernel(mat, n))


def selection(rng, size: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """size x count 0/1 matrix sending basis vectors to distinct ones, and
    the row of each column's 1."""
    rows = rng.permutation(size)[:count]
    f = np.zeros((size, count), dtype=np.int64)
    f[rows, np.arange(count)] = 1
    return f, rows


def random_cones(seed, general: bool):
    """Chain maps (f0, f1) : [d0] -> [d0p] over Z/p^N with dim C0 = a,
    dim C1 = b, dim C'0 = a + e and dim C'1 = b + e + s.  An acyclic cone
    needs s = 0, the dimension boundary; s = -1 and s = 1 sit beside it.

    Selection legs send basis vectors to distinct basis vectors, and d0p
    agrees with f1 d0 on f0's columns.  General legs are f0 = P [U; 0] and
    f1 random, with d0 = Y U and d0p P agreeing with f1 Y on its first a
    columns, so f1 d0 = d0p f0 for any U, Y and permutation P.
    """
    rng = np.random.default_rng(seed)
    for p in (2, 3, 5):
        for N in (1, 2, 3):
            n = p**N
            for _ in range(40):
                a, b, e = (int(x) for x in rng.integers(0, 4, size=3))
                s = int(rng.integers(-1, 2)) if rng.random() < 0.5 else 0
                a2, b2 = a + e, max(b + e + s, 0 if general else b)
                if general:
                    u = rng.integers(0, n, size=(a, a))
                    y = rng.integers(0, n, size=(b, a))
                    f1 = rng.integers(0, n, size=(b2, b))
                    perm = np.eye(a2, dtype=np.int64)[rng.permutation(a2)]
                    f0 = perm @ np.vstack([u, np.zeros((e, a), dtype=np.int64)])
                    mixed = rng.integers(0, n, size=(b2, a2))
                    mixed[:, :a] = f1 @ y
                    d0, d0p = y @ u, mixed @ perm.T
                else:
                    d0 = rng.integers(0, n, size=(b, a))
                    (f0, rows0), (f1, _) = selection(rng, a2, a), selection(rng, b2, b)
                    d0p = rng.integers(0, n, size=(b2, a2))
                    d0p[:, rows0] = f1 @ d0
                yield tuple(dense_flat(p, N, m % n) for m in (d0, d0p, f0, f1))


@pytest.mark.parametrize("general", [False, True], ids=["selection", "general"])
def test_cone_acyclic_matches_howell_oracle(general):
    verdicts = []
    for d0, d0p, f0, f1 in random_cones(233 + general, general):
        assert is_chain_map(d0, d0p, f0, f1)
        verdict = cone_acyclic(d0, d0p, f0, f1)
        assert verdict == elim_oracle.cone_acyclic(d0, d0p, f0, f1), (d0, d0p, f0, f1)
        verdicts.append(verdict)
    # both verdicts occur often enough to mean something
    assert min(verdicts.count(True), verdicts.count(False)) >= 30


# --- exact products -------------------------------------------------------------


def python_int_product(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    return np.array((a.astype(object) @ b.astype(object)) % n, dtype=np.int64).reshape(
        a.shape[0], b.shape[1]
    )


def test_matmul_matches_python_int_product():
    rng = np.random.default_rng(239)
    for p, N in ((2, 1), (2, 3), (3, 2), (5, 3), (2, 21), (3, 13), (5, 9)):
        n = p**N
        for _ in range(10):
            r, k, c = (int(x) for x in rng.integers(0, 40, size=3))
            a = rng.integers(0, n, size=(r, k))
            b = rng.integers(0, n, size=(k, c))
            got = dense_flat(p, N, a).matmul(dense_flat(p, N, b)).entries
            assert got.dtype == np.int64
            assert np.array_equal(got, python_int_product(a, b, n)), (p, N, r, k, c)


@pytest.mark.parametrize("inner", [2048, 2049])
def test_matmul_exact_on_both_sides_of_the_float64_bound(inner):
    # modulus 2^21: inner * (2^21 - 1)^2 < 2^53 holds for 2048 and fails for 2049,
    # where an odd sum above 2^53 would round in float64
    p, N = 2, 21
    n = p**N
    assert (inner * (n - 1) ** 2 < 2**53) == (inner == 2048)
    a = np.full((1, inner), n - 1, dtype=np.int64)
    b = np.full((inner, 1), n - 1, dtype=np.int64)
    got = dense_flat(p, N, a).matmul(dense_flat(p, N, b)).entries
    assert got.dtype == np.int64
    assert 0 <= got[0, 0] < n
    assert int(got[0, 0]) == inner * (n - 1) ** 2 % n
