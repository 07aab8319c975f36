import random

import numpy as np
import pytest

from qprism.base_ring import RingContext, WScalar, q_int, q_power
from qprism.cartier import (
    CartierProblem,
    block_split,
    cartier_verify,
    chain_map_build,
    level_raise,
    raised_window,
    verschiebung_ok,
)
from qprism.errors import WindowUnstable, WrongLevel
from qprism.homology import FlatMatrix, flat_dim, w_scale_blocks
from qprism.twisted_calculus import ConnectionModule, QPolynomial, connection_apply

import elim_oracle
from flatten_oracle import flatten_sections, random_nilpotent_theta
from paper_oracle import semilinear_frobenius


def trivial_problem(p=2, rank=1, window=4):
    ctx = RingContext(p, 2, 2)
    conn = ConnectionModule.trivial(ctx, rank, -1, window=window)
    return CartierProblem(conn, iterate_cap=16)


def twist_problem(p=2, window=4):
    ctx = RingContext(p, 2, 2)
    theta = [[QPolynomial.parse(ctx, "(q-1)*x", window)]]
    conn = ConnectionModule(ctx, 1, -1, theta, window=window)
    return CartierProblem(conn, iterate_cap=16)


def test_level_raise_wrong_level():
    ctx = RingContext(2, 2, 2)
    with pytest.raises(WrongLevel):
        level_raise(ConnectionModule.trivial(ctx, 1, 0))


def test_level_raise_trivial_k1():
    # theta(x * 1) = (1)_q * 1 = 1 on the raised trivial module
    ctx = RingContext(2, 2, 2)
    raised = level_raise(ConnectionModule.trivial(ctx, 1, -1, window=2))
    out = connection_apply(raised, [QPolynomial.x(ctx, 1, raised.window)])
    assert out == [QPolynomial.one(ctx, raised.window)]


def test_level_raise_trivial_k0():
    ctx = RingContext(2, 2, 2)
    raised = level_raise(ConnectionModule.trivial(ctx, 1, -1, window=2))
    out = connection_apply(raised, [QPolynomial.one(ctx, raised.window)])
    assert all(c.is_zero() for c in out)


def test_level_raise_rank_count():
    # the raised module has p times the flattened dimension of the source
    ctx = RingContext(3, 2, 2)
    win = 2
    conn = ConnectionModule.trivial(ctx, 2, -1, window=win)
    raised = level_raise(conn)
    assert flat_dim(ctx, raised.rank, raised.window) == ctx.p * flat_dim(
        ctx, conn.rank, win
    )


def test_frobenius_substitution():
    ctx = RingContext(2, 2, 2)
    f = QPolynomial.x(ctx, 2)
    assert f.substitute_x_power(2, None) == QPolynomial.x(ctx, 4)


def test_chain_map_identity_monomial():
    # theta(F(x')) and [F](theta'(x')) both equal (p)_q (1)_{q^p} x^{2p-1}
    ctx = RingContext(2, 2, 2)
    conn = ConnectionModule.trivial(ctx, 1, -1, window=3)
    data = chain_map_build(conn)
    assert data.chain_map_ok()
    # by hand on the generator x'
    raised = level_raise(conn)
    lhs = connection_apply(raised, [QPolynomial.x(ctx, ctx.p, raised.window)])
    pq = q_int(ctx.p, 1, ctx)
    expected = QPolynomial.monomial(pq * q_int(1, ctx.p, ctx), ctx.p - 1, raised.window)
    assert lhs == [expected]


def test_chain_map_random_connections():
    for p in (2, 3):
        ctx = RingContext(p, 2, 2)
        theta = random_nilpotent_theta(ctx, 2, 3, seed=101 + p)
        conn = ConnectionModule(ctx, 2, -1, theta, window=3)
        data = chain_map_build(conn)
        assert data.chain_map_ok()
        assert verschiebung_ok(data, ctx)


def test_verschiebung_scaling():
    # the forms leg, each W-block rescaled by (p)_q, is multiplication by (p)_q
    ctx = RingContext(2, 2, 2)
    win_out = raised_window(ctx.p, 2)
    dim = flat_dim(ctx, 1, win_out)
    forms = w_scale_blocks(FlatMatrix.identity(ctx.p, ctx.n_prec, dim), q_int(ctx.p, 1, ctx))
    one_form = flatten_sections(ctx, 1, win_out, [QPolynomial.one(ctx, win_out)])
    out = (forms.entries @ one_form) % ctx.pn
    expected = flatten_sections(
        ctx, 1, win_out, [QPolynomial.from_scalar(q_int(ctx.p, 1, ctx), win_out)]
    )
    assert np.array_equal(out, expected)


def test_proof_identity_with_twist():
    """The blockwise operator identity behind the descent quasi-isomorphism.

    theta(x^k s) = x^{k-1} (q^k x' theta'(s) + (k)_q s): the twisted
    Leibniz rule forces the q^k factor on the connection term.  Without
    it the identity only holds modulo (q - 1), which is checked too.
    """
    rng = random.Random(71)
    for p in (2, 3):
        ctx = RingContext(p, 2, 2)
        win = 3
        theta = random_nilpotent_theta(ctx, 2, win, seed=500 + p)
        conn = ConnectionModule(ctx, 2, -1, theta, window=win)
        raised = level_raise(conn)
        win_out = raised.window
        for _ in range(10):
            s = [
                QPolynomial(
                    ctx,
                    {
                        d: WScalar(ctx, [rng.randrange(ctx.pn) for _ in range(2)])
                        for d in range(win + 1)
                    },
                    win,
                )
                for _ in range(2)
            ]
            s_raised = [c.substitute_x_power(p, win_out) for c in s]
            theta_prime_s = connection_apply(conn, s)
            for k in range(1, p):
                xk = QPolynomial.x(ctx, k, win_out)
                lhs = connection_apply(raised, [xk * c for c in s_raised])
                xkm1 = QPolynomial.x(ctx, k - 1, win_out)
                x_prime = QPolynomial.x(ctx, p, win_out)
                qk = q_power(ctx, k)
                rhs = [
                    xkm1
                    * (
                        x_prime * tps.substitute_x_power(p, win_out) * qk
                        + q_int(k, 1, ctx) * c
                    )
                    for tps, c in zip(theta_prime_s, s_raised)
                ]
                assert lhs == rhs
                # printed form (no q^k) agrees after killing (q - 1)
                classical = RingContext(p, 2, 1)
                rhs_printed = [
                    xkm1
                    * (
                        x_prime * tps.substitute_x_power(p, win_out)
                        + q_int(k, 1, ctx) * c
                    )
                    for tps, c in zip(theta_prime_s, s_raised)
                ]
                for a, b in zip(lhs, rhs_printed):
                    diff = a - b
                    assert all(
                        w.reduce_to(classical).is_zero()
                        for w in diff.coeffs.values()
                    )


def test_block_split_structure():
    for p in (2, 3):
        problem = twist_problem(p) if p == 2 else trivial_problem(3, 2, 3)
        data = block_split(problem)
        assert set(data.operators) == set(range(1, p))


@pytest.mark.parametrize(
    "out_grade, in_grade",
    [
        (0, 0),  # outside the grade shift k -> k - 1 mod p
        (2, 1),  # outside it, and between two graded blocks
        (0, 1),  # inside the graded block k = 1
        (1, 2),  # inside the graded block k = 2
    ],
)
def test_block_split_refuses_a_corrupted_raised_differential(out_grade, in_grade):
    ctx = RingContext(3, 2, 2)
    conn = ConnectionModule(ctx, 2, -1, random_nilpotent_theta(ctx, 2, 3, seed=7), window=3)
    problem = CartierProblem(conn)
    data = chain_map_build(conn)
    block_split(problem, data)
    win_out = raised_window(3, 3)

    def index(j, degree, i):
        return (j * (win_out + 1) + degree) * ctx.m_prec + i

    entries = data.target_differential.entries
    row, col = index(1, 3 * 2 + out_grade, 1), index(0, 3 * 1 + in_grade, 0)
    entries[row, col] = (entries[row, col] + 1) % ctx.pn
    data.target_differential = FlatMatrix(ctx.p, ctx.n_prec, entries)
    with pytest.raises(WindowUnstable):
        block_split(problem, data)


def test_block_diagonal_values():
    # L_1 on the degree-n piece of the trivial module multiplies by
    # (1)_q + (p)_q (n)_{q^p}
    ctx = RingContext(2, 2, 2)
    conn = ConnectionModule.trivial(ctx, 1, -1, window=3)
    data = block_split(CartierProblem(conn))
    op = data.operators[1]
    m = ctx.m_prec
    from qprism.homology import w_mult_block

    pq = q_int(2, 1, ctx)
    for n in range(4):
        block = op.entries[n * m : (n + 1) * m, n * m : (n + 1) * m]
        expected = w_mult_block(q_int(1, 1, ctx) + pq * q_int(n, 2, ctx)) % ctx.pn
        assert np.array_equal(block, expected)


def test_block_operator_on_zero():
    problem = trivial_problem()
    data = block_split(problem)
    op = data.operators[1]
    zero = np.zeros(op.cols, dtype=np.int64)
    assert not ((op.entries @ zero) % op.modulus).any()


def test_l1_on_constants_is_identity():
    # L_1 applied to a degree-zero constant of the trivial module is
    # multiplication by (1)_q = 1
    ctx = RingContext(2, 2, 2)
    conn = ConnectionModule.trivial(ctx, 1, -1, window=3)
    data = block_split(CartierProblem(conn))
    vec = flatten_sections(ctx, 1, 3, [QPolynomial.one(ctx, 3)])
    out = (data.operators[1].entries @ vec) % ctx.pn
    assert np.array_equal(out, vec)


def test_cartier_verify_trivial_p2():
    report = cartier_verify(trivial_problem())
    assert report.all_ok
    # independent verdict through the Howell-kernel route
    data = chain_map_build(trivial_problem().conn_prime)
    assert elim_oracle.cone_acyclic(
        data.source_differential,
        data.target_differential,
        data.module_leg,
        data.forms_leg,
    )


def test_cartier_verify_twist():
    report = cartier_verify(twist_problem())
    assert report.all_ok


def test_cartier_verify_seeded_random_p3_rank2():
    ctx = RingContext(3, 2, 2)
    theta = random_nilpotent_theta(ctx, 2, 3, seed=2024)
    conn = ConnectionModule(ctx, 2, -1, theta, window=3)
    report = cartier_verify(CartierProblem(conn, iterate_cap=24))
    assert report.all_ok
    data = chain_map_build(conn)
    assert elim_oracle.cone_acyclic(
        data.source_differential,
        data.target_differential,
        data.module_leg,
        data.forms_leg,
    )


def test_classical_mode_q_equals_one():
    # m_prec = 1 collapses q to 1; the same pipeline must still verify
    ctx = RingContext(2, 2, 1)
    theta = [[QPolynomial.parse(ctx, "2*x", 4)]]
    conn = ConnectionModule(ctx, 1, -1, theta, window=4)
    report = cartier_verify(CartierProblem(conn, iterate_cap=16))
    assert report.all_ok


def test_semilinear_frobenius_chain_map():
    for p in (2, 3):
        ctx = RingContext(p, 2, 2)
        data = semilinear_frobenius(ctx, window=4)
        assert data.chain_map_ok()
        # the module leg in place of the forms leg breaks the square
        data.forms_leg = data.module_leg
        assert not data.chain_map_ok()


def test_semilinear_frobenius_on_unit_form():
    # the basis form maps to (p)_q x^{p-1}
    ctx = RingContext(2, 2, 2)
    data = semilinear_frobenius(ctx, window=2)
    win_out = raised_window(2, 2)
    vec = flatten_sections(ctx, 1, 2, [QPolynomial.one(ctx, 2)])
    out = (data.forms_leg.entries @ vec) % ctx.pn
    expected = flatten_sections(
        ctx, 1, win_out, [QPolynomial.monomial(q_int(2, 1, ctx), 1, win_out)]
    )
    assert np.array_equal(out, expected)


def test_semilinear_frobenius_explicit_identity():
    # phi(nabla x) = (p)_{q^p} (p)_q x^{p-1} coefficient = nabla(x^p)
    ctx = RingContext(3, 2, 2)
    p = ctx.p
    pq = q_int(p, 1, ctx)
    lhs = q_int(p, 1, ctx).frobenius() * pq  # phi((p)_q) * (p)_q
    rhs = pq * q_int(p, p, ctx)  # (p)_q (p)_{q^p}
    assert lhs == rhs


def test_report_json_shape():
    report = cartier_verify(trivial_problem())
    js = report.to_json()
    assert js["ok"] is True
    assert js["chain_map_ok"] is True
    assert set(js["blocks"]) == {"1"}


def test_non_nilpotent_connection_fails_precondition_only():
    # a unit twist breaks quasi-nilpotence; the certificates and the cone
    # verdict still hold in the truncation, so only the precondition trips
    ctx = RingContext(2, 2, 2)
    theta = [[QPolynomial.one(ctx, 3)]]
    conn = ConnectionModule(ctx, 1, -1, theta, window=3)
    report = cartier_verify(CartierProblem(conn, iterate_cap=8))
    assert not report.nilpotent
    assert not report.all_ok
    assert report.chain_map_ok and report.cone_acyclic


def test_descent_p5_smoke():
    ctx = RingContext(5, 2, 2)
    theta = [[QPolynomial.parse(ctx, "(q-1)*x", 2)]]
    conn = ConnectionModule(ctx, 1, -1, theta, window=2)
    report = cartier_verify(CartierProblem(conn, iterate_cap=24))
    assert report.all_ok
    assert set(report.blocks) == {1, 2, 3, 4}


def test_descent_window_zero_edge():
    ctx = RingContext(3, 2, 2)
    conn = ConnectionModule.trivial(ctx, 2, -1, window=0)
    report = cartier_verify(CartierProblem(conn, iterate_cap=8))
    assert report.all_ok


def test_quasi_isomorphism_matches_cohomology_invariants():
    # the verdict implies isomorphic cohomology; corroborate by comparing
    # invariant factors of both complexes directly on every fixture shape
    import json
    from pathlib import Path

    from qprism.cartier import flatten_connection
    from qprism.homology import cohomology_of_complex

    fixtures = sorted(
        (Path(__file__).resolve().parent.parent / "fixtures").glob("p*_rank*.json")
    )
    assert fixtures
    for path in fixtures:
        spec = json.loads(path.read_text())
        ctx = RingContext(spec["p"], spec["n_prec"], spec["m_prec"])
        window = spec["degree_window"]
        theta = [
            [QPolynomial.parse(ctx, entry, window) for entry in row]
            for row in spec["theta_matrix"]
        ]
        conn = ConnectionModule(ctx, spec["rank"], spec["level"], theta, window)
        raised = level_raise(conn)
        h_src = cohomology_of_complex(flatten_connection(conn))
        h_tgt = cohomology_of_complex(flatten_connection(raised))
        assert h_src.h0_invariant_factors == h_tgt.h0_invariant_factors, path.name
        assert h_src.h1_invariant_factors == h_tgt.h1_invariant_factors, path.name


SCALE_PROBE = """
import contextlib, io, json, resource, sys, time
from qprism.cli import run_command
out = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(out):
    code = run_command(["cartier", "--spec", sys.argv[1]])
seconds = time.perf_counter() - start
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"code": code, "ok": json.loads(out.getvalue())["ok"],
                  "seconds": seconds, "peak_mb": peak_mb}))
"""


def test_cartier_at_raised_dim_4050_runs_in_time_and_memory(tmp_path):
    # rank 2, p 3, N = M = 3, window 224: raised dimension 4050, and 4086 for
    # the stability re-run; the run must pass in under 1.5 s in process and
    # peak under 300 MB (Linux reports ru_maxrss in KiB)
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    ctx = RingContext(3, 3, 3)
    window = 224
    assert flat_dim(ctx, 2, raised_window(3, window)) == 4050
    theta = random_nilpotent_theta(ctx, 2, window, seed=0)
    spec = {
        "p": 3,
        "n_prec": 3,
        "m_prec": 3,
        "level": -1,
        "rank": 2,
        "degree_window": window,
        "theta_matrix": [[entry.to_string() for entry in row] for row in theta],
    }
    path = tmp_path / "dim4050.json"
    path.write_text(json.dumps(spec))
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", SCALE_PROBE, str(path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0 and result["ok"] is True
    assert result["seconds"] < 1.5, result
    assert result["peak_mb"] < 300, result


COMMAND_PROBE = """
import contextlib, io, json, resource, sys, time
from qprism.cli import run_command
out = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(out):
    code = run_command(sys.argv[1:])
seconds = time.perf_counter() - start
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"code": code, "ok": json.loads(out.getvalue())["ok"],
                  "seconds": seconds, "peak_mb": peak_mb}))
"""


def test_cohomology_at_dim_4095_runs_in_time_and_memory(tmp_path):
    # rank 3, p 3, N = M = 3, window 454: flattened dimension 4095, where
    # nothing peels and every Smith pivot is eliminated; the run must pass
    # in under 1.5 s in process and peak under 200 MB (ru_maxrss in KiB)
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    ctx = RingContext(3, 3, 3)
    window = 454
    assert flat_dim(ctx, 3, window) == 4095
    theta = random_nilpotent_theta(ctx, 3, window, seed=0)
    spec = {
        "p": 3,
        "n_prec": 3,
        "m_prec": 3,
        "level": -1,
        "rank": 3,
        "degree_window": window,
        "theta_matrix": [[entry.to_string() for entry in row] for row in theta],
    }
    path = tmp_path / "dim4095.json"
    path.write_text(json.dumps(spec))
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", COMMAND_PROBE, "cohomology", "--spec", str(path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0 and result["ok"] is True
    assert result["seconds"] < 1.5, result
    assert result["peak_mb"] < 200, result


def _probe_command(*args) -> dict:
    """Run one command line by COMMAND_PROBE in a fresh process."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", COMMAND_PROBE, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0 and result["ok"] is True
    return result


def test_axioms_at_p_37_runs_in_time_and_memory():
    # the x-carrying sweep forms a^1..a^37 and b^1..b^37 of 40 lifts in
    # W(37, 2, 2)[x]; the run must pass in under 6 s in process and peak
    # under 100 MB
    result = _probe_command("axioms", "--p", "37", "--n", "2", "--m", "2", "--samples", "1")
    assert result["seconds"] < 6, result
    assert result["peak_mb"] < 100, result


def test_axioms_at_p_97_runs_in_time_and_memory():
    # the largest supported prime: a^1..a^97 of 40 lifts in W(97, 2, 2)[x],
    # and the distinguished checks in W(97, 3, 2); under 2 s in process and
    # 100 MB
    result = _probe_command("axioms", "--p", "97", "--n", "2", "--m", "2", "--samples", "1")
    assert result["seconds"] < 2, result
    assert result["peak_mb"] < 100, result


def test_poincare_at_cap_255_runs_in_time_and_memory(capsys):
    # window 7, m 2, at the dimension budget: the differentials are 4096 x 16
    # and 4080 x 4096, built from 2 x 2 identity blocks; under 0.1 s in
    # process, with the pinned stdout, and under 60 MB in a fresh process
    import hashlib
    import time

    from qprism.cli import run_command

    args = ["poincare", "--p", "2", "--cap", "255", "--window", "7", "--m", "2"]
    start = time.perf_counter()
    code = run_command(args)
    seconds = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e0ab2732450b2dae7a772df91756a420e79734e216fa54b7de6fe32d960a993f"
    )
    assert seconds < 0.1, seconds
    assert _probe_command(*args)["peak_mb"] < 60
