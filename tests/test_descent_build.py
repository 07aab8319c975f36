"""The connection flattening, the descent matrices built from it and the
quasi-nilpotence witnesses read off it against the probing builders kept in
flatten_oracle, and the flattening, product and probe counts of one
verification run."""

import itertools
import json
import random
from pathlib import Path

import numpy as np
import pytest

import dense_oracle
import flatten_oracle as oracle
from flatten_oracle import random_nilpotent_theta
from dense_oracle import dense_flat
from paper_oracle import semilinear_frobenius
from qpoly_oracle import QConnection, QPolynomial, connection
from qprism import cartier, homology, twisted_calculus
from qprism.base_ring import RingContext, WScalar, frobenius_matrix, q_int
from qprism.cartier import (
    CartierProblem,
    _verify_once,
    block_split,
    chain_map_build,
    flatten_connection,
    level_raise,
    raised_window,
    verschiebung_ok,
)
from qprism.cli import load_connection_spec
from qprism.errors import InvalidArgs, NotAChainMap
from qprism.homology import (
    FlatMatrix,
    cone_acyclic,
    cone_differentials,
    flat_dim,
    is_chain_map,
    kernel_log_cardinalities,
    w_mult_block,
    w_scale_blocks,
)
from qprism.twisted_calculus import ConnectionModule, quasi_nilpotence_check

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CONNECTION_FIXTURES = sorted(
    path.name
    for path in FIXTURES.glob("*.json")
    if "level" in json.loads(path.read_text()) and path.name != "bad_rank.json"
)
LEVEL_MINUS_ONE_FIXTURES = [
    name
    for name in CONNECTION_FIXTURES
    if json.loads((FIXTURES / name).read_text())["level"] == -1
]


def _sweep_theta(ctx: RingContext, rank: int, window: int, rng: random.Random):
    """theta whose entries are zero, or random coefficients at a few
    random degrees, with the window degree among them for a third of all
    entries."""
    theta = []
    for _ in range(rank):
        row = []
        for _ in range(rank):
            kind = rng.randrange(3)
            degrees = set()
            if kind:
                degrees = {rng.randrange(window + 1) for _ in range(rng.randrange(1, 4))}
                if kind == 2:
                    degrees.add(window)
            coeffs = {d: WScalar.random(ctx, rng) for d in degrees}
            row.append(QPolynomial(ctx, coeffs, window))
        theta.append(row)
    return theta


def test_flatten_connection_matches_the_probe_on_a_seeded_sweep():
    shapes = itertools.product((0, -1), (2, 3, 5), (1, 2, 3), (1, 2, 3, 4), range(13))
    for seed, (level, p, rank, m_prec, window) in enumerate(shapes):
        rng = random.Random(seed)
        ctx = RingContext(p, 1 + seed % 3, m_prec)
        theta = _sweep_theta(ctx, rank, window, rng)
        for conn in (
            connection(ctx, rank, level, theta, window),
            ConnectionModule.trivial(ctx, rank, level, window),
        ):
            # FlatMatrix equality compares the modulus, the shape and every entry
            assert flatten_connection(conn) == oracle.probed_connection(conn), (
                level, p, rank, m_prec, window,
            )
    assert seed + 1 == 936


@pytest.mark.parametrize("name", CONNECTION_FIXTURES)
def test_flatten_connection_matches_the_probe_on_fixtures(name):
    # the spec, then its --grow context (N+1, M+1, window+2); each level -1
    # connection also with its raised connection
    for grow in (0, 1):
        conn, _, _ = load_connection_spec(str(FIXTURES / name), grow)
        for c in [conn] + ([level_raise(conn)] if conn.level == -1 else []):
            assert flatten_connection(c) == oracle.probed_connection(c), (grow, c.level)


def _oracle_connection(spec: dict, grow: int) -> QConnection:
    """The spec's connection parsed by the QPolynomial oracle, at the
    truncation and window of a run with --grow when grow is 1."""
    n, m, window = spec["n_prec"] + grow, spec["m_prec"] + grow, spec["degree_window"] + 2 * grow
    ctx = RingContext(spec["p"], n, m)
    theta = [[QPolynomial.parse(ctx, text, window) for text in row] for row in spec["theta_matrix"]]
    return QConnection(ctx, spec["rank"], spec["level"], theta, window)


def _oracle_raised(qm: QConnection) -> QConnection:
    """x^(p-1) theta(x^p) on the raised window, by QPolynomial arithmetic."""
    p = qm.ctx.p
    window = raised_window(p, qm.window)
    shift = QPolynomial.x(qm.ctx, p - 1, window)
    theta = [[shift * e.substitute_x_power(p, window) for e in row] for row in qm.theta]
    return QConnection(qm.ctx, qm.rank, 0, theta, window)


def _check_parse_then_flatten(spec: dict, grow: int) -> None:
    """The loader's connection flattened equals the oracle's probe of its
    own parse, at the spec's window, the window of the stability re-run and,
    at level -1, raised."""
    conn, _, _ = load_connection_spec("spec.json", grow, spec)
    qm = _oracle_connection(spec, grow)
    wider = QConnection(qm.ctx, qm.rank, qm.level, qm.theta, qm.window + cartier.STABILITY_WINDOW_STEP)
    pairs = [(conn, qm), (conn.rewindow(wider.window), wider)]
    if conn.level == -1:
        pairs.append((level_raise(conn), _oracle_raised(qm)))
    for c, q in pairs:
        assert flatten_connection(c) == oracle.probed_connection(q), (spec, grow, c.window)


@pytest.mark.parametrize("name", CONNECTION_FIXTURES)
def test_parse_then_flatten_matches_the_oracle_parse_on_fixtures(name):
    spec = json.loads((FIXTURES / name).read_text())
    for grow in (0, 1):
        _check_parse_then_flatten(spec, grow)


def _entry_text(rng: random.Random, max_degree: int) -> str:
    """A polynomial in q and x, its degrees up to max_degree."""
    q_parts = ("", "*q", "*q^3", "*(q-1)^2", "*(1+q)")
    terms = [
        f"({rng.randrange(-60, 60)}){rng.choice(q_parts)}*x^{rng.randrange(max_degree + 1)}"
        for _ in range(rng.randrange(4))
    ]
    return "+".join(terms) or "0"


def test_parse_then_flatten_matches_the_oracle_parse_on_seeded_specs():
    # ranks 1-3, levels 0 and -1, windows 0-6; entries reach two degrees past
    # the window, so the loader's cut is checked too
    specs = 0
    for seed, (rank, level, window) in enumerate(
        itertools.product((1, 2, 3), (0, -1), range(7))
    ):
        rng = random.Random(seed)
        spec = {
            "p": rng.choice((2, 3, 5)),
            "n_prec": rng.randint(1, 3),
            "m_prec": rng.randint(1, 3),
            "level": level,
            "rank": rank,
            "degree_window": window,
            "theta_matrix": [[_entry_text(rng, window + 2) for _ in range(rank)] for _ in range(rank)],
        }
        _check_parse_then_flatten(spec, 0)
        specs += 1
    assert specs == 42


WITNESS_CAPS = (1, 4, 32)


def _check_witnesses(conn: ConnectionModule, cap: int) -> bool:
    """Both routes give the same witnesses; returns the verdict."""
    report = quasi_nilpotence_check(flatten_connection(conn), conn.rank, cap)
    assert report.witness == oracle.probed_witnesses(conn, cap), (conn.level, conn.window, cap)
    assert report.nilpotent == (None not in report.witness)
    return report.nilpotent


@pytest.mark.parametrize("name", CONNECTION_FIXTURES)
def test_nilpotence_witnesses_match_the_probe_on_fixtures(name):
    # the spec and its --grow context, each at its window and the window of
    # the stability re-run
    for grow in (0, 1):
        conn, _, _ = load_connection_spec(str(FIXTURES / name), grow)
        for c in (conn, conn.rewindow(conn.window + cartier.STABILITY_WINDOW_STEP)):
            for cap in WITNESS_CAPS:
                _check_witnesses(c, cap)


def test_nilpotence_witnesses_match_the_probe_on_a_seeded_sweep():
    # random theta at levels 0 and -1, many of them not nilpotent, and seeded
    # nilpotent ones; most modules put the length bound N * n below the cap
    verdicts = []
    for seed in range(72):
        rng = random.Random(seed)
        ctx = RingContext(rng.choice((2, 3, 5)), rng.randint(1, 3), rng.randint(1, 3))
        rank, window, level = rng.randint(1, 3), rng.randrange(4), rng.choice((0, -1))
        if seed % 3:
            theta = _sweep_theta(ctx, rank, window, rng)
        else:
            theta = random_nilpotent_theta(ctx, rank, window, seed=seed)
        conn = connection(ctx, rank, level, theta, window)
        verdicts += [_check_witnesses(conn, cap) for cap in WITNESS_CAPS]
    assert len(verdicts) == 216
    assert 60 <= verdicts.count(False) <= 156


def test_nilpotence_witnesses_match_the_product_loop_on_a_seeded_sweep():
    # the int64 iteration against the FlatMatrix-product loop it replaced, at
    # levels 0 and -1 and every window 0..12: theta = 0, seeded nilpotent
    # theta, and random theta, most of which are not nilpotent
    rng = random.Random(271)
    verdicts = []
    for p, rank, window in itertools.product((2, 3, 5), (1, 2, 3), range(13)):
        ctx = RingContext(p, rng.randint(1, 3), rng.randint(1, 3))
        for kind in ("zero", "nilpotent", "random"):
            if kind == "zero":
                theta = [[QPolynomial.zero(ctx, window)] * rank for _ in range(rank)]
            elif kind == "nilpotent":
                theta = random_nilpotent_theta(ctx, rank, window, seed=rng.randrange(10**6))
            else:
                theta = _sweep_theta(ctx, rank, window, rng)
            conn = connection(ctx, rank, rng.choice((0, -1)), theta, window)
            flat = flatten_connection(conn)
            for cap in (1, 2, 32):
                report = quasi_nilpotence_check(flat, rank, cap)
                assert report.witness == oracle.product_witnesses(flat, rank, cap), (
                    p, rank, window, kind, cap,
                )
                verdicts.append(report.nilpotent)
    assert (len(verdicts), verdicts.count(False)) == (1053, 404)


def test_nilpotence_witnesses_make_no_block_product(monkeypatch):
    def no_product(self, other):
        raise AssertionError("a FlatMatrix product inside quasi_nilpotence_check")

    monkeypatch.setattr(FlatMatrix, "__matmul__", no_product)
    for name in LEVEL_MINUS_ONE_FIXTURES:
        conn, _, _ = load_connection_spec(str(FIXTURES / name))
        report = quasi_nilpotence_check(flatten_connection(conn), conn.rank, 32)
        assert report.nilpotent, name


def test_nilpotence_witness_can_reach_the_length_bound():
    # multiplication by p on Z/p^N (rank 1, window 0, m 1, so n = 1) first
    # vanishes at its N-th power: the bound N * n is attained
    ctx = RingContext(2, 3, 1)
    conn = connection(ctx, 1, 0, [[QPolynomial.parse(ctx, "2", 0)]], 0)
    report = quasi_nilpotence_check(flatten_connection(conn), 1, 32)
    assert report.witness == oracle.probed_witnesses(conn, 32) == [3]


def test_flatten_connection_refuses_a_dimension_over_the_cap(monkeypatch):
    conn, _, _ = load_connection_spec(str(FIXTURES / "p3_rank2_seeded.json"))
    dim = flat_dim(conn.ctx, conn.rank, conn.window)
    monkeypatch.setenv("QPRISM_MAX_DIM", str(dim - 1))
    with pytest.raises(InvalidArgs, match=f"flattened dimension exceeds QPRISM_MAX_DIM={dim - 1}"):
        flatten_connection(conn)
    monkeypatch.setenv("QPRISM_MAX_DIM", str(dim))
    assert flatten_connection(conn).rows == dim
    with pytest.raises(InvalidArgs, match="needs a degree window"):
        flatten_connection(conn.rewindow(None))


def _seeded_connections():
    seed = 0
    for p in (2, 3, 5):
        for m_prec in (1, 2, 3):
            for window in range(5):
                for rank in (1, 2):
                    seed += 1
                    ctx = RingContext(p, 2, m_prec)
                    theta = random_nilpotent_theta(ctx, rank, window, seed=seed)
                    yield connection(ctx, rank, -1, theta, window=window)


def _check_against_oracle(conn: ConnectionModule):
    data = chain_map_build(conn)
    frobenius, divided = oracle.frobenius_legs(conn)
    # FlatMatrix equality compares the modulus, the shape and every entry
    assert data.module_leg == frobenius
    assert data.forms_leg == divided
    # the rescaled raised differential of the Verschiebung check against the
    # oracle's dense product of a Kronecker-built (p)_q with the probed theta
    pq = q_int(conn.ctx.p, 1, conn.ctx)
    assert w_scale_blocks(data.target_differential, pq) == oracle.verschiebung_target(conn)
    blocks = block_split(CartierProblem(conn), data)
    assert set(blocks.operators) == set(range(1, conn.ctx.p))
    for k in range(1, conn.ctx.p):
        assert blocks.operators[k] == oracle.block_operator(conn, k, False), k
        assert blocks.twisted_operators[k] == oracle.block_operator(conn, k, True), k
    module, forms = oracle.semilinear_legs(conn.ctx, conn.window)
    endo = semilinear_frobenius(conn.ctx, conn.window)
    assert endo.module_leg == module
    assert endo.forms_leg == forms


def _same(mat: FlatMatrix, want: np.ndarray) -> bool:
    """The dense copy of a block result equals the oracle's array."""
    got = mat.dense()
    return got.shape == want.shape and np.array_equal(got, want)


def _check_against_dense_oracle(conn: ConnectionModule):
    ctx = conn.ctx
    p, N, m, pn = ctx.p, ctx.n_prec, ctx.m_prec, ctx.pn
    data = chain_map_build(conn)
    source = dense_oracle.flatten_connection(conn)
    raised = dense_oracle.flatten_connection(level_raise(conn))
    assert _same(data.source_differential, source)
    assert _same(data.target_differential, raised)
    eye = np.eye(m, dtype=np.int64)
    frob = dense_oracle.frobenius_leg(ctx, conn.rank, conn.window, 0, eye)
    fdiv = dense_oracle.frobenius_leg(ctx, conn.rank, conn.window, p - 1, eye)
    assert _same(data.module_leg, frob) and _same(data.forms_leg, fdiv)
    w_frob = np.array(frobenius_matrix(ctx), dtype=np.int64)
    pq = q_int(p, 1, ctx)
    endo = semilinear_frobenius(ctx, conn.window)
    assert _same(endo.module_leg, dense_oracle.frobenius_leg(ctx, 1, conn.window, 0, w_frob))
    assert _same(
        endo.forms_leg,
        dense_oracle.frobenius_leg(ctx, 1, conn.window, p - 1, w_mult_block(pq) @ w_frob),
    )
    # the two sides of the Verschiebung check
    assert _same(
        w_scale_blocks(data.source_differential, pq), dense_oracle.w_scale_blocks(source, pq)
    )
    assert _same(
        w_scale_blocks(data.target_differential @ data.module_leg, pq),
        dense_oracle.w_scale_blocks(raised @ frob % pn, pq),
    )
    x_theta = cartier._shift_degree(data.source_differential, conn.window)
    x_dense = dense_oracle.shift_degree(source, conn.rank, conn.window)
    assert _same(x_theta, x_dense)
    structure_ok, pieces = dense_oracle.graded_pieces(conn, raised)
    assert structure_ok
    split = block_split(CartierProblem(conn), data)
    for k in range(1, p):
        assert _same(cartier._graded_piece(data.target_differential, k, x_theta.shape), pieces[k])
        assert _same(split.operators[k], dense_oracle.block_operator(x_dense, ctx, k, False))
        assert _same(split.twisted_operators[k], dense_oracle.block_operator(x_dense, ctx, k, True))
    delta0, delta1 = cone_differentials(
        data.source_differential, data.target_differential, data.module_leg, data.forms_leg
    )
    want0, want1 = dense_oracle.cone_differentials(source, raised, frob, fdiv, pn)
    assert _same(delta0, want0) and _same(delta1, want1)
    for cap in WITNESS_CAPS:
        report = quasi_nilpotence_check(data.source_differential, conn.rank, cap)
        assert report.witness == dense_oracle.nilpotence_witnesses(source, conn.rank, cap, p, N)


def test_block_descent_matrices_match_the_dense_builders_on_a_seeded_sweep():
    # fixtures, seeded nilpotent connections, and random theta of which many
    # are not nilpotent, so the witnesses take both values
    cases = [
        load_connection_spec(str(FIXTURES / name))[0] for name in LEVEL_MINUS_ONE_FIXTURES
    ]
    cases += list(_seeded_connections())
    for seed in range(60):
        rng = random.Random(seed)
        ctx = RingContext(rng.choice((2, 3, 5)), rng.randint(1, 3), rng.randint(1, 4))
        rank, window = rng.randint(1, 3), rng.randrange(6)
        cases.append(connection(ctx, rank, -1, _sweep_theta(ctx, rank, window, rng), window))
    for conn in cases:
        _check_against_dense_oracle(conn)
    assert len(cases) == 163


def test_cartier_never_makes_a_matrix_dense(monkeypatch, tmp_path, capsys):
    # every descent step works on stored blocks: no FlatMatrix is turned into
    # a full array during a run, on any connection fixture or on the shape
    # of the benchmark's descent workload
    import importlib

    from qprism.cli import run_command

    calls = []
    dense = FlatMatrix.dense

    def counted(self):
        calls.append(self.shape)
        return dense(self)

    monkeypatch.setattr(FlatMatrix, "dense", counted)
    monkeypatch.syspath_prepend(str(FIXTURES.parent))
    workloads = importlib.import_module("perfbench.workloads")
    scaled = tmp_path / "descent.json"
    shape = workloads.DESCENT_SHAPE
    scaled.write_text(
        json.dumps(
            {
                "p": shape.p,
                "n_prec": shape.n_prec,
                "m_prec": shape.m_prec,
                "level": -1,
                "rank": shape.rank,
                "degree_window": shape.window,
                "theta_matrix": workloads.nilpotent_theta(shape, 1),
            }
        )
    )
    specs = [str(FIXTURES / name) for name in CONNECTION_FIXTURES] + [str(scaled)]
    for spec in specs:
        for argv in (["cartier", "--spec", spec], ["cartier", "--spec", spec, "--grow"]):
            code = run_command(argv)
            capsys.readouterr()
        assert code == 0 or spec != str(scaled)
    assert calls == []


@pytest.mark.parametrize("name", LEVEL_MINUS_ONE_FIXTURES)
def test_descent_matrices_match_oracle_on_fixtures(name):
    conn, _, _ = load_connection_spec(str(FIXTURES / name))
    _check_against_oracle(conn)


def test_descent_matrices_match_oracle_on_seeded_connections():
    cases = list(_seeded_connections())
    assert len(cases) == 90
    for conn in cases:
        _check_against_oracle(conn)


def test_verify_once_flattens_twice_and_never_multiplies(monkeypatch):
    counts = {"flatten": 0, "matmul": 0, "apply": 0}
    flatten, matmul = cartier.flatten_connection, homology.FlatMatrix.matmul
    apply = twisted_calculus.connection_apply

    def counted_apply(*args, **kwargs):
        counts["apply"] += 1
        return apply(*args, **kwargs)

    def counted_flatten(*args, **kwargs):
        counts["flatten"] += 1
        return flatten(*args, **kwargs)

    def counted_matmul(self, other):
        counts["matmul"] += 1
        return matmul(self, other)

    monkeypatch.setattr(cartier, "flatten_connection", counted_flatten)
    monkeypatch.setattr(homology.FlatMatrix, "matmul", counted_matmul)
    monkeypatch.setattr(twisted_calculus, "connection_apply", counted_apply)
    conn, _, _ = load_connection_spec(str(FIXTURES / "p3_rank2_seeded.json"))
    report = _verify_once(CartierProblem(conn))
    assert report.all_ok
    assert counts["flatten"] == 2
    assert counts["matmul"] == 0
    assert counts["apply"] == 0


def test_verify_once_forms_block_powers_at_most_three_times(monkeypatch):
    # two for the two flattenings and one for all p - 1 block certificates
    calls = []
    block_powers = cartier._block_powers
    monkeypatch.setattr(
        cartier, "_block_powers", lambda *args: calls.append(args) or block_powers(*args)
    )
    for seed, p in enumerate((2, 3, 5, 7)):
        ctx = RingContext(p, 2, 2)
        theta = random_nilpotent_theta(ctx, 2, 3, seed=seed)
        calls.clear()
        report = _verify_once(CartierProblem(connection(ctx, 2, -1, theta, window=3)))
        assert report.all_ok, p
        assert len(report.blocks) == p - 1
        assert len(calls) <= 3, (p, len(calls))


def test_verify_once_peels_every_smith_pivot(monkeypatch):
    # every kernel count of a run on a quasi-nilpotent connection peels unit
    # singletons only: the layered elimination never runs
    counts = {"peel": 0, "eliminate": 0}
    peel, eliminate = homology._peel_unit_singletons, homology._eliminate_layers

    def counted_peel(*args):
        counts["peel"] += 1
        return peel(*args)

    def counted_eliminate(*args):
        counts["eliminate"] += 1
        return eliminate(*args)

    monkeypatch.setattr(homology, "_peel_unit_singletons", counted_peel)
    monkeypatch.setattr(homology, "_eliminate_layers", counted_eliminate)
    for name in LEVEL_MINUS_ONE_FIXTURES:
        conn, _, _ = load_connection_spec(str(FIXTURES / name))
        for window in (conn.window, conn.window + cartier.STABILITY_WINDOW_STEP):
            report = _verify_once(CartierProblem(conn.rewindow(window)))
            assert report.nilpotent and report.all_ok, name
    # one peel per run covers the two kernel counts of each of the p - 1
    # blocks and the two of the cone: 13 fixtures, each at two windows
    assert counts == {"peel": 26, "eliminate": 0}
    # the connection's own cohomology operator does not peel away
    conn, _, _ = load_connection_spec(str(FIXTURES / "p3_rank2_seeded.json"))
    homology.cohomology_of_complex(flatten_connection(conn))
    assert counts["peel"] == 27 and counts["eliminate"] > 0


def test_descent_matrices_are_reduced_int64():
    # the descent matrices are built in blocks by FlatMatrix.from_blocks, not
    # by a dense constructor that reduces input from outside
    def assert_reduced(mat):
        e = mat.entries
        assert e.dtype == np.int64 and e.ndim == 2
        assert not e.size or (e.min() >= 0 and e.max() < mat.modulus)

    for name in LEVEL_MINUS_ONE_FIXTURES:
        conn, _, _ = load_connection_spec(str(FIXTURES / name))
        data = chain_map_build(conn)
        split = block_split(CartierProblem(conn), data)
        pq = q_int(conn.ctx.p, 1, conn.ctx)
        for mat in (
            data.source_differential,
            data.target_differential,
            data.module_leg,
            data.forms_leg,
            w_scale_blocks(data.target_differential, pq),
            *split.operators.values(),
            *split.twisted_operators.values(),
        ):
            assert_reduced(mat)
        endo = semilinear_frobenius(conn.ctx, conn.window)
        assert_reduced(endo.module_leg)
        assert_reduced(endo.forms_leg)


def test_verschiebung_ok_detects_a_corrupted_forms_leg():
    conn, _, _ = load_connection_spec(str(FIXTURES / "p2_rank2_seeded.json"))
    data = chain_map_build(conn)
    assert verschiebung_ok(data, conn.ctx)
    # a column of Fdiv whose row of (p)_q theta' is nonzero, its 1 moved one row on
    rescaled = w_scale_blocks(data.source_differential, q_int(conn.ctx.p, 1, conn.ctx))
    col = int(np.flatnonzero(rescaled.entries.any(axis=1))[0])
    forms = data.forms_leg.entries
    row = int(np.flatnonzero(forms[:, col])[0])
    forms[row, col] = 0
    forms[(row + 1) % data.forms_leg.rows, col] = 1
    data.forms_leg = dense_flat(conn.ctx.p, conn.ctx.n_prec, forms)
    assert not verschiebung_ok(data, conn.ctx)


def test_verschiebung_ok_needs_a_frobenius_leg_that_selects():
    # the check reads the columns of theta at F's rows, so F must send basis
    # vectors to distinct basis vectors
    conn, _, _ = load_connection_spec(str(FIXTURES / "p2_rank2_seeded.json"))
    data = chain_map_build(conn)
    leg = data.module_leg
    data.module_leg = dense_flat(leg.p, leg.n_prec, 3 * leg.entries)
    with pytest.raises(InvalidArgs):
        verschiebung_ok(data, conn.ctx)


def _corrupted(leg: FlatMatrix, col: int, target: int, kind: str) -> FlatMatrix:
    """leg with column col changed: its 1 moved to row target ("move",
    still a selection), a second 1 put there ("extra"), or its 1 doubled
    ("scale")."""
    e = leg.entries.copy()
    row = int(np.flatnonzero(e[:, col])[0])
    if kind == "move":
        e[row, col] = 0
    if kind in ("move", "extra"):
        e[target, col] = 1
    else:
        e[row, col] = 2
    return dense_flat(leg.p, leg.n_prec, e)


@pytest.mark.parametrize("kind", ["move", "extra", "scale"])
@pytest.mark.parametrize("which", ["frobenius", "divided_frobenius"])
def test_chain_map_test_rejects_a_corrupted_leg(which, kind):
    conn, _, _ = load_connection_spec(str(FIXTURES / "p3_rank2_seeded.json"))
    data = chain_map_build(conn)
    d0, d0p = data.source_differential, data.target_differential
    legs = {"frobenius": data.module_leg, "divided_frobenius": data.forms_leg}
    assert is_chain_map(d0, d0p, legs["frobenius"], legs["divided_frobenius"])
    leg = legs[which]
    rows = leg.entries.argmax(axis=0)
    if which == "divided_frobenius":
        # Fdiv theta': a column whose row of theta' is nonzero, sent anywhere else
        col = int(np.flatnonzero(d0.entries.any(axis=1))[0])
        target = (rows[col] + 1) % leg.rows
    else:
        # theta F: a column that F sends to a nonzero column of theta, sent to
        # another nonzero column of theta
        nonzero = np.flatnonzero(d0p.entries.any(axis=0))
        col = int(np.flatnonzero(np.isin(rows, nonzero))[0])
        target = int(next(r for r in nonzero if (d0p.entries[:, r] != d0p.entries[:, rows[col]]).any()))
    legs[which] = _corrupted(leg, col, target, kind)
    f0, f1 = legs["frobenius"], legs["divided_frobenius"]
    assert not (f1.matmul(d0) == d0p.matmul(f0))
    assert not is_chain_map(d0, d0p, f0, f1)
    with pytest.raises(NotAChainMap):
        cone_acyclic(d0, d0p, f0, f1)


def _bumped(op: FlatMatrix, row: int, col: int) -> FlatMatrix:
    e = op.entries.copy()
    e[row, col] = (e[row, col] + 1) % op.modulus
    return dense_flat(op.p, op.n_prec, e)


def test_triangular_mask_matches_the_block_loop():
    rng = np.random.default_rng(7)
    cases = [load_connection_spec(str(FIXTURES / name))[0] for name in LEVEL_MINUS_ONE_FIXTURES]
    verdicts = set()
    for conn in cases + list(_seeded_connections()):
        for k, op in block_split(CartierProblem(conn)).operators.items():
            # the operator itself, then one entry bumped anywhere
            for trial in range(4):
                if trial:
                    op = _bumped(op, int(rng.integers(op.rows)), int(rng.integers(op.cols)))
                got = cartier._block_certificates(conn, {k: op})[k]["triangular"]
                assert type(got) is bool
                assert got == oracle.block_triangular(conn, k, op), (conn.ctx, k, trial)
                verdicts.add(got)
    assert verdicts == {True, False}


def test_triangular_certificate_rejects_an_entry_above_the_diagonal():
    conn, _, _ = load_connection_spec(str(FIXTURES / "p3_rank2_seeded.json"))
    win, m = conn.window, conn.ctx.m_prec
    op = block_split(CartierProblem(conn)).operators[1]
    assert cartier._block_certificates(conn, {1: op})[1]["triangular"]
    # component 1, degree 2 -> component 0, degree 1 lowers the degree
    row, col = (0 * (win + 1) + 1) * m, (1 * (win + 1) + 2) * m + m - 1
    assert op.entries[row, col] == 0
    bumped = _bumped(op, row, col)
    assert cartier._block_certificates(conn, {1: bumped})[1]["triangular"] is False
    assert kernel_log_cardinalities([bumped]) == [0]
