import hashlib
import importlib
import json
import random
import time
from pathlib import Path

import pytest

import qprism.adic_diagnostics
import qprism.cartier
import qprism.cli
import qprism.errors
from qprism.cli import N_MAX_CEILING, run_command
from qprism.exactpoly import IntPoly
from qprism.grammar import MAX_EXPONENT, MAX_TERMS

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
ADIC_FIXTURES = sorted(path.name for path in FIXTURES.glob("adic_*.json"))


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_q_int_prints_polynomial(capsys):
    code, out = run(capsys, "q-int", "5")
    assert code == 0
    assert out == "1+q+q^2+q^3+q^4\n"


def test_q_int_base_power(capsys):
    code, out = run(capsys, "q-int", "2", "--r", "3")
    assert code == 0
    assert out == "1+q^3\n"


def test_q_int_zero(capsys):
    code, out = run(capsys, "q-int", "0")
    assert code == 0
    assert out == "0\n"


@pytest.mark.parametrize(
    "argv, out", [(("5", "--r", "2"), "1+q^2+q^4+q^6+q^8\n"), (("7", "--r", "0"), "7\n")]
)
def test_q_int_prints_every_base(capsys, argv, out):
    assert run(capsys, "q-int", *argv) == (0, out)


def test_q_int_over_the_term_cap_is_refused_at_once(capsys):
    # (n)_q holds n terms; past grammar.MAX_TERMS it is refused before any is built
    start = time.perf_counter()
    code, report = run_json(capsys, "q-int", str(MAX_TERMS + 1))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert report["schema"] == "qprism/1"
    assert report["error"]["field"] == "n"


def test_q_int_negative_is_spec_error(capsys):
    code, report = run_json(capsys, "q-int", "-3")
    assert code == 2
    assert report["error"]["field"] == "n"


def test_cartier_fixture_passes(capsys):
    code, report = run_json(
        capsys, "cartier", "--spec", str(FIXTURES / "p2_rank1_nilpotent.json")
    )
    assert code == 0
    assert report["schema"] == "qprism/1"
    assert report["ok"] is True
    entry = report["reports"][0]
    assert entry["report"]["cone_acyclic"] is True
    assert entry["context"] == {"p": 2, "n_prec": 2, "m_prec": 2}
    assert entry["degree_window"] == 4


def test_cartier_batch_order_is_input_order(capsys):
    a = str(FIXTURES / "p2_rank1_trivial.json")
    b = str(FIXTURES / "p2_rank2_trivial.json")
    code, report = run_json(capsys, "cartier", "--spec", a, "--spec", b)
    assert code == 0
    assert [e["spec_path"] for e in report["reports"]] == [a, b]


def test_cartier_grow_stable(capsys):
    code, report = run_json(
        capsys,
        "cartier",
        "--spec",
        str(FIXTURES / "p2_rank1_nilpotent.json"),
        "--grow",
    )
    assert code == 0
    entry = report["reports"][0]
    assert entry["stable"] is True
    assert entry["verdict_diff"] == []
    assert entry["grown"]["context"] == {"p": 2, "n_prec": 3, "m_prec": 3}
    assert entry["grown"]["degree_window"] == 6


def test_bad_rank_exits_2_naming_field(capsys):
    code, report = run_json(
        capsys, "cohomology", "--spec", str(FIXTURES / "bad_rank.json")
    )
    assert code == 2
    assert report["error"]["field"] == "theta_matrix"


def test_missing_file_exits_2(capsys):
    code, report = run_json(capsys, "cartier", "--spec", "no_such_file.json")
    assert code == 2
    assert report["error"]["field"] == "spec"


def test_cohomology_level0(capsys):
    code, report = run_json(
        capsys,
        "cohomology",
        "--spec",
        str(FIXTURES / "cohomology_level0_trivial.json"),
    )
    assert code == 0
    coh = report["reports"][0]["cohomology"]
    assert set(coh) == {"h0", "h1"}


def test_envelope_contains_hand_derived_relation(capsys):
    code, report = run_json(capsys, "envelope", "--p", "2", "--order", "1")
    assert code == 0
    assert report["relations"][0] == "w1-q*w0^2+q^2*w1-x*w0-q*x*w0"


def test_poincare(capsys):
    code, report = run_json(capsys, "poincare", "--p", "2", "--cap", "4")
    assert code == 0
    assert report["report"]["ok"] is True


def test_poincare_grow(capsys):
    code, report = run_json(
        capsys, "poincare", "--p", "3", "--cap", "4", "--grow"
    )
    assert code == 0
    assert report["stable"] is True


def test_axioms_small(capsys):
    code, report = run_json(
        capsys, "axioms", "--p", "2", "--n", "2", "--m", "2", "--samples", "25"
    )
    assert code == 0
    assert report["suite"]["ok"] is True


def test_adic_expectations(capsys):
    code, report = run_json(
        capsys, "adic", "--spec", str(FIXTURES / "adic_z_torsion.json")
    )
    assert code == 0
    entry = report["reports"][0]
    assert entry["matches_expectation"] is True
    assert entry["predicates"]["torsion"]["bound"] == 2
    assert entry["predicates"]["pro_iso"]["shift"] == 2


def test_adic_w_quotient(capsys):
    code, report = run_json(
        capsys, "adic", "--spec", str(FIXTURES / "adic_w_quotient.json")
    )
    assert code == 0
    flat = report["reports"][0]["predicates"]["flatness"]
    assert flat["completely_flat"] is False


def test_adic_zq_free(capsys):
    code, report = run_json(
        capsys, "adic", "--spec", str(FIXTURES / "adic_zq_free.json")
    )
    assert code == 0
    flat = report["reports"][0]["predicates"]["flatness"]
    assert flat["bounded"] is True and flat["completely_flat"] is True


def test_adic_over_z_with_50_free_generators_is_fast(tmp_path, capsys):
    # each exactness check solves every kernel vector from one Smith form
    predicates = {}
    for generators in (1, 50):
        path = tmp_path / f"free{generators}.json"
        spec = {"base": "Z", "generators": generators, "relations": [], "f": "2", "g": "3"}
        path.write_text(json.dumps(spec))
        start = time.perf_counter()
        code, report = run_json(capsys, "adic", "--spec", str(path))
        assert time.perf_counter() - start < 2
        assert code == 0
        predicates[generators] = report["reports"][0]["predicates"]
    # Z^50 and Z answer every question alike
    assert predicates[50] == predicates[1]


def _sparse_module_spec(base, generators, relations, **fields):
    """A module spec from a fixed seed whose relation rows have three
    nonzero entries each, drawn from a few scalars of the base."""
    rng = random.Random(0)
    entries = {
        "Z": ["2", "3", "4", "-6", "9"],
        "Zpn": ["3", "9", "6", "1", "18"],
        "W": ["2", "q-1", "2*q", "1+q", "q^2-1"],
    }[base]
    rows = []
    for _ in range(relations):
        row = ["0"] * generators
        for j in rng.sample(range(generators), 3):
            row[j] = rng.choice(entries)
        rows.append(row)
    return {"base": base, "generators": generators, "relations": rows, **fields}


@pytest.mark.parametrize(
    "base, generators, relations, fields",
    [
        ("Z", 2048, 0, {"f": "2", "g": "3"}),
        ("Z", 2048, 20, {"f": "2", "g": "3"}),
        ("Zpn", 400, 20, {"p": 3, "n": 3, "f": "3", "g": "6"}),
        ("W", 200, 5, {"p": 2, "n": 2, "m": 2, "f": "2", "g": "q-1"}),
        ("Zpn", 2048, 20, {"p": 3, "n": 3, "f": "3", "g": "6"}),
        ("Zpn", 2048, 0, {"p": 3, "n": 3, "f": "3", "g": "6"}),
    ],
    ids=["Z-free", "Z-relations", "Zpn", "W", "Zpn-2048-relations", "Zpn-2048-free"],
)
def test_adic_at_scale_ends_in_5_s(tmp_path, capsys, base, generators, relations, fields):
    # every predicate of a spec at these sizes, with the engine built once per module
    path = tmp_path / "module.json"
    path.write_text(json.dumps(_sparse_module_spec(base, generators, relations, **fields)))
    start = time.perf_counter()
    code, report = run_json(capsys, "adic", "--spec", str(path))
    assert time.perf_counter() - start < 5
    assert code == 0
    assert set(report["reports"][0]["predicates"]) == {
        "torsion", "pro_iso", "flatness", "koszul_reduction_acyclic"
    }


@pytest.mark.parametrize("name", ADIC_FIXTURES)
def test_adic_computes_each_torsion_report_once(capsys, monkeypatch, name):
    # one for M, which the pro-system shift reads too, and one for M/gM
    calls = []
    report = qprism.adic_diagnostics._torsion_report
    monkeypatch.setattr(
        qprism.adic_diagnostics, "_torsion_report", lambda *a: calls.append(a) or report(*a)
    )
    code, _ = run(capsys, "adic", "--spec", str(FIXTURES / name))
    assert code == 0
    assert len(calls) == 2


def test_adic_converts_each_distinct_literal_once(tmp_path, capsys, monkeypatch):
    # 40,960 relation entries hold "0" and five scalars, and f and g are among them
    calls = []
    variables = IntPoly.variables
    monkeypatch.setattr(IntPoly, "variables", lambda self: calls.append(self) or variables(self))
    path = tmp_path / "module.json"
    path.write_text(json.dumps(_sparse_module_spec("Zpn", 2048, 20, p=3, n=3, f="3", g="6")))
    code, _ = run(capsys, "adic", "--spec", str(path))
    assert code == 0
    assert len(calls) <= 6


def test_adic_load_converts_each_distinct_literal_to_a_scalar_at_most_twice(tmp_path, monkeypatch):
    # 40,960 relation entries hold "0" and five scalars, and f and g are among them
    calls = []
    base_scalar = qprism.adic_diagnostics.base_scalar

    def counted(*args):
        calls.append(args)
        return base_scalar(*args)

    monkeypatch.setattr(qprism.adic_diagnostics, "base_scalar", counted)
    monkeypatch.setattr(qprism.cli, "base_scalar", counted)
    spec = _sparse_module_spec("Zpn", 2048, 20, p=3, n=3, f="3", g="6")
    literals = {e for row in spec["relations"] for e in row} | {spec["f"], spec["g"]}
    path = tmp_path / "module.json"
    path.write_text(json.dumps(spec))
    qprism.cli._load_adic_spec(str(path))
    assert len(calls) <= 2 * len(literals) + 2


@pytest.mark.parametrize("name", ADIC_FIXTURES)
def test_n_max_has_a_ceiling(tmp_path, capsys, name):
    # the pro-system report has one entry per level, so n_max is capped
    spec = json.loads((FIXTURES / name).read_text())
    path = tmp_path / "spec.json"
    runs = []
    for n_max in (N_MAX_CEILING + 1, N_MAX_CEILING):
        path.write_text(json.dumps({**spec, "n_max": n_max}))
        start = time.perf_counter()
        runs.append(run_json(capsys, "adic", "--spec", str(path)))
        assert time.perf_counter() - start < 1
    (above, refusal), (at, report) = runs
    assert above == 2
    assert refusal["error"] == {"field": "n_max", "message": "field 'n_max' out of range"}
    assert at == 0
    assert len(report["reports"][0]["predicates"]["pro_iso"]["per_level"]) == N_MAX_CEILING


def test_determinism_byte_identical(capsys):
    for argv in (
        ["cartier", "--spec", str(FIXTURES / "p2_rank1_seeded.json")],
        ["adic", "--spec", str(FIXTURES / "adic_z_torsion.json")],
        ["axioms", "--p", "2", "--n", "2", "--m", "2", "--samples", "30"],
        ["poincare", "--p", "2", "--cap", "4"],
        ["envelope", "--p", "3", "--order", "0"],
        ["q-int", "7"],
    ):
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second


def test_all_connection_fixtures_verify(capsys):
    for path in sorted(FIXTURES.glob("p*_rank*.json")):
        code, report = run_json(capsys, "cartier", "--spec", str(path))
        assert code == 0, path.name
        assert report["ok"] is True, path.name


def test_cohomology_expectation_mismatch_exits_1(tmp_path, capsys):
    spec = {
        "p": 2, "n_prec": 2, "m_prec": 2, "level": 0, "rank": 1,
        "degree_window": 2, "theta_matrix": [["0"]],
        "expect": {"h0": [], "h1": []},
    }
    path = tmp_path / "wrong_expect.json"
    path.write_text(json.dumps(spec))
    code, report = run_json(capsys, "cohomology", "--spec", str(path))
    assert code == 1
    assert report["ok"] is False
    assert any("matches_expectation" in name for name in report["failed"])


def test_adic_expectation_mismatch_exits_1(tmp_path, capsys):
    spec = {
        "base": "Z", "generators": 2, "relations": [["0", "4"]],
        "f": "2", "g": "3",
        "expect": {"torsion/bound": 7},
    }
    path = tmp_path / "wrong_adic.json"
    path.write_text(json.dumps(spec))
    code, report = run_json(capsys, "adic", "--spec", str(path))
    assert code == 1
    entry = report["reports"][0]
    assert entry["matches_expectation"] is False
    assert entry["expectation_mismatches"] == ["torsion/bound"]


ADIC_SPEC = {
    "base": "W", "p": 2, "n": 2, "m": 2, "generators": 1,
    "relations": [["q-1"]], "f": "2", "g": "q-1",
}
COHOMOLOGY_SPEC = {
    "p": 2, "n_prec": 2, "m_prec": 2, "level": 0, "rank": 1,
    "degree_window": 2, "theta_matrix": [["0"]],
}


@pytest.mark.parametrize(
    "command, field, value",
    [
        ("adic", "torsion_cap", "8"),
        ("adic", "torsion_cap", -1),
        ("adic", "n_max", 0),
        ("adic", "n_max", -3),
        ("adic", "m", True),
        ("adic", "m", 0),
        ("adic", "expect", [1]),
        ("cohomology", "expect", "nope"),
        ("cohomology", "expect", [1]),
    ],
)
def test_malformed_optional_field_exits_2(tmp_path, capsys, command, field, value):
    spec = {**(ADIC_SPEC if command == "adic" else COHOMOLOGY_SPEC), field: value}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, report = run_json(capsys, command, "--spec", str(path))
    assert code == 2
    assert report["ok"] is False
    assert report["error"]["field"] == field


def test_adic_expect_keys_are_slash_joined_paths(tmp_path, capsys):
    spec = {**ADIC_SPEC, "expect": {"flatness/completely_flat": False,
                                    "/flatness/completely_flat": False}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, report = run_json(capsys, "adic", "--spec", str(path))
    assert code == 1
    assert report["reports"][0]["expectation_mismatches"] == ["/flatness/completely_flat"]


NESTED = "(" * 800 + "x" + ")" * 800
CONNECTION_SPEC = {**COHOMOLOGY_SPEC, "level": -1}


@pytest.mark.parametrize("command", ["cohomology", "cartier", "adic"])
@pytest.mark.parametrize(
    "content",
    [
        "7",
        "[1, 2]",
        '"abc"',
        "null",
        pytest.param('{"p": ' + "9" * 5000 + "}", id="huge_int"),
        "nested",
    ],
)
def test_malformed_spec_document_exits_2(tmp_path, capsys, command, content):
    nested = content == "nested"
    if nested:
        spec = (
            {**ADIC_SPEC, "f": NESTED.replace("x", "q")}
            if command == "adic"
            else {**CONNECTION_SPEC, "theta_matrix": [[NESTED]]}
        )
        content = json.dumps(spec)
        # the parse error names the polynomial field it was reading
        field = "f" if command == "adic" else "theta_matrix"
    else:
        field = "spec"
    path = tmp_path / "spec.json"
    path.write_text(content)
    code, report = run_json(capsys, command, "--spec", str(path))
    assert code == 2
    assert report["ok"] is False
    assert report["error"]["field"] == field
    if nested:
        assert "nested deeper" in report["error"]["message"]


@pytest.mark.parametrize("command", ["cohomology", "cartier"])
@pytest.mark.parametrize(
    "field, value, grow",
    [
        ("n_prec", 2**70, False),
        ("n_prec", 10**6, False),
        ("m_prec", 2**70, False),
        # within budget as written, p^n_prec = 2^22 once --grow adds one
        ("n_prec", 21, True),
        ("theta_matrix", [["(1+q+x)^256"]], False),
        ("theta_matrix", [["(1+q+x)^32*(1+q+x)^32*(1+q+x)^32"]], False),
    ],
)
def test_out_of_budget_spec_exits_2_at_once(tmp_path, capsys, command, field, value, grow):
    spec = json.loads((FIXTURES / "p2_rank1_seeded.json").read_text())
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**spec, field: value}))
    start = time.perf_counter()
    code, report = run_json(capsys, command, "--spec", str(path), *(["--grow"] if grow else []))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert report["ok"] is False
    assert report["error"]["field"] == field


@pytest.mark.parametrize(
    "window, grow, code",
    [
        # raised dim 2 * 29 = 58 fits the cap; the window + 2 re-run's 2 * 31 = 62 does not
        (28, False, 2),
        (28, True, 2),
        # the re-run's 2 * 30 = 60 fits
        (27, False, 0),
    ],
)
def test_cartier_budget_covers_the_raised_rerun(tmp_path, capsys, monkeypatch, window, grow, code):
    monkeypatch.setenv("QPRISM_MAX_DIM", "60")
    spec = {**COHOMOLOGY_SPEC, "level": -1, "m_prec": 1, "degree_window": window}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    start = time.perf_counter()
    got, report = run_json(capsys, "cartier", "--spec", str(path), *(["--grow"] if grow else []))
    assert time.perf_counter() - start < 1
    assert got == code
    if code:
        assert report["error"]["field"] == "degree_window"


@pytest.mark.parametrize(
    "argv, field",
    [
        (["adic", "--spec", {**ADIC_SPEC, "m": 2**70}], "m"),
        (["adic", "--spec", {**ADIC_SPEC, "base": "Zpn", "n": 10**6, "g": "3"}], "n"),
        (["adic", "--spec", {**ADIC_SPEC, "generators": 10**9, "relations": []}], "generators"),
        (["adic", "--spec", {**ADIC_SPEC, "relations": [["q-1"]] * 3000}], "relations"),
        # within budget as written, p^n = 2^22 once --grow adds one
        (["adic", "--spec", {**ADIC_SPEC, "n": 21}, "--grow"], "n"),
        (["poincare", "--p", "2", "--cap", "2", "--n", "1000000"], "n"),
        (["poincare", "--p", "2", "--cap", "2", "--m", "1000000000"], "m"),
        (["poincare", "--p", "2", "--cap", "2", "--window", "-3"], "window"),
        (["poincare", "--p", "2", "--cap", "1", "--n", "21", "--grow"], "n"),
        (["adic", "--spec", {**ADIC_SPEC, "base": "Z", "generators": 2**63, "relations": []}],
         "generators"),
        (["adic", "--spec", {**ADIC_SPEC, "base": "Zq", "generators": 2**63, "relations": []}],
         "generators"),
    ],
)
def test_out_of_budget_adic_and_poincare_exit_2_at_once(tmp_path, capsys, argv, field):
    argv = list(argv)
    if argv[0] == "adic":
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(argv[2]))
        argv[2] = str(path)
    start = time.perf_counter()
    code, report = run_json(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert report["ok"] is False
    assert report["error"]["field"] == field


@pytest.mark.parametrize(
    "argv, field",
    [
        (["axioms", "--p", "0"], "p"),
        (["axioms", "--n", "0"], "n"),
        (["axioms", "--m", "0"], "m"),
        (["axioms", "--samples", "-1"], "samples"),
        (["cartier", "--spec", str(FIXTURES / "p2_rank1_trivial.json"), "--iterate-cap", "-1"],
         "iterate_cap"),
        (["cartier", "--spec", str(FIXTURES / "p2_rank1_trivial.json"), "--iterate-cap", "0"],
         "iterate_cap"),
        (["poincare", "--p", "2", "--cap", "2", "--m", "0"], "m"),
        (["envelope", "--p", "0", "--order", "1"], "p"),
        # above the floor, but not a prime: the spec files' prime test applies
        (["axioms", "--p", "4"], "p"),
        (["envelope", "--p", "4", "--order", "1"], "p"),
        (["poincare", "--p", "4", "--cap", "2"], "p"),
        (["cohomology", "--spec", {**COHOMOLOGY_SPEC, "p": 4}], "p"),
        (["cartier", "--spec", {**COHOMOLOGY_SPEC, "level": -1, "p": 4}], "p"),
        (["adic", "--spec", {**ADIC_SPEC, "p": 4}], "p"),
        (["q-int", "3", "--r", "-1"], "r"),
        (["q-int", "1", "--r", "-1"], "r"),
        # the p-th power of the next delta would pass the grammar's term budget
        (["envelope", "--p", "3", "--order", "3"], "order"),
        (["envelope", "--p", "5", "--order", "2"], "order"),
        (["envelope", "--p", "2", "--order", "9"], "order"),
        # the delta of W needs precision N >= 2
        (["axioms", "--n", "1"], "n"),
    ],
)
def test_out_of_range_flag_exits_2_naming_it(tmp_path, capsys, argv, field):
    argv = list(argv)
    if isinstance(argv[-1], dict):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(argv[-1]))
        argv[-1] = str(path)
    start = time.perf_counter()
    code, report = run_json(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert report["ok"] is False
    assert report["error"]["field"] == field


def test_huge_iterate_cap_stops_at_the_module_length(tmp_path, capsys):
    # theta = 1 is not nilpotent; no witness can exceed N times the flat
    # dimension, so a cap above that gives the report of cap 32
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**COHOMOLOGY_SPEC, "level": -1, "degree_window": 3,
                                "theta_matrix": [["1"]]}))
    start = time.perf_counter()
    code, out = run(capsys, "cartier", "--spec", str(path), "--iterate-cap", "1000000000")
    assert time.perf_counter() - start < 1
    assert code == 1
    assert json.loads(out)["reports"][0]["report"]["witness"] == [-1]
    assert run(capsys, "cartier", "--spec", str(path), "--iterate-cap", "32") == (1, out)


@pytest.mark.parametrize(
    "p, order, code",
    [
        (11, 0, 0),
        (13, 0, 0),
        (17, 0, 0),
        (19, 0, 0),
        (3, 2, 0),
        (5, 1, 0),
        (23, 0, 2),
        (37, 0, 2),
        (43, 0, 2),
        (97, 0, 2),
    ],
)
def test_envelope_term_budget_reads_real_term_counts(capsys, p, order, code):
    # x + (p)_q w0 is sparse: its powers stay far below the count of
    # multisets of its terms, which would refuse every p >= 11
    start = time.perf_counter()
    got, report = run_json(capsys, "envelope", "--p", str(p), "--order", str(order))
    assert got == code
    if code:
        assert time.perf_counter() - start < 1
        assert report["error"]["field"] == "order"
    else:
        assert len(report["relations"]) == order + 1


def test_internal_error_exits_3_with_a_report(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected defect")

    monkeypatch.setattr(qprism.cli, "cohomology_of_complex", broken)
    start = time.perf_counter()
    code, report = run_json(capsys, "cohomology", "--spec", str(FIXTURES / "p2_rank1_trivial.json"))
    assert time.perf_counter() - start < 1
    assert code == 3
    assert report["schema"] == "qprism/1"
    assert report["ok"] is False
    assert "RuntimeError: injected defect" in report["error"]["message"]


@pytest.mark.parametrize(
    "command, expect, mismatches",
    [
        ("cohomology", {"H0": [1, 2, 3]}, ["H0"]),
        ("cohomology", {"h0": [1, 2, 2, 2, 2], "h1": [1, 2, 2, 2, 2]}, []),
        # list items resolve by index
        ("cohomology", {"h0/0": 1, "h1/4": 2, "h1/9": 2}, ["h1/9"]),
        ("cartier", {"cone_acyclic": True, "ok": True}, []),
        ("cartier", {"cone_acyclic": False, "nilpotent": True}, ["cone_acyclic"]),
        ("cartier", {"stability/no_such_key": True}, ["stability/no_such_key"]),
        ("adic", {"flatness/koszul": None}, ["flatness/koszul"]),
    ],
)
def test_one_expect_rule_for_every_spec_command(tmp_path, capsys, command, expect, mismatches):
    spec = ADIC_SPEC if command == "adic" else CONNECTION_SPEC
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**spec, "expect": expect}))
    code, report = run_json(capsys, command, "--spec", str(path))
    entry = report["reports"][0]
    assert entry["expectation_mismatches"] == mismatches
    assert entry["matches_expectation"] is (not mismatches)
    assert code == (1 if mismatches else 0)
    assert report["ok"] is (not mismatches)


def test_stdout_matches_the_pinned_digests(capsys, monkeypatch):
    """Every cli_fixtures op of the benchmark, run from the checkout root,
    prints the bytes whose sha256 the benchmark pins."""
    monkeypatch.syspath_prepend(str(ROOT))
    workloads = importlib.import_module("perfbench.workloads")
    digests = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    monkeypatch.chdir(ROOT)
    ops = workloads.cli_fixture_ops()
    assert ops
    for op in ops:
        code, out = run(capsys, *op.argv)
        assert code == op.expect_exit, op.key
        assert hashlib.sha256(out.encode()).hexdigest() == digests[op.key], op.key


@pytest.mark.parametrize(
    "relations, g, message",
    [
        ([], "3", "need g monic in q"),
        ([["q-1"]], "3", "support free modules only"),
        ([["q-1"]], "q+1", "support free modules only"),
    ],
)
def test_zq_flatness_refusal_names_its_reason(tmp_path, capsys, relations, g, message):
    spec = {"base": "Zq", "generators": 1, "relations": relations, "f": "0", "g": g}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, report = run_json(capsys, "adic", "--spec", str(path))
    assert code == 2
    assert message in report["error"]["message"]


@pytest.mark.parametrize(
    "command, field, text",
    [
        ("cartier", "theta_matrix", "q+"),
        ("cohomology", "theta_matrix", "(1+x)^99999999"),
        ("cartier", "theta_matrix", f"x^{MAX_EXPONENT + 1}"),
        ("cohomology", "theta_matrix", "w{999999}"),
        ("adic", "relations", "q+"),
        ("adic", "f", "(1+q)^99999999"),
        ("adic", "g", "w{999999}"),
    ],
)
def test_malformed_polynomial_names_its_field(tmp_path, capsys, command, field, text):
    if command == "adic":
        spec = {**ADIC_SPEC, field: [[text]] if field == "relations" else text}
    else:
        spec = {**CONNECTION_SPEC, "theta_matrix": [[text]]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, report = run_json(capsys, command, "--spec", str(path))
    assert code == 2
    assert report["ok"] is False
    assert report["error"]["field"] == field


# --- argument errors ---------------------------------------------------------------


def _assert_argument_error(capsys, argv, command, field):
    code, out = run(capsys, *argv)
    assert code == 2
    report = json.loads(out)
    assert report["schema"] == "qprism/1" and report["ok"] is False
    assert report["command"] == command
    assert report["error"]["field"] == field


def test_unreadable_flag_value_prints_a_report(capsys):
    _assert_argument_error(capsys, ["axioms", "--p", "x"], "axioms", "p")


def test_missing_required_flag_prints_a_report(capsys):
    _assert_argument_error(capsys, ["cartier"], "cartier", "spec")


def test_unknown_command_prints_a_report(capsys):
    _assert_argument_error(capsys, ["frobnicate"], None, "command")


def test_help_is_not_an_argument_error(capsys):
    code, out = run(capsys, "cartier", "--help")
    assert code == 0
    assert out.startswith("usage: qprism cartier")


# --- refusals of the spec loaders ------------------------------------------------------


@pytest.mark.parametrize(
    "command, spec, field",
    [
        ("cohomology", {k: v for k, v in COHOMOLOGY_SPEC.items() if k != "rank"}, "rank"),
        ("cohomology", {**COHOMOLOGY_SPEC, "theta_matrix": [["0", "0"]]}, "theta_matrix"),
        ("cartier", {**CONNECTION_SPEC, "theta_matrix": [[0]]}, "theta_matrix"),
        ("adic", {**ADIC_SPEC, "relations": "q-1"}, "relations"),
        ("adic", {**ADIC_SPEC, "relations": [["q-1", "0"]]}, "relations"),
        ("adic", {**ADIC_SPEC, "relations": [[1.5]]}, "relations"),
        ("adic", {**ADIC_SPEC, "relations": [[None]]}, "relations"),
        ("adic", {"base": "Z", "generators": 1, "relations": [["q"]]}, "relations"),
        ("adic", {**ADIC_SPEC, "base": "Zpn", "relations": [["2*q"]]}, "relations"),
        # the first bad entry in reading order is named, however often its literal repeats
        ("adic", {**ADIC_SPEC, "generators": 2, "relations": [["1", "q+"], ["q+", "q+"]],
                  "f": "q+"}, "relations"),
        ("adic", {**ADIC_SPEC, "base": "Zpn", "relations": [["3"], ["3"]], "f": "3", "g": "q"},
         "g"),
        # a JSON boolean is no integer literal, though Python reads true as 1
        ("adic", {"base": "Z", "generators": 1, "relations": [[True]]}, "relations"),
        ("adic", {"base": "Z", "generators": 1, "relations": [[1]], "f": True}, "f"),
        ("adic", {"base": "Z", "generators": 1, "relations": [[1]], "f": 1, "g": True}, "g"),
    ],
)
def test_spec_refusal_names_its_field(tmp_path, capsys, command, spec, field):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, report = run_json(capsys, command, "--spec", str(path))
    assert code == 2
    assert report["ok"] is False
    assert report["error"]["field"] == field


def test_repeated_bad_literal_reports_its_first_entry(tmp_path, capsys):
    # the report is the one of the first bad entry alone
    errors = []
    for rows, f in (([["1", "q+"], ["q+", "q+"]], "q+"), ([["1", "q+"], ["0", "0"]], "2")):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**ADIC_SPEC, "generators": 2, "relations": rows, "f": f}))
        code, report = run_json(capsys, "adic", "--spec", str(path))
        assert code == 2
        errors.append(report["error"])
    assert errors[0] == errors[1]
    assert errors[0]["message"].startswith("field 'relations': ")


@pytest.mark.parametrize(
    "spec, strings",
    [
        ({**ADIC_SPEC, "generators": 2, "relations": [[2, "q-1"], ["2", 0]], "g": 3},
         {"relations": [["2", "q-1"], ["2", "0"]], "g": "3"}),
        ({"base": "Z", "generators": 2, "relations": [[3, "3"], ["0", 9]], "f": 3, "g": "2"},
         {"relations": [["3", "3"], ["0", "9"]], "f": "3"}),
    ],
)
def test_integer_entries_read_as_their_literals(tmp_path, capsys, spec, strings):
    reports = []
    for fields in ({}, strings):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**spec, **fields}))
        code, report = run_json(capsys, "adic", "--spec", str(path))
        assert code == 0
        reports.append(report)
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "fields, predicates",
    [
        ({"f": None, "g": None}, set()),
        ({"g": None}, {"torsion", "pro_iso"}),
        ({"f": None}, set()),
    ],
)
def test_module_spec_without_f_or_g_skips_their_predicates(tmp_path, capsys, fields, predicates):
    spec = {k: v for k, v in ADIC_SPEC.items() if k not in fields}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, report = run_json(capsys, "adic", "--spec", str(path))
    assert code == 0
    assert set(report["reports"][0]["predicates"]) == predicates


def test_legs_that_are_no_chain_map_exit_1(capsys, monkeypatch):
    def not_a_chain_map(*args):
        raise qprism.errors.NotAChainMap("f1 d0 != d0' f0")

    monkeypatch.setattr(qprism.cartier, "require_chain_map", not_a_chain_map)
    code, report = run_json(capsys, "cartier", "--spec", str(FIXTURES / "p2_rank1_trivial.json"))
    assert code == 1
    assert report["ok"] is False
    assert report["failed"] == ["chain_map"]
    assert report["error"]["message"] == "f1 d0 != d0' f0"


def test_one_parser_serves_every_call_as_a_fresh_process_would(capsys):
    # run_command parses with one parser per process; --spec lists must not
    # carry over from one call to the next, and usage errors and --help must
    # print what a fresh process prints
    import os
    import subprocess
    import sys

    a, b = str(FIXTURES / "p2_rank1_trivial.json"), str(FIXTURES / "p3_rank1_seeded.json")
    argvs = [
        ["cohomology", "--spec", a, "--spec", b],
        ["cohomology", "--spec", a],
        ["axioms", "--p", "x"],
        ["q-int", "5"],
        ["--help"],
    ]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for argv in argvs:
        got = run(capsys, *argv)
        proc = subprocess.run(
            [sys.executable, "-m", "qprism.cli", *argv],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert got == (proc.returncode, proc.stdout), argv
    assert qprism.cli._parser() is qprism.cli._parser()


@pytest.mark.parametrize("value", ["abc", "1e3", ""])
def test_a_malformed_max_dim_exits_2_naming_it(capsys, monkeypatch, value):
    monkeypatch.setenv("QPRISM_MAX_DIM", value)
    code, report = run_json(capsys, "cartier", "--spec", str(FIXTURES / "p2_rank1_trivial.json"))
    assert code == 2
    assert report["schema"] == "qprism/1" and report["ok"] is False
    assert report["error"]["field"] == "QPRISM_MAX_DIM"


@pytest.mark.parametrize(
    "argv",
    [
        ["cartier", "--grow", "--spec", str(FIXTURES / "p2_rank2_seeded.json")],
        ["cohomology", "--grow", "--spec", str(FIXTURES / "p3_rank1_seeded.json")],
        ["adic", "--grow", "--spec", str(FIXTURES / "adic_w_quotient.json")],
        ["adic", "--grow", "--spec", str(FIXTURES / "adic_z_torsion.json")],
    ],
    ids=["cartier", "cohomology", "adic-W", "adic-Z"],
)
def test_each_spec_file_is_read_once_per_entry(capsys, monkeypatch, argv):
    reads = []
    load_json = qprism.cli._load_json

    def counted(path):
        reads.append(path)
        return load_json(path)

    monkeypatch.setattr(qprism.cli, "_load_json", counted)
    # the same file twice is two entries, each read once
    code, report = run_json(capsys, *argv, "--spec", argv[-1])
    assert code == 0 and len(report["reports"]) == 2
    assert reads == [argv[-1]] * 2
