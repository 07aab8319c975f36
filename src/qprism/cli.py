"""Command-line front end: spec ingestion, verification pipelines, JSON
reports on stdout, deterministic output, exit codes.

Exit codes: 0 when every check passes, 1 when a mathematical check fails
(the failing invariant is named in the JSON verdict), 2 for malformed
input, 3 for an internal error of the program.  Reports are keyed
"schema": "qprism/1", serialized with sorted keys so identical inputs
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from functools import cache
from math import prod

from .adic_diagnostics import (
    ModulePresentation,
    base_scalar,
    bounded_and_flat_check,
    koszul_reduction_cone_acyclic,
    pro_iso_check,
    torsion_bound,
)
from .base_ring import RingContext, is_supported_prime, q_int_poly
from .cartier import STABILITY_WINDOW_STEP, CartierProblem, cartier_verify, flatten_connection
from .delta_ring import DeltaElement, envelope_presentation, run_axiom_suite
from .divided_poly import poincare_exactness
from .errors import InvalidArgs, NotAChainMap, QPrismError, SpecError
from .exactpoly import IntPoly
from .grammar import MAX_TERMS, parse_poly, poly_to_string
from .homology import cohomology_of_complex, max_flat_dim, modulus_within_cap
from .twisted_calculus import ConnectionModule, QPolynomial

SCHEMA = "qprism/1"
# the largest `n_max` of a module spec: the pro-system report has one entry per level
N_MAX_CEILING = 2**16


def _emit(report: dict) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def _require(spec: dict, field: str, kind, validate=None):
    if field not in spec:
        raise SpecError(f"missing field {field!r}", field=field)
    value = spec[field]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise SpecError(f"field {field!r} must be {kind.__name__}", field=field)
    if validate is not None and not validate(value):
        raise SpecError(f"field {field!r} out of range", field=field)
    return value


def _optional(spec: dict, field: str, kind, default, validate=None):
    return _require(spec, field, kind, validate) if field in spec else default


def _in_field(field: str, parse, *args, **kwargs):
    """parse(*args, **kwargs), with its SpecError charged to `field`."""
    try:
        return parse(*args, **kwargs)
    except SpecError as exc:
        raise SpecError(f"field {field!r}: {exc}", field=field) from exc


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
    except FileNotFoundError:
        raise SpecError(f"spec file not found: {path}", field="spec")
    except ValueError as exc:  # also an integer beyond the interpreter's digit limit
        raise SpecError(f"invalid JSON in {path}: {exc}", field="spec")
    if not isinstance(spec, dict):
        raise SpecError(f"spec in {path} must be a JSON object", field="spec")
    return spec


def _finer(grow: int, n: int, m: int, window: int = 0) -> tuple[int, int, int]:
    """(N, M, window) of a run: one step finer, (N+1, M+1, window+2), under --grow."""
    return (n + 1, m + 1, window + 2) if grow else (n, m, window)


def _check_budget(p: int, n_field: str, n: int, *shapes: dict[str, int]) -> None:
    """Refuse, before any arithmetic depends on them, a modulus p^n above
    the cap and a shape over `_check_dims`; the error names the field at fault."""
    if not modulus_within_cap(p, n):
        raise SpecError(f"p^{n_field} = {p}^{n} exceeds the modulus cap", field=n_field)
    _check_dims(*shapes)


def _check_dims(*shapes: dict[str, int]) -> None:
    """Refuse a flattened dimension (the product of one shape's factors)
    above QPRISM_MAX_DIM, naming its largest factor."""
    for factors in shapes:
        if prod(factors.values()) > max_flat_dim():
            raise SpecError(
                f"flattened dimension exceeds QPRISM_MAX_DIM={max_flat_dim()}",
                field=max(factors, key=factors.get),  # the largest factor
            )


def load_connection_spec(path: str, grow: int = 0, spec: dict | None = None):
    spec = _load_json(path) if spec is None else spec
    p = _require(spec, "p", int, is_supported_prime)
    n_prec = _require(spec, "n_prec", int, lambda v: v >= 1)
    m_prec = _require(spec, "m_prec", int, lambda v: v >= 1)
    level = _require(spec, "level", int, lambda v: v in (0, -1))
    rank = _require(spec, "rank", int, lambda v: v >= 1)
    window = _require(spec, "degree_window", int, lambda v: v >= 0)
    n_prec, m_prec, window = _finer(grow, n_prec, m_prec, window)
    _check_budget(
        p, "n_prec", n_prec, {"rank": rank, "degree_window": window + 1, "m_prec": m_prec}
    )
    ctx = RingContext(p, n_prec, m_prec)
    theta_rows = _require(spec, "theta_matrix", list)
    if len(theta_rows) != rank:
        raise SpecError(
            f"theta_matrix must have {rank} rows, found {len(theta_rows)}",
            field="theta_matrix",
        )
    theta = []
    for i, row in enumerate(theta_rows):
        if not isinstance(row, list) or len(row) != rank:
            raise SpecError(
                f"theta_matrix row {i} must have {rank} entries",
                field="theta_matrix",
            )
        out_row = []
        for j, text in enumerate(row):
            if not isinstance(text, str):
                raise SpecError(
                    f"theta_matrix[{i}][{j}] must be a polynomial string",
                    field="theta_matrix",
                )
            out_row.append(_in_field("theta_matrix", QPolynomial.parse, ctx, text, window))
        theta.append(out_row)
    conn = ConnectionModule(ctx, rank, level, theta, window)
    meta = {
        "context": ctx.to_json(),
        "level": level,
        "rank": rank,
        "degree_window": window,
        "spec_path": path,
    }
    if "seed" in spec:
        meta["seed"] = spec["seed"]
    if "dp_cap" in spec:
        meta["dp_cap"] = spec["dp_cap"]
    return conn, meta, spec


def _load_adic_spec(path: str, grow: int = 0, spec: dict | None = None):
    """The module spec at path (or spec, its JSON object if already read),
    or None under --grow for the bases Z and Zq, whose answers do not
    depend on a truncation."""
    spec = _load_json(path) if spec is None else spec
    base = _require(spec, "base", str, lambda v: v in ("Z", "Zq", "Zpn", "W"))
    finite = base in ("Zpn", "W")
    if grow and not finite:
        return None
    generators = _require(spec, "generators", int, lambda v: v >= 0)
    rel_rows = spec.get("relations", [])
    if not isinstance(rel_rows, list):
        raise SpecError("field 'relations' must be a list of rows", field="relations")
    ctx = None
    if finite:
        p = _require(spec, "p", int, is_supported_prime)
        n = _require(spec, "n", int, lambda v: v >= 1)
        m = _optional(spec, "m", int, 1, lambda v: v >= 1)
        n, m, _ = _finer(grow, n, m)
        # over W the reduction cone stacks two annihilators of at most
        # generators * m rows each, and Tor acts on base^relations, a copy of
        # the base being m coordinates; Zpn, one coordinate, keeps the same
        # bounds as the documented contract
        width = m if base == "W" else 1
        _check_budget(
            p, "n", n,
            {"generators": 2 * generators, "m": width},
            {"relations": len(rel_rows), "m": width},
        )
        ctx = RingContext(p, n, m)
    else:
        # Z and Zq keep no coordinates; the bound on 2 * generators is kept as
        # the documented contract
        _check_dims({"generators": 2 * generators})

    # each distinct literal parsed and converted to a scalar of the base once; a
    # literal that fails is not stored, so every entry of it raises, the first
    # in reading order first
    scalars: dict = {}

    def entry_of(literal, field):
        if isinstance(literal, bool) or not isinstance(literal, (int, str)):
            raise SpecError(f"{field} entries must be strings or ints", field=field)
        if literal not in scalars:
            value = literal
            if isinstance(literal, str):
                value = _in_field(field, parse_poly, literal, allowed={"q"})
            try:
                scalars[literal] = base_scalar(base, ctx, value)
            except InvalidArgs:
                raise SpecError(f"base {base} takes integer {field}", field=field) from None
        return scalars[literal]

    relations = []
    for row in rel_rows:
        if not isinstance(row, list) or len(row) != generators:
            raise SpecError(
                f"every relation row must have {generators} entries",
                field="relations",
            )
        relations.append([entry_of(e, "relations") for e in row])
    m_pres = ModulePresentation(base, generators, relations, ctx)

    def scalar_of(field):
        if field not in spec:
            return None
        return entry_of(spec[field], field)

    return m_pres, scalar_of("f"), scalar_of("g"), spec


# --- one runner for the spec commands ------------------------------------------


def _walk(tree, path=""):
    """(path, node) for every node of a JSON tree, the root first: dict
    keys in sorted order and list items by index, each appended as "/key"."""
    yield path, tree
    if isinstance(tree, dict):
        for k in sorted(tree):
            yield from _walk(tree[k], f"{path}/{k}")
    elif isinstance(tree, list):
        for i, v in enumerate(tree):
            yield from _walk(v, f"{path}/{i}")


def _verdicts(tree, path="") -> dict:
    """The boolean leaves of a tree by path."""
    return {k: v for k, v in _walk(tree, path) if isinstance(v, bool)}


def _conclude(report: dict, tree, path="") -> int:
    """Emit report and return its exit code; when it is not ok, the paths of
    the false verdicts in tree are listed under "failed"."""
    if not report["ok"]:
        report["failed"] = sorted(k for k, v in _verdicts(tree, path).items() if v is False)
    _emit(report)
    return 0 if report["ok"] else 1


def _check_expect(entry: dict, verdicts, expect) -> bool:
    """Match `expect` against verdicts: each key, a node path joined by "/"
    with no leading "/", must resolve and equal its value."""
    if expect is None or verdicts is None:
        return True
    nodes = {path[1:]: node for path, node in _walk(verdicts)}
    mismatches = [k for k, want in expect.items() if k not in nodes or nodes[k] != want]
    entry["matches_expectation"] = not mismatches
    entry["expectation_mismatches"] = mismatches
    return not mismatches


def _attach_grown(entry: dict, verdicts, grown: dict, grown_verdicts) -> bool:
    """Report a --grow rerun under "grown" and, when it has verdicts, which
    boolean verdicts it flipped; False when one did."""
    entry["grown"] = grown
    if grown_verdicts is None:
        return True
    before, after = _verdicts(verdicts), _verdicts(grown_verdicts)
    diff = sorted(k for k in before if k in after and before[k] != after[k])
    entry["stable"] = not diff
    entry["verdict_diff"] = diff
    return not diff


def _run_specs(args, build) -> int:
    """The batch loop of the spec commands, which reads each spec file once.
    build(path, spec, grow) returns (entry, verdicts, ok): the report entry,
    the tree that `expect` and the --grow diff read (None for neither) and
    the entry's own verdict; under --grow it may return None when there is
    nothing to grow."""
    reports = []
    ok = True
    for path in args.spec:
        spec = _load_json(path)
        entry, verdicts, entry_ok = build(path, spec, 0)
        expect = _optional(spec, "expect", dict, None)
        entry_ok = _check_expect(entry, verdicts, expect) and entry_ok
        grown = build(path, spec, 1) if args.grow else None
        if grown is not None:
            grown_entry, grown_verdicts, _ = grown
            _check_expect(grown_entry, grown_verdicts, expect)  # reported, not a verdict
            entry_ok = _attach_grown(entry, verdicts, grown_entry, grown_verdicts) and entry_ok
        ok = ok and entry_ok
        reports.append(entry)
    report = {"schema": SCHEMA, "command": args.command, "reports": reports, "ok": ok}
    return _conclude(report, reports)


# --- subcommands ---------------------------------------------------------------


def cmd_q_int(args) -> int:
    n, r = args.n, args.r
    if r and n > MAX_TERMS:
        raise SpecError(f"q-int {n} has {n} terms, over the cap {MAX_TERMS}", field="n")
    # (n)_{q^r} = 1 + q^r + ... + q^(r(n-1)), spelled as `poly_to_string` spells it
    if r == 0 or n < 2:
        text = str(n)
    else:
        text = "1" + "".join(f"+q^{e}" if e > 1 else "+q" for e in range(r, r * n, r))
    sys.stdout.write(text + "\n")
    return 0


def cmd_axioms(args) -> int:
    ps = [args.p] if args.p is not None else [2, 3, 5]
    ns = [args.n] if args.n is not None else [2, 3]
    ms = [args.m] if args.m is not None else [2, 3]
    contexts = [RingContext(p, n, m) for p in ps for n in ns for m in ms]
    suite = run_axiom_suite(contexts, samples=args.samples, seed=args.seed)
    report = {
        "schema": SCHEMA,
        "command": "axioms",
        "samples": args.samples,
        "seed": args.seed,
        "suite": suite,
        "ok": suite["ok"],
    }
    return _conclude(report, suite)


def cmd_envelope(args) -> int:
    ctx = RingContext(args.p, args.order + 2, 2)
    g = DeltaElement(ctx, -IntPoly.var("x"), omega_cap=args.order + 1)
    d = DeltaElement(ctx, q_int_poly(args.p, 1), omega_cap=args.order + 1)
    pres = _in_field("order", envelope_presentation, g, d, args.order)
    report = {
        "schema": SCHEMA,
        "command": "envelope",
        "p": args.p,
        "order_cap": args.order,
        "generators": pres.generators,
        "relations": [poly_to_string(r.poly) for r in pres.relations],
        "note": (
            "relations are reported up to the order cap; no stabilization "
            "of the relation ideal is claimed"
        ),
        "ok": True,
    }
    _emit(report)
    return 0


def _poincare_report(p: int, cap: int, n_prec: int, m_prec: int, window: int) -> dict:
    # the widest matrix has (cap + 1) * (window + 1) * m columns
    _check_budget(p, "n", n_prec, {"cap": cap + 1, "window": window + 1, "m": m_prec})
    ctx = RingContext(p, n_prec, m_prec)
    result = poincare_exactness(ctx, cap, window)
    return {"context": ctx.to_json(), **result}


def cmd_poincare(args) -> int:
    base = _poincare_report(args.p, args.cap, args.n, args.m, args.window)
    report = {
        "schema": SCHEMA,
        "command": "poincare",
        "report": base,
        "ok": base["ok"],
    }
    if args.grow:
        grown = _poincare_report(args.p, args.cap, *_finer(1, args.n, args.m, args.window))
        report["ok"] = _attach_grown(report, base, grown, grown) and report["ok"]
    return _conclude(report, report["report"], "report")


def cmd_cohomology(args) -> int:
    def build(path, spec, grow):
        conn, meta, _ = load_connection_spec(path, grow, spec)
        groups = cohomology_of_complex(flatten_connection(conn)).to_json()
        # h0 and h1 are sizes, not verdicts: the grown groups are reported, not diffed
        return {**meta, "cohomology": groups}, None if grow else groups, True

    return _run_specs(args, build)


def cmd_cartier(args) -> int:
    def build(path, spec, grow):
        conn, meta, _ = load_connection_spec(path, grow, spec)
        if conn.level != -1:
            raise SpecError(
                "cartier pipeline needs level -1 in field 'level'", field="level"
            )
        # the largest matrices are the raised ones of the stability re-run
        ctx = conn.ctx
        rerun_degrees = conn.window + STABILITY_WINDOW_STEP + 1
        _check_budget(
            ctx.p,
            "n_prec",
            ctx.n_prec,
            {"rank": conn.rank, "p": ctx.p, "degree_window": rerun_degrees, "m_prec": ctx.m_prec},
        )
        rep = cartier_verify(CartierProblem(conn, iterate_cap=args.iterate_cap))
        verdicts = rep.to_json()
        return {**meta, "report": verdicts}, verdicts, rep.all_ok

    return _run_specs(args, build)


def _adic_build(path: str, spec: dict, grow: int):
    loaded = _load_adic_spec(path, grow, spec)
    if loaded is None:
        return None
    m_pres, f, g, spec = loaded
    cap = _optional(spec, "torsion_cap", int, 8, lambda v: v >= 0)
    n_max = _optional(spec, "n_max", int, 4, lambda v: 1 <= v <= N_MAX_CEILING)
    predicates: dict = {}
    if f is not None:
        tb = torsion_bound(m_pres, f, cap)
        predicates["torsion"] = tb.to_json()
        if tb.bounded:
            predicates["pro_iso"] = pro_iso_check(m_pres, f, tb, n_max).to_json()
    if f is not None and g is not None:
        predicates["flatness"] = bounded_and_flat_check(m_pres, f, g, cap).to_json()
        if m_pres.base != "Zq":
            predicates["koszul_reduction_acyclic"] = koszul_reduction_cone_acyclic(
                m_pres, f, g
            )
    entry = {
        "spec_path": path,
        "base": m_pres.base,
        "generators": m_pres.generators,
        "predicates": predicates,
    }
    if m_pres.ctx is not None:
        entry["context"] = m_pres.ctx.to_json()
    return entry, predicates, True


def cmd_adic(args) -> int:
    return _run_specs(args, _adic_build)


# --- entry point ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise SpecError, so that they
    exit 2 with a report naming the flag (`iterate_cap` for --iterate-cap)."""

    def error(self, message):
        # "argument --p: invalid int value: 'x'", or a list after the colon, as in
        # "the following arguments are required: --spec" and "unrecognized arguments: --x"
        head, _, tail = message.partition(": ")
        name = head.removeprefix("argument ") if head.startswith("argument ") else tail
        flag = name.split(",")[0].split(" ")[0].lstrip("-").replace("-", "_")
        raise SpecError(message, field=flag or None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qprism",
        description=(
            "Exact verification pipelines for q-twisted calculus over "
            "truncated coefficient rings"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_qint = sub.add_parser("q-int", help="print the q-analog of an integer")
    p_qint.add_argument("n", type=int)
    p_qint.add_argument("--r", type=int, default=1, help="base q^r")
    p_qint.set_defaults(fn=cmd_q_int, floors={"n": 0, "r": 0})

    p_ax = sub.add_parser("axioms", help="delta-ring and q-combinatorics suite")
    p_ax.add_argument("--p", type=int, default=None)
    p_ax.add_argument("--n", type=int, default=None)
    p_ax.add_argument("--m", type=int, default=None)
    p_ax.add_argument("--samples", type=int, default=200)
    p_ax.add_argument("--seed", type=int, default=0)
    p_ax.set_defaults(fn=cmd_axioms, floors={"n": 2, "m": 1, "samples": 0})

    p_env = sub.add_parser("envelope", help="truncated envelope relations")
    p_env.add_argument("--p", type=int, required=True)
    p_env.add_argument("--order", type=int, required=True)
    p_env.set_defaults(fn=cmd_envelope, floors={"order": 0})

    p_poin = sub.add_parser("poincare", help="divided-power exactness check")
    p_poin.add_argument("--p", type=int, required=True)
    p_poin.add_argument("--cap", type=int, required=True)
    p_poin.add_argument("--n", type=int, default=2)
    p_poin.add_argument("--m", type=int, default=2)
    p_poin.add_argument("--window", type=int, default=2)
    p_poin.add_argument("--grow", action="store_true")
    p_poin.set_defaults(fn=cmd_poincare, floors={"cap": 1, "n": 1, "m": 1, "window": 0})

    p_coh = sub.add_parser("cohomology", help="twisted de Rham cohomology of a spec")
    p_coh.add_argument("--spec", action="append", required=True)
    p_coh.add_argument("--grow", action="store_true")
    p_coh.set_defaults(fn=cmd_cohomology)

    p_car = sub.add_parser("cartier", help="full descent verification pipeline")
    p_car.add_argument("--spec", action="append", required=True)
    p_car.add_argument("--iterate-cap", type=int, default=32)
    p_car.add_argument("--grow", action="store_true")
    p_car.set_defaults(fn=cmd_cartier, floors={"iterate_cap": 1})

    p_adic = sub.add_parser("adic", help="torsion, Koszul and flatness predicates")
    p_adic.add_argument("--spec", action="append", required=True)
    p_adic.add_argument("--grow", action="store_true")
    p_adic.set_defaults(fn=cmd_adic)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser `run_command` uses, built on first use and kept for the
    process.  Parsing leaves it unchanged: every call fills a fresh
    namespace.  It holds the cmd_* functions as they were when it was built."""
    return build_parser()


def _check_flags(args) -> None:
    """Every integer flag at or above its command's floor, and --p a prime
    by the spec files' test, else exit 2 naming the flag."""
    for name, floor in getattr(args, "floors", {}).items():
        value = getattr(args, name)
        if value is not None and value < floor:
            raise SpecError(f"{name} must be >= {floor}", field=name)
    if getattr(args, "p", None) is not None:
        _require(vars(args), "p", int, is_supported_prime)


def _error(command: str, code: int, error: dict, **extra) -> int:
    _emit({"schema": SCHEMA, "command": command, **extra, "error": error, "ok": False})
    return code


def run_command(argv: list[str]) -> int:
    # the command is set as soon as it is read, so a flag error reports it
    args = argparse.Namespace(command=None)
    try:
        _parser().parse_args(argv, args)
        _check_flags(args)
        return args.fn(args)
    except SystemExit:  # --help, which prints to stdout; usage errors raise SpecError
        return 0
    except SpecError as exc:
        return _error(args.command, 2, {"field": exc.field, "message": str(exc)})
    except NotAChainMap as exc:
        return _error(args.command, 1, {"message": str(exc)}, failed=["chain_map"])
    except QPrismError as exc:
        return _error(args.command, 2, {"field": None, "message": str(exc)})
    except Exception as exc:  # a defect of the program, never a mathematical verdict
        traceback.print_exc()  # to stderr; stdout carries only the report
        message = f"internal error: {type(exc).__name__}: {exc}"
        return _error(args.command, 3, {"field": None, "message": message})


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
