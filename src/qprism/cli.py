"""Command-line front end: spec ingestion, verification pipelines, JSON
reports on stdout, deterministic output, exit codes.

Exit codes: 0 when every check passes, 1 when a mathematical check fails
(the failing invariant is named in the JSON verdict), 2 for malformed
input.  Reports are keyed "schema": "qprism/1", serialized with sorted
keys so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from .adic_diagnostics import (
    ModulePresentation,
    bounded_and_flat_check,
    koszul_reduction_cone_acyclic,
    pro_iso_check,
    torsion_bound,
)
from .base_ring import RingContext, q_int_poly
from .cartier import CartierProblem, cartier_verify
from .delta_ring import DeltaElement, envelope_presentation, run_axiom_suite
from .divided_poly import poincare_exactness
from .errors import NotAChainMap, QPrismError, SpecError
from .exactpoly import IntPoly
from .grammar import parse_poly, poly_to_string
from .homology import TwoTermComplex, cohomology_of_complex, max_flat_dim, modulus_within_cap
from .twisted_calculus import ConnectionModule, QPolynomial

SCHEMA = "qprism/1"


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


def load_connection_spec(path: str, grow: int = 0):
    spec = _load_json(path)
    p = _require(spec, "p", int, lambda v: v >= 2)
    n_prec = _require(spec, "n_prec", int, lambda v: v >= 1) + (1 if grow else 0)
    m_prec = _require(spec, "m_prec", int, lambda v: v >= 1) + (1 if grow else 0)
    level = _require(spec, "level", int, lambda v: v in (0, -1))
    rank = _require(spec, "rank", int, lambda v: v >= 1)
    window = _require(spec, "degree_window", int, lambda v: v >= 0) + (
        2 if grow else 0
    )
    # sizes are checked before any arithmetic depends on them
    if not modulus_within_cap(p, n_prec):
        raise SpecError(f"p^n_prec = {p}^{n_prec} exceeds the modulus cap", field="n_prec")
    if rank * (window + 1) * m_prec > max_flat_dim():
        factors = {"rank": rank, "degree_window": window + 1, "m_prec": m_prec}
        raise SpecError(
            f"flattened dimension exceeds QPRISM_MAX_DIM={max_flat_dim()}",
            field=max(factors, key=factors.get),  # the largest factor
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


def _bool_leaves(tree, prefix=""):
    out = {}
    if isinstance(tree, bool):
        out[prefix] = tree
    elif isinstance(tree, dict):
        for k in sorted(tree):
            out.update(_bool_leaves(tree[k], f"{prefix}/{k}"))
    elif isinstance(tree, list):
        for i, v in enumerate(tree):
            out.update(_bool_leaves(v, f"{prefix}/{i}"))
    return out


def _stability_diff(base: dict, grown: dict) -> list[str]:
    b = _bool_leaves(base)
    g = _bool_leaves(grown)
    return sorted(k for k in b if k in g and b[k] != g[k])


def _failed_invariants(tree, prefix="") -> list[str]:
    return sorted(k for k, v in _bool_leaves(tree, prefix).items() if v is False)


# --- subcommands ---------------------------------------------------------------


def cmd_q_int(args) -> int:
    if args.n < 0:
        raise SpecError("n must be >= 0", field="n")
    sys.stdout.write(poly_to_string(q_int_poly(args.n, args.r)) + "\n")
    return 0


def cmd_axioms(args) -> int:
    ps = [args.p] if args.p else [2, 3, 5]
    ns = [args.n] if args.n else [2, 3]
    ms = [args.m] if args.m else [2, 3]
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
    if not suite["ok"]:
        report["failed"] = _failed_invariants(suite)
    _emit(report)
    return 0 if suite["ok"] else 1


def cmd_envelope(args) -> int:
    if args.order < 0:
        raise SpecError("order must be >= 0", field="order")
    ctx = RingContext(args.p, args.order + 2, 2)
    g = DeltaElement(ctx, -IntPoly.var("x"), omega_cap=args.order + 1)
    d = DeltaElement(ctx, q_int_poly(args.p, 1), omega_cap=args.order + 1)
    pres = envelope_presentation(g, d, args.order)
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
    ctx = RingContext(p, n_prec, m_prec)
    result = poincare_exactness(ctx, cap, window)
    return {"context": ctx.to_json(), **result}


def cmd_poincare(args) -> int:
    if args.cap < 1:
        raise SpecError("cap must be >= 1", field="cap")
    base = _poincare_report(args.p, args.cap, args.n, args.m, args.window)
    report = {
        "schema": SCHEMA,
        "command": "poincare",
        "report": base,
        "ok": base["ok"],
    }
    if args.grow:
        grown = _poincare_report(
            args.p, args.cap, args.n + 1, args.m + 1, args.window + 2
        )
        diff = _stability_diff(base, grown)
        report["grown"] = grown
        report["stable"] = not diff
        report["verdict_diff"] = diff
        report["ok"] = report["ok"] and not diff
    if not report["ok"]:
        report["failed"] = _failed_invariants(report["report"], "report")
    _emit(report)
    return 0 if report["ok"] else 1


def cmd_cohomology(args) -> int:
    reports = []
    ok = True
    for path in args.spec:
        conn, meta, spec = load_connection_spec(path)
        expect = _optional(spec, "expect", dict, None)
        from .cartier import flatten_connection

        rep = cohomology_of_complex(TwoTermComplex(flatten_connection(conn)))
        entry = {**meta, "cohomology": rep.to_json()}
        if expect is not None:
            match = all(
                expect.get(key) == entry["cohomology"].get(key)
                for key in ("h0", "h1")
                if key in expect
            )
            entry["matches_expectation"] = match
            ok = ok and match
        if args.grow:
            conn2, meta2, _ = load_connection_spec(path, grow=1)
            rep2 = cohomology_of_complex(TwoTermComplex(flatten_connection(conn2)))
            entry["grown"] = {**meta2, "cohomology": rep2.to_json()}
        reports.append(entry)
    report = {
        "schema": SCHEMA,
        "command": "cohomology",
        "reports": reports,
        "ok": ok,
    }
    if not ok:
        report["failed"] = _failed_invariants(reports)
    _emit(report)
    return 0 if ok else 1


def cmd_cartier(args) -> int:
    reports = []
    ok = True
    for path in args.spec:
        conn, meta, spec = load_connection_spec(path)
        if conn.level != -1:
            raise SpecError(
                "cartier pipeline needs level -1 in field 'level'", field="level"
            )
        problem = CartierProblem(conn, iterate_cap=args.iterate_cap)
        rep = cartier_verify(problem)
        entry = {**meta, "report": rep.to_json()}
        entry_ok = rep.all_ok
        if args.grow:
            conn2, meta2, _ = load_connection_spec(path, grow=1)
            rep2 = cartier_verify(CartierProblem(conn2, iterate_cap=args.iterate_cap))
            diff = _stability_diff(rep.to_json(), rep2.to_json())
            entry["grown"] = {**meta2, "report": rep2.to_json()}
            entry["stable"] = not diff
            entry["verdict_diff"] = diff
            entry_ok = entry_ok and not diff
        ok = ok and entry_ok
        reports.append(entry)
    report = {
        "schema": SCHEMA,
        "command": "cartier",
        "reports": reports,
        "ok": ok,
    }
    if not ok:
        report["failed"] = _failed_invariants(reports)
    _emit(report)
    return 0 if ok else 1


def _load_adic_spec(path: str, grow: int = 0):
    spec = _load_json(path)
    base = _require(spec, "base", str, lambda v: v in ("Z", "Zq", "Zpn", "W"))
    ctx = None
    if base in ("Zpn", "W"):
        p = _require(spec, "p", int, lambda v: v >= 2)
        n = _require(spec, "n", int, lambda v: v >= 1) + (1 if grow else 0)
        m = _optional(spec, "m", int, 1, lambda v: v >= 1)
        ctx = RingContext(p, n, m + (1 if grow else 0))
    generators = _require(spec, "generators", int, lambda v: v >= 0)
    rel_rows = spec.get("relations", [])
    if not isinstance(rel_rows, list):
        raise SpecError("field 'relations' must be a list of rows", field="relations")

    def entry_of(text, field):
        if isinstance(text, int):
            poly = IntPoly.const(text)
        elif isinstance(text, str):
            poly = _in_field(field, parse_poly, text, allowed={"q"})
        else:
            raise SpecError(f"{field} entries must be strings or ints", field=field)
        if base in ("Z", "Zpn") and poly.variables():
            raise SpecError(f"base {base} takes integer {field}", field=field)
        return poly

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


def cmd_adic(args) -> int:
    reports = []
    ok = True
    for path in args.spec:
        entry, entry_ok = _adic_entry(path, args, grow=0)
        if args.grow and entry["base"] in ("Zpn", "W"):
            grown, _ = _adic_entry(path, args, grow=1)
            diff = _stability_diff(entry.get("predicates", {}), grown.get("predicates", {}))
            entry["grown"] = grown
            entry["stable"] = not diff
            entry["verdict_diff"] = diff
            entry_ok = entry_ok and not diff
        ok = ok and entry_ok
        reports.append(entry)
    report = {"schema": SCHEMA, "command": "adic", "reports": reports, "ok": ok}
    if not ok:
        report["failed"] = _failed_invariants(reports)
    _emit(report)
    return 0 if ok else 1


def _adic_entry(path: str, args, grow: int):
    m_pres, f, g, spec = _load_adic_spec(path, grow)
    cap = _optional(spec, "torsion_cap", int, 8, lambda v: v >= 0)
    n_max = _optional(spec, "n_max", int, 4, lambda v: v >= 1)
    expect = _optional(spec, "expect", dict, None)
    predicates: dict = {}
    if f is not None:
        tb = torsion_bound(m_pres, f, cap)
        predicates["torsion"] = tb.to_json()
        if tb.bounded:
            predicates["pro_iso"] = pro_iso_check(m_pres, f, n_max, cap).to_json()
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
    entry_ok = True
    if expect is not None:
        flat = _flatten_values(predicates)
        mismatches = [key for key, want in expect.items() if flat.get(key) != want]
        entry["matches_expectation"] = not mismatches
        entry["expectation_mismatches"] = mismatches
        entry_ok = not mismatches
    return entry, entry_ok


def _flatten_values(tree, prefix="") -> dict:
    out = {}
    if isinstance(tree, dict):
        for k in sorted(tree):
            out.update(_flatten_values(tree[k], f"{prefix}/{k}" if prefix else k))
    else:
        out[prefix] = tree
    return out


# --- entry point ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p_qint.set_defaults(fn=cmd_q_int)

    p_ax = sub.add_parser("axioms", help="delta-ring and q-combinatorics suite")
    p_ax.add_argument("--p", type=int, default=None)
    p_ax.add_argument("--n", type=int, default=None)
    p_ax.add_argument("--m", type=int, default=None)
    p_ax.add_argument("--samples", type=int, default=200)
    p_ax.add_argument("--seed", type=int, default=0)
    p_ax.set_defaults(fn=cmd_axioms)

    p_env = sub.add_parser("envelope", help="truncated envelope relations")
    p_env.add_argument("--p", type=int, required=True)
    p_env.add_argument("--order", type=int, required=True)
    p_env.set_defaults(fn=cmd_envelope)

    p_poin = sub.add_parser("poincare", help="divided-power exactness check")
    p_poin.add_argument("--p", type=int, required=True)
    p_poin.add_argument("--cap", type=int, required=True)
    p_poin.add_argument("--n", type=int, default=2)
    p_poin.add_argument("--m", type=int, default=2)
    p_poin.add_argument("--window", type=int, default=2)
    p_poin.add_argument("--grow", action="store_true")
    p_poin.set_defaults(fn=cmd_poincare)

    p_coh = sub.add_parser("cohomology", help="twisted de Rham cohomology of a spec")
    p_coh.add_argument("--spec", action="append", required=True)
    p_coh.add_argument("--grow", action="store_true")
    p_coh.set_defaults(fn=cmd_cohomology)

    p_car = sub.add_parser("cartier", help="full descent verification pipeline")
    p_car.add_argument("--spec", action="append", required=True)
    p_car.add_argument("--iterate-cap", type=int, default=32)
    p_car.add_argument("--grow", action="store_true")
    p_car.set_defaults(fn=cmd_cartier)

    p_adic = sub.add_parser("adic", help="torsion, Koszul and flatness predicates")
    p_adic.add_argument("--spec", action="append", required=True)
    p_adic.add_argument("--grow", action="store_true")
    p_adic.set_defaults(fn=cmd_adic)

    return parser


def run_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except SpecError as exc:
        _emit(
            {
                "schema": SCHEMA,
                "command": args.command,
                "error": {"field": exc.field, "message": str(exc)},
                "ok": False,
            }
        )
        return 2
    except NotAChainMap as exc:
        _emit(
            {
                "schema": SCHEMA,
                "command": args.command,
                "failed": ["chain_map"],
                "error": {"message": str(exc)},
                "ok": False,
            }
        )
        return 1
    except QPrismError as exc:
        _emit(
            {
                "schema": SCHEMA,
                "command": args.command,
                "error": {"field": None, "message": str(exc)},
                "ok": False,
            }
        )
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
