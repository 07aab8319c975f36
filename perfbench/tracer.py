"""Per-layer tracing from outside the program.

The layers are the modules of `qprism`.  `Tracer.install` wraps the public
functions and methods listed in TARGETS and rebinds every name that refers
to them, in every loaded `qprism` module and in the owning class, so calls
made through `from .homology import cone_acyclic`-style imports are seen
too.  `Tracer.uninstall` puts the originals back.  The program's own code
is not changed.

A timed target records a span per call: calls, inclusive seconds (outermost
call only, so recursion is not counted twice) and self seconds (duration
minus the time covered by wrapped callees).  A count-only target records
calls and nothing else, because it is called too often to time cheaply.
Some targets also add counters computed from their operands' shapes; these
are bookkeeping of the work requested, not measured memory traffic.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

_INT64_BYTES = 8


def _is_selection(a: np.ndarray) -> bool:
    """0/1 matrix with at most one 1 per column or per row (identity included)."""
    if a.size == 0 or a.min() < 0 or a.max() > 1:
        return False
    return bool((a.sum(axis=0) <= 1).all() or (a.sum(axis=1) <= 1).all())


def _matmul_counts(args, result) -> dict[str, float]:
    a, b = args[0].entries, args[1].entries
    n, k = a.shape
    m = b.shape[1]
    mac = n * k * m
    return {
        "mac": mac,
        "bytes": _INT64_BYTES * (n * k + k * m + n * m),
        "selection_mac": mac if _is_selection(a) or _is_selection(b) else 0,
    }


def _input_entries(args, result) -> dict[str, float]:
    return {"entries": int(np.size(args[0]))}


def _output_entries(args, result) -> dict[str, float]:
    return {"entries": int(result.entries.size)}


def _intpoly_terms(args, result) -> dict[str, float]:
    a, b = args
    return {"terms": len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)}


@dataclass(frozen=True)
class Target:
    """A function (`attr`) or method (`Class.method`) of `qprism.<module>`."""

    module: str
    attr: str
    name: str
    timed: bool = True
    counts: Callable | None = None  # fn(args, result) -> {counter: increment}
    counters: tuple[str, ...] = ()  # the keys `counts` returns


_ENTRIES = ("entries",)

TARGETS = (
    Target("cli", "run_command", "cli.run_command"),
    Target("cli", "load_connection_spec", "cli.load_connection_spec"),
    Target("grammar", "parse_poly", "grammar.parse_poly"),
    Target("base_ring", "WScalar.__mul__", "base_ring.WScalar.mul", timed=False),
    Target("base_ring", "q_int", "base_ring.q_int", timed=False),
    Target(
        "exactpoly", "IntPoly.__mul__", "exactpoly.IntPoly.mul", True, _intpoly_terms, ("terms",)
    ),
    Target("twisted_calculus", "connection_apply", "twisted_calculus.connection_apply"),
    Target(
        "twisted_calculus", "quasi_nilpotence_check", "twisted_calculus.quasi_nilpotence_check"
    ),
    Target(
        "homology",
        "FlatMatrix.matmul",
        "homology.matmul",
        True,
        _matmul_counts,
        ("mac", "bytes", "selection_mac"),
    ),
    Target("homology", "howell_form", "homology.howell_form", True, _input_entries, _ENTRIES),
    Target(
        "homology", "smith_exponents", "homology.smith_exponents", True, _input_entries, _ENTRIES
    ),
    Target("homology", "right_kernel_basis", "homology.right_kernel_basis"),
    Target(
        "homology", "flatten_operator", "homology.flatten_operator", True, _output_entries, _ENTRIES
    ),
    Target("homology", "cone_acyclic", "homology.cone_acyclic"),
    Target("homology", "cohomology_of_complex", "homology.cohomology_of_complex"),
    Target("delta_ring", "run_axiom_suite", "delta_ring.run_axiom_suite"),
    Target("delta_ring", "envelope_presentation", "delta_ring.envelope_presentation"),
    Target("divided_poly", "poincare_exactness", "divided_poly.poincare_exactness"),
    Target("cartier", "cartier_verify", "cartier.cartier_verify"),
    Target("cartier", "chain_map_build", "cartier.chain_map_build"),
    Target("cartier", "block_split", "cartier.block_split"),
    Target("adic_diagnostics", "torsion_bound", "adic_diagnostics.torsion_bound"),
    Target("adic_diagnostics", "pro_iso_check", "adic_diagnostics.pro_iso_check"),
    Target(
        "adic_diagnostics", "bounded_and_flat_check", "adic_diagnostics.bounded_and_flat_check"
    ),
    Target(
        "adic_diagnostics",
        "koszul_reduction_cone_acyclic",
        "adic_diagnostics.koszul_reduction_cone_acyclic",
    ),
)


@dataclass
class SpanStats:
    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    active: int = 0
    counters: dict[str, float] = field(default_factory=dict)


class Tracer:
    """Span and counter recorder; one per traced pass."""

    def __init__(self):
        self.stats = {t.name: SpanStats(counters=dict.fromkeys(t.counters, 0)) for t in TARGETS}
        # child-time accumulators of the open spans, innermost last
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def _timed(self, fn, st: SpanStats, counts):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            st.active += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st.active -= 1
                st.calls += 1
                if not st.active:
                    st.inclusive_s += dt
                st.self_s += dt - children[0]
                if stack:
                    stack[-1][0] += dt
            # outside the span: the counting shows in the caller's self time
            # and in trace.overhead_frac, not in this target's figures
            if counts is not None:
                for key, value in counts(args, result).items():
                    st.counters[key] += value
            return result

        return wrapper

    @staticmethod
    def _counted(fn, st: SpanStats):
        def wrapper(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "qprism" or n.startswith("qprism.")]
        for t in TARGETS:
            module = importlib.import_module(f"qprism.{t.module}")
            cls_name, _, meth = t.attr.rpartition(".")
            owner = getattr(module, cls_name) if cls_name else module
            original = owner.__dict__[meth]
            st = self.stats[t.name]
            if t.timed:
                wrapped = self._timed(original, st, t.counts)
            else:
                wrapped = self._counted(original, st)
            # a class binds the same function under several names (__rmul__ = __mul__)
            for scope in [owner] if cls_name else modules:
                for attr, value in list(vars(scope).items()):
                    if value is original:
                        self._rebind(scope, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def figures(self) -> dict[str, float]:
        """Flat per-layer figures of what was traced so far."""
        out: dict[str, float] = {}
        for t in TARGETS:
            st = self.stats[t.name]
            out[f"{t.name}.calls"] = st.calls
            if t.timed:
                out[f"{t.name}.s"] = st.inclusive_s
                out[f"{t.name}.self_s"] = st.self_s
            for key, value in st.counters.items():
                out[f"{t.name}.{key}"] = value
        mm = self.stats["homology.matmul"].counters
        out["homology.matmul.selection_frac"] = (
            mm["selection_mac"] / mm["mac"] if mm["mac"] else 0.0
        )
        # share of op time spent inside wrapped layers below the CLI entry point
        top = self.stats["cli.run_command"]
        out["trace.coverage_frac"] = 1 - top.self_s / top.inclusive_s
        return out

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
