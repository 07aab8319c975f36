"""The benchmark's workloads: fixed op lists over generated spec files.

Every op is one `qprism` command line, run in-process through
`qprism.cli.run_command`.  Spec files are written under WORK_DIR, a path
relative to the checkout root, so the `spec_path` fields in reports (and
therefore the pinned stdout digests) do not depend on where the checkout
lives.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path

WORK_DIR = Path(".perfbench_work")

# Fixture names are listed, not globbed, so adding a fixture does not
# silently change the cli_fixtures op list.
CONNECTION_FIXTURES = [
    "bad_rank.json",
    "classical_p2_rank1.json",
    "cohomology_level0_trivial.json",
    "p2_rank1_nilpotent.json",
    "p2_rank1_seeded.json",
    "p2_rank1_trivial.json",
    "p2_rank2_mixed.json",
    "p2_rank2_seeded.json",
    "p2_rank2_trivial.json",
    "p3_rank1_nilpotent.json",
    "p3_rank1_seeded.json",
    "p3_rank1_trivial.json",
    "p3_rank2_mixed.json",
    "p3_rank2_seeded.json",
    "p3_rank2_trivial.json",
]
MODULE_FIXTURES = ["adic_w_quotient.json", "adic_z_torsion.json", "adic_zq_free.json"]
# Ops that must exit 2: a malformed spec, and a level-0 spec fed to cartier.
EXIT2_CARTIER = {"bad_rank.json", "cohomology_level0_trivial.json"}
EXIT2_COHOMOLOGY = {"bad_rank.json"}

# Generator seed of the scaled specs.  Every run uses the same spec per shape:
# costs differ by up to 2x from one generator seed to the next, so drawing
# specs per run would make the run-to-run spread a property of the draw, and
# one op per pass leaves room for several passes (and so a median) per run.
SPEC_SEED = 0


@dataclass(frozen=True)
class SpecShape:
    """Shape of a generated level -1 connection spec."""

    p: int
    n_prec: int
    m_prec: int
    rank: int
    window: int

    def tag(self) -> str:
        return f"p{self.p}n{self.n_prec}m{self.m_prec}r{self.rank}w{self.window}"


# Raised flattened dimension rank * (p*window + p) * m_prec = 594.
DESCENT_SHAPE = SpecShape(p=3, n_prec=3, m_prec=3, rank=2, window=32)
# Flattened dimension rank * (window + 1) * m_prec = 369 for both shapes.
COHOMOLOGY_SHAPES = (
    SpecShape(p=3, n_prec=3, m_prec=3, rank=3, window=40),
    SpecShape(p=2, n_prec=4, m_prec=3, rank=3, window=40),
)


@dataclass(frozen=True)
class Op:
    """One command line and the exit code its report must carry."""

    argv: tuple[str, ...]
    expect_exit: int = 0
    # descent specs are quasi-nilpotent by construction: the report must say ok
    must_pass: bool = False

    @property
    def key(self) -> str:
        return " ".join(self.argv)


# --- spec generator -------------------------------------------------------------


def _w_mul_lead(coeffs: list[int], lead_is_p: bool, p: int, pn: int) -> list[int]:
    """Multiply a W-scalar (t-basis coordinates) by p or by t = q - 1."""
    if lead_is_p:
        return [(p * c) % pn for c in coeffs]
    return [0] + coeffs[:-1]


def _t_to_q_basis(coeffs: list[int], pn: int) -> list[int]:
    """Coordinates in the basis q^j of sum_i c_i (q - 1)^i, reduced mod p^N."""
    out = [0] * len(coeffs)
    for i, c in enumerate(coeffs):
        for j in range(i + 1):
            out[j] += c * comb(i, j) * (-1) ** (i - j)
    return [v % pn for v in out]


def _entry_text(poly: dict[int, list[int]], pn: int) -> str:
    terms = []
    for d in sorted(poly):
        for j, c in enumerate(_t_to_q_basis(poly[d], pn)):
            if c:
                q = "" if j == 0 else ("*q" if j == 1 else f"*q^{j}")
                x = "" if d == 0 else ("*x" if d == 1 else f"*x^{d}")
                terms.append(f"{c}{q}{x}")
    return "+".join(terms) or "0"


def nilpotent_theta(shape: SpecShape, seed: int, max_degree: int = 2) -> list[list[str]]:
    """Seeded connection matrix with entries in the ideal (p, q - 1).

    Each entry is a sum of one or two monomials lead * w * x^d, with lead
    p or t = q - 1 at even odds, w uniform in W and d uniform in
    [0, max_degree].  Every iterate of the connection gains a power of the
    nilpotent ideal, so quasi-nilpotence holds by construction.
    """
    rng = random.Random(seed)
    p, pn, m = shape.p, shape.p**shape.n_prec, shape.m_prec
    theta = []
    for _ in range(shape.rank):
        row = []
        for _ in range(shape.rank):
            poly: dict[int, list[int]] = {}
            for _ in range(rng.randrange(1, 3)):
                lead_is_p = rng.random() < 0.5
                w = [rng.randrange(pn) for _ in range(m)]
                term = _w_mul_lead(w, lead_is_p, p, pn)
                d = rng.randrange(max_degree + 1)
                acc = poly.get(d, [0] * m)
                poly[d] = [(a + b) % pn for a, b in zip(acc, term)]
            row.append(_entry_text(poly, pn))
        theta.append(row)
    return theta


def spec_path(shape: SpecShape, seed: int) -> str:
    return str(WORK_DIR / f"{shape.tag()}_s{seed}.json")


def write_spec(shape: SpecShape, seed: int) -> None:
    """Write the generated spec file to its checkout-relative path."""
    spec = {
        "p": shape.p,
        "n_prec": shape.n_prec,
        "m_prec": shape.m_prec,
        "level": -1,
        "rank": shape.rank,
        "degree_window": shape.window,
        "theta_matrix": nilpotent_theta(shape, seed),
        "seed": seed,
    }
    WORK_DIR.mkdir(exist_ok=True)
    Path(spec_path(shape, seed)).write_text(json.dumps(spec, sort_keys=True, indent=2) + "\n")


# --- op lists ---------------------------------------------------------------------


def cli_fixture_ops() -> list[Op]:
    ops = []
    for name in CONNECTION_FIXTURES:
        path = f"fixtures/{name}"
        ops.append(
            Op(("cohomology", "--spec", path, "--grow"), 2 if name in EXIT2_COHOMOLOGY else 0)
        )
        ops.append(
            Op(("cartier", "--spec", path, "--grow"), 2 if name in EXIT2_CARTIER else 0)
        )
    for name in MODULE_FIXTURES:
        ops.append(Op(("adic", "--spec", f"fixtures/{name}", "--grow")))
    for p in ("2", "3"):
        for cap in ("4", "8"):
            ops.append(Op(("poincare", "--p", p, "--cap", cap, "--grow")))
        for order in ("0", "1"):
            ops.append(Op(("envelope", "--p", p, "--order", order)))
    # order 2 also makes the op count odd, which puts the per-op median on
    # one op's samples rather than between two ops' costs
    for order in ("2", "3"):
        ops.append(Op(("envelope", "--p", "2", "--order", order)))
    ops.append(Op(("axioms",)))
    ops.append(Op(("q-int", "5")))
    return ops


def descent_op(seed: int) -> Op:
    return Op(("cartier", "--spec", spec_path(DESCENT_SHAPE, seed)), must_pass=True)


def cohomology_op(seed: int) -> Op:
    """One batch over both shapes, so that every op does the same work."""
    argv = ["cohomology"]
    for shape in COHOMOLOGY_SHAPES:
        argv += ["--spec", spec_path(shape, seed)]
    return Op(tuple(argv))


def _scaled_ops() -> dict[str, list[Op]]:
    """The scaled workloads' op lists, with their spec files written."""
    for shape in (DESCENT_SHAPE, *COHOMOLOGY_SHAPES):
        write_spec(shape, SPEC_SEED)
    return {
        "descent_scaled": [descent_op(SPEC_SEED)],
        "cohomology_scaled": [cohomology_op(SPEC_SEED)],
    }


def build(workload: str, seed: int) -> list[Op]:
    """The op list of one pass, in the order the seed sets."""
    if workload == "cli_fixtures":
        ops = cli_fixture_ops()
    elif workload in ("descent_scaled", "cohomology_scaled"):
        ops = _scaled_ops()[workload]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(f"{workload}:{seed}").shuffle(ops)
    return ops


def all_ops() -> list[Op]:
    """Every op of every workload, with its spec files written."""
    scaled = _scaled_ops()
    return cli_fixture_ops() + scaled["descent_scaled"] + scaled["cohomology_scaled"]


WORKLOADS = ("cli_fixtures", "descent_scaled", "cohomology_scaled")
