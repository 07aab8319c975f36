"""qprism benchmark: a closed loop with one client, run in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each op is one `qprism` command line,
passed to `qprism.cli.run_command` with stdout captured; the next op starts
when the previous one returns.  Every op's output is checked (see `check`).

--trace 0 measures the end-to-end metrics with no tracer installed.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (see tracer.py).

The last stdout line is the result object with the metrics BENCHMARK.json
declares.  The line before it is the full report: every end-to-end figure
by name with its unit, quartiles and sample count (op_p50_s and failed_frac
included), the tail percentile used, the failing ops and the machine facts.
"""

from __future__ import annotations

import os

# Pin the BLAS pool before numpy is imported, here and in the set-up probes.
BLAS_THREADS = "1"
BLAS_ENV = {
    k: BLAS_THREADS for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = Path("src")
DIGESTS = HERE / "digests.json"
SCHEMA = "qprism/1"
MIN_PASSES = 2
SETUP_REPEATS = 9
# Per-layer figures that are measured; all others are counts, which must
# repeat exactly from one traced pass to the next.
MEASURED_SUFFIXES = (".s", ".self_s", "_frac")
# A tail percentile needs this many samples beyond it.
TAIL_SUPPORT = 10
SETUP_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import qprism.cli\n"
    "qprism.cli.build_parser()\n"
    "print(time.perf_counter() - t0)\n"
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# --- statistics --------------------------------------------------------------------


def summary(values: list[float], unit: str) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"value": median, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def tail_percentile(n: int) -> int:
    """Highest whole percentile above the median with TAIL_SUPPORT samples
    beyond it, or 100 (the maximum) when n is too small for any."""
    for pct in range(99, 50, -1):
        if n * (100 - pct) >= TAIL_SUPPORT * 100:
            return pct
    return 100


def nearest_rank(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    rank = -(-pct * len(ordered) // 100)  # ceil
    return ordered[max(rank, 1) - 1]


# --- the op oracle ---------------------------------------------------------------------


def check(op, code: int | None, out: str, digests: dict[str, str]) -> list[str]:
    """Reasons the op's output is wrong; empty when it is right."""
    problems = []
    if code != op.expect_exit:
        problems.append(f"exit {code}, expected {op.expect_exit}")
    if hashlib.sha256(out.encode()).hexdigest() != digests.get(op.key):
        problems.append("stdout differs from the pinned digest")
    if op.argv[0] == "q-int":  # prints a bare polynomial, not a report
        return problems
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return problems + ["stdout is not JSON"]
    if report.get("schema") != SCHEMA:
        problems.append("schema is not qprism/1")
    if report.get("ok") is not (code == 0):
        problems.append("ok disagrees with the exit code")
    if op.must_pass and report.get("ok") is not True:
        problems.append("a quasi-nilpotent spec did not verify")
    if op.argv[0] == "cohomology":
        # |ker| = |coker| for a square operator on a finite module
        for entry in report.get("reports", []):
            for coh in (entry.get("cohomology"), entry.get("grown", {}).get("cohomology")):
                if coh is not None and sum(coh["h0"]) != sum(coh["h1"]):
                    problems.append("sum(h0) != sum(h1)")
    return problems


# --- running ops --------------------------------------------------------------------------


class Runner:
    def __init__(self, cli, digests: dict[str, str]):
        self.cli = cli
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, list[str]] = {}

    def run_op(self, op) -> tuple[float, int]:
        """Run one op; return its wall time and stdout size in bytes."""
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.run_command(list(op.argv))
        except Exception as exc:  # a crash is a failed op; the loop goes on
            code = None
            crash = [f"raised {type(exc).__name__}: {exc}"]
        else:
            crash = []
        dt = time.perf_counter() - t0
        text = out.getvalue()
        problems = crash + check(op, code, text, self.digests)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.setdefault(op.key, problems)
        return dt, len(text.encode())

    def run_pass(self, ops) -> tuple[float, list[float], int]:
        op_times = []
        out_bytes = 0
        t0 = time.perf_counter()
        for op in ops:
            dt, nbytes = self.run_op(op)
            op_times.append(dt)
            out_bytes += nbytes
        return time.perf_counter() - t0, op_times, out_bytes


def timed_loop(seconds: float, run_one) -> None:
    """Call run_one() until another call would likely end past `seconds`,
    at least MIN_PASSES times."""
    start = time.perf_counter()
    done = 0
    while True:
        run_one()
        done += 1
        elapsed = time.perf_counter() - start
        if done >= MIN_PASSES and elapsed * (done + 1) / done > seconds:
            return


def measure_setup() -> list[float]:
    """Seconds from `import qprism.cli` to a built parser, each in a fresh
    interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}  # BLAS_ENV is already in os.environ
    samples = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(probe.stdout.strip().splitlines()[-1]))
    return samples


def machine_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": int(BLAS_THREADS),
    }


def end_to_end(runner: Runner, ops, seconds: float) -> tuple[dict, dict]:
    setup = measure_setup()
    pass_times: list[float] = []
    op_times: list[float] = []

    def one_pass():
        dt, times, _ = runner.run_pass(ops)
        pass_times.append(dt)
        op_times.extend(times)

    timed_loop(seconds, one_pass)
    # from the guaranteed sample count, so the percentile is the same in every run
    pct = tail_percentile(MIN_PASSES * len(ops))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    report = {
        "setup_s": summary(setup, "s"),
        "pass_s": summary(pass_times, "s"),
        "op_p50_s": summary(op_times, "s"),
        "op_tail_s": {
            "value": nearest_rank(op_times, pct),
            "unit": "s",
            "percentile": pct,
            "n": len(op_times),
        },
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    return {name: m["value"] for name, m in report.items()}, report


def traced(runner: Runner, ops, seconds: float) -> tuple[dict, dict]:
    from tracer import Tracer

    plain: list[float] = []
    with_trace: list[float] = []
    passes: list[dict[str, float]] = []

    def one_pair():
        plain.append(runner.run_pass(ops)[0])
        with Tracer() as tracer:
            dt, _, out_bytes = runner.run_pass(ops)
        with_trace.append(dt)
        passes.append({**tracer.figures(), "cli.stdout_bytes": out_bytes})

    timed_loop(seconds, one_pair)
    values: dict[str, float] = {}
    repeat_mismatch = []
    for name in passes[0]:
        seen = [p[name] for p in passes]
        if name.endswith(MEASURED_SUFFIXES):
            values[name] = statistics.median(seen)
        else:
            values[name] = seen[0]
            if len(set(seen)) != 1:
                repeat_mismatch.append(name)
    values["trace.overhead_frac"] = statistics.median(with_trace) / statistics.median(plain) - 1
    details = {
        "untraced_pass_s": summary(plain, "s"),
        "traced_pass_s": summary(with_trace, "s"),
        "counts_repeat": not repeat_mismatch,
        "counts_not_repeating": repeat_mismatch,
    }
    return values, details


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "qprism" / "cli.py").is_file():
        fail("run from the root of a qprism checkout (src/qprism/cli.py not found)")
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    if args.workload == "cli_fixtures" and not Path("fixtures").is_dir():
        fail("fixtures/ not found")
    import qprism.cli

    digests = json.loads(DIGESTS.read_text())
    ops = workloads.build(args.workload, args.seed)
    runner = Runner(qprism.cli, digests)
    kind = "per_layer" if args.trace else "end_to_end"
    declared = json.loads(Path("BENCHMARK.json").read_text())[kind]
    measure = traced if args.trace else end_to_end
    values, details = measure(runner, ops, args.seconds)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        fail(f"declared metrics not measured: {missing}")
    details.update(
        workload=args.workload,
        seed=args.seed,
        ops_per_pass=len(ops),
        failed_frac={"value": runner.failed / runner.attempted, "unit": "ratio"},
        failures=runner.failures,
        machine=machine_facts(),
    )
    print(json.dumps(details, sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
