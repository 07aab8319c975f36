"""Pin the stdout digest of every op any seed can produce.

    python3 perfbench/pin.py

Run from the root of a checkout at the commit whose outputs are the
reference.  Writes perfbench/digests.json; refuses to write when an op
fails any other output check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time

from run import DIGESTS, SRC, check

sys.path.insert(0, str(SRC))

import qprism.cli  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    digests = {}
    bad = {}
    for op in workloads.all_ops():
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = qprism.cli.run_command(list(op.argv))
        text = out.getvalue()
        digest = hashlib.sha256(text.encode()).hexdigest()
        problems = check(op, code, text, {op.key: digest})
        print(f"{time.perf_counter() - t0:8.3f}s exit {code} {op.key}", file=sys.stderr)
        if problems:
            bad[op.key] = problems
        digests[op.key] = digest
    if bad:
        sys.exit(f"not pinned, ops failed their checks: {json.dumps(bad, indent=2)}")
    DIGESTS.write_text(json.dumps(digests, sort_keys=True, indent=2) + "\n")


if __name__ == "__main__":
    main()
