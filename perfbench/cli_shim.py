"""Runs one sigmatau CLI command in a fresh interpreter, for the cli_inner workload.

Usage: python3 perfbench/cli_shim.py ROOT TRACE T0 -- ARGS...

It imports sigmatau from ROOT/src (and refuses any other copy), runs
``sigmatau.cli.run(ARGS)`` exactly as the ``sigmatau`` entry point does, and
exits with its status. With TRACE=1 it wraps the package first and, after the
command, writes its spans and the time from T0 (the caller's
time.monotonic() before the spawn) to the end of the imports as one marked
line on stderr.

The module stays light, because every cli_inner query pays for its imports.
"""

import sys
import time
from pathlib import Path

TRACE_MARK = "PERFBENCH-TRACE "


def import_checked(root: Path):
    """Import sigmatau and refuse a copy from outside the checkout under test."""
    sys.path.insert(0, str(root / "src"))
    import sigmatau

    if not Path(sigmatau.__file__).resolve().is_relative_to(root.resolve()):
        raise SystemExit(f"sigmatau imported from {sigmatau.__file__}, outside {root}")
    return sigmatau


def main() -> int:
    root, trace, t0 = Path(sys.argv[1]), sys.argv[2] == "1", float(sys.argv[3])
    argv = sys.argv[5:]
    st = import_checked(root)
    import sigmatau.cli

    process_start_s = time.monotonic() - t0
    if not trace:
        return st.cli.run(argv)
    import json

    from tracer import Tracer

    tracer = Tracer()
    tracer.install(st)
    code = st.cli.run(argv)
    sys.stdout.flush()
    print(TRACE_MARK + json.dumps({**tracer.dump(), "process_start_s": process_start_s}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
