"""Traced stand-in for `python -m quartic_moments.cli`.

Usage: python bench/cli_launcher.py OUT.json RUN_ID SPANS.jsonl -- CLI ARGS...

Runs in a fresh process like the real entry, so the cold import is kept and
timed; it then installs the tracing wrappers, calls `cli.dispatch(argv)`,
writes the trace summary to OUT.json and exits with dispatch's code.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> None:
    out_path, run_id, spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_launcher.py OUT RUN_ID SPANS -- ARGS...")
    t0 = time.perf_counter()
    from quartic_moments import cli

    import_s = time.perf_counter() - t0
    from tracing import Tracer

    tracer = Tracer(run_id)
    tracer.install()
    rc = cli.dispatch(argv)
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump({"import_s": import_s, "rc": rc, "trace": tracer.summary()}, fh)
    tracer.dump(spans_path)
    sys.exit(rc)


if __name__ == "__main__":
    main()
