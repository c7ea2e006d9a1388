"""Run one dpseries command in this fresh interpreter with spans installed.

Usage: python3 cli_probe.py <parent's time.monotonic() at spawn> <dpseries args...>

Prints one JSON object: the command's exit code and stdout, the interpreter
start, import and run times, and the spans of the run.  The package comes
from the PYTHONPATH the caller sets.
"""

import time

started = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402


def main() -> None:
    spawned = float(sys.argv[1])
    t0 = time.perf_counter()
    import dpseries.cli

    import_s = time.perf_counter() - t0
    tracer = spans.Tracer()
    tracer.install()
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = dpseries.cli.run(sys.argv[2:])
    finally:
        run_s = time.perf_counter() - t0
        tracer.uninstall()
    print(json.dumps({
        "code": code,
        "stdout": out.getvalue(),
        "trace": {
            "interp_start_s": started - spawned,
            "import_s": import_s,
            "run_s": run_s,
            "spans": tracer.spans,
            "lattice": tracer.lattice_totals(),
            "warnings": tracer.warnings,
        },
    }))


if __name__ == "__main__":
    main()
