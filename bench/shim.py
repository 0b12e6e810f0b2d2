"""Run one curvelab CLI command with tracing on.

usage: python shim.py SPAN_FILE RUN_ID PARENT_SPAN SPAWN_TIME -- ARGS...

The traced counterpart of `python -m curvelab ARGS...`: the same entry
point, stdout and exit code, plus spans for interpreter start-up, the
package import and every wrapped library call, written to SPAN_FILE when
the command ends.
"""

import time

_started = time.perf_counter()

import sys  # noqa: E402


def main() -> int:
    span_file, run_id, parent, spawned = sys.argv[1:5]
    if sys.argv[5] != "--":
        raise SystemExit("usage: shim.py SPAN_FILE RUN_ID PARENT_SPAN SPAWN_TIME -- ARGS...")
    args = sys.argv[6:]

    import tracer

    tr = tracer.Tracer(run_id, prefix=f"{parent}.c", parent=parent)
    tr.record("cli.python_start", float(spawned), _started)
    with tr.span("cli.import"):
        from curvelab import cli
    tracer.install(tr)
    try:
        with tr.span("cli.entry"):
            code = cli.entry(args)
    finally:
        sys.stdout.flush()
        tr.dump(span_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
