"""Run one modgraphs CLI invocation and report what it cost, as one JSON line.

    python3 perfbench/op.py TRACE MODULE -- ARGV...

The CLI arguments ARGV go to `modgraphs.cli.dispatch` unchanged.  The
program's output is captured and reduced to its sha256 and byte count;
stdout carries only the JSON record.  TRACE is 1 to record spans around
the layer entry points (see tracing.py); MODULE labels spans that fall
outside any one check instance.  All times are `time.perf_counter`
readings, which share one monotonic clock with the parent process.
"""
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout


def main() -> None:
    trace, module, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: op.py TRACE MODULE -- ARGV...")

    start = time.perf_counter()
    import modgraphs.cli
    ready = time.perf_counter()

    tracer = None
    dispatch = modgraphs.cli.dispatch
    if trace == "1":
        from tracing import Tracer
        tracer = Tracer(module)
        dispatch = tracer.install(dispatch)

    buf = io.StringIO()
    rc, error = None, None
    begin = time.perf_counter()
    try:
        with redirect_stdout(buf):
            rc = dispatch(argv)
    except Exception:  # reported to the parent, which counts the op as failed
        error = traceback.format_exc()
    done = time.perf_counter()

    data = buf.getvalue().encode("utf-8")
    record = {
        "setup_s": ready - start,
        "dispatch_start": begin,
        "dispatch_end": done,
        "rc": rc,
        "error": error,
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        record.update(tracer.report())
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
