"""One `sp-baw` invocation inside a fresh interpreter, for the benchmark.

    python3 child.py probe RESULT P F ELL
        import spbaw.cli and call make_context(P, F, ELL); RESULT gets the
        CLOCK_MONOTONIC reading taken right after.
    python3 child.py run RESULT -- SP-BAW-ARGS...
        run spbaw.cli.main(SP-BAW-ARGS), as the `sp-baw` script does.
    python3 child.py trace RESULT -- SP-BAW-ARGS...
        the same with the per-layer functions wrapped (tracer.py); RESULT
        also gets the span summary.
    python3 child.py reference RESULT
        run the reference task (reference.py), which does not use spbaw.

The report goes to stdout and the exit status is the command's.  RESULT
gets the process's peak resident set: the parent cannot read it from
wait4(), whose figure includes the memory of the process that forked it.
"""

import json
import sys
import time


def _peak_rss_kb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _run_cli(args):
    import spbaw.cli
    try:
        return spbaw.cli.main(args)
    except SystemExit as exc:       # argparse usage errors exit this way
        return exc.code if isinstance(exc.code, int) else 1


def main(argv):
    mode, result = argv[0], argv[1]
    out = {}
    if mode == "probe":
        import spbaw.cli  # noqa: F401  (the import is part of what is timed)
        from spbaw.fieldctx import make_context
        make_context(*(int(x) for x in argv[2:5]))
        out["ready"] = time.monotonic()
        rc = 0
    elif mode == "run":
        rc = _run_cli(argv[argv.index("--") + 1:])
    elif mode == "trace":
        import spbaw.cli  # noqa: F401  (loads every module before wrapping)
        from tracer import Tracer, spbaw_modules
        tracer = Tracer()
        tracer.install(spbaw_modules())
        rc = _run_cli(argv[argv.index("--") + 1:])
        out["trace"] = tracer.summary()
    elif mode == "reference":
        import reference
        reference.main()
        rc = 0
    else:
        raise SystemExit(f"child.py: unknown mode {mode!r}")
    sys.stdout.flush()
    out["peak_rss_kb"] = _peak_rss_kb()
    with open(result, "w") as fh:
        json.dump(out, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
