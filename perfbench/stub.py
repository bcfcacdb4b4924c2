"""One CLI invocation, as the benchmark runs it: a fresh process per command.

    python3 perfbench/stub.py RECORD_JSON TRACE(0|1) -- COMMAND CONFIG [ARGS...]

Imports `coreshell.cli` (the package's `src` directory must be on
PYTHONPATH), runs `coreshell.cli.main(ARGS)` and exits with its code. At exit
it writes RECORD_JSON with monotonic-clock timestamps (nanoseconds) for
"import done" and "config loaded", the `sys.modules` counts after import
and, with TRACE=1, the spans recorded by `tracer.Tracer`. The parent records
the spawn time on the same clock, so set-up time is ready minus spawn.
With TRACE=0 the only wrapper installed is the one on `load_config` that
stamps the ready time.
"""

import functools
import json
import sys
import time


def clock() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def main() -> int:
    record_path, trace_flag, sep, *argv = sys.argv[1:]
    if sep != "--" or trace_flag not in ("0", "1"):
        print("usage: stub.py RECORD_JSON 0|1 -- COMMAND CONFIG [ARGS...]", file=sys.stderr)
        return 2

    import coreshell.cli as cli

    record = {
        "imported_ns": clock(),
        "modules": len(sys.modules),
        "scipy_modules": sum(1 for name in sys.modules
                             if name == "scipy" or name.startswith("scipy.")),
    }
    load_config = cli.load_config

    @functools.wraps(load_config)
    def stamped_load_config(*args, **kwargs):
        try:
            return load_config(*args, **kwargs)
        finally:
            record["ready_ns"] = clock()

    cli.load_config = stamped_load_config

    tracer = None
    if trace_flag == "1":
        from tracer import Tracer
        tracer = Tracer(clock)
        tracer.install()

    code = 1
    try:
        code = cli.main(argv)
    finally:
        if tracer is not None:
            record["spans"] = tracer.spans
        with open(record_path, "w") as handle:
            json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
