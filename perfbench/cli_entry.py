"""Run one ``loneaxis`` command in a fresh interpreter, as a user would.

``python3 perfbench/cli_entry.py MEM_MB TRACE ARGS...`` caps the address
space, puts ``src`` on the path (the package need not be installed), and
calls ``loneaxis.cli.main(ARGS)``; ``python -m loneaxis.cli`` would warn
because the package has no ``__main__``.  The CLI's own output is left
untouched; a last stderr line ``PERFBENCH {...}`` carries the peak
memory, the time from the import of ``loneaxis`` to the end of the
command, the host-speed kernel time taken right after it
(``hostspeed.py``) and, when TRACE is 1, the span totals.
"""

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import hostspeed  # noqa: E402


def main():
    mem_mb, trace, argv = int(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    cap = mem_mb * 2 ** 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    sys.path.insert(0, "src")
    t0 = time.perf_counter()
    import loneaxis.cli
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.install()
    try:
        code = loneaxis.cli.main(argv)
    finally:
        sys.stdout.flush()
        python_s = time.perf_counter() - t0
        info = {"rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "python_s": python_s, "probe": hostspeed.kernel_s(),
                "trace": tracer.drain() if tracer else None}
        print("PERFBENCH " + json.dumps(info), file=sys.stderr, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
