"""One repetition: run ``gsnmf.cli.main(argv)`` in this fresh process.

Usage: child.py RESULT_JSON TRACE(0|1) -- CLI_ARGV...

Writes wall time, CPU time (user + sys, all threads) and exit code of the
call, the process's peak RSS and, when traced, the spans, to RESULT_JSON.
The package is found through PYTHONPATH, which the caller points at the
checkout's ``src``.
"""

import json
import resource
import sys
import time


def peak_rss_kib():
    # VmHWM belongs to this process's own address space. ru_maxrss is not
    # used: exec carries the spawning parent's high-water mark into it.
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    result_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]

    import gsnmf.cli

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    code = gsnmf.cli.main(argv)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)

    out = {
        "exit_code": code,
        "wall_s": wall,
        "cpu_s": (after.ru_utime - usage.ru_utime) + (after.ru_stime - usage.ru_stime),
        "peak_rss_mb": peak_rss_kib() / 1024.0,
        "spans": tracer.spans if tracer else None,
    }
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
