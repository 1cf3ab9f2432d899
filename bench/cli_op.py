"""Run one cold `respo` CLI op in this fresh interpreter.

    python bench/cli_op.py REPORT.json TRACE score --tbox ... --abox ...

Everything after TRACE is handed to `respo.cli.main`, so the op prints
exactly what `python -m respo.cli ...` prints and exits with its code.
With TRACE 1 the respo functions are traced first (tracer.py).
REPORT.json gets the process's peak resident memory and, when traced, the
trace summary.
"""

from __future__ import annotations

import json
import sys


def peak_rss_kb() -> int:
    """This process's resident-memory high-water mark since exec.

    `getrusage` and `wait4` would also count the parent's memory at the
    time it spawned this process."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    report_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = None
    if trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    import respo.cli

    try:
        return respo.cli.main(argv)
    finally:
        sys.stdout.flush()
        report = {"rss_kb": peak_rss_kb(), "trace": tracer.summary() if tracer else None}
        with open(report_path, "w", encoding="utf-8") as out:
            json.dump(report, out)


if __name__ == "__main__":
    sys.exit(main())
