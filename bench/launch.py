"""Run one hx CLI call in a fresh process and record what the process measured.

Usage: python3 bench/launch.py <hx arguments...>

The environment variable HXB_STATS names the file that gets, as JSON:
``startup_mono``, the CLOCK_MONOTONIC reading once ``hx.cli`` is imported,
which the parent compares with its own spawn time; ``peak_rss_kb``, the
process's own peak resident set; and ``trace``, the per-module span
summary when HXB_TRACE is set (else null). With HXB_TRACE the public hx
functions are wrapped before ``hx.cli.main`` runs.
"""

import json
import os
import sys
import time


def peak_rss_kb() -> int:
    """This process's own peak resident set (VmHWM) in KiB.

    ``ru_maxrss`` of a child, as ``wait4`` gives it, is no use here: Linux
    also counts the parent's resident set that the child held between fork
    and exec. VmHWM covers only the address space the program runs in.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


if __name__ == "__main__":
    import hx.cli

    startup_mono = time.monotonic()
    recorder = None
    if os.environ.get("HXB_TRACE"):
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    try:
        code = hx.cli.main(sys.argv[1:])
    finally:
        stats = {"startup_mono": startup_mono, "peak_rss_kb": peak_rss_kb(), "trace": recorder and recorder.summary()}
        with open(os.environ["HXB_STATS"], "w", encoding="utf-8") as handle:
            json.dump(stats, handle)
    sys.exit(code)
