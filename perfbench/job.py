"""Run one qkdv CLI command and record the peak memory of its own process.

Usage: python job.py RSS_OUT [qkdv arguments...]

This does what ``python -m qkdv.cli ARGS`` does, standard output byte for
byte, and when the command ends it writes the process's VmHWM (peak resident
set size in KiB, from /proc/self/status) to RSS_OUT.  The parent cannot take
that figure from ``os.wait4``: a child's ``ru_maxrss`` also counts the
parent's own peak, which the kernel carries across the exec of a child
started with vfork, and the benchmark's process is about as large as a small
qkdv job.
"""

from __future__ import annotations

import sys


def peak_rss_kib() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    from qkdv.cli import main as cli_main

    try:
        rc = cli_main(argv)
    except SystemExit as exc:
        rc = exc.code
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        fh.write(str(peak_rss_kib()))
    return rc


if __name__ == "__main__":
    sys.exit(main())
