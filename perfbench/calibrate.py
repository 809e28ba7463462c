"""Fixed pure-Python work that measures how fast the machine runs right now.

Usage: python3 perfbench/calibrate.py

The runner spawns this script between every two jobs, the way it spawns a
qkdv job, and times each job in units of the mean of this script's
latencies on both sides; REFERENCE_S turns those units back into seconds.  The script imports nothing from qkdv, so a
change to the program never moves it.  It does the kind of work qkdv's jobs
do (interpreter start-up, ``Fraction`` arithmetic on dictionaries keyed by
tuples, JSON), so a host that runs the jobs slower runs it slower by about
the same factor.  It prints the length of its JSON result, always OUTPUT.
"""

from __future__ import annotations

import json
from fractions import Fraction

# Latency of this script, spawn to exit, on a quiet 2-vCPU virtual machine
# with Python 3.11: the speed the reported times are scaled to.
REFERENCE_S = 0.15
OUTPUT = b"10640\n"


def main() -> None:
    acc: dict[tuple[int, int], Fraction] = {}
    for i in range(1, 1200):
        for j in range(1, 12):
            key = (i % 37, j)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(i, j + i % 5 + 1) * Fraction(j, 7)
    print(len(json.dumps({str(k): str(v) for k, v in acc.items()})))


if __name__ == "__main__":
    main()
