"""A fixed piece of pure-Python work that measures the host's current speed.

The host this benchmark was written on changes speed by up to a quarter
over tens of seconds to minutes, CPU time included, so two runs of the same
code minutes apart can differ by more than any useful bound.  The client in
run.py therefore starts this script as a child process every few seconds
between program invocations and scales the run's times by ``REFERENCE_S``
over the run's mean probe time.

The probe is a process of its own because a warm loop inside the client
does not slow down with the host the way a fresh ``python -m entroplab``
process does: start-up, imports, page faults and allocation are part of
what drifts.  It uses none of the program's code, so no program change can
move it; it exercises what the program leans on: Fraction and big-integer
arithmetic, dicts keyed by tuples, sets of frozensets, JSON emit and load.
It stays far below the program's own resident set, so it never sets
``peak_rss_mb``.

Usage:

    python3 perfbench/calibrate.py           # one probe; prints a checksum
    python3 perfbench/calibrate.py --stats 20  # times 20 probes in this process
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from fractions import Fraction

ROUNDS = 24

# The mean wall time of one probe process, start-up included, on the host
# where the benchmark was written (Python 3.11.7, 2 vCPUs of an Intel Xeon
# at 2.0 GHz).  A scaled time reads as "seconds at that host's typical
# speed".
REFERENCE_S = 0.27


def work(rounds: int = ROUNDS) -> int:
    acc = 0
    for r in range(rounds):
        table: dict = {}
        for i in range(1, 400):
            key = (i % 37, i % 11)
            table[key] = table.get(key, 0) + Fraction(i, 7 * r + 3) + Fraction(r + 1, i + 11)
        total = sum(table.values(), Fraction(0))
        acc ^= total.denominator.bit_length()
        rows = json.loads(json.dumps([{"k": str(k), "v": str(v)} for k, v in table.items()]))
        acc += len(rows)
        acc += len({frozenset((a, b)) for a in range(30) for b in range(30) if (a * b + r) % 7})
        big = 3 ** (600 + r % 50)
        acc += (big * big // (big - 1)) % 97
    return acc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--stats", type=int, default=0, metavar="N",
                        help="time N probes in this process instead of running one")
    args = parser.parse_args()
    if not args.stats:
        print(work())
        return 0
    walls = []
    for _ in range(args.stats):
        start = time.perf_counter()
        work()
        walls.append(time.perf_counter() - start)
    print(f"in-process probe wall: median {statistics.median(walls):.4f} s"
          f"  min {min(walls):.4f} s  max {max(walls):.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
