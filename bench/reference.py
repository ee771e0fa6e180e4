"""Machine-speed reference that runs beside one benchmark sample.

Usage: python3 bench/reference.py   (started and stopped by ``run.py``)

On a shared virtual machine the speed of a CPU swings by up to half within a
second, and the swings on one CPU do not follow those on the other. So the
speed is measured on the sample's own CPU over the sample's own time: this
process is pinned to the same CPU and competes with the sample for it. The
scheduler interleaves the two every few milliseconds, so both see the same
machine. The loop does a fixed amount of pure-Python work per slice, shaped
like a round (exponential weights, a normalisation, a float format), and
records the monotonic clock and its own CPU time after each slice.

It prints ``ready`` once it runs, then loops until its stdin becomes
readable or closes, and prints ``{"slice": n, "marks": [[t, cpu], ...]}``.
"""

import json
import math
import select
import sys
import time

SLICE = 500


def main() -> int:
    weights = [0.1, 0.2, 0.3, 0.4, 0.5]
    acc = 0.0
    marks = [(time.monotonic(), time.process_time())]
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], 0)[0]:
        for i in range(SLICE):
            w = [math.exp(-x * acc) for x in weights]
            total = sum(w)
            p = [x / total for x in w]
            acc = (acc + p[i % 5]) * 0.5
            format(acc, ".17g")
        marks.append((time.monotonic(), time.process_time()))
    print(json.dumps({"slice": SLICE, "marks": marks}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
