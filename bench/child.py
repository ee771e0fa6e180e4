"""One benchmark sample: a fresh process that runs one config through corral.

Usage: python3 bench/child.py SRC CONFIG OUT MODE

Imports ``corral`` from SRC, validates CONFIG with ``load_config`` and runs
it with ``execute`` into OUT, exactly what ``corral run`` does. MODE is
``plain`` or ``traced`` (the package is wrapped by ``tracing.install``
first). Prints one JSON object of timings (wall and CPU, with the monotonic
bounds of set-up and ``execute``), peak memory and garbage-collector figures
as its last line.
"""

import gc
import json
import os
import resource
import sys
import time


class GcClock:
    """``gc.callbacks`` hook: total collector pause and gen-2 collections."""

    def __init__(self):
        self.pause_s = 0.0
        self.gen2 = 0
        self._start = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
            return
        self.pause_s += time.perf_counter() - self._start
        if info["generation"] == 2:
            self.gen2 += 1


def main(argv) -> int:
    src, config_path, out_dir, mode = argv[1:5]
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import corral
    import numpy

    import_s = time.perf_counter() - t0
    if os.path.commonpath([os.path.abspath(corral.__file__), src]) != src:
        print(f"error: imported corral from {corral.__file__}, not {src}", file=sys.stderr)
        return 1

    t0 = time.perf_counter()
    config = corral.harness.load_config(config_path)
    load_config_s = time.perf_counter() - t0
    ready = time.monotonic()
    # CPU time since the process began: interpreter start, imports, load_config.
    ready_cpu = time.process_time()

    tracer = None
    if mode == "traced":
        import tracing

        tracer = tracing.install(corral)
    clock = GcClock()
    gc.callbacks.append(clock)
    exec_start = time.monotonic()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    corral.harness.execute(config, out_dir)
    exec_s = time.perf_counter() - t0
    exec_cpu_s = time.process_time() - cpu0
    exec_end = time.monotonic()
    gc.callbacks.remove(clock)

    result = {
        "import_s": import_s,
        "load_config_s": load_config_s,
        "ready_monotonic": ready,
        "ready_cpu_s": ready_cpu,
        "exec_start": exec_start,
        "exec_end": exec_end,
        "exec_s": exec_s,
        "exec_cpu_s": exec_cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "gc_s": clock.pause_s,
        "gc_gen2_collections": clock.gen2,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "layers": None,
    }
    if tracer is not None:
        csv_path = os.path.join(out_dir, "rounds.csv")
        rows = size = 0
        if os.path.exists(csv_path):
            size = os.path.getsize(csv_path)
            with open(csv_path, "rb") as fh:
                rows = sum(1 for _ in fh) - 1
        result["layers"] = tracing.layer_metrics(tracer, exec_s, rows, size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
