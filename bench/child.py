"""One benchmark run in a fresh interpreter.

    python3 bench/child.py SPEC.json

SPEC names the workload, the config file, the output directory, the result
file, and whether to trace.  The child times the import of contrast_lab and
the loading of the config (setup), then the workload call alone (wall), and
writes its measurements and the problems its checks found to the result
file.  With "setup_only" it stops after setup and records the environment.
Each process also times speed_probe(): once after setup, and before and
after the workload call.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads


def _environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: v for k, v in sorted(os.environ.items()) if "THREADS" in k},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def speed_probe() -> float:
    """Seconds for a fixed mix of interpreter, small-array and BLAS work.

    The speed of a shared machine can switch between a fast and a slow
    state, about 1.45 times apart, within seconds to minutes, so run.py
    scales a process's times by this probe, taken in the same process next
    to them.  It uses numpy only, never contrast_lab, so a
    change to the program cannot move it, and its arrays are small, so it
    does not raise the peak RSS a run reports.
    """
    import numpy as np

    began = time.perf_counter()
    acc = 0
    for i in range(750_000):  # each part takes 0.06-0.09 s on a 2-core Xeon VM
        acc += i * i % 7
    small = np.ones((8, 32))
    for _ in range(30_000):
        small = np.maximum(small * 0.5, 0.1)
    square = np.full((128, 128), 1e-3)
    for _ in range(800):
        square @ square
    return time.perf_counter() - began


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    started = time.perf_counter()
    import contrast_lab
    import contrast_lab.cli
    from contrast_lab.config import load_config
    cfg = load_config(spec["config"])
    result = {"setup_s": time.perf_counter() - started, "module": contrast_lab.__file__}
    if spec["setup_only"]:
        result["probe_s"] = [speed_probe()]
        result["env"] = _environment()
        Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
        return

    workload = workloads.WORKLOADS[spec["workload"]]
    out = Path(spec["out"])
    tracer = tracing.Tracer(spec["run_id"]) if spec["trace"] else None
    if tracer is not None:
        tracer.install()
        result["unwrapped"] = tracer.unwrapped()
    probe_before = speed_probe()
    began = time.perf_counter()
    result["exit_code"], outputs = workloads.run(workload, cfg, spec["config"], out)
    result["wall_s"] = time.perf_counter() - began
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["probe_s"] = [probe_before, speed_probe()]
    if tracer is not None:
        tracer.uninstall()
        tracer.write(out.parent / f"spans-{spec['run_id']}.csv")
        result["layers"] = tracing.layer_metrics(tracer.spans, result["wall_s"])
    result["problems"] = workloads.check(workload.name, cfg, out, result["exit_code"], outputs)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
