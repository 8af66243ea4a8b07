"""contrast-lab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
./src.  Each run of a workload is a fresh interpreter (bench/child.py), one
at a time, with every BLAS thread count set to BLAS_THREADS.  With --trace 0
the runs are untraced and give the end-to-end metrics; with --trace 1 the
runs alternate traced and untraced, and give the per-layer metrics plus the
tracing overhead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Metric names and units come
from BENCHMARK.json; bench/README.md says what each one means.

A run fails if its process raises or prints a traceback, its exit code is
not the one its workload expects, its checks find a problem, its artifacts differ from the
first run's (same seed, so they must be byte-identical), or, when traced,
a wrapper is missing or a count differs from the first traced run's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "CONTRAST_LAB_THREADS")
SETUP_SAMPLES = 4   # setup-only processes, after one warm-up that fills bytecode caches
MIN_RUNS = 2        # so every invocation compares two runs' artifacts
MIN_TRACED_RUNS = 3  # traced, untraced, traced: overhead, and counts compared across two traced runs
HARD_LIMIT_S = 170  # an invocation must end within 180 s
# Times are reported at the machine speed where child.speed_probe() takes
# this long: a process's times are multiplied by REFERENCE_PROBE_S over the
# mean of its own probe times.  A shared 2-core Xeon VM switched between a
# fast and a slow state (probe about 0.18 s or 0.26 s) within seconds to
# minutes, and the quartile spread of raw wall_s medians over ten seeds
# reached 0.27-0.30.
REFERENCE_PROBE_S = 0.2
UNTIMED_FILES = ("timings.log",)  # wall-clock output, excluded from byte comparison


class Bench:
    def __init__(self, workload: str, seed: int, root: Path, work: Path, deadline: float):
        self.workload = WORKLOADS[workload]
        self.root, self.work, self.deadline = root, work, deadline
        # Bytecode caches are allowed whatever the caller's environment says,
        # so setup_s measures an import from compiled modules, as installed.
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env.update(dict.fromkeys(THREAD_VARS, BLAS_THREADS))
        self.env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
                        PYTHONNOUSERSITE="1", TMPDIR=str(work))
        self.config = work / "config.json"
        self.config.write_text(json.dumps({**self.workload.config, "seed": seed}), encoding="utf-8")
        self.reference_digests: dict[str, str] | None = None
        self.reference_counts: dict[str, int] | None = None

    def child(self, run_id: str, setup_only: bool = False, trace: bool = False) -> dict:
        """Run one child process; returns its result with a "problems" list."""
        run_dir = self.work / run_id
        run_dir.mkdir()
        spec = {"run_id": run_id, "workload": self.workload.name, "config": str(self.config),
                "out": str(run_dir / "out"), "result": str(run_dir / "result.json"),
                "setup_only": setup_only, "trace": trace}
        (run_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        began = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(run_dir / "spec.json")],
                                  cwd=run_dir, env=self.env, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - began))
        except subprocess.TimeoutExpired:
            return {"problems": [f"{run_id}: killed at the {HARD_LIMIT_S} s limit"],
                    "elapsed": time.monotonic() - began}
        elapsed = time.monotonic() - began
        result_path = run_dir / "result.json"
        result = json.loads(result_path.read_text(encoding="utf-8")) if result_path.is_file() else {}
        result["elapsed"] = elapsed
        problems = [f"{run_id}: {p}" for p in result.get("problems", [])]
        output = proc.stdout + proc.stderr
        if proc.returncode != 0 or not result_path.is_file():
            problems.append(f"{run_id}: child exited {proc.returncode}: {output.strip()[-2000:]}")
        elif "Traceback" in output or any(line.startswith("error:") for line in proc.stderr.splitlines()):
            problems.append(f"{run_id}: traceback or error line: {output.strip()[-2000:]}")
        if "module" in result and not result["module"].startswith(str(self.root / "src")):
            problems.append(f"{run_id}: contrast_lab imported from {result['module']}")
        if not setup_only and result_path.is_file():
            problems += self._check_run(run_id, run_dir / "out", result, trace)
        shutil.rmtree(run_dir)
        result["problems"] = problems
        return result

    def _check_run(self, run_id: str, out: Path, result: dict, trace: bool) -> list[str]:
        problems = []
        files = sorted(p for p in out.iterdir() if p.name not in UNTIMED_FILES)
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
        if self.reference_digests is None:
            self.reference_digests = digests
        elif digests != self.reference_digests:
            changed = sorted(set(digests.items()) ^ set(self.reference_digests.items()))
            problems.append(f"{run_id}: artifacts differ from the first run: "
                            f"{sorted({name for name, _ in changed})}")
        if trace:
            if result["unwrapped"]:
                problems.append(f"{run_id}: unwrapped bindings {result['unwrapped']}")
            layers = result["layers"]
            layers["cli.bytes_written"] = sum(p.stat().st_size for p in files
                                              if p.name in self.workload.artifacts)
            counts = {k: v for k, v in layers.items() if isinstance(v, int)}
            if self.reference_counts is None:
                self.reference_counts = counts
            elif counts != self.reference_counts:
                changed = sorted(k for k in counts if counts[k] != self.reference_counts.get(k))
                problems.append(f"{run_id}: counts differ from the first traced run: {changed}")
            spans = out.parent / f"spans-{run_id}.csv"
            if spans.is_file():
                shutil.copyfile(spans, self.work.parent / f"spans-{self.workload.name}.csv")
        return problems


def _scaled(result: dict, key: str) -> float:
    return result[key] * REFERENCE_PROBE_S / statistics.fmean(result["probe_s"])


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]!r} (n=1)" if values else "no samples"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {statistics.median(values)!r}, quartiles [{q1!r}, {q3!r}], n={len(values)}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "contrast_lab" / "__init__.py").is_file():
        print(f"error: no src/contrast_lab under {root}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, root, work, started + HARD_LIMIT_S)
        env = bench.child("warmup", setup_only=True)
        problems = list(env["problems"])
        setup = [bench.child(f"setup{i}", setup_only=True) for i in range(SETUP_SAMPLES)]
        problems += [p for r in setup for p in r["problems"]]

        kinds = ("traced", "plain") if args.trace else ("plain",)
        min_runs = MIN_TRACED_RUNS if args.trace else MIN_RUNS
        runs: list[tuple[str, dict]] = []
        while True:
            kind = kinds[len(runs) % len(kinds)]
            runs.append((kind, bench.child(f"run{len(runs) + 1}-{kind}", trace=kind == "traced")))
            longest = max(r["elapsed"] for _, r in runs)
            now = time.monotonic()
            if now + longest > bench.deadline or (len(runs) >= min_runs and now + longest > started + args.seconds):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(bool(r["problems"]) for _, r in runs)
    problems += [p for _, r in runs for p in r["problems"]]
    setup_s = [_scaled(r, "setup_s") for r in setup + [r for _, r in runs] if "probe_s" in r]
    plain = [r for kind, r in runs if kind == "plain" and "wall_s" in r]
    traced = [r for kind, r in runs if kind == "traced" and "layers" in r]
    walls = [_scaled(r, "wall_s") for r in plain]

    print("env: " + json.dumps(env.get("env", {}), sort_keys=True))
    for i, (kind, r) in enumerate(runs, 1):
        print(f"run {i} {kind}: raw wall_s {r.get('wall_s')!r} setup_s {r.get('setup_s')!r} "
              f"probe_s {r.get('probe_s')!r} peak_rss_mb {r.get('peak_rss_mb')!r} "
              f"{'FAILED' if r['problems'] else 'ok'}")
    print(f"raw wall_s: {_spread([r['wall_s'] for r in plain])}")
    print(f"wall_s: {_spread(walls)}")
    print(f"setup_s: {_spread(setup_s)}")
    print(f"failed_ops: {failed}/{len(runs)} = {failed / len(runs)!r}")
    for problem in problems:
        print(f"problem: {problem}")

    if args.trace:
        # counts are equal across traced runs (checked above), so they stay whole numbers
        metrics = {k: (statistics.median_low if isinstance(v, int) else statistics.median)(
                       [r["layers"][k] for r in traced])
                   for k, v in traced[0]["layers"].items()} if traced else {}
        if traced and walls:
            traced_walls = [_scaled(r, "wall_s") for r in traced]
            metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
            print(f"traced wall_s: {_spread(traced_walls)}")
    else:
        metrics = {}
        if walls:
            metrics = {"wall_s": statistics.median(walls),
                       "setup_s": statistics.median(setup_s),
                       "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain)}
    if metrics and set(metrics) != set(units):
        problems.append(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
        print(f"problem: {problems[-1]}")
    print(json.dumps({
        "correct": not problems and bool(metrics),
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
