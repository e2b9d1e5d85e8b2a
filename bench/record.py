"""Run the benchmark on several seeds and summarize it against BENCHMARK.json.

    python3 bench/record.py --seeds 1-10 --out bench/baseline.json
    python3 bench/record.py --seeds 1-5 --workloads sweep-small    # quick spread check

For each workload this runs `bench/run.py --trace 0` once per seed with the
`run_seconds` of BENCHMARK.json, then reports each end-to-end metric's median,
quartiles and spread (interquartile distance over the median, from
`statistics.quantiles(values, n=4)`) next to the metric's bound.  With
`--trace-seed` it adds one `--trace 1` run per workload as the per-layer
profile.  The written file also records the environment: git commit, Python
and numpy versions, core count and the load average at start.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        first, last = (int(v) for v in text.split("-"))
        return list(range(first, last + 1))
    return [int(v) for v in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: no result (exit {proc.returncode})")
    result = json.loads(lines[-1])
    result["run_s"] = elapsed
    return result


def environment() -> dict:
    import numpy as np
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, cwd=ROOT, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"git_sha": sha, "python": sys.version.split()[0], "numpy": np.__version__,
            "nproc": os.cpu_count(), "load_average_at_start": list(os.getloadavg())}


def summarize(values: list, bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "within_third_of_bound": spread < bound / 3, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {"environment": environment(), "run_seconds": spec["run_seconds"],
              "seeds": seeds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        results = [run(workload, seed, spec["run_seconds"], 0) for seed in seeds]
        entry = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "run_s_max": max(r["run_s"] for r in results),
                 "end_to_end": {}}
        ok = ok and entry["correct"]
        print(f"{workload}: correct={entry['correct']} attempted={entry['attempted']} "
              f"failed={entry['failed']} slowest run {entry['run_s_max']:.1f} s")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            s = summarize(values, bound)
            s["unit"] = results[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = s
            flag = "ok" if s["within_third_of_bound"] or name == "setup_s" else "WIDE"
            print(f"  {name:<14} median {s['median']:>14.6g} {s['unit']:<4} "
                  f"spread {s['spread']:.4f} (bound {bound}) {flag}")
        if args.trace_seed is not None:
            traced = run(workload, args.trace_seed, spec["run_seconds"], 1)
            ok = ok and traced["correct"]
            entry["per_layer_seed"] = args.trace_seed
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
