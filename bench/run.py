"""Benchmark of the `simplexgame` command on generated inputs.

    python3 bench/run.py --workload sweep-small --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

Each run drives `simplexgame.cli.main` inside this process on inputs made
from `--seed` (the sweep config's `seed`, the oracle's `--seed`).  Sweeps use
the package's own process pool, so all load comes from this one process and
its pool workers.  A run:

1. measures set-up: a fresh interpreter that imports `simplexgame.cli` and
   parses the config, several times, reporting the median;
2. with `--trace 0`, repeats the workload for about `--seconds` (at least
   three invocations), the first at `--seed` and the rest at seeds derived
   from it, and reports medians;
   with `--trace 1`, runs the workload at `--seed` three times: with the
   default pool, with SIMPLEXGAME_WORKERS=1, and with SIMPLEXGAME_WORKERS=1
   under the span tracer of `tracing.py`, and reports per-layer numbers.

Every invocation's output is checked (finite, non-negative steady_R;
iterations <= t_max; summary means equal the row means; predicted_R equal to
`analytics.predicted_anarchy`; oracle maximizers all equilibria).  Output at
the reference seed (7, the default) is also compared with the reference
recorded in `bench/reference/`: sweep rows with `seed` and `iterations` exact
and `steady_R` within 1e-9; oracle counts exact and floats within 1e-9.  A
nonzero exit or a failed check counts as a failed operation.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Exit code 0 when every operation passed, 1 when one failed, 2 when the
package source is missing.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PACKAGE = "simplexgame"
WORKERS_ENV = "SIMPLEXGAME_WORKERS"

REFERENCE_SEED = 7
REFERENCE_TOL = 1e-9
MEAN_RTOL = 1e-12
MIN_REPS = 3
OVERRUN = 1.1   # start another invocation only if it should end by 1.1 x --seconds
SETUP_REPS = 5

# Workload inputs.  "full" is the benchmark; "tiny" keeps the same shapes of
# work at toy sizes for the self-test.  See BENCHMARK.json for why each exists.
WORKLOADS = {
    "full": {
        "sweep-small": {"command": "sweep", "players": 50, "nodes": 5, "strategies": 2,
                        "strengths": "random", "lambda_grid": [0.1, 0.3, 1.0, 3.0],
                        "t_max": 20000, "realizations": 4},
        "sweep-large": {"command": "sweep", "players": 2000, "nodes": 5, "strategies": 2,
                        "strengths": "uniform", "lambda_grid": [1.0],
                        "t_max": 1000, "realizations": 2},
        "oracle-enum": {"command": "oracle", "players": 15, "nodes": 3, "strategies": 2,
                        "signals": 3, "strengths": "uniform"},
    },
    "tiny": {
        "sweep-small": {"command": "sweep", "players": 12, "nodes": 5, "strategies": 2,
                        "strengths": "random", "lambda_grid": [0.3, 3.0],
                        "t_max": 400, "realizations": 2},
        "sweep-large": {"command": "sweep", "players": 60, "nodes": 5, "strategies": 2,
                        "strengths": "uniform", "lambda_grid": [1.0],
                        "t_max": 400, "realizations": 2},
        "oracle-enum": {"command": "oracle", "players": 6, "nodes": 3, "strategies": 2,
                        "signals": 3, "strengths": "uniform"},
    },
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
}

# Spanned layer boundaries, as (module, attribute looked up by callers).
TRACED = [
    ("cli", "main"),
    ("harness", "experiment_from_file"),
    ("harness", "sweep"),
    ("harness", "measure_steady_state"),
    ("harness", "export_sweep"),
    ("learning", "run"),
    ("learning", "iterate"),
    ("learning", "detect_convergence"),
    ("game", "expected_frustration"),
    ("game", "draw_strategy_matrix"),
    ("geometry", "build_simplex"),
    ("geometry", "StrengthDistribution.random_proper"),
    ("oracle", "oracle_report"),
    ("oracle", "enumerate_equilibria"),
    ("oracle", "maximizer_equilibrium_report"),
    ("analytics", "predicted_anarchy"),
]
# One call per enumerated profile per pass: counted, not spanned.
COUNTED = [("oracle", "_ProfileEvaluator.evaluate")]

CALLS_AND_SELF = [
    "learning.detect_convergence", "game.expected_frustration",
    "game.draw_strategy_matrix", "geometry.build_simplex", "geometry.random_proper",
    "oracle.oracle_report", "oracle.enumerate_equilibria",
    "oracle.maximizer_equilibrium_report", "analytics.predicted_anarchy",
]
SELF_ONLY = ["harness.sweep", "harness.measure_steady_state", "harness.export_sweep",
             "harness.experiment_from_file", "cli.main"]

SETUP_SNIPPET = """
import sys, time
start = time.perf_counter()
import simplexgame.cli
imported = time.perf_counter()
if len(sys.argv) > 1:
    from simplexgame import harness
    harness.experiment_from_file(sys.argv[1])
print(imported - start)
"""


def rep_seed(seed: int, rep: int) -> int:
    """Input seed of the rep-th timed invocation: the run seed first, then derived."""
    if rep == 0:
        return seed
    return int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child (ru_maxrss, KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def pool_workers(spec: dict) -> int:
    """Workers the package's pool starts for this workload (1 when there is no pool)."""
    if spec["command"] != "sweep":
        return 1
    tasks = len(spec["lambda_grid"]) * spec["realizations"]
    return max(1, min(os.cpu_count() or 1, tasks))


@dataclass
class Invocation:
    seed: int
    wall: float
    cpu: float
    out: Path
    doc: dict | None
    problems: list


class Bench:
    """One workload's inputs, invocations, output checks and failure counts."""

    def __init__(self, name: str, size: str, work: Path, reference: Path | None):
        from simplexgame import analytics, cli, harness
        self.cli, self.analytics, self.harness = cli, analytics, harness
        self.name = name
        self.size = size
        self.spec = WORKLOADS[size][name]
        self.work = work
        self.reference_path = reference or HERE / "reference" / f"{size}-{name}.json"
        self.setup_reps = SETUP_REPS if size == "full" else 2
        self.attempted = 0
        self.failed = 0

    # -- inputs -------------------------------------------------------------

    def config_text(self, seed: int) -> str:
        s = self.spec
        grid = ",".join(repr(float(v)) for v in s["lambda_grid"])
        return (f"players = {s['players']}\nnodes = {s['nodes']}\n"
                f"strategies = {s['strategies']}\nstrengths = {s['strengths']}\n"
                f"lambda_grid = {grid}\nt_max = {s['t_max']}\n"
                f"realizations = {s['realizations']}\nseed = {seed}\n")

    def argv(self, seed: int, tag: str) -> tuple[list, Path]:
        s = self.spec
        out = self.work / f"{tag}.json"
        if s["command"] == "sweep":
            cfg = self.work / f"{tag}.cfg"
            cfg.write_text(self.config_text(seed))
            return ["sweep", "--config", str(cfg), "--out", str(out), "--format", "json"], out
        return ["oracle", "--N", str(s["players"]), "--S", str(s["strategies"]),
                "--M", str(s["signals"]), "--B", str(s["nodes"]), "--seed", str(seed),
                "--strengths", s["strengths"], "--out", str(out)], out

    def work_units(self, doc: dict) -> int:
        """Rounds played (sweeps) or profiles in one enumeration pass (oracle)."""
        if self.spec["command"] == "sweep":
            return sum(r["iterations"] for r in doc["rows"])
        return self.spec["strategies"] ** self.spec["players"]

    # -- operations ---------------------------------------------------------

    def record(self, problems: list, what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {self.name} {what}: {p}", file=sys.stderr)

    def invoke(self, seed: int, tag: str, workers: int | None = None,
               tracer=None) -> Invocation:
        """Run the command once in this process; time it and check its output.

        Output at the reference seed is also compared with the reference.
        """
        argv, out = self.argv(seed, tag)
        saved = os.environ.pop(WORKERS_ENV, None)
        if workers is not None:
            os.environ[WORKERS_ENV] = str(workers)
        rc = None
        try:
            with tracer or contextlib.nullcontext():
                cpu0 = cpu_seconds()
                start = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        rc = self.cli.main(argv)
                except Exception:
                    traceback.print_exc()
                wall = time.perf_counter() - start
                cpu = cpu_seconds() - cpu0
        finally:
            os.environ.pop(WORKERS_ENV, None)
            if saved is not None:
                os.environ[WORKERS_ENV] = saved
        problems, doc = [], None
        if rc != 0:
            problems.append(f"exit code {rc}")
        else:
            try:
                doc = json.loads(out.read_text())
                problems += self.check(doc)
                if seed == REFERENCE_SEED and self.reference_path is not None:
                    problems += self.compare_reference(doc)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"unreadable output: {exc!r}")
                doc = None
        self.record(problems, f"{tag} seed={seed}")
        return Invocation(seed, wall, cpu, out, doc, problems)

    def measure_setup(self, seed: int) -> tuple[list, list]:
        """Fresh-interpreter import plus config parse: (wall seconds, import seconds)."""
        args = []
        if self.spec["command"] == "sweep":
            cfg = self.work / "setup.cfg"
            cfg.write_text(self.config_text(seed))
            args = [str(cfg)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        walls, imports = [], []
        for i in range(self.setup_reps):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, *args],
                                  env=env, cwd=self.work, capture_output=True,
                                  text=True, timeout=120)
            wall = time.perf_counter() - start
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
            else:
                walls.append(wall)
                imports.append(float(proc.stdout.split()[-1]))
            self.record(problems, f"setup {i}")
        return walls, imports

    # -- output checks ------------------------------------------------------

    def check(self, doc: dict) -> list:
        if self.spec["command"] == "sweep":
            return self.check_sweep(doc)
        return self.check_oracle(doc)

    def check_sweep(self, doc: dict) -> list:
        s = self.spec
        problems = []
        rows, summary = doc["rows"], doc["summary"]
        if len(rows) != len(s["lambda_grid"]) * s["realizations"]:
            problems.append(f"{len(rows)} rows for {len(s['lambda_grid'])} grid points "
                            f"x {s['realizations']} realizations")
        for r in rows:
            steady, its = r["steady_R"], r["iterations"]
            if not (isinstance(steady, (int, float)) and math.isfinite(steady)
                    and steady >= 0.0):
                problems.append(f"row {r['lambda_index']}/{r['realization']}: "
                                f"steady_R {steady!r} not finite and >= 0")
            if not (isinstance(its, int) and 1 <= its <= s["t_max"]):
                problems.append(f"row {r['lambda_index']}/{r['realization']}: "
                                f"iterations {its!r} outside [1, {s['t_max']}]")
        if len(summary) != len(s["lambda_grid"]):
            problems.append(f"{len(summary)} summary rows for {len(s['lambda_grid'])} "
                            "grid points")
        for li, point in enumerate(summary):
            values = [r["steady_R"] for r in rows if r["lambda_index"] == li]
            mean = statistics.fmean(values) if values else math.nan
            if not abs(point["mean_R"] - mean) <= MEAN_RTOL * max(1.0, abs(mean)):
                problems.append(f"summary {li}: mean_R {point['mean_R']!r} but rows "
                                f"average {mean!r}")
            expected = self.analytics.predicted_anarchy(point["lambda"], s["strategies"],
                                                        s["nodes"])
            if point["predicted_R"] != expected:
                problems.append(f"summary {li}: predicted_R {point['predicted_R']!r} "
                                f"!= predicted_anarchy {expected!r}")
        return problems

    def check_oracle(self, doc: dict) -> list:
        s = self.spec
        problems = []
        if doc["maximizers_all_equilibria"] is not True:
            problems.append("maximizers_all_equilibria is "
                            f"{doc['maximizers_all_equilibria']!r}")
        for key, want in (("players", s["players"]), ("nodes", s["nodes"]),
                          ("signals", s["signals"]),
                          ("strategies_per_player", s["strategies"])):
            if doc[key] != want:
                problems.append(f"{key} {doc[key]!r} != {want}")
        if not (isinstance(doc["equilibrium_count"], int) and doc["equilibrium_count"] >= 1):
            problems.append(f"equilibrium_count {doc['equilibrium_count']!r}; a uniform-"
                            "strength game is a potential game and has one")
        return problems

    # -- reference ----------------------------------------------------------

    def reference_payload(self, doc: dict) -> dict:
        if self.spec["command"] == "sweep":
            output = {"rows": [{k: r[k] for k in ("lambda_index", "realization", "seed",
                                                  "iterations", "steady_R")}
                               for r in doc["rows"]]}
        else:
            output = dict(doc)
        return {"workload": self.name, "size": self.size, "seed": REFERENCE_SEED,
                "spec": self.spec, "tolerance": REFERENCE_TOL, "output": output}

    def compare_reference(self, doc: dict) -> list:
        try:
            ref = json.loads(self.reference_path.read_text())
        except (OSError, ValueError) as exc:
            return [f"cannot read reference {self.reference_path}: {exc}"]
        if ref.get("spec") != self.spec or ref.get("seed") != REFERENCE_SEED:
            return [f"reference {self.reference_path} was recorded for other inputs"]
        want = ref["output"]
        got = self.reference_payload(doc)["output"]
        if self.spec["command"] == "sweep":
            return self._compare_rows(want["rows"], got["rows"])
        return self._compare_fields(want, got)

    @staticmethod
    def _compare_rows(want: list, got: list) -> list:
        problems = []
        index = {(r["lambda_index"], r["realization"]): r for r in got}
        for w in want:
            key = (w["lambda_index"], w["realization"])
            g = index.get(key)
            if g is None:
                problems.append(f"row {key} missing")
                continue
            for field in ("seed", "iterations"):
                if g[field] != w[field]:
                    problems.append(f"row {key}: {field} {g[field]!r} != reference "
                                    f"{w[field]!r}")
            if not abs(g["steady_R"] - w["steady_R"]) <= REFERENCE_TOL:
                problems.append(f"row {key}: steady_R {g['steady_R']!r} differs from "
                                f"reference {w['steady_R']!r} by more than {REFERENCE_TOL}")
        if len(got) != len(want):
            problems.append(f"{len(got)} rows, reference has {len(want)}")
        return problems

    @staticmethod
    def _compare_fields(want: dict, got: dict) -> list:
        problems = []
        for key, w in want.items():
            g = got.get(key)
            if isinstance(w, float) and isinstance(g, (int, float)):
                ok = abs(g - w) <= REFERENCE_TOL
            else:
                ok = g == w
            if not ok:
                problems.append(f"{key} {g!r} != reference {w!r}")
        return problems

# ---------------------------------------------------------------------------
# runs

def timed_run(bench: Bench, seed: int, seconds: float) -> tuple[dict, dict]:
    """Repeat the workload for `seconds`; (end-to-end metrics, extra printed figures)."""
    setup_walls, _ = bench.measure_setup(seed)
    done = []
    start = time.perf_counter()
    while len(done) < MIN_REPS or (
            time.perf_counter() - start + statistics.median(i.wall for i in done)
            <= seconds * OVERRUN):
        inv = bench.invoke(rep_seed(seed, len(done)), f"rep{len(done)}")
        done.append(inv)
        print(f"# rep{len(done) - 1} seed={inv.seed} wall_s={inv.wall:.6f} "
              f"cpu_s={inv.cpu:.6f}{' FAILED' if inv.problems else ''}")
    good = [inv for inv in done if not inv.problems]
    walls = [inv.wall for inv in good]
    rates = [bench.work_units(inv.doc) / inv.wall for inv in good]
    metrics = {
        "setup_s": median_or_nan(setup_walls),
        "wall_s": median_or_nan(walls),
        "cpu_s": median_or_nan([inv.cpu for inv in good]),
        "peak_rss_mb": peak_rss_mb(),
        "work_per_s": median_or_nan(rates),
    }
    extra = {"invocations": (len(done), "count"),
             "failed_ratio": (bench.failed / bench.attempted, "ratio")}
    if bench.spec["command"] == "sweep":
        tasks = len(bench.spec["lambda_grid"]) * bench.spec["realizations"]
        extra["realizations_per_s"] = (median_or_nan([tasks / w for w in walls]), "1/s")
        extra["rounds_per_s"] = (metrics["work_per_s"], "1/s")
    else:
        extra["oracle_profiles_per_s"] = (metrics["work_per_s"], "1/s")
    return metrics, extra


def traced_run(bench: Bench, seed: int) -> tuple[dict, list]:
    """Pool, serial and traced serial invocations at `seed`; per-layer metrics."""
    from tracing import Tracer

    _, imports = bench.measure_setup(seed)
    spec = bench.spec
    pool = bench.invoke(seed, "pool")
    serial = bench.invoke(seed, "serial", workers=1)
    tables = []
    tracer = Tracer(PACKAGE, TRACED, COUNTED, on_result={
        "game.draw_strategy_matrix":
            lambda c: tables.append(getattr(getattr(c, "entries", None), "nbytes", 0))})
    traced = bench.invoke(seed, "traced", workers=1, tracer=tracer)
    for name in tracer.missing:
        print(f"warning: {PACKAGE}.{name} not found; its metrics read 0", file=sys.stderr)
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{bench.name}-seed{seed}.jsonl"
    tracer.write(spans_path)

    stats = tracer.layer_stats()
    empty = {"calls": 0, "self_s": 0.0, "durations": []}

    def layer(name):
        return stats.get(name, empty)

    m = {}
    iterate = layer("learning.iterate")
    m["learning.iterate.calls"] = (iterate["calls"], "count")
    m["learning.iterate.self_s"] = (iterate["self_s"], "s")
    m["learning.iterate.us_p50"] = (percentile(iterate["durations"], 50) * 1e6, "us")
    m["learning.iterate.us_p99"] = (percentile(iterate["durations"], 99) * 1e6, "us")
    run = layer("learning.run")
    m["learning.run.self_s"] = (run["self_s"], "s")
    m["learning.run.s_p50"] = (percentile(run["durations"], 50), "s")
    m["learning.run.s_max"] = (max(run["durations"], default=0.0), "s")
    for name in CALLS_AND_SELF:
        m[f"{name}.calls"] = (layer(name)["calls"], "count")
        m[f"{name}.self_s"] = (layer(name)["self_s"], "s")
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = (layer(name)["self_s"], "s")

    if spec["command"] == "sweep":
        signals = max(bench.harness.signals_for(lam, spec["players"])
                      for lam in spec["lambda_grid"])
        cache = spec["players"] * spec["strategies"] * signals * (spec["nodes"] - 1) * 8
        rows = traced.doc["rows"] if traced.doc else []
        purity = sum(r["iterations"] < spec["t_max"] for r in rows) / max(1, len(rows))
        serial_work = layer("harness.sweep")["durations"]
        efficiency = float(sum(serial_work)) / (pool_workers(spec) * pool.wall)
    else:
        cache, purity, efficiency = 0, 0.0, 0.0
    m["learning.vertex_cache_bytes"] = (cache, "bytes")
    m["game.table_bytes"] = (max(tables, default=0), "bytes")
    m["harness.export_bytes"] = (traced.out.stat().st_size if traced.out.exists() else 0,
                                 "bytes")
    m["harness.parallel_efficiency"] = (efficiency, "ratio")
    m["harness.purity_stop_share"] = (purity, "ratio")
    m["oracle.profile_evaluations"] = (tracer.counts["oracle.evaluate"], "count")
    m["cli.import_s"] = (median_or_nan(imports), "s")
    covered = tracer.root_seconds()
    m["trace.wall_s"] = (traced.wall, "s")
    m["trace.serial_wall_s"] = (serial.wall, "s")
    m["trace.overhead_s"] = (traced.wall - serial.wall, "s")
    m["trace.uncovered_s"] = (traced.wall - covered, "s")
    m["trace.spans"] = (len(tracer.spans), "count")

    self_total = sum(v["self_s"] for v in stats.values())
    notes = [f"spans written to {spans_path.relative_to(ROOT)} ({len(tracer.spans)} spans)",
             f"self times {self_total:.6f} s + uncovered {traced.wall - covered:.6f} s "
             f"= traced wall {traced.wall:.6f} s",
             f"untraced wall: pool {pool.wall:.6f} s, serial {serial.wall:.6f} s"]
    return m, notes


def median_or_nan(values) -> float:
    return float(statistics.median(values)) if values else math.nan


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def environment() -> str:
    load = " ".join(f"{v:.2f}" for v in os.getloadavg())
    return (f"python {sys.version.split()[0]}, numpy {np.__version__}, "
            f"nproc {os.cpu_count()}, load average at start {load}")


def print_metric(workload: str, name: str, value, unit: str) -> None:
    print(f"{workload:<12} {name:<44} {value:>16.6f} {unit}")


def run_one(args) -> int:
    if not (SRC / PACKAGE / "cli.py").is_file():
        print(f"error: package source {SRC / PACKAGE} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"size={args.size}; {environment()}")
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args.workload, args.size, work, args.reference)
        if args.record_reference:
            bench.reference_path = None
            inv = bench.invoke(REFERENCE_SEED, "reference")
            if inv.problems:
                return 1
            args.record_reference.write_text(
                json.dumps(bench.reference_payload(inv.doc), indent=1, sort_keys=True)
                + "\n")
            print(f"wrote reference {args.record_reference}")
            return 0
        if args.trace:
            measured, notes = traced_run(bench, args.seed)
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in measured.items()}
            for line in notes:
                print(f"# {line}")
        else:
            e2e, extra = timed_run(bench, args.seed, args.seconds)
            metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                       for name, v in e2e.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, entry in metrics.items():
        print_metric(args.workload, name, entry["value"], entry["unit"])
    for name, (value, unit) in ({} if args.trace else extra).items():
        print_metric(args.workload, name, value, unit)
    correct = bench.failed == 0
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process); one combined line."""
    attempted = failed = 0
    metrics = {}
    ok = True
    for name in WORKLOADS[args.size]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"error: workload {name} printed no result (exit {proc.returncode})",
                  file=sys.stderr)
            return 2
        ok = ok and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS["full"], "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(WORKLOADS), default="full",
                        help="tiny runs the same workloads at toy sizes (self-test)")
    parser.add_argument("--reference", type=Path, default=None,
                        help="reference output for the reference seed "
                             "(default bench/reference/<size>-<workload>.json)")
    parser.add_argument("--record-reference", type=Path, default=None,
                        help="run once at the reference seed and write its reference")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
