"""Fast self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Checks, on every workload at `--size tiny`:
- `--trace 0` and `--trace 1` exit 0 and end with one JSON line whose metric
  names and units are exactly BENCHMARK.json's end_to_end and per_layer lists,
  and every metric is also printed by name with its unit;
- a deliberately wrong reference makes the run report a failed operation
  (failed_ratio above 0), `correct` false and exit code 1;
- in a directory holding only BENCHMARK.json and the benchmark, the run exits
  with a nonzero code without printing a result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_work" / "selftest"


class SelfTestError(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list]:
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_metrics(lines: list, catalogue: list, what: str) -> dict:
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{what}: result keys {sorted(result)}")
    expect(result["attempted"] >= 1, f"{what}: attempted {result['attempted']}")
    want = {m["name"]: m["unit"] for m in catalogue}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    expect(got == want, f"{what}: metrics {got} != catalogue {want}")
    for name, unit in want.items():
        value = result["metrics"][name]["value"]
        expect(isinstance(value, (int, float)), f"{what}: {name} = {value!r}")
        printed = [line.split() for line in lines[:-1]]
        expect(any(len(p) == 4 and p[1] == name and p[3] == unit for p in printed),
               f"{what}: {name} not printed with unit {unit}")
    return result


def wrong_reference(path: Path, out: Path) -> None:
    ref = json.loads(path.read_text())
    if "rows" in ref["output"]:
        ref["output"]["rows"][0]["iterations"] += 1
    else:
        ref["output"]["equilibrium_count"] += 1
    out.write_text(json.dumps(ref))


def main() -> int:
    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        for w in catalogue["workloads"]:
            name = w["name"]
            ref = SCRATCH / f"{name}.json"
            rc, _ = bench("--workload", name, "--size", "tiny", "--record-reference", str(ref))
            expect(rc == 0, f"{name}: recording the reference exited {rc}")
            common = ["--workload", name, "--size", "tiny", "--seconds", "1",
                      "--reference", str(ref)]
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                rc, lines = bench(*common, "--trace", str(trace))
                expect(rc == 0, f"{name} trace {trace}: exit {rc}")
                result = check_metrics(lines, catalogue[key], f"{name} trace {trace}")
                expect(result["correct"] and result["failed"] == 0,
                       f"{name} trace {trace}: failed {result['failed']}")
            wrong_reference(ref, ref)
            rc, lines = bench(*common, "--trace", "0")
            result = json.loads(lines[-1])
            expect(rc == 1 and not result["correct"] and result["failed"] >= 1,
                   f"{name}: a wrong reference gave exit {rc}, failed {result['failed']}")
            print(f"ok {name}: metrics and units match the catalogue; wrong reference "
                  f"gives failed_ratio {result['failed'] / result['attempted']:.3f}")

        bare = SCRATCH / "bare"
        shutil.copytree(HERE, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        rc, lines = bench("--workload", "oracle-enum", "--seconds", "1", cwd=bare)
        expect(rc != 0 and not (lines and lines[-1].startswith("{")),
               f"without the package source: exit {rc}, last line {lines[-1:]}")
        print("ok without the package source the run fails and prints no result")
    except SelfTestError as exc:
        print(f"FAIL {exc}")
        return 1
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
