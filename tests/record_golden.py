"""Write the golden files of tests/data with the command line of this checkout.

    python tests/record_golden.py [--force] [NAME ...]

Replays every recorded entry, or those that NAME selects (an entry's key or
one of the files it writes): `test_cli.RECORDED_SWEEPS` (sweeps as CSV, with
their summaries, and as JSON; paired sweeps and runs as CSV),
`test_oracle.RECORDED` and `test_cli.RECORDED_PREDICT`.  A sweep's JSON is
written without `wall_clock_seconds`, as the tests compare it.  A file whose
text would change is named and nothing is written, with exit code 1, unless
--force is given; a re-record is its own commit.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]   # this checkout's package and tests

from simplexgame.cli import main  # noqa: E402
from test_cli import RECORDED_PREDICT, RECORDED_SWEEPS  # noqa: E402
from test_oracle import RECORDED  # noqa: E402

DATA = HERE / "data"


def _run(argv: list) -> None:
    """Run the command line, its stdout discarded; SystemExit if it fails."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code:
        raise SystemExit(f"simplexgame {' '.join(argv)} exited {code}")


def _files(key: str) -> list:
    """The names of the files that the entry `key` writes."""
    if key in RECORDED or key in RECORDED_PREDICT:
        return [key]
    if RECORDED_SWEEPS[key][0] != "sweep":
        return [f"{key}.csv"]
    return [f"{key}.csv", f"{key}_summary.csv", f"{key}.json"]


def _replay(key: str, work: Path) -> None:
    """Write the entry `key`'s files into `work`."""
    for command, flags in (("oracle", RECORDED), ("predict", RECORDED_PREDICT)):
        if key in flags:
            return _run([command, *flags[key].split(), "--out", str(work / key)])
    command, text, seed = RECORDED_SWEEPS[key]
    config = work / f"{key}.cfg"
    config.write_text(text)
    argv = [command, "--config", str(config), "--seed", str(seed), "--out"]
    _run(argv + [str(work / f"{key}.csv")])
    if command == "sweep":
        out = work / f"{key}.json"
        _run(argv + [str(out), "--format", "json"])
        payload = json.loads(out.read_text())
        payload["metadata"].pop("wall_clock_seconds")
        out.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def record(names: list, force: bool = False, data: Path = DATA) -> int:
    """Replay the entries that `names` select (all when empty) and write
    their files into `data`; the exit code."""
    keys = [*RECORDED_SWEEPS, *RECORDED, *RECORDED_PREDICT]
    known = set(keys).union(*map(_files, keys))
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"error: no recorded entry is or writes {', '.join(unknown)}", file=sys.stderr)
        return 1
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for key in keys:
            if not names or key in names or set(_files(key)) & set(names):
                _replay(key, Path(tmp))
                outputs.update((name, (Path(tmp) / name).read_text()) for name in _files(key))
    changed = [name for name, text in outputs.items()
               if (data / name).exists() and (data / name).read_text() != text]
    if changed and not force:
        for name in changed:
            print(f"error: {data / name} would change; rerun with --force to overwrite it",
                  file=sys.stderr)
        return 1
    for name, text in outputs.items():
        if name in changed or not (data / name).exists():
            (data / name).write_text(text)
            print(f"wrote {data / name}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--force", action="store_true",
                        help="overwrite files whose text would change")
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="an entry's key or a file it writes (default: every entry)")
    args = parser.parse_args()
    sys.exit(record(args.names, args.force))
