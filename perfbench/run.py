"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload dashboard --seed 1 --seconds 20 --trace 0

``--trace 0`` boots ``repro serve`` from this checkout's ``src/``, drives
the workload over HTTP, relaunches the server three times on what the
traffic left (for the set-up time) and prints the end-to-end metrics.  ``--trace 1`` repeats the subprocess measurement once
for the server-side counters, then hosts the servers in this process with
every layer's entry point wrapped and prints the per-layer metrics.  Both
replay the sampled sessions in-process to check every answer.
Human-readable lines come first; the last line of stdout is the JSON
result.  An invalid run (a server died, the load generator saturated,
the open-loop backlog grew, too few samples for a percentile) prints no
result and exits with status 3; a checkout without ``src/repro`` exits
with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Variables that turn on the runtime lock checker; never benchmarked.
STRIPPED_ENV = ("REPRO_LOCK_CHECK", "REPRO_LOCK_CHECK_DUMP")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("dashboard", "brushing", "durable-cluster"))
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed: same seed, same command stream")
    parser.add_argument("--census-seed", type=int, default=0,
                        help="seed of the census every server generates")
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum: int, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {src / 'repro'}",
              file=sys.stderr)
        return 2
    for name in STRIPPED_ENV:
        os.environ.pop(name, None)
    # A shell that starts this in the background may ignore SIGINT, and the
    # servers, which stop on SIGINT, would inherit that: catch it here so
    # children start with the default.  SIGTERM unwinds like SIGINT, so the
    # servers are stopped and the run directory removed.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, _terminate)
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench.bench import Bench, InvalidRun

    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, report = Bench(args, ROOT, workdir).run()
    except InvalidRun as exc:
        print(f"perfbench: invalid run: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
