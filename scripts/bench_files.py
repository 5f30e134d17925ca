"""Write one BENCH_<workload>.json per benchmark workload.

    python3 scripts/bench_files.py --seed 1 --seconds 10 --out .

For each workload named in BENCHMARK.json it runs ``python3
perfbench/run.py --workload W --seed S --seconds T --trace 0`` from the
repository root and writes {"stamp": ..., "result": ...} to
BENCH_<W>.json under --out (the repository root by default): the stamp
is the JSON of run.py's ``stamp`` line (host, versions, load,
per-iteration times), the result the JSON of its last line (correctness,
failed operations and the end-to-end metrics).  A run that exits
non-zero raises CalledProcessError before its file is written.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, seconds: float) -> dict:
    """{stamp, result} of one run.py run of the workload."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    lines = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           check=True).stdout.splitlines()
    [stamp] = [line.split(" ", 1)[1] for line in lines
               if line.startswith("stamp ")]
    return {"stamp": json.loads(stamp), "result": json.loads(lines[-1])}


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    p.add_argument("--out", type=Path, default=ROOT)
    args = p.parse_args(argv)
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        blob = bench(workload, args.seed, args.seconds)
        path = args.out / f"BENCH_{workload}.json"
        path.write_text(json.dumps(blob, indent=2) + "\n")
        print(path)


if __name__ == "__main__":
    main()
