"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --seeds 0-9 [--workloads default-run,...]
        [--seconds 10] [--trace 0] [--out perfbench/work/repeat.json]

Runs are sequential, one process each. For every workload and metric it
prints the median, the quartiles (statistics.quantiles, n=4) and the spread,
(q3 - q1) / median, and writes all values plus the environment to --out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("default-run", "dense-detect", "ragged-online")


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out", default=str(HERE / "work" / "repeat.json"))
    args = parser.parse_args(argv)

    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            env = json.loads(proc.stdout.split("# environment ", 1)[1].splitlines()[0])
            runs.append({"seed": seed, **line})
            print(f"{workload} seed {seed}: correct={line['correct']} "
                  f"failed={line['failed']}/{line['attempted']}", flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / median if median else 0.0
            summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": median,
                             "q1": q1, "q3": q3, "spread": spread, "values": values}
            print(f"  {name:34s} median {median:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} "
                  f"spread {spread:7.4f}")
        report[workload] = {"environment": env, "runs": len(runs),
                            "all_correct": all(r["correct"] for r in runs), "metrics": summary}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
