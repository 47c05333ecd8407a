"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--seconds N]

Runs ``run.py`` once per (seed, workload), one at a time, with the workloads
interleaved within each seed (and their order rotated from seed to seed) so
that drift in the machine's load falls on every workload alike.  For each
end-to-end metric it prints the median and the quartile spread
``(Q3 - Q1) / median`` with ``statistics.quantiles(values, n=4)``, next to the
metric's bound in BENCHMARK.json.  The raw results go to
``.perfbench/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartile_spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for k, seed in enumerate(parse_seeds(args.seeds)):
        for workload in workloads[k % len(workloads):] + workloads[: k % len(workloads)]:
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            result["seed"] = seed
            results[workload].append(result)
            values = {m: round(v["value"], 4) for m, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} load={os.getloadavg()[0]:.2f} "
                  f"{values}", flush=True)
    (ROOT / ".perfbench" / "spread.json").write_text(json.dumps(results, indent=1) + "\n")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"\n{'workload':22} {'metric':12} {'median':>10} {'spread':>8} {'bound':>6}")
    for workload, runs in results.items():
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            spread = quartile_spread(values) if len(values) > 1 else 0.0
            flag = "" if spread < bound / 3 else "  (over bound/3)"
            print(f"{workload:22} {metric:12} {statistics.median(values):10.4f} "
                  f"{spread:8.4f} {bound:6.2f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
