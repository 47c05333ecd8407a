"""Benchmark of ``heffsolve solve``, measured from outside the program.

    python3 perfbench/run.py --workload exact-direct-n8 --seed 1 --seconds 35 --trace 0

One closed-loop client runs one solve at a time as a child process, on a
``.ferm`` input generated from the workload seed (see ``workloads.py``).
Each iteration times a fresh interpreter importing ``heffsolve.cli``
(``setup_s``; skipped with ``--trace 1``), then one plain solve (``solve_s``
from spawn to exit, ``peak_rss_mb`` from ``os.wait4``), and with
``--trace 1`` also one traced solve (``spans.py``).  Both times are wall
times rescaled by the speed probe that runs beside each child (see
``launcher.py``); the raw wall times are reported with ``--trace 1``.  Iterations continue
while the next one would end nearer to ``--seconds`` than the last one did;
at least two run.  Every bundle is checked (``checks.py``); a solve that
exits non-zero or fails a check counts as failed.  The last line of standard
output is the JSON result: end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``.  Spans, logs, the first bundle and
``result.json`` stay in ``.perfbench/<workload>/`` until the next run of that
workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Pinned before numpy loads here and in every child: one BLAS thread per
# process, so the single solve in flight is the only load the benchmark adds.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

MIN_ITERATIONS = 2
# Children still running this long after start are killed, so a run ends within 180 s.
RUN_LIMIT_S = 170.0


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("HEFFSOLVE_")}
    env.update(THREAD_PINS, PYTHONPATH=str(SRC))
    return env


class Launcher:
    """The small process that starts every child (see launcher.py)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], log_path: Path, limit_s: float) -> dict:
        job = {"argv": argv, "log": str(log_path), "limit_s": limit_s}
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        return json.loads(line)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.proc.stdin.close()
        else:
            self.proc.terminate()
        self.proc.wait()
        self.proc.stdout.close()


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "loadavg": os.getloadavg(),
    }


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))


class Run:
    """One benchmark invocation on one workload and seed."""

    def __init__(self, launcher: Launcher, workload, seed: int, work: Path, started: float):
        from checks import Reference
        from workloads import ferm_text

        self.launcher = launcher
        self.workload = workload
        self.work = work
        self.started = started
        self.input = work / "input.ferm"
        text = ferm_text(workload, seed)
        self.input.write_text(text, encoding="utf-8")
        self.reference = Reference.from_ferm(text, workload.particles)
        self.problems: list[str] = []
        self.setup: list[float] = []
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.digest: dict[str, str] | None = None
        self.report = None
        self.bundle_bytes = 0

    def _limit(self) -> float:
        return max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.started))

    def probe_setup(self, timed: bool = True) -> None:
        argv = [sys.executable, "-c", "import heffsolve.cli"]
        probe = self.launcher.run(argv, self.work / "setup.log", self._limit())
        if probe["code"] != 0:
            self.problems.append(f"importing heffsolve.cli exited {probe['code']}")
        elif timed:
            self.setup.append(probe["scaled_s"])

    def solve(self, traced: bool) -> None:
        from checks import bundle_bytes, bundle_digest, check_bundle
        from spans import layer_metrics

        index = len(self.untraced) + len(self.traced)
        out = self.work / f"bundle-{index:03d}"
        argv = [sys.executable, "-m", "heffsolve.cli", "solve", str(self.input),
                *self.workload.flags, "--out", str(out)]
        spans_path = self.work / f"spans-{index:03d}.json"
        if traced:
            argv = [sys.executable, str(HERE / "spans.py"), "--out", str(spans_path),
                    "--run-id", str(index), "--", *argv[3:]]
        record = self.launcher.run(argv, self.work / f"solve-{index:03d}.log", self._limit())
        record.update(index=index, problems=[])
        (self.traced if traced else self.untraced).append(record)
        if record["code"] != 0:
            record["problems"].append(f"exit code {record['code']}")
            return
        if traced:
            record["layers"] = layer_metrics(json.loads(spans_path.read_text(encoding="utf-8")))
        try:
            digest = bundle_digest(out)
        except FileNotFoundError as exc:
            record["problems"].append(str(exc))
            return
        first = self.digest is None
        if first:
            self.digest = digest
            self.report = check_bundle(out, self.reference, self.workload.backend)
            self.bundle_bytes = bundle_bytes(out)
        elif digest != self.digest:
            changed = sorted(k for k in digest if digest[k] != self.digest[k])
            record["problems"].append(f"bundle differs from the first one in {', '.join(changed)}")
        # a byte-identical bundle fails or passes the content checks with the first one
        record["problems"] += self.report.problems
        if not first:
            shutil.rmtree(out)

    @property
    def solves(self) -> list[dict]:
        return self.untraced + self.traced

    @property
    def failed(self) -> int:
        return sum(1 for r in self.solves if r["problems"])

    def end_to_end(self) -> dict[str, float]:
        return {
            "solve_s": statistics.median(r["scaled_s"] for r in self.untraced),
            "setup_s": statistics.median(self.setup) if self.setup else 0.0,
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in self.untraced),
        }

    def per_layer(self) -> dict[str, float]:
        from spans import COUNTERS, SPAN_METRICS

        layers = [r["layers"] for r in self.traced if "layers" in r]
        out = {name: 0.0 for name in (*SPAN_METRICS, *COUNTERS)}
        if layers:
            out = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        if self.report is not None:
            out.update(self.report.values)
        traced_s = statistics.median(r["scaled_s"] for r in self.traced)
        out.update({
            "cli.bundle_bytes": self.bundle_bytes,
            "trace.solve_s": traced_s,
            "trace.overhead_s": traced_s - statistics.median(r["scaled_s"] for r in self.untraced),
            "solve_wall_s": statistics.median(r["wall_s"] for r in self.untraced),
            "probe.burst_ms": statistics.median(r["probe_ms"] for r in self.solves),
            "failed_share": self.failed / len(self.solves),
            "solve_samples": len(self.untraced),
            "src.lines": src_lines(),
        })
        return out


def main(argv: list[str] | None = None) -> int:
    os.environ.update(THREAD_PINS)
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    if not (SRC / "heffsolve" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'heffsolve'} not found; run from a heffsolve checkout",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    env = environment()
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    with Launcher() as launcher:
        run = Run(launcher, WORKLOADS[args.workload], args.seed, work, started)
        run.probe_setup(timed=False)  # writes the bytecode caches
        loop_start = time.perf_counter()
        iterations = 0
        while True:
            if not args.trace:
                run.probe_setup()
            run.solve(traced=False)
            if args.trace:
                run.solve(traced=True)
            iterations += 1
            now = time.perf_counter()
            # stop where the window's end falls nearest: before the next iteration's midpoint
            next_midpoint = now + 0.5 * (now - loop_start) / iterations
            if iterations >= MIN_ITERATIONS and next_midpoint > loop_start + args.seconds:
                break

    metrics = run.per_layer() if args.trace else run.end_to_end()
    problems = run.problems + [f"solve {r['index']}: {p}" for r in run.solves for p in r["problems"]]
    result = {
        "correct": not problems and run.report is not None,
        "attempted": len(run.solves),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "env": env, "problems": problems,
              "setup_s": run.setup, "solves": run.solves, "result": result}
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    # SIGTERM unwinds through Launcher.__exit__, which stops the running child.
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
