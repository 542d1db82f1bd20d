"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workload train-short ...] [--trace 0]

For every workload and end-to-end metric it prints the median and the
inter-quartile distance as a share of the median (quartiles as
`statistics.quantiles(values, n=4)` gives them), next to the metric's bound
from BENCHMARK.json. It exits non-zero when a run fails or a spread other
than setup_s exceeds its bound. Raw results are appended to
perfbench/out/spread.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import summary

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1-10")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    log_path = os.path.join(HERE, "out", "spread.jsonl")
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {m["name"]: [] for m in metrics}
        for seed in args.seeds:
            command = [sys.executable, *spec["command"][1:], "--workload", workload,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", str(args.trace)]
            start = time.perf_counter()
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
            elapsed = time.perf_counter() - start
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
            with open(log_path, "a", encoding="utf-8") as log:
                log.write(json.dumps({"workload": workload, "seed": seed, "trace": args.trace,
                                      "wall_s": elapsed, "result": result}) + "\n")
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run failed (exit {done.returncode})\n"
                      f"{done.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            print(f"{workload} seed {seed}: {elapsed:.1f} s", file=sys.stderr)
            for name, entry in result["metrics"].items():
                values[name].append(entry["value"])
        for metric in metrics:
            series = values[metric["name"]]
            if len(series) < 2:
                continue
            share = summary.spread(series)
            bound = metric.get("bound")
            verdict = ""
            if bound is not None:
                within = metric["name"] == "setup_s" or share <= bound
                ok &= within
                verdict = f"bound {bound:<5} {'ok' if within else 'EXCEEDED'}"
                verdict += f" ({share / bound:.2f} of bound)"
            print(f"{workload:14s} {metric['name']:30s} median {summary.median(series):<12.6g} "
                  f"spread {share:.4f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
