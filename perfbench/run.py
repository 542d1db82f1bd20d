"""serkit benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload train-short --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a serkit checkout; it imports serkit from the
checkout's `src/` and writes only under `perfbench/out/`. It generates the
workload's inputs from --seed, times set-up, runs one warm-up trial, then
runs closed-loop trials for --seconds and checks every trial's outputs.

--trace 0 prints the end-to-end metrics declared in BENCHMARK.json.
--trace 1 alternates untraced and traced trials and prints the per-layer
metrics, including the tracing overhead (traced over untraced trial time,
minus one); the spans go to perfbench/out/trace-<workload>-seed<seed>.jsonl.gz.

The last line of stdout is the result; the line before it records the
environment and the per-trial figures the medians came from. The exit code
is 0 only when every output check passed.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: one BLAS thread keeps runs steady on small boxes.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 7
MIN_TRIALS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import serkit.cli; "
                "print(time.perf_counter() - t)")


def time_import() -> float:
    """Seconds to import serkit's CLI (and with it every module) in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), check=True, timeout=120)
    return float(done.stdout)


def mem_total_mb() -> float:
    with open("/proc/meminfo", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) / 1024
    return 0.0


def blas_threads(np) -> int:
    """Threads OpenBLAS reports, or the pinned value if no OpenBLAS is found."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return BLAS_THREADS


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(np),
        "mem_total_mb": mem_total_mb(),
    }


def declared_metrics(trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.isdir(os.path.join(SRC, "serkit")):
        print(f"error: no serkit sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np
    from serkit import augment

    import reference
    import summary
    from spans import Tracer
    from workloads import WORKLOADS, install_tracing, layer_metrics

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    units = declared_metrics(bool(args.trace))
    workload = WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    applied = 0

    @contextlib.contextmanager
    def traced(on: bool):
        nonlocal applied
        if not on:
            yield
            return
        tracer.trial += 1
        augment.reset_augment_counters()
        install_tracing(tracer)
        try:
            yield
        finally:
            tracer.restore()
            applied += augment.total_augment_count()

    def nominal(run) -> tuple:
        """run() -> measured seconds, bracketed by reference chunks.

        Returns (seconds, nominal seconds); see reference.py.
        """
        gc.collect()
        before = reference.chunk_s()
        seconds = run()
        return seconds, reference.nominal(seconds, before, reference.chunk_s())

    work_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    shutil.rmtree(work_dir, ignore_errors=True)
    attempted = failed = 0
    plain, with_trace = [], []
    try:
        workload.generate(work_dir, args.seed)

        import_s = [nominal(time_import) for _ in range(SETUP_REPEATS)]

        def setup() -> float:
            with traced(tracer is not None):
                start = time.perf_counter()
                workload.setup()
                return time.perf_counter() - start

        setup_s = [nominal(setup) for _ in range(SETUP_REPEATS)]

        def trial(trace_on: bool) -> tuple:
            """Returns (utterances, seconds, nominal seconds)."""
            nonlocal attempted, failed
            utterances = 0

            def run() -> float:
                nonlocal utterances
                with traced(trace_on):
                    start = time.perf_counter()
                    utterances = workload.trial()
                    return time.perf_counter() - start

            workload.prepare()
            seconds, nominal_s = nominal(run)
            failures = workload.check()
            attempted += 1
            failed += bool(failures)
            for failure in failures:
                print(f"check failed: {failure}", file=sys.stderr)
            return utterances, seconds, nominal_s

        trial(False)  # warm-up: checked, not timed
        deadline = time.perf_counter() + args.seconds
        while True:
            trace_on = bool(args.trace) and len(with_trace) < len(plain)
            (with_trace if trace_on else plain).append(trial(trace_on))
            enough = len(plain) >= MIN_TRIALS and (not args.trace or len(with_trace) >= MIN_TRIALS)
            if enough and time.perf_counter() >= deadline:
                break

        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failures, cat_loss = workload.final_check()
        attempted += 1
        failed += bool(failures)
        for failure in failures:
            print(f"check failed: {failure}", file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    rates = [n / s for n, _, s in plain]
    wall_rates = [n / s for n, s, _ in plain]
    if args.trace:
        overhead = (summary.median(s for _, _, s in with_trace)
                    / summary.median(s for _, _, s in plain) - 1.0)
        values = layer_metrics(tracer, len(with_trace), applied, overhead)
    else:
        values = {
            "utt_per_s": summary.median(rates),
            "cat_loss": cat_loss,
            "setup_s": (summary.median(s for _, s in import_s)
                        + summary.median(s for _, s in setup_s)),
            "peak_rss_mb": peak_rss_mb,
        }
    if set(values) != set(units):
        raise SystemExit(f"error: computed metrics {sorted(values)} do not match "
                         f"BENCHMARK.json {sorted(units)}")

    env = environment(np)
    if tracer is not None:
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl.gz"),
                     {"workload": args.workload, "seed": args.seed, "env": env})
    print(json.dumps({
        "env": env,
        "trials": {"untraced": len(plain), "traced": len(with_trace),
                   "utt_per_s_quartiles": summary.quartiles(rates),
                   "wall_utt_per_s_quartiles": summary.quartiles(wall_rates),
                   "import_s_wall_nominal": import_s, "setup_s_wall_nominal": setup_s},
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
