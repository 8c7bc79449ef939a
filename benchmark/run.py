"""Benchmark for nppr: time to verdict, evaluation and memory on three workloads.

Run from the repository root:

  python3 benchmark/run.py --workload desk-joint --seed 1 --seconds 20 --trace 0
  python3 benchmark/run.py --workload all --seed 1 --seconds 20

One workload runs in this process. It sets up (repeatedly, to time it), then
makes measured calls in a closed loop (one caller, the next call after the
previous one returns) for --seconds, and checks every call's report. With
--trace 0 it prints the end-to-end metrics; with --trace 1 it makes a few
untraced calls, installs the layer wrappers, sets up and calls again, and
prints the per-layer metrics and the tracing overhead. `--workload all` runs
every workload untraced and traced, each in a fresh process, and prints them
all. The last line of standard output is always one JSON object with the keys
correct, attempted, failed and metrics.

The program is imported from src/ of the checkout that holds this file; the
benchmark exits with code 2 when it is not there. Run directories, results
and traces go to .bench_out/ in that checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("desk-joint", "evaluate-wide", "image-label")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MIN_CALLS = 2   # the repeat check needs two reports from one seed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to a few seconds (smoke test)")
    return parser.parse_args(argv)


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "seed": seed, "git_commit": git_commit(ROOT),
            "source_sha256": digest.hexdigest()}


def run_workload(args, threads: int) -> int:
    # numpy and nppr load only here, after the BLAS thread limit is in the environment.
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    env = environment(args.seed, threads)
    print("env " + json.dumps(env, sort_keys=True))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    reference: list[str] = []
    try:
        if args.trace == 0:
            setup_times = []
            for i in range(SETUP_REPEATS):
                start = time.perf_counter()
                state = workloads.set_up(workload, args.seed, work / f"setup-{i}", args.tiny)
                setup_times.append(time.perf_counter() - start)
            calls = workloads.measure(workload, state, work, args.seconds, MIN_CALLS, reference)
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "run_s": (statistics.median(c["seconds"] for c in calls), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
                "artifacts_mb": (statistics.median(c["artifact_bytes"] for c in calls) / 2**20,
                                 "MiB"),
                "success_rate": (sum(not c["problems"] for c in calls) / len(calls), "ratio"),
            }
            samples = {"setup_s": len(setup_times), "run_s": len(calls),
                       "artifacts_mb": len(calls)}
            detail = {"setup_seconds": setup_times, "calls": calls}
        else:
            state = workloads.set_up(workload, args.seed, work / "setup-0", args.tiny)
            untraced = workloads.measure(workload, state, work, args.seconds / 3, 1, reference)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                setup_root = len(tracer.spans)
                with tracer.span("bench.setup"):
                    state = workloads.set_up(workload, args.seed, work / "setup-1", args.tiny)
                budget = args.seconds - sum(c["seconds"] for c in untraced)
                traced = workloads.measure(workload, state, work, budget, 1, reference, tracer)
            finally:
                tracer.uninstall()
            calls = untraced + traced
            metrics = tracing.layer_metrics(
                tracer.totals(setup_root),
                [tracer.totals(c["root"]) for c in traced], [c["guards"] for c in traced])
            metrics["bench.trace_overhead_s"] = (
                statistics.median(c["seconds"] for c in traced)
                - statistics.median(c["seconds"] for c in untraced), "s")
            samples = {"untraced_calls": len(untraced), "traced_calls": len(traced)}
            detail = {"untraced": untraced, "traced": traced}
            tracer.dump(OUT / f"{tag}-spans.json", {"env": env})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for c in calls if c["problems"])
    (OUT / f"{tag}-result.json").write_text(json.dumps(
        {"env": env, "samples": samples, "metrics": metrics, **detail}, indent=1))
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(calls)} calls, "
          f"{failed} failed, error_rate {failed / len(calls):.4f}; samples {samples}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6f} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": len(calls), "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), *(["--tiny"] if args.tiny else [])]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0:
                print(f"{name} trace={trace} exited with {proc.returncode}", file=sys.stderr)
                return proc.returncode
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            correct = correct and result["correct"]
            metrics.update({f"{name}/{metric}": value
                            for metric, value in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    src = ROOT / "src"
    if not (src / "nppr" / "__init__.py").is_file():
        print(f"error: the nppr sources are missing from {src}", file=sys.stderr)
        return 2
    threads = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(src))
    return run_workload(args, threads)


if __name__ == "__main__":
    sys.exit(main())
