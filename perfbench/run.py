"""hyperx benchmark: one workload per run, or every workload in turn.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train_phc --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Workloads are listed in BENCHMARK.json.  Before numpy loads, the run pins
BLAS to one thread and HYPERX_THREADS (the preprocessing pool) to
min(2, nproc); both are recorded.  At two BLAS threads the median step
is no faster on a 2-core machine but repetitions spread about twice as
wide, because either thread stalls the other.  It then imports hyperx from
this checkout's ``src/``, prints every metric with its unit, and ends with
one JSON line ``{"correct", "attempted", "failed", "metrics"}``.  It exits 1
if a check failed or a repetition raised, and 2 if hyperx's sources are
not in the checkout.  Results and spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("train_phc", "train_phm", "eval_phc", "ingest")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "hyperx" / "__init__.py").is_file():
        print(f"hyperx sources not found under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["HYPERX_THREADS"] = str(min(2, len(os.sched_getaffinity(0))))
    sys.path[:0] = [str(src), str(ROOT)]
    import hyperx

    if src.resolve() not in Path(hyperx.__file__).resolve().parents:
        print(f"imported hyperx from {hyperx.__file__}, not from {src}", file=sys.stderr)
        return 2
    from perfbench.bench import environment, measure, report, result_line, write_outputs
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    outdir = ROOT / ".bench_out"
    outdir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=outdir) as workdir:
        record = measure(workload, args.seed, args.seconds, args.trace, Path(workdir))
    env = environment(BLAS_THREADS)
    record.update(workload=args.workload, seed=args.seed, trace=args.trace)
    report(record, env, workload.unit)
    write_outputs(outdir, f"{args.workload}_seed{args.seed}_trace{args.trace}", record, env)
    result, status = result_line(record)
    print(json.dumps(result))
    return status


def run_all(args):
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            status = 1
        try:
            last = json.loads(lines[-1]) if lines else {}
        except json.JSONDecodeError:
            last = {}
        combined["correct"] &= bool(last.get("correct", False))
        combined["attempted"] += last.get("attempted", 0)
        combined["failed"] += last.get("failed", 0)
        for metric, value in last.get("metrics", {}).items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
