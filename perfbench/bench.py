"""Runs one workload: set-up, timed repetitions, checks and the result record.

A run sets the workload up ``SETUPS`` times, then repeats it as a closed
loop (one client in one process: the next repetition starts when the
previous one has returned and been checked) until ``seconds`` have passed.
With ``trace`` every second repetition is traced; per-layer metrics come
from the traced ones only.

Timed metrics are medians of the process's user-mode CPU time, all threads
included.  On a shared 2-core machine wall time moves by 10-30% between
minutes (preemption by other tenants, and kernel page-fault time), while
user CPU time repeats within a few percent.  Wall time and system CPU time
are still printed and recorded, ungated.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from hyperx import sigproc

from .probes import Probes, per_layer_metrics
from .spans import Tracer
from .workloads import Clock

SETUPS = 3


def measure(workload, seed, seconds, trace, workdir, setups=SETUPS):
    """Run ``workload``; returns the result record (metrics, samples, failures)."""
    setup = []
    for _ in range(setups):
        with Clock() as clock:
            st = workload.setup(seed, workdir)
        setup.append(clock)

    loop = _Loop(workload, st)
    probes = Probes(Tracer()) if trace else None
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not loop.failures and (time.perf_counter() < deadline or not plain or len(traced) < trace):
        # with trace, traced and untraced repetitions alternate, so drift in
        # the machine's speed cancels out of the overhead
        use = probes if trace and len(traced) < len(plain) else None
        clock = loop.once(use)
        if clock is not None:
            (traced if use else plain).append(clock)

    record = {"setup": setup, "reps": plain, "traced_reps": traced, "metrics": {}, "ungated": {},
              "attempted": loop.attempted, "failed": loop.failed, "failures": loop.failures}
    med = statistics.median
    work = workload.work_per_rep(st)
    if loop.failures:
        pass  # a failed run reports no metrics
    elif trace:
        record["tracer"] = probes.tracer
        overhead = med(c.user for c in traced) / med(c.user for c in plain) - 1.0
        units = workload.units_per_rep(st) * len(traced)
        layer = per_layer_metrics(probes, units, sigproc.worker_count(), overhead, loop.loss_last)
        record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        record["metrics"] = {
            "setup_s": {"value": med(c.user for c in setup), "unit": "s"},
            "segments_per_user_cpu_s": {"value": med(work / c.user for c in plain), "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "unit": "MB"},
        }
        record["ungated"] = {
            "setup_wall_s": {"value": med(c.wall for c in setup), "unit": "s"},
            "segments_per_s": {"value": med(work / c.wall for c in plain), "unit": "1/s"},
            "sys_ms_per_segment": {"value": med(1e3 * c.sys / work for c in plain), "unit": "ms"},
        }
    return record


class _Loop:
    """One repetition at a time, with its checks and failure accounting."""

    def __init__(self, workload, st):
        self.workload = workload
        self.st = st
        self.reps = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.loss_last = 0.0

    def once(self, probes=None):
        """Run and check one repetition; its Clock, or None if it raised."""
        units = self.workload.units_per_rep(self.st)
        self.attempted += units
        self.reps += 1
        clock = None
        try:
            if probes is not None:
                probes.rep = self.reps
                probes.install()
            try:
                clock, out = self.workload.rep(self.st, probes)
            finally:
                if probes is not None:
                    probes.patches.restore()
            failed, messages = self.workload.check(self.st, out)
            self.loss_last = self.workload.loss(out)
        except Exception as exc:  # a crash fails the repetition; the run reports it
            traceback.print_exc()
            clock, failed, messages = None, units, [f"exception: {exc!r}"]
        self.failed += failed
        self.failures += messages
        return clock


def environment(threads):
    """What produced the numbers: versions, BLAS and its threads, CPUs, commit."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_requested": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "HYPERX_THREADS": os.environ.get("HYPERX_THREADS"),
        "commit": _commit(Path(__file__).resolve().parent.parent),
    }


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def _commit(root):
    """HEAD of the checkout's git directory, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def result_line(record):
    """The closing JSON object and the exit code: 1 if any check failed or a repetition raised."""
    correct = record["failed"] == 0 and not record["failures"]
    result = {"correct": correct, "attempted": record["attempted"], "failed": record["failed"],
              "metrics": record["metrics"]}
    return result, 0 if correct else 1


def write_outputs(outdir, name, record, env):
    """Result JSON (and the spans of a traced run) under ``outdir``."""
    outdir.mkdir(parents=True, exist_ok=True)
    tracer = record.pop("tracer", None)
    if tracer is not None:
        tracer.write(outdir / f"{name}.spans.jsonl")
    (outdir / f"{name}.json").write_text(json.dumps({**record, "env": env}, indent=1, default=vars))


def report(record, env, unit, out=sys.stdout):
    """Human-readable lines: every metric with its unit, the samples, the checks."""
    reps = record["traced_reps"] if record["trace"] else record["reps"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  {len(reps)} repetitions "
          f"(median of each timed metric), {record['attempted']} units ({unit}) attempted", file=out)
    for name, m in record["metrics"].items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}", file=out)
    for name, m in record["ungated"].items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}  (ungated)", file=out)
    attempted, failed = record["attempted"], record["failed"]
    print(f"  {'error_rate':40s} {failed / attempted:14.6g} ({failed}/{attempted} units ({unit}) failed)", file=out)
    for label, clocks in (("set-ups", record["setup"]), ("repetitions", reps)):
        print(f"  {label} wall/user/sys (s): " + " ".join(f"{c.wall:.2f}/{c.user:.2f}/{c.sys:.2f}" for c in clocks), file=out)
    for msg in record["failures"]:
        print(f"  CHECK FAILED: {msg}", file=out)
    print("env " + json.dumps(env, sort_keys=True), file=out)
