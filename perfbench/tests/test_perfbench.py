"""Tiny-size tests of the benchmark: metrics, checks, tracing and exit codes.

Run from the root of the checkout:  python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench.bench import measure, result_line
from perfbench.spans import Tracer
from perfbench.workloads import (
    EvalWorkload,
    IngestWorkload,
    TrainWorkload,
    check_eval,
    check_ingest,
    check_train,
)

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "train_phc": lambda: TrainWorkload("phc", subjects=1, trials_per_subject=6),
    "train_phm": lambda: TrainWorkload("phm", subjects=1, trials_per_subject=6),
    "eval_phc": lambda: EvalWorkload(subjects=1, trials_per_subject=4, batch_size=8, reference_batch=5),
    "ingest": lambda: IngestWorkload(subjects=1, trials_per_subject=3),
}

# Work counts depend only on shapes and control flow, so they repeat exactly.
COUNTS = (
    "tensor.conv1d.calls",
    "tensor.conv1d.gflop",
    "tensor.conv1d.mb_moved",
    "tensor.tape.nodes",
    "tensor.tape.mb",
    "layers.weight_build.calls",
    "layers.weight_build.redundant_frac",
    "model.checkpoint_mb",
    "trainer.eval_batches",
    "dataset.load_dataset.mb_read",
    "sigproc.filter_designs",
    "sigproc.filter_designs_per_distinct",
)


def _run(name, trace, tmp_path, seed=5):
    workdir = tmp_path / f"{name}_{trace}_{time.perf_counter_ns()}"
    workdir.mkdir()
    return measure(TINY[name](), seed, 0.0, trace, workdir, setups=1)


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def _values(record):
    return {k: m["value"] for k, m in record["metrics"].items()}


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(TINY)


@pytest.mark.parametrize("name", list(TINY))
def test_every_declared_metric_is_emitted_and_the_trace_fits_the_design(name, tmp_path):
    plain = _run(name, 0, tmp_path)
    assert plain["failed"] == 0 and not plain["failures"] and plain["attempted"] >= 1
    assert {k: m["unit"] for k, m in plain["metrics"].items()} == _declared("end_to_end")
    assert all(v > 0 for v in _values(plain).values())

    traced = _run(name, 1, tmp_path)
    assert traced["failed"] == 0 and not traced["failures"]
    assert {k: m["unit"] for k, m in traced["metrics"].items()} == _declared("per_layer")
    m = _values(traced)

    again = _values(_run(name, 1, tmp_path))
    assert {k: again[k] for k in COUNTS} == {k: m[k] for k in COUNTS}

    if name in ("train_phm", "ingest"):
        assert m["tensor.conv1d.calls"] == 0
    else:
        assert m["tensor.conv1d.calls"] > 0 and m["tensor.conv1d.gflop"] > 0
    if name == "ingest":
        assert m["sigproc.filter_designs"] > 0 and m["dataset.load_dataset.mb_read"] > 0
        assert m["tensor.tape.nodes"] == 0 and m["layers.weight_build.calls"] == 0
    else:
        assert all(v == 0 for k, v in m.items() if k.startswith(("sigproc.", "dataset.load_dataset")))
    if name == "eval_phc":
        assert m["tensor.tape.nodes"] == 0
        assert m["layers.weight_build.redundant_frac"] > 0
        assert m["trainer.eval_batches"] == 1
    if name.startswith("train_"):
        assert m["tensor.tape.nodes"] > 0
        assert m["trainer.top_span_frac"] >= 0.9
        assert np.isfinite(m["trainer.loss_last"]) and m["trainer.loss_last"] > 0


@pytest.fixture(scope="module")
def train_output(tmp_path_factory):
    wl = TINY["train_phm"]()
    st = wl.setup(5, tmp_path_factory.mktemp("train"))
    _, result = wl.rep(st)
    assert wl.check(st, result) == (0, [])
    return st, result


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: dataclasses.replace(r, aborted="nan-loss"),
        lambda r: dataclasses.replace(r, history=[{**r.history[0], "train_loss": float("nan")}]),
        lambda r: dataclasses.replace(r, epochs_run=r.epochs_run + 1),
        lambda r: dataclasses.replace(r, best_checkpoint=r.best_checkpoint + b"\0"),
        lambda r: dataclasses.replace(r, best_metrics=dataclasses.replace(r.best_metrics, accuracy=-1.0)),
    ],
    ids=["aborted", "nan-loss", "epochs-run", "checkpoint-bytes", "best-metrics"],
)
def test_train_checks_fail_on_corrupted_output(train_output, corrupt):
    st, result = train_output
    assert len(check_train(corrupt(result), st.cfg.epochs, st.test_segs, st.cfg.target)) == 1


@pytest.fixture(scope="module")
def eval_output(tmp_path_factory):
    wl = TINY["eval_phc"]()
    st = wl.setup(5, tmp_path_factory.mktemp("eval"))
    _, (report, preds) = wl.rep(st)
    assert wl.check(st, (report, preds)) == (0, [])
    return wl, st, report, preds


def test_eval_check_fails_on_a_flipped_prediction(eval_output):
    wl, st, report, preds = eval_output
    flipped = preds.copy()
    flipped[-1] = (flipped[-1] + 1) % 3
    failed, messages = check_eval(report, flipped, st.reference, st.segs.labels("arousal"), wl.batch_size)
    assert failed == 2 and len(messages) == 2  # last batch differs, and so do the metrics


def test_eval_check_fails_on_wrong_metrics(eval_output):
    wl, st, report, preds = eval_output
    wrong = dataclasses.replace(report, macro_f1=report.macro_f1 + 0.5)
    failed, messages = check_eval(wrong, preds, st.reference, st.segs.labels("arousal"), wl.batch_size)
    assert failed == 2 and len(messages) == 1


@pytest.fixture(scope="module")
def ingest_output(tmp_path_factory):
    wl = TINY["ingest"]()
    st = wl.setup(5, tmp_path_factory.mktemp("ingest"))
    _, segs = wl.rep(st)
    assert wl.check(st, segs) == (0, [])
    return st, segs


def test_ingest_check_fails_on_a_nan_segment(ingest_output):
    st, segs = ingest_output
    bad = dataclasses.replace(segs, eeg=segs.eeg.copy())
    bad.eeg[4, 2, 100] = np.nan
    failed, messages = check_ingest(bad, st.labels, st.spec)
    assert failed == 1 and any("non-finite" in m for m in messages)


def test_ingest_check_fails_on_a_missing_segment(ingest_output):
    st, segs = ingest_output
    failed, messages = check_ingest(segs.take(np.arange(1, len(segs))), st.labels, st.spec)
    assert failed == len(st.labels) and any("2 segments" in m for m in messages)


def test_ingest_check_fails_when_labels_are_not_recovered(ingest_output):
    st, segs = ingest_output
    bad = dataclasses.replace(segs, eeg=segs.eeg[:, ::-1].copy())  # reversed channels flip phase steps
    failed, _ = check_ingest(bad, st.labels, st.spec)
    assert failed > 0


class _Broken:
    unit = "step"

    def __init__(self, error):
        self.error = error

    def setup(self, seed, workdir):
        return None

    def units_per_rep(self, st):
        return 4

    def work_per_rep(self, st):
        return 1

    def rep(self, st, probes=None):
        if self.error:
            raise RuntimeError("boom")
        return None, None

    def check(self, st, out):
        return 4, ["wrong output"]

    def loss(self, out):
        return 0.0


@pytest.mark.parametrize("error", [True, False], ids=["exception", "failed-check"])
def test_failures_count_and_set_a_nonzero_exit(error, tmp_path):
    record = measure(_Broken(error), 0, 0.0, 0, tmp_path, setups=1)
    assert record["attempted"] == 4 and record["failed"] == 4
    result, status = result_line(record)
    assert status == 1 and result["correct"] is False


def test_self_time_is_per_thread():
    tracer = Tracer()

    def leaf():
        time.sleep(0.02)

    leaf_p = tracer.wrap(leaf, "leaf")

    def outer():
        leaf_p()
        worker = threading.Thread(target=leaf_p)
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()

    tracer.wrap(outer, "outer")()
    spans = {s[0]: s for s in tracer.spans}
    leaves = [s for s in spans.values() if s[1] == "leaf"]
    assert len(leaves) == 2 and len({s[5] for s in leaves}) == 2
    outer_span = next(s for s in spans.values() if s[1] == "outer")
    assert sorted(s[4] is None for s in leaves) == [False, True]  # the worker's leaf has no parent
    summary = tracer.summary()
    own_leaf = next(s for s in leaves if s[4] == outer_span[0])
    assert summary["outer"]["self_ns"] == (outer_span[3] - outer_span[2]) - (own_leaf[3] - own_leaf[2])
    assert summary["outer"]["self_ns"] >= 0.015e9  # waiting for the worker is the outer span's own time


def test_layer_table_covers_every_per_layer_metric_once():
    table = json.loads((ROOT / "perfbench" / "layer_table.json").read_text())
    listed = [m for row in table["rows"] for m in row["layer_metrics"]]
    assert sorted(listed) == sorted(_declared("per_layer"))
    e2e, workloads = set(_declared("end_to_end")), set(TINY)
    for row in table["rows"]:
        for ref in row["should_move"]:
            metric, workload = ref.split("@")
            assert metric in e2e and workload in workloads
        assert set(row["flat_on"]) <= workloads


def test_exits_2_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
