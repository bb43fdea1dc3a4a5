"""The benchmark's workloads: set-up, one timed repetition, and checks.

Every workload drives hyperx through its public API only, looking each
entry point up on its module at call time (``trainer.train``, never a
name imported from it) so that the traced run's probes see the call.  All of them use the
default ``ModelConfig`` and segments made from ``generate_synthetic`` at
its default noise.  Inputs depend only on the seed.

A repetition returns the ``Clock`` of its timed region and its output;
``check`` runs afterwards, outside the timed region, and returns how many
units of the repetition failed together with a message per failed check.
"""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass

import numpy as np

import hyperx
from hyperx import dataset, sigproc, trainer
from hyperx.model import H2Model, ModelConfig, deserialize_model, save_checkpoint, serialize_model

TARGET = "arousal"


class Clock:
    """Wall time and the process's user and system CPU time (all threads) of a block."""

    def __enter__(self):
        r = resource.getrusage(resource.RUSAGE_SELF)
        self.wall, self.user, self.sys = -time.perf_counter(), -r.ru_utime, -r.ru_stime
        return self

    def __exit__(self, *exc):
        r = resource.getrusage(resource.RUSAGE_SELF)
        self.wall += time.perf_counter()
        self.user += r.ru_utime
        self.sys += r.ru_stime


def _segments(spec):
    """Synthetic trials at the spec's noise, preprocessed as the CLI does."""
    return sigproc.preprocess_dataset(dataset.generate_synthetic(spec))


# ---------------------------------------------------------------------------
# train_phc / train_phm
# ---------------------------------------------------------------------------


@dataclass
class TrainState:
    seed: int
    model_cfg: ModelConfig
    cfg: trainer.TrainConfig
    train_segs: dataset.SegmentSet
    test_segs: dataset.SegmentSet


class TrainWorkload:
    """``train()`` for one epoch of ``variant`` at B=64, augmentation on.

    One epoch per repetition, on a fresh model from the same seed, makes
    every repetition do identical work: the epoch's steps, one evaluate of
    the test split and one checkpoint serialization.
    """

    unit = "step"

    def __init__(self, variant, subjects=2, trials_per_subject=13):
        self.variant = variant
        self.subjects = subjects
        self.trials_per_subject = trials_per_subject

    def setup(self, seed, workdir):
        spec = dataset.SyntheticSpec(num_subjects=self.subjects, trials_per_subject=self.trials_per_subject, seed=seed)
        cfg = trainer.TrainConfig(epochs=1, patience=1, batch_size=64, seed=seed, split_seed=seed, augment=True)
        train_segs, test_segs = dataset.split_segments(
            _segments(spec), cfg.target, cfg.train_frac, cfg.split_seed, cfg.split_unit
        )
        st = TrainState(seed, ModelConfig(variant=self.variant), cfg, train_segs, test_segs)
        trainer.train(H2Model(st.model_cfg, seed=seed), train_segs, test_segs, cfg)  # warm-up
        return st

    def units_per_rep(self, st):
        return math.ceil(len(st.train_segs) / st.cfg.batch_size) * st.cfg.epochs

    def work_per_rep(self, st):
        """Training segments one repetition processes."""
        return len(st.train_segs) * st.cfg.epochs

    def rep(self, st, probes=None):
        model = H2Model(st.model_cfg, seed=st.seed)
        if probes is not None:
            probes.instrument_model(model)
        with Clock() as clock:
            result = trainer.train(model, st.train_segs, st.test_segs, st.cfg)
        return clock, result

    def loss(self, result):
        return result.history[-1]["train_loss"] if result.history else math.nan

    def check(self, st, result):
        """(failed steps, messages); any failed check fails every step of the repetition."""
        failures = check_train(result, st.cfg.epochs, st.test_segs, st.cfg.target)
        return (self.units_per_rep(st) if failures else 0), failures


def check_train(result, epochs, test_segs, target):
    """Messages for every failed check of one train() result."""
    failures = []
    if result.aborted is not None or not all(math.isfinite(r["train_loss"]) for r in result.history):
        failures.append(f"non-finite step loss (aborted={result.aborted})")
    if result.epochs_run != epochs:
        failures.append(f"epochs_run {result.epochs_run} != {epochs}")
    model, extra = deserialize_model(result.best_checkpoint)
    if serialize_model(model, extra) != result.best_checkpoint:
        failures.append("re-serializing the best checkpoint changes its bytes")
    if trainer.evaluate(model, test_segs, target).to_dict() != result.best_metrics.to_dict():
        failures.append("evaluate on the reloaded checkpoint differs from best_metrics")
    return failures


# ---------------------------------------------------------------------------
# eval_phc
# ---------------------------------------------------------------------------


@dataclass
class EvalState:
    checkpoint: str
    segs: dataset.SegmentSet
    reference: np.ndarray  # predictions made during set-up at another batch size


class EvalWorkload:
    """``load_checkpoint`` + ``evaluate`` of a phc checkpoint at batch 256.

    87 trials give 261 segments: two batches, so every weight is built
    twice per evaluate with no optimizer step in between.
    """

    unit = "batch"

    def __init__(self, subjects=3, trials_per_subject=29, batch_size=256, reference_batch=100):
        self.subjects = subjects
        self.trials_per_subject = trials_per_subject
        self.batch_size = batch_size
        self.reference_batch = reference_batch

    def setup(self, seed, workdir):
        spec = dataset.SyntheticSpec(num_subjects=self.subjects, trials_per_subject=self.trials_per_subject, seed=seed)
        segs = _segments(spec)
        path = str(workdir / "eval_phc.h2ck")
        save_checkpoint(H2Model(ModelConfig(variant="phc"), seed=seed), path)
        model, _ = hyperx.model.load_checkpoint(path)
        reference = trainer.predict(model, segs, batch_size=self.reference_batch)  # also the warm-up
        return EvalState(path, segs, reference)

    def units_per_rep(self, st):
        return math.ceil(len(st.segs) / self.batch_size)

    def work_per_rep(self, st):
        return len(st.segs)

    def rep(self, st, probes=None):
        captured = []
        predict = trainer.predict

        def capture(*args, **kwargs):
            captured.append(predict(*args, **kwargs))
            return captured[-1]

        trainer.predict = capture  # evaluate() calls predict() through this name
        try:
            with Clock() as clock:
                model, _ = hyperx.model.load_checkpoint(st.checkpoint)
                if probes is not None:
                    probes.instrument_model(model)
                report = trainer.evaluate(model, st.segs, TARGET, batch_size=self.batch_size)
        finally:
            trainer.predict = predict
        return clock, (report, captured[0])

    def loss(self, result):
        return 0.0

    def check(self, st, result):
        report, preds = result
        return check_eval(report, preds, st.reference, st.segs.labels(TARGET), self.batch_size)


def check_eval(report, preds, reference, labels, batch_size):
    """(failed batches, messages) for one evaluate() result."""
    n_batches = math.ceil(len(labels) / batch_size)
    if preds.shape != reference.shape:
        return n_batches, [f"predictions have shape {preds.shape}, want {reference.shape}"]
    failures = []
    bad = [b for b in range(n_batches) if not np.array_equal(preds[b * batch_size : (b + 1) * batch_size],
                                                             reference[b * batch_size : (b + 1) * batch_size])]
    if bad:
        failures.append(f"predictions differ from the set-up reference in batches {bad}")
    if report.to_dict() != trainer.compute_metrics(labels, preds).to_dict():
        failures.append("reported metrics differ from compute_metrics of the predictions")
        bad = range(n_batches)
    return len(bad), failures


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


@dataclass
class IngestState:
    raw_dir: str
    spec: dataset.SyntheticSpec
    labels: dict  # trial id -> (arousal, valence)


class IngestWorkload:
    """``load_dataset`` of a raw directory, then ``preprocess_dataset``."""

    unit = "trial"

    def __init__(self, subjects=4, trials_per_subject=12):
        self.subjects = subjects
        self.trials_per_subject = trials_per_subject

    def setup(self, seed, workdir):
        spec = dataset.SyntheticSpec(num_subjects=self.subjects, trials_per_subject=self.trials_per_subject, seed=seed)
        raw = dataset.generate_synthetic(spec)
        raw_dir = str(dataset.save_dataset(raw, workdir / "raw"))
        sigproc.preprocess_dataset(dataset.TrialDataset(raw.trials[:2], raw.pre_trial_ms))  # warm-up
        return IngestState(raw_dir, spec, {t.trial_id: (t.arousal, t.valence) for t in raw.trials})

    def units_per_rep(self, st):
        return len(st.labels)

    def work_per_rep(self, st):
        """Segments one repetition produces (three per 30 s trial)."""
        return 3 * len(st.labels)

    def rep(self, st, probes=None):
        with Clock() as clock:
            raw = dataset.load_dataset(st.raw_dir)
            segs = sigproc.preprocess_dataset(raw)
        return clock, segs

    def loss(self, result):
        return 0.0

    def check(self, st, segs):
        return check_ingest(segs, st.labels, st.spec)


def check_ingest(segs, labels, spec):
    """(failed trials, messages): 3 segments per trial, shapes, finiteness,
    and exact label recovery by the phase oracle."""
    failures = []
    n = len(segs)
    for name, shape in dataset.SEGMENT_SHAPES.items():
        arr = getattr(segs, name)
        if arr.shape != (n, *shape):
            return len(labels), [f"{name} segments have shape {arr.shape}, want (N, {shape})"]
    finite = np.ones(n, dtype=bool)
    for name in dataset.SEGMENT_SHAPES:
        finite &= np.isfinite(getattr(segs, name)).reshape(n, -1).all(axis=1)
    oracle = {
        "arousal": dataset.segment_phase_oracle(segs, "arousal", spec.arousal_freq),
        "valence": dataset.segment_phase_oracle(segs, "valence", spec.valence_freq),
    }
    bad = set()
    for tid, (arousal, valence) in labels.items():
        idx = np.flatnonzero(segs.trial_ids == tid)
        if idx.size != 3:
            bad.add(tid)
            failures.append(f"trial {tid}: {idx.size} segments, want 3")
            continue
        if not finite[idx].all():
            bad.add(tid)
            failures.append(f"trial {tid}: non-finite segment values")
        for target, want in (("arousal", arousal), ("valence", valence)):
            if not (np.all(segs.labels(target)[idx] == want) and np.all(oracle[target][idx] == want)):
                bad.add(tid)
                failures.append(f"trial {tid}: {target} not recovered (label {want})")
    if n != 3 * len(labels):
        failures.append(f"{n} segments for {len(labels)} trials")
        return len(labels), failures
    return len(bad), failures


WORKLOADS = {
    "train_phc": TrainWorkload("phc"),
    "train_phm": TrainWorkload("phm"),
    "eval_phc": EvalWorkload(),
    "ingest": IngestWorkload(),
}
