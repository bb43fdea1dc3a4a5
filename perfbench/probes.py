"""Probes around hyperx's public functions and the per-layer metrics they give.

Each probe replaces a function at the name its callers look it up by: for
example ``conv1d`` is probed as ``hyperx.layers.conv1d`` because the layer
classes call that binding, and ``relu`` as ``hyperx.model.relu``.  Nothing
inside the package changes; ``Patches.restore`` puts every name back.

Units of work: a train step opens at a train-mode ``forward_segments`` and
closes when ``Adam.step`` returns; every eval-mode ``forward_segments`` is
one eval batch; ``preprocess_trial`` and ``segment_trial`` belong to their
trial.  Per-layer metrics are normalised per unit of the workload.
"""

from __future__ import annotations

import weakref
from pathlib import Path

import numpy as np

from hyperx import dataset, layers, model, sigproc, tensor, trainer

from .spans import Patches

ENCODERS = ("enc_eeg", "enc_ecg", "enc_eye", "enc_gsr")

# Direct children of trainer.train that make up a training run.
TRAIN_TOP_SPANS = (
    "model.forward_segments",
    "tensor.softmax_cross_entropy",
    "tensor.backward",
    "trainer.adam",
    "dataset.augment",
    "trainer.evaluate",
    "model.serialize",
)


class Probes:
    """Installs the probes of one traced repetition onto a ``Tracer``."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.patches = Patches()
        self.rep = 0
        self.steps = 0
        self.batches = 0
        self._adam_steps = 0
        self._last_build = weakref.WeakKeyDictionary()  # weight -> adam steps at its last build

    def _probe(self, owner, attr, name, before=None, after=None):
        self.patches.set(owner, attr, self.tracer.wrap(getattr(owner, attr), name, before, after))

    def install(self):
        p = self._probe
        # tensor: autodiff ops, tape and backward
        p(layers, "conv1d", "tensor.conv1d", after=self._conv_work)
        p(layers, "batch_norm", "tensor.batch_norm")
        p(layers, "linear", "tensor.linear")
        p(layers, "kron_sum", "tensor.kron_sum")
        p(layers, "kron_sum_taps", "tensor.kron_sum_taps")
        p(layers, "dropout", "tensor.dropout")
        p(model, "relu", "tensor.relu")
        p(model, "global_avg_pool", "tensor.global_avg_pool")
        p(model, "concat", "tensor.concat")
        p(model, "reshape", "tensor.reshape")
        p(trainer, "softmax_cross_entropy", "tensor.softmax_cross_entropy")
        p(tensor, "backward", "tensor.backward", before=self._tape_size)
        # layers: Kronecker weight build
        p(layers.HypercomplexWeight, "build", "layers.weight_build", before=self._weight_build)
        # model: checkpoint I/O (encoders and fusion are per instance, see instrument_model)
        p(trainer, "serialize_model", "model.serialize", after=self._checkpoint_out)
        p(model, "deserialize_model", "model.deserialize", before=self._checkpoint_in)
        p(model, "load_checkpoint", "model.load_checkpoint")
        # trainer
        p(trainer, "train", "trainer.train")
        p(trainer, "evaluate", "trainer.evaluate")
        p(trainer.Adam, "step", "trainer.adam", after=self._adam_done)
        # dataset
        p(trainer, "augment_segments", "dataset.augment")
        p(dataset, "load_dataset", "dataset.load_dataset", after=self._bytes_read)
        # sigproc
        p(sigproc, "preprocess_dataset", "sigproc.preprocess_dataset")
        p(sigproc, "preprocess_trial", "sigproc.preprocess_trial", before=self._trial_unit)
        p(sigproc, "segment_trial", "sigproc.segment_trial", before=self._trial_unit)
        p(sigproc, "downsample_by2", "sigproc.downsample_by2", before=self._downsample_design)
        p(sigproc, "apply_filter", "sigproc.apply_filter")
        p(sigproc.IIRFilterSpec, "design_sos", "sigproc.design_sos", before=self._filter_design)

    def instrument_model(self, m):
        """Probe one H2Model instance: its encoders, fusion stack and entry points."""
        for name in (*ENCODERS, "fusion"):
            self._probe(getattr(m, name), "forward", f"model.{name}.forward")
        self._probe(m, "embed", "model.embed")
        self._probe(m, "forward_segments", "model.forward_segments", before=self._forward_unit)

    # -- hooks ------------------------------------------------------------------

    def _forward_unit(self, args, kwargs):
        if kwargs.get("train", False):
            self.steps += 1
            self.tracer.unit = f"rep{self.rep}/step{self.steps}"  # closed by Adam.step
            return None
        self.batches += 1
        return f"rep{self.rep}/batch{self.batches}"

    def _adam_done(self, args, kwargs, result):
        self._adam_steps += 1
        self.tracer.unit = None

    def _trial_unit(self, args, kwargs):
        return f"rep{self.rep}/trial/{args[0].trial_id}"

    def _conv_work(self, args, kwargs, y):
        x, w = args[0].data, args[1].data
        b = args[2] if len(args) > 2 else kwargs.get("b")
        batch, c_in, _ = x.shape
        c_out, _, k = w.shape
        l_out = y.data.shape[2]
        self.tracer.add("conv1d.flop", 2 * batch * c_out * l_out * c_in * k)
        moved = x.size + w.size + y.data.size + (b.data.size if b is not None else 0)
        self.tracer.add("conv1d.bytes", 8 * moved)

    def _tape_size(self, args, kwargs):
        nodes = tensor.active_tape().nodes
        self.tracer.add("tape.nodes", len(nodes))
        self.tracer.add("tape.bytes", sum(node.out.data.nbytes for node in nodes))

    def _weight_build(self, args, kwargs):
        weight = args[0]
        if self._last_build.get(weight) == self._adam_steps:
            self.tracer.add("weight_build.redundant")
        self._last_build[weight] = self._adam_steps

    def _checkpoint_out(self, args, kwargs, blob):
        self.tracer.add("checkpoint.bytes", len(blob))

    def _checkpoint_in(self, args, kwargs):
        self.tracer.add("checkpoint.bytes", len(args[0]))

    def _bytes_read(self, args, kwargs, ds):
        payload = sum(4 * (tr.eeg.size + tr.ecg.size + tr.gsr.size + tr.eye.size) for tr in ds.trials)
        manifest = (Path(args[0]) / "manifest.json").stat().st_size
        self.tracer.add("load_dataset.bytes", payload + manifest)

    def _downsample_design(self, args, kwargs):
        # downsample_by2 designs its anti-alias Butterworth inline on every call
        fs = args[1] if len(args) > 1 else kwargs.get("fs", 256.0)
        self.tracer.add("filter_designs")
        self.tracer.remember("filter_designs", ("downsample_by2", float(fs)))

    def _filter_design(self, args, kwargs):
        spec, fs = args[0], args[1]
        self.tracer.add("filter_designs")
        self.tracer.remember("filter_designs", (spec.kind, spec.low, spec.high, spec.order, spec.notch_q, float(fs)))


def per_layer_metrics(probes, units, workers, overhead_frac, loss_last):
    """{name: (value, unit)} for every per-layer metric of one traced run.

    ``units`` is the number of units of work (train steps, eval batches or
    ingest trials) the traced repetitions performed; totals are divided by
    it.  Work counts (calls, computed flop and bytes, tape size, weight
    builds, filter designs) depend only on shapes and control flow.
    """
    tracer = probes.tracer
    spans = tracer.spans
    summary = tracer.summary()
    counts = tracer.counts

    def per_unit(total, scale=1):
        # one correctly rounded division of integers, so counts repeat exactly
        return total / (units * scale)

    def row(name):
        return summary.get(name, {"calls": 0, "ns": 0, "self_ns": 0})

    def self_ms(name):
        return per_unit(row(name)["self_ns"], 1e6)

    def total_ms(name):
        return per_unit(row(name)["ns"], 1e6)

    conv_self_s = row("tensor.conv1d")["self_ns"] / 1e9
    builds = row("layers.weight_build")["calls"]

    step_bounds = {}
    train_forward_ns = 0
    for _, name, start, end, _, _, unit in spans:
        if unit is not None and "/step" in unit:
            lo, hi = step_bounds.get(unit, (start, end))
            step_bounds[unit] = (min(lo, start), max(hi, end))
            if name == "model.forward_segments":
                train_forward_ns += end - start
    step_ms = [(hi - lo) / 1e6 for lo, hi in step_bounds.values()]

    train_ids = {s[0]: s[3] - s[2] for s in spans if s[1] == "trainer.train"}
    top_ns = sum(s[3] - s[2] for s in spans if s[4] in train_ids and s[1] in TRAIN_TOP_SPANS)

    # Trials run on pool threads, so they are matched to their
    # preprocess_dataset call by time, not by parent.
    trial_spans = [s for s in spans if s[1] in ("sigproc.preprocess_trial", "sigproc.segment_trial")]
    assemble_ns = pool_ns = busy_ns = 0
    for s in spans:
        if s[1] != "sigproc.preprocess_dataset":
            continue
        inside = [t for t in trial_spans if t[2] >= s[2] and t[3] <= s[3]]
        last_end = max((t[3] for t in inside), default=s[2])
        assemble_ns += s[3] - last_end
        pool_ns += last_end - s[2]
        busy_ns += sum(t[3] - t[2] for t in inside)
    designs = counts["filter_designs"]
    distinct_per_call = len(tracer.sets["filter_designs"]) * row("sigproc.preprocess_dataset")["calls"]
    trial_ms = [d / 1e6 for d in tracer.durations("sigproc.preprocess_trial")]

    return {
        "tensor.conv1d.calls": (per_unit(row("tensor.conv1d")["calls"]), "count"),
        "tensor.conv1d.self_ms": (self_ms("tensor.conv1d"), "ms"),
        "tensor.conv1d.gflop": (per_unit(counts["conv1d.flop"], 1e9), "GFLOP"),
        "tensor.conv1d.mb_moved": (per_unit(counts["conv1d.bytes"], 1e6), "MB"),
        "tensor.conv1d.gflop_per_s": (counts["conv1d.flop"] / 1e9 / conv_self_s if conv_self_s else 0.0, "GFLOP/s"),
        "tensor.batch_norm.self_ms": (self_ms("tensor.batch_norm"), "ms"),
        "tensor.relu.self_ms": (self_ms("tensor.relu"), "ms"),
        "tensor.kron_sum_taps.self_ms": (self_ms("tensor.kron_sum_taps"), "ms"),
        "tensor.kron_sum.self_ms": (self_ms("tensor.kron_sum"), "ms"),
        "tensor.linear.self_ms": (self_ms("tensor.linear"), "ms"),
        "tensor.softmax_cross_entropy.self_ms": (self_ms("tensor.softmax_cross_entropy"), "ms"),
        "tensor.backward.self_ms": (self_ms("tensor.backward"), "ms"),
        "tensor.tape.nodes": (per_unit(counts["tape.nodes"]), "count"),
        "tensor.tape.mb": (per_unit(counts["tape.bytes"], 1e6), "MB"),
        "layers.weight_build.calls": (per_unit(builds), "count"),
        "layers.weight_build.ms": (total_ms("layers.weight_build"), "ms"),
        "layers.weight_build.redundant_frac": (counts["weight_build.redundant"] / builds if builds else 0.0, "ratio"),
        "model.enc_eeg.fwd_ms": (total_ms("model.enc_eeg.forward"), "ms"),
        "model.enc_ecg.fwd_ms": (total_ms("model.enc_ecg.forward"), "ms"),
        "model.enc_eye.fwd_ms": (total_ms("model.enc_eye.forward"), "ms"),
        "model.enc_gsr.fwd_ms": (total_ms("model.enc_gsr.forward"), "ms"),
        "model.fusion.fwd_ms": (total_ms("model.fusion.forward"), "ms"),
        "model.embed.self_ms": (self_ms("model.forward_segments") + self_ms("model.embed"), "ms"),
        "model.serialize_ms": (total_ms("model.serialize"), "ms"),
        "model.deserialize_ms": (total_ms("model.deserialize"), "ms"),
        "model.checkpoint_mb": (per_unit(counts["checkpoint.bytes"], 1e6), "MB"),
        "trainer.step_ms_p50": (float(np.percentile(step_ms, 50)) if step_ms else 0.0, "ms"),
        "trainer.step_ms_p90": (float(np.percentile(step_ms, 90)) if step_ms else 0.0, "ms"),
        "trainer.forward_ms": (per_unit(train_forward_ns, 1e6), "ms"),
        "trainer.adam.self_ms": (self_ms("trainer.adam"), "ms"),
        "trainer.evaluate_ms": (total_ms("trainer.evaluate"), "ms"),
        "trainer.eval_batches": (per_unit(probes.batches), "count"),
        "trainer.top_span_frac": (top_ns / sum(train_ids.values()) if train_ids else 0.0, "ratio"),
        "trainer.loss_last": (loss_last, "nat"),
        "dataset.augment.ms": (total_ms("dataset.augment"), "ms"),
        "dataset.load_dataset.ms": (total_ms("dataset.load_dataset"), "ms"),
        "dataset.load_dataset.mb_read": (per_unit(counts["load_dataset.bytes"], 1e6), "MB"),
        "sigproc.preprocess_trial.ms_p50": (float(np.median(trial_ms)) if trial_ms else 0.0, "ms"),
        "sigproc.downsample_by2.self_ms": (self_ms("sigproc.downsample_by2"), "ms"),
        "sigproc.apply_filter.self_ms": (self_ms("sigproc.apply_filter"), "ms"),
        "sigproc.segment_trial.ms": (total_ms("sigproc.segment_trial"), "ms"),
        "sigproc.assemble_ms": (per_unit(assemble_ns, 1e6), "ms"),
        "sigproc.filter_designs": (per_unit(designs), "count"),
        "sigproc.filter_designs_per_distinct": (designs / distinct_per_call if distinct_per_call else 0.0, "ratio"),
        "sigproc.pool_busy_frac": (busy_ns / (workers * pool_ns) if pool_ns else 0.0, "ratio"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
