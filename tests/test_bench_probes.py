"""The traced benchmark patches hyperx names in place (``perfbench/probes.py``);
every one of them must still exist, so a refactor that drops one fails here."""

import numpy as np

from hyperx import tensor
from hyperx.dataset import SEGMENT_SHAPES
from hyperx.model import EVAL_CHUNK, FUSION_ORDER, H2Model
from hyperx.tensor import no_grad, tape_scope
from perfbench.probes import Probes
from perfbench.spans import Tracer

from tests.conftest import random_batch, tiny_model_config


def test_benchmark_probes_install_and_restore():
    backward = tensor.backward
    model = H2Model(tiny_model_config(), seed=0)
    forward_segments = model.forward_segments
    probes = Probes(Tracer())
    try:
        probes.install()
        probes.instrument_model(model)
        assert tensor.backward is not backward
    finally:
        probes.patches.restore()
    assert tensor.backward is backward
    assert model.forward_segments == forward_segments


def test_probes_see_every_conv_stage_of_an_eval_forward():
    """An eval forward of a phc model: one weight build per conv stage, one
    probed conv1d per conv stage and eval chunk, and no batch_norm op, since
    eval batch norm is BatchNorm1d's affine map, folded or not."""
    model = H2Model(tiny_model_config(variant="phc"), seed=0)
    encoders = {f"model.enc_{m}.forward": getattr(model, f"enc_{m}") for m in FUSION_ORDER}
    conv_stages = sum(len(enc.stages) for enc in encoders.values() if enc.conv)
    assert conv_stages == 6
    # one chunk, then two chunks of which the last is partial
    for batch_size, chunks in ((2, 1), (EVAL_CHUNK + 1, 2)):
        batch = random_batch(np.random.default_rng(0), batch=batch_size)
        tracer = Tracer()
        probes = Probes(tracer)
        try:
            probes.install()
            probes.instrument_model(model)
            with no_grad():
                model.forward(**batch)
        finally:
            probes.patches.restore()
        calls = tracer.summary()
        assert calls["tensor.conv1d"]["calls"] == conv_stages * chunks
        assert calls["layers.weight_build"]["calls"] == conv_stages
        assert [span for span in tracer.spans if span[1] == "tensor.batch_norm"] == []
    # the GSR encoder's one stage is flat, and it too runs no batch_norm op
    assert not encoders["model.enc_gsr.forward"].conv


def test_probe_counts_the_work_of_every_train_conv():
    """conv1d.flop and conv1d.bytes of one train forward of a phc model equal
    sums over the conv stages' shapes, whichever of B and Cin comes first in x."""
    cfg = tiny_model_config(variant="phc")
    model = H2Model(cfg, seed=0)
    B = 3
    batch = random_batch(np.random.default_rng(0), batch=B)
    flop = moved = 0
    for m in ("eeg", "ecg", "eye"):
        c_in, length = SEGMENT_SHAPES[m]
        for c_out in cfg.conv_channels(m):
            l_out = (length + 2 * cfg.padding - cfg.kernel_size) // cfg.stride + 1
            flop += 2 * B * c_out * l_out * c_in * cfg.kernel_size
            moved += B * c_in * length + c_out * c_in * cfg.kernel_size + B * c_out * l_out + c_out
            c_in, length = c_out, l_out
    tracer = Tracer()
    probes = Probes(tracer)
    try:
        probes.install()
        with tape_scope():
            model.forward(**batch, train=True, rng=np.random.default_rng(1))
    finally:
        probes.patches.restore()
    assert tracer.summary()["tensor.conv1d"]["calls"] == 6
    assert tracer.counts["conv1d.flop"] == flop
    assert tracer.counts["conv1d.bytes"] == 8 * moved


def test_probes_read_the_tape_of_a_train_backward():
    """A train forward and backward of a phc model under the probes: the
    backward probe's tape hook counts every node and the bytes of every node
    output, and the gradients are those of the same step without probes."""
    model = H2Model(tiny_model_config(variant="phc"), seed=0)
    batch = random_batch(np.random.default_rng(0), batch=3)
    labels = np.array([0, 1, 2])

    def step():
        model_grads = {}
        with tape_scope() as tape:
            logits = model.forward(**batch, train=True, rng=np.random.default_rng(1))
            loss = tensor.softmax_cross_entropy(logits, labels)
            nodes = list(tape.nodes)
            loss.backward()
        for name, p in model.named_parameters():
            model_grads[name], p.grad = p.grad, None
        return nodes, model_grads

    _, want = step()
    tracer = Tracer()
    probes = Probes(tracer)
    try:
        probes.install()
        probes.instrument_model(model)
        nodes, got = step()
    finally:
        probes.patches.restore()
    assert tracer.summary()["tensor.backward"]["calls"] == 1
    assert tracer.counts["tape.nodes"] == len(nodes) > 0
    assert tracer.counts["tape.bytes"] == sum(node.out.data.nbytes for node in nodes)
    assert got.keys() == want.keys()
    for name, g in want.items():
        np.testing.assert_array_equal(got[name], g, err_msg=name)
