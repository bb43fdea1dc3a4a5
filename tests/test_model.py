import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperx import layers
from hyperx.errors import ConfigError, FormatError, InputError
from hyperx.layers import HypercomplexWeight, PHMLayer
from hyperx.model import (
    EVAL_CHUNK,
    H2Model,
    ModelConfig,
    VARIANTS,
    _Encoder,
    deserialize_model,
    serialize_model,
)
from hyperx.tensor import (
    BN_EPS,
    Tensor,
    add,
    backward,
    global_avg_pool,
    linear,
    mul,
    no_grad,
    relu,
    reshape,
    softmax_cross_entropy,
    tape_scope,
    zero_grads,
)

from tests.conftest import random_batch, tiny_model_config


@pytest.mark.parametrize("variant", VARIANTS)
def test_forward_shapes_all_variants(variant):
    model = H2Model(tiny_model_config(variant=variant), seed=0)
    batch = random_batch(np.random.default_rng(0), batch=3)
    logits = model.forward(**batch)
    assert logits.shape == (3, 3)
    assert np.isfinite(logits.data).all()


def test_embedding_widths_divisible_by_n():
    cfg = ModelConfig()
    model = H2Model(cfg, seed=0)
    batch = random_batch(np.random.default_rng(1), batch=2)
    emb = model.embed(**batch)
    assert emb.shape == (2, cfg.fusion_input_width())
    assert cfg.fusion_input_width() == 464
    assert cfg.embedding_width("eeg") % cfg.n_eeg == 0
    assert cfg.embedding_width("eeg") == 160
    assert cfg.embedding_width("gsr") == 32


def test_config_rejects_indivisible_fusion_width():
    with pytest.raises(ConfigError, match="not divisible by n=4"):
        H2Model(tiny_model_config(gsr_width=9), seed=0)  # embeddings sum to 49, not divisible by 4


def test_config_rejects_indivisible_fusion_n():
    with pytest.raises(ConfigError):
        H2Model(tiny_model_config(fusion_n=3), seed=0)  # 48 % 3 == 0 but 32 % 3 != 0... widths checked too


def test_encoder_widths_are_checked_only_where_the_variant_builds_them():
    # phc has no flat EEG stage, so eeg_hidden need not divide by n_eeg = 10
    H2Model(tiny_model_config(variant="phc", eeg_hidden=31), seed=0)
    with pytest.raises(ConfigError, match="d_out=31"):
        H2Model(tiny_model_config(variant="phm", eeg_hidden=31), seed=0)


def test_config_rejects_unknown_variant():
    with pytest.raises(ConfigError, match="variant"):
        H2Model(tiny_model_config(variant="dense"), seed=0)


def test_eval_mode_is_bit_deterministic():
    model = H2Model(tiny_model_config(), seed=1)
    batch = random_batch(np.random.default_rng(2))
    a = model.forward(**batch, train=False).data
    b = model.forward(**batch, train=False).data
    np.testing.assert_array_equal(a, b)


def test_zero_inputs_give_finite_logits():
    model = H2Model(tiny_model_config(), seed=2)
    batch = dict(
        eeg=np.zeros((2, 10, 1280)),
        ecg=np.zeros((2, 3, 1280)),
        gsr=np.zeros((2, 1, 1280)),
        eye=np.zeros((2, 4, 600)),
    )
    logits = model.forward(**batch)
    assert np.isfinite(logits.data).all()


def test_argmax_invariant_to_logit_shift():
    model = H2Model(tiny_model_config(), seed=3)
    batch = random_batch(np.random.default_rng(3), batch=4)
    logits = model.forward(**batch).data
    np.testing.assert_array_equal(np.argmax(logits, axis=1), np.argmax(logits + 11.25, axis=1))


def test_nan_input_rejected():
    model = H2Model(tiny_model_config(), seed=0)
    batch = random_batch(np.random.default_rng(4))
    batch["ecg"][0, 0, 5] = np.nan
    with pytest.raises(InputError, match="ecg"):
        model.forward(**batch)


def test_non_real_input_rejected():
    model = H2Model(tiny_model_config(), seed=0)
    for name, cast in (("eeg", lambda x: 1j * x), ("ecg", lambda x: x.astype(str))):
        batch = random_batch(np.random.default_rng(4))
        batch[name] = cast(batch[name])
        with pytest.raises(InputError, match=f"{name} input has dtype"):
            model.forward(**batch)


def test_wrong_channel_count_rejected():
    model = H2Model(tiny_model_config(), seed=0)
    batch = random_batch(np.random.default_rng(5))
    batch["eeg"] = batch["eeg"][:, :9, :]
    with pytest.raises(InputError, match="eeg"):
        model.forward(**batch)


@pytest.mark.parametrize("variant", VARIANTS)
def test_gradients_reach_every_parameter(variant):
    model = H2Model(tiny_model_config(variant=variant), seed=4)
    batch = random_batch(np.random.default_rng(6), batch=4)
    labels = np.array([0, 1, 2, 1])
    with tape_scope():
        logits = model.forward(**batch, train=True, rng=np.random.default_rng(8))
        backward(softmax_cross_entropy(logits, labels))
    for name, p in model.named_parameters():
        assert p.grad is not None, f"{name} got no gradient"
        assert np.any(p.grad != 0), f"{name} gradient is all zeros"


def _step(model, batch):
    """Logits and {name: gradient} of one train-mode forward and backward."""
    with tape_scope():
        logits = model.forward(**batch, train=True, rng=np.random.default_rng(8))
        backward(softmax_cross_entropy(logits, np.arange(len(logits.data)) % 3))
    return logits.data, {name: p.grad for name, p in model.named_parameters()}


@pytest.mark.parametrize("shared", [False, True])
def test_phm_model_step_matches_the_built_weight_path(shared, monkeypatch):
    cfg = ModelConfig(variant="phm", share_encoder_algebra=shared)
    batch = random_batch(np.random.default_rng(6), batch=4)
    logits, grads = _step(H2Model(cfg, seed=4), batch)

    def built_weight_forward(self, x):
        return linear(x, self.w if self.weight is None else self.weight.build(), self.b)

    monkeypatch.setattr(PHMLayer, "forward", built_weight_forward)
    want_logits, want_grads = _step(H2Model(cfg, seed=4), batch)
    np.testing.assert_allclose(logits, want_logits, rtol=0, atol=1e-10 * np.abs(want_logits).max())
    assert grads.keys() == want_grads.keys()
    # a bias in front of batch norm has a gradient that is zero up to rounding,
    # so every gradient is judged on the largest one of its layer
    scale = {}
    for name, want in want_grads.items():
        layer = name.rsplit(".", 1)[0]
        scale[layer] = max(scale.get(layer, 0.0), np.abs(want).max())
    for name, want in want_grads.items():
        atol = 1e-10 * scale[name.rsplit(".", 1)[0]]
        np.testing.assert_allclose(grads[name], want, rtol=0, atol=atol, err_msg=name)


def test_hypercomplex_phm_layers_never_build_their_weight(monkeypatch):
    model = H2Model(ModelConfig(variant="phm"), seed=0)
    weights = []

    def spy_linear(x, w, b=None):
        weights.append(w)
        return linear(x, w, b)

    def refuse(*args):
        raise AssertionError("a PHM layer with n set built its weight")

    monkeypatch.setattr(layers, "linear", spy_linear)
    monkeypatch.setattr(layers, "kron_sum", refuse)
    monkeypatch.setattr(HypercomplexWeight, "build", refuse)
    _step(model, random_batch(np.random.default_rng(0), batch=2))
    # the dense head (n=None) is the one layer of the phm variant that calls linear
    assert weights == [model.fusion.head.w]


# ---------------------------------------------------------------------------
# eval mode: BatchNorm1d's affine, folded into each conv stage
# ---------------------------------------------------------------------------


def _textbook_eval_bn(bn, h):
    """gamma*(h - mu)/sigma + beta per channel of [B, C] or [C, B, L], from tape ops."""
    c = (1, bn.channels) if h.ndim == 2 else (bn.channels, 1, 1)
    centred = add(h, Tensor(-bn.running_mean.reshape(c)))
    normed = mul(centred, Tensor(1.0 / np.sqrt(bn.running_var + BN_EPS).reshape(c)))
    return add(mul(reshape(bn.gamma, c), normed), reshape(bn.beta, c))


def _unfolded_encoder_forward(self, x, train):
    """Oracle: every stage is layer -> textbook eval batch norm -> relu."""
    h = Tensor(x.data.transpose(1, 0, 2)) if self.conv else reshape(x, (x.shape[0], self.d_flat))
    for layer, bn in self.stages:
        h = relu(_textbook_eval_bn(bn, layer(h)))
    return global_avg_pool(h) if self.conv else h


def _randomized_model(variant, seed):
    """A tiny model with random biases, BN affine parameters and running statistics."""
    model = H2Model(tiny_model_config(variant=variant), seed=seed)
    rng = np.random.default_rng(seed)
    for name, p in model.named_parameters():
        if name.endswith(".gamma"):
            p.data[...] = rng.uniform(0.3, 3.0, p.shape) * rng.choice([-1.0, 1.0], p.shape)
        elif name.endswith((".beta", ".b")):
            p.data[...] = rng.standard_normal(p.shape)
    for name, buf in model.named_buffers():
        buf[...] = rng.normal(0.0, 2.0, buf.shape) if name.endswith("mean") else rng.uniform(0.01, 5.0, buf.shape)
    return model


def _eval_logits_and_grads(model, batch):
    """Eval-mode logits and {name: gradient} of their cross-entropy, under a tape."""
    zero_grads(p for _, p in model.named_parameters())
    with tape_scope():
        logits = model.forward(**batch, train=False)
        backward(softmax_cross_entropy(logits, np.arange(len(logits.data)) % 3))
    return logits.data, {name: p.grad for name, p in model.named_parameters()}


@settings(max_examples=6, deadline=None)
@given(variant=st.sampled_from(VARIANTS), seed=st.integers(0, 2**16), batch=st.integers(1, 3))
@example(variant="phc", seed=5, batch=EVAL_CHUNK + 1)  # two eval chunks, the last one partial
@example(variant="conv", seed=6, batch=EVAL_CHUNK + 1)
@example(variant="phm", seed=7, batch=3)  # flat stages: BatchNorm1d's eval affine after the layer
@example(variant="linear", seed=8, batch=3)
def test_folded_eval_logits_match_the_unfolded_oracle(variant, seed, batch):
    model = _randomized_model(variant, seed)
    inputs = random_batch(np.random.default_rng(seed + 1), batch=batch)
    with tape_scope() as tape, no_grad():
        got = model.forward(**inputs).data
    assert len(tape) == 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Encoder, "forward", _unfolded_encoder_forward)
        with no_grad():
            want = model.forward(**inputs).data
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    np.testing.assert_array_equal(got.argmax(axis=1), want.argmax(axis=1))


@pytest.mark.parametrize("variant", ["phc", "conv", "phm", "linear"])
def test_folded_eval_gradients_match_the_unfolded_oracle(variant):
    model = _randomized_model(variant, seed=11)
    # one eval chunk, then two whose gradients meet on each folded weight
    for batch_size in (3, EVAL_CHUNK + 1):
        batch = random_batch(np.random.default_rng(12), batch=batch_size)
        logits, grads = _eval_logits_and_grads(model, batch)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_Encoder, "forward", _unfolded_encoder_forward)
            want_logits, want_grads = _eval_logits_and_grads(model, batch)
        np.testing.assert_allclose(logits, want_logits, rtol=0, atol=1e-12 * np.abs(want_logits).max())
        assert grads.keys() == want_grads.keys()
        for name, want in want_grads.items():
            assert grads[name] is not None and want is not None, f"{name} got no gradient"
            np.testing.assert_allclose(grads[name], want, rtol=0, atol=1e-10 * np.abs(want).max(), err_msg=name)


@pytest.mark.parametrize("variant", VARIANTS)
def test_empty_eval_batch_gives_empty_logits(variant):
    model = H2Model(tiny_model_config(variant=variant), seed=0)
    batch = random_batch(np.random.default_rng(0), batch=0)
    with no_grad():
        assert model.forward(**batch).shape == (0, 3)
    with tape_scope():
        assert model.forward(**batch).shape == (0, 3)


def test_eval_forward_holds_no_batch_sized_conv_intermediate():
    """tracemalloc peak of one no_grad forward of the default phc model at
    B=256: about 40 MB when the conv encoders run in eval chunks, 394 MB when
    each conv stage runs over the whole batch."""
    model = H2Model(seed=0)
    batch = random_batch(np.random.default_rng(0), batch=256)
    tracemalloc.start()
    try:
        with no_grad():
            model.forward(**batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6, f"{peak / 1e6:.0f} MB"


def test_train_step_keeps_one_copy_of_each_conv_stage_activation():
    """tracemalloc peak of one train forward and backward of the default phc
    model at B=16: about 64 MB when conv1d keeps only its input, batch norm
    its input and statistics, ReLU writes into batch norm's output, each
    encoder's last stage keeps a ReLU mask in place of its activation and
    backward frees each node once used; 67 MB when the last stage keeps its
    activation, 91 MB when backward also keeps the tape until it returns,
    114 MB when ReLU also copies, and 166 MB when the tape also keeps each
    conv's im2col columns and batch norm's x-hat."""
    model = H2Model(seed=0)
    batch = random_batch(np.random.default_rng(0), batch=16)
    labels = np.arange(16) % 3
    tracemalloc.start()
    try:
        with tape_scope():
            logits = model.forward(**batch, train=True, rng=np.random.default_rng(1))
            backward(softmax_cross_entropy(logits, labels))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 140e6, f"{peak / 1e6:.0f} MB"


def test_train_step_keeps_no_separate_relu_output_per_stage():
    """The default phc model at B=16: ReLU writes into the buffer batch norm
    (or a fusion PHM layer) returned, and each conv encoder's last stage keeps
    a ReLU mask in place of its activation, so a train forward ends holding
    about 40 MB, against 53 MB when that stage keeps its activation and 76 MB
    when each ReLU also copies."""
    model = H2Model(seed=0)
    batch = random_batch(np.random.default_rng(0), batch=16)
    labels = np.arange(16) % 3
    tracemalloc.start()
    try:
        with tape_scope():
            logits = model.forward(**batch, train=True, rng=np.random.default_rng(1))
            held = tracemalloc.get_traced_memory()[0]
            backward(softmax_cross_entropy(logits, labels))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held < 65e6, f"{held / 1e6:.0f} MB held after the forward"
    assert peak < 100e6, f"{peak / 1e6:.0f} MB peak"


def test_train_backward_frees_each_node_once_its_vjp_has_run():
    """The default phc model at B=16: backward pops every node off the tape as
    it reaches it, so each stage's activations and saved inputs go once its
    VJP has run.  Forward and backward peak at about 64 MB, against 91 MB
    when the tape holds every node until the step ends (67 and 91 MB when
    each encoder's last stage keeps its activation)."""
    model = H2Model(seed=0)
    batch = random_batch(np.random.default_rng(0), batch=16)
    labels = np.arange(16) % 3
    tracemalloc.start()
    try:
        with tape_scope() as tape:
            logits = model.forward(**batch, train=True, rng=np.random.default_rng(1))
            backward(softmax_cross_entropy(logits, labels))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tape) == 0
    assert peak < 75e6, f"{peak / 1e6:.0f} MB peak"


def test_train_step_at_b64_keeps_no_batch_sized_last_stage_activation_or_columns():
    """The default phc model at B=64: each conv encoder's last train stage is
    one node that keeps a ReLU mask, not its [C, B, L] activation, and conv1d's
    VJP rebuilds its im2col columns SEGMENT_CHUNK segments at a time.  The tape
    holds about 155 MB after the forward and the step peaks at about 185 MB,
    against 210 and 226 MB when the last stage keeps its activation and the
    VJP rebuilds the whole batch's columns."""
    model = H2Model(seed=0)
    batch = random_batch(np.random.default_rng(0), batch=64)
    labels = np.arange(64) % 3
    tracemalloc.start()
    try:
        with tape_scope():
            logits = model.forward(**batch, train=True, rng=np.random.default_rng(1))
            held = tracemalloc.get_traced_memory()[0]
            backward(softmax_cross_entropy(logits, labels))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held < 180e6, f"{held / 1e6:.0f} MB held after the forward"
    assert peak < 200e6, f"{peak / 1e6:.0f} MB peak"


def test_first_layer_of_each_encoder_computes_no_gradient_for_the_model_input():
    """The model's input needs no gradient, so the first layer of a tiny phc
    train step (conv1d for EEG, ECG and eye, phm_linear for GSR) gives None
    for it and a gradient for each of its other inputs."""
    model = H2Model(tiny_model_config(), seed=0)
    with tape_scope() as tape:
        model.forward(**random_batch(np.random.default_rng(0), batch=4), train=True, rng=np.random.default_rng(1))
    on_data = [node for node in tape.nodes if not node.inputs[0].requires_grad]
    assert sorted(node.vjp.__qualname__.split(".")[0] for node in on_data) == ["conv1d"] * 3 + ["phm_linear"]
    for node in on_data:
        grads = node.vjp(np.ones_like(node.out.data))
        assert grads[0] is None
        assert [g.shape for g in grads[1:]] == [t.shape for t in node.inputs[1:]]


# ---------------------------------------------------------------------------
# parameter counting
# ---------------------------------------------------------------------------


def test_default_counts_match_layer_formulas():
    cfg = ModelConfig()
    model = H2Model(cfg, seed=0)
    counts = model.count_parameters()
    # EEG encoder: two PHC layers (n^3 + Cout*Cin*K/n + bias) plus two BN pairs
    k, n = cfg.kernel_size, cfg.n_eeg
    c0, (c1, c2) = 10, cfg.eeg_channels
    want_eeg = (n**3 + c1 * c0 * k // n + c1) + (n**3 + c2 * c1 * k // n + c2) + 2 * c1 + 2 * c2
    assert counts["eeg"] == want_eeg
    # GSR encoder: PHM with n=1 plus BN
    want_gsr = (1 + cfg.gsr_width * 1280 + cfg.gsr_width) + 2 * cfg.gsr_width
    assert counts["gsr"] == want_gsr
    # fusion: three PHM layers with n=4
    s = cfg.fusion_input_width()
    w1, w2, w3 = cfg.fusion_widths
    want_fusion = (
        (64 + w1 * s // 4 + w1) + (64 + w2 * w1 // 4 + w2) + (64 + w3 * w2 // 4 + w3)
    )
    assert counts["fusion"] == want_fusion
    assert counts["head"] == 3 * w3 + 3
    assert counts["total"] == sum(v for k_, v in counts.items() if k_ != "total")


def test_filter_part_is_exactly_dense_over_n():
    cfg = ModelConfig()
    model = H2Model(cfg, seed=0)
    for name, enc in [("eeg", model.enc_eeg), ("ecg", model.enc_ecg), ("eye", model.enc_eye)]:
        n = cfg.modality_n(name)
        for _, layer in (("conv1", enc.conv1), ("conv2", enc.conv2)):
            dense_count = layer.c_out * layer.c_in * layer.kernel_size
            assert layer.weight.f.size * n == dense_count


def test_variant_ordering_and_total_range():
    totals = {v: H2Model(ModelConfig(variant=v), seed=0).count_parameters()["total"] for v in VARIANTS}
    assert totals["phc"] < totals["phm"] < totals["conv"] < totals["linear"]
    assert 1_000_000 <= totals["phc"] <= 5_000_000


def test_n1_everywhere_phm_equals_linear_plus_algebra_scalars():
    kwargs = dict(n_eeg=1, n_ecg=1, n_eye=1, n_gsr=1, fusion_n=1)
    phm = H2Model(tiny_model_config(variant="phm", **kwargs), seed=0).count_parameters()
    lin = H2Model(tiny_model_config(variant="linear", **kwargs), seed=0).count_parameters()
    # with n=1 each hypercomplex layer carries exactly one extra scalar (its 1x1x1 A)
    n_hyper_encoder_layers = 2 + 2 + 2 + 1
    for mod in ("eeg", "ecg", "eye", "gsr"):
        layers = {"eeg": 2, "ecg": 2, "eye": 2, "gsr": 1}[mod]
        assert phm[mod] == lin[mod] + layers
    assert phm["total"] == lin["total"] + n_hyper_encoder_layers


def test_share_encoder_algebra_counts_once_and_trains():
    cfg = tiny_model_config(variant="phc", share_encoder_algebra=True)
    model = H2Model(cfg, seed=0)
    assert model.enc_eeg.conv1.weight.a is model.enc_eeg.conv2.weight.a
    shared = tiny_model_config(variant="phc", share_encoder_algebra=True)
    own = tiny_model_config(variant="phc", share_encoder_algebra=False)
    diff = (
        H2Model(own, seed=0).count_parameters()["total"]
        - H2Model(shared, seed=0).count_parameters()["total"]
    )
    # one A per conv encoder is deduplicated (EEG 10^3, ECG 3^3, eye 4^3)
    assert diff == 10**3 + 3**3 + 4**3


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip_bitexact():
    model = H2Model(tiny_model_config(), seed=5)
    batch = random_batch(np.random.default_rng(7))
    # move BN away from init stats so buffers are exercised
    with tape_scope():
        model.forward(**batch, train=True, rng=np.random.default_rng(0))
    blob = serialize_model(model, extra={"note": 1})
    clone, extra = deserialize_model(blob)
    assert extra == {"note": 1}
    np.testing.assert_array_equal(
        model.forward(**batch).data, clone.forward(**batch).data
    )
    assert serialize_model(clone, extra={"note": 1}) == blob


# SHA-256 of the seed-0 checkpoint of each default-width model.  These pin
# tensor names, tensor order and the rng draw order of initialization, so a
# refactor of the encoders or layers must leave them unchanged.  Init does
# no BLAS work, so the bytes do not depend on the BLAS thread count.
GOLDEN_CHECKPOINT_SHA256 = {
    ("linear", False): "bd2f242562158b29e339cee36015544d93ae6df59ef7464865034c496df410c6",
    ("phm", False): "8d88f9fbe5ea7ccf212ba4b61444b340893c86de54102e36ff897f629258c1ab",
    ("conv", False): "23e028d8652c38273b5311504a22ba5c10c85241847501df5900ad56d68ecdfc",
    ("phc", False): "4d1d05563bc66be0aab83e0d9c7324afe690d0f0332a84550adddcc4f7774c60",
    ("phc", True): "be201efad37b5780191eeafb3d406990a14279bd54fc90d3ea1fc72744f2f842",
}


@pytest.mark.parametrize("variant,shared", sorted(GOLDEN_CHECKPOINT_SHA256))
def test_seed0_checkpoint_bytes_are_golden(variant, shared):
    cfg = ModelConfig(variant=variant, share_encoder_algebra=shared)
    blob = serialize_model(H2Model(cfg, seed=0))
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_CHECKPOINT_SHA256[(variant, shared)]


def test_checkpoint_magic_and_missing_tensor_errors():
    model = H2Model(tiny_model_config(), seed=6)
    blob = serialize_model(model)
    with pytest.raises(FormatError, match="magic"):
        deserialize_model(b"XXXX" + blob[4:])
    truncated = blob[: len(blob) // 2]
    with pytest.raises(Exception):
        deserialize_model(truncated)


def test_every_truncated_checkpoint_is_a_format_error():
    blob = serialize_model(H2Model(tiny_model_config(), seed=6), extra={"note": 1})
    # every cut inside the header, then cuts spread over the tensor entries
    cuts = list(range(65)) + np.linspace(65, len(blob) - 1, 40).astype(int).tolist()
    for cut in cuts:
        with pytest.raises(FormatError):
            deserialize_model(blob[:cut])


def _fuzz_checkpoint():
    """A tiny checkpoint and the offsets of its bytes that are not tensor data:
    the header, the config block, the tensor count and each entry's name
    length, name, rank and dims."""
    model = H2Model(tiny_model_config(), seed=6)
    blob = serialize_model(model, extra={"epoch": 1})
    off = 16 + struct.unpack_from("<I", blob, 8)[0]
    offsets = list(range(off))
    for name, arr in [(n, p.data) for n, p in model.named_parameters()] + model.named_buffers():
        head = 4 + len(name) + 4 + 4 * arr.ndim
        offsets += range(off, off + head)
        off += head + 8 * arr.size
    assert off == len(blob)
    return blob, offsets


FUZZ_BLOB, FUZZ_META_OFFSETS = _fuzz_checkpoint()


@settings(max_examples=50, deadline=None)
@given(byte=st.integers(0, len(FUZZ_BLOB) - 1) | st.sampled_from(FUZZ_META_OFFSETS), bit=st.integers(0, 7))
# rank 3 -> 7: the dims run into the float 1.0, a zero dim next to dims whose product overflows
@example(byte=FUZZ_BLOB.index(b"gsr.fc.A") + 8, bit=2)
def test_a_checkpoint_with_one_bit_flipped_loads_or_is_a_format_error(byte, bit):
    """Half the flips land anywhere, mostly in float data; the other half in
    the bytes that say how to read it."""
    blob = bytearray(FUZZ_BLOB)
    blob[byte] ^= 1 << bit
    try:
        deserialize_model(bytes(blob))
    except FormatError:
        pass


@pytest.mark.parametrize(
    "old,new",
    [
        (b'"model"', b'\xff"model"'),  # not UTF-8
        (b'"model"', b'["model"'),  # not JSON
        (b'"extra":{}', b'"extra":[1]'),  # extra block is not an object
        (b'"n_eeg":10', b'"n_eeg":"x"'),  # wrong-typed field
        (b'"eeg_channels":[10,20]', b'"eeg_channels":[]'),  # too few widths, raised while the model is built
        (b'"eeg_channels":[10,20]', b'"eeg_channels":[10,20,40]'),  # too many widths
    ],
)
def test_corrupt_config_block_is_a_format_error(old, new):
    blob = serialize_model(H2Model(tiny_model_config(), seed=6))
    i = blob.index(old)
    patched = blob[:i] + new + blob[i + len(old) :]
    blob_len = struct.unpack_from("<I", blob, 8)[0] + len(new) - len(old)
    with pytest.raises(FormatError, match="config block"):
        deserialize_model(patched[:8] + struct.pack("<I", blob_len) + patched[12:])


def test_every_one_byte_config_block_overwrite_loads_or_is_a_format_error():
    """Each config block byte set to '0', '9' and '-' in turn: the load raises
    FormatError, or the model it returns runs an eval forward."""
    blob = serialize_model(H2Model(tiny_model_config(), seed=6), extra={"epoch": 1})
    batch = random_batch(np.random.default_rng(0))
    loaded = 0
    for i in range(12, 12 + struct.unpack_from("<I", blob, 8)[0]):
        for ch in b"09-":
            where = f"config byte {i - 12} ({blob[i:i + 1]!r}) set to {chr(ch)!r}"
            try:
                model, _ = deserialize_model(blob[:i] + bytes([ch]) + blob[i + 1 :])
            except FormatError:
                continue
            except Exception as e:
                pytest.fail(f"{where}: load raised {e!r}")
            try:
                with no_grad():
                    logits = model.forward(**batch)
            except Exception as e:
                pytest.fail(f"{where}: loaded, then the forward raised {e!r}")
            assert logits.shape == (2, model.cfg.num_classes), where
            loaded += 1
    assert loaded > 0


def test_corrupt_tensor_name_or_shape_is_a_format_error():
    model = H2Model(tiny_model_config(), seed=6)
    blob = serialize_model(model)
    i = blob.index(b"eeg.bn1.running_mean")
    with pytest.raises(FormatError, match="missing tensor eeg.bn1.running_mean"):
        deserialize_model(blob[:i] + b"\xff" + blob[i + 1 :])
    # a one-element buffer must not broadcast into a [C] buffer
    rank_at = i + len(b"eeg.bn1.running_mean")
    width = model.enc_eeg.bn1.running_mean.size
    one = struct.pack("<II", 1, 1) + struct.pack("<d", 3.0)
    bad = blob[:rank_at] + one + blob[rank_at + 8 + 8 * width :]
    with pytest.raises(FormatError, match="shape"):
        deserialize_model(bad)


def test_checkpoint_restores_running_stats():
    model = H2Model(tiny_model_config(), seed=7)
    batch = random_batch(np.random.default_rng(8), batch=4)
    with tape_scope():
        model.forward(**batch, train=True, rng=np.random.default_rng(1))
    clone, _ = deserialize_model(serialize_model(model))
    np.testing.assert_array_equal(model.enc_eeg.bn1.running_mean, clone.enc_eeg.bn1.running_mean)
    assert np.any(clone.enc_eeg.bn1.running_mean != 0)
