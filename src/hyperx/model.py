"""Hierarchical multimodal classifier built from hypercomplex layers.

Four modality encoders produce fixed-width embeddings that are concatenated
and fused by a stack of hypercomplex multiplication layers, ending in a
dense head that emits 3-class logits.  Each encoder's hypercomplex
dimension n equals its signal's channel count (EEG 10, ECG 3, eye 4,
GSR 1), so the Kronecker block structure of the weights lines up exactly
with the physical channels and the algebra matrices mix whole channels.

Every encoder is one ``_Encoder``: [layer -> BN -> ReLU] stages whose layer
kind follows the variant (same widths everywhere, for ablation comparisons):

* ``phc``    conv1, conv2 = PHCLayer, then global average pool
* ``conv``   conv1, conv2 = PHCLayer with n=None, then global average pool
* ``phm``    fc1, fc2 = PHMLayer on the flattened segment
* ``linear`` fc1, fc2 = PHMLayer with n=None on the flattened segment

Stage i normalizes with ``bn{i}``.  GSR is single-channel, so in every variant
its encoder is the one stage ``fc``/``bn``: PHMLayer with n = 1 (i.e. dense)
for phc/phm, n=None otherwise.  With ``share_encoder_algebra`` the second
hypercomplex layer of an encoder uses the first one's A tensor.  Conv stages
run channel-major, [C, B, L], so each conv op is one GEMM over the batch: the
encoder transposes its [B, C, L] input once and pooling returns [B, C].

In eval mode BN is ``BatchNorm1d``'s one fixed per-channel affine map: a flat
stage applies it to the layer's output, and a conv stage folds it into the
convolution's weight and bias (``BatchNorm1d.fold``) and runs as one conv1d
then ReLU, with no batch-norm pass.  No stage then couples two segments, so
each weight is built and folded once per forward and the conv stages run
``EVAL_CHUNK`` segments at a time: no conv intermediate is batch-sized.

Every ReLU here is ``relu_``, written into the buffer it follows: the output
of train-mode ``batch_norm``, of eval BN's final ``add``, of an eval conv
stage's ``conv1d`` or of a fusion ``phm_linear``.  Each is fresh, only the
ReLU reads it, and its producer's VJP never reads it, so a stage keeps one
activation fewer and the gradients are those of a copying ``relu``.

Checkpoint container: magic ``H2CK``, u32 version, u32 length + canonical
JSON config block, u32 tensor count, then per tensor: u32 name length,
name bytes, u32 rank, u32 dims, float64 little-endian data.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import JsonConfig
from .dataset import CLASSES, SEGMENT_SHAPES
from .errors import ConfigError, FormatError, GradientError, InputError
from .layers import BatchNorm1d, Dropout, PHCLayer, PHMLayer
# ``relu`` is not called here; it stays bound because perfbench/probes.py probes hyperx.model.relu
from .tensor import Tensor, concat, global_avg_pool, relu, relu_, reshape  # noqa: F401

__all__ = [
    "VARIANTS",
    "FUSION_ORDER",
    "EVAL_CHUNK",
    "ModelConfig",
    "H2Model",
    "serialize_model",
    "save_checkpoint",
    "load_checkpoint",
    "deserialize_model",
]

VARIANTS = ("linear", "phm", "conv", "phc")
# Modalities in the order their encoders are built (and draw from the rng),
# their embeddings are concatenated and their parameters are stored.
FUSION_ORDER = ("eeg", "ecg", "eye", "gsr")

# Segments per pass of an eval conv encoder; 4 to 32 ran at one speed, 64 took more memory
EVAL_CHUNK = 16

_MAGIC = b"H2CK"
_VERSION = 1


@dataclass(frozen=True)
class ModelConfig(JsonConfig):
    variant: str = "phc"
    n_eeg: int = 10
    n_ecg: int = 3
    n_eye: int = 4
    n_gsr: int = 1
    eeg_channels: tuple = (40, 160)
    ecg_channels: tuple = (36, 144)
    eye_channels: tuple = (32, 128)
    kernel_size: int = 7
    stride: int = 2
    padding: int = 3
    eeg_hidden: int = 30
    ecg_hidden: int = 24
    eye_hidden: int = 24
    gsr_width: int = 32
    fusion_n: int = 4
    fusion_widths: tuple = (4096, 1024, 256)
    dropout_p: float = 0.5
    num_classes: int = len(CLASSES)
    share_encoder_algebra: bool = False

    def modality_n(self, name: str) -> int:
        return {"eeg": self.n_eeg, "ecg": self.n_ecg, "eye": self.n_eye, "gsr": self.n_gsr}[name]

    def conv_channels(self, name: str) -> tuple:
        return {"eeg": self.eeg_channels, "ecg": self.ecg_channels, "eye": self.eye_channels}[name]

    def flat_hidden(self, name: str) -> int:
        return {"eeg": self.eeg_hidden, "ecg": self.ecg_hidden, "eye": self.eye_hidden}[name]

    def embedding_width(self, name: str) -> int:
        if name == "gsr":
            return self.gsr_width
        return self.conv_channels(name)[-1]

    def fusion_input_width(self) -> int:
        return sum(self.embedding_width(m) for m in FUSION_ORDER)

    def validate(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown encoder variant {self.variant!r}; choose from {VARIANTS}")
        for name in ("eeg", "ecg", "eye"):
            if len(self.conv_channels(name)) != 2:
                raise ConfigError(f"{name}_channels must list two widths, got {list(self.conv_channels(name))}")
        for name in ("n_eeg", "n_ecg", "n_eye", "n_gsr", "fusion_n", "kernel_size", "stride",
                     "eeg_hidden", "ecg_hidden", "eye_hidden", "gsr_width"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.padding < 0:
            raise ConfigError(f"padding must be >= 0, got {self.padding}")
        for name in ("eeg_channels", "ecg_channels", "eye_channels", "fusion_widths"):
            if any(w < 1 for w in getattr(self, name)):
                raise ConfigError(f"{name} must all be >= 1, got {list(getattr(self, name))}")
        # encoder widths are checked against n by the hypercomplex layers the variant builds
        width = self.fusion_input_width()
        for d in (width, *self.fusion_widths):
            if d % self.fusion_n:
                raise ConfigError(f"fusion width {d} is not divisible by n={self.fusion_n}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if self.num_classes != len(CLASSES):
            raise ConfigError(f"num_classes must be {len(CLASSES)} (labels {list(CLASSES)}), got {self.num_classes}")


class _Encoder:
    """One modality's [layer -> BN -> ReLU] stages; see the module docstring.

    In eval mode each conv stage is [conv with BN folded in -> ReLU], over
    ``EVAL_CHUNK`` segments at a time.
    """

    def __init__(self, cfg: ModelConfig, modality: str, rng):
        c_in, length = SEGMENT_SHAPES[modality]
        self.conv = cfg.variant in ("conv", "phc") and modality != "gsr"
        self.d_flat = c_in * length
        if modality == "gsr":
            self.stage_names = [("fc", "bn")]
            widths = [cfg.gsr_width]
        elif self.conv:
            self.stage_names = [("conv1", "bn1"), ("conv2", "bn2")]
            widths = cfg.conv_channels(modality)
        else:
            self.stage_names = [("fc1", "bn1"), ("fc2", "bn2")]
            widths = [cfg.flat_hidden(modality), cfg.embedding_width(modality)]
        n = cfg.modality_n(modality) if cfg.variant in ("phm", "phc") else None
        share = cfg.share_encoder_algebra and n is not None
        self.stages = []
        prev = c_in if self.conv else self.d_flat
        for (layer_name, bn_name), width in zip(self.stage_names, widths):
            # a shared A is passed in, so the second layer draws no A from rng
            first = self.stages[0][0] if share and self.stages else None
            layer = self._layer(cfg, n, prev, width, rng, None if first is None else first.weight.a.data)
            if first is not None:
                layer.weight.a = first.weight.a
            bn = BatchNorm1d(width)
            setattr(self, layer_name, layer)
            setattr(self, bn_name, bn)
            self.stages.append((layer, bn))
            prev = width

    def _layer(self, cfg: ModelConfig, n: int | None, d_in: int, d_out: int, rng, algebra):
        if self.conv:
            return PHCLayer(d_in, d_out, n, cfg.kernel_size, rng, cfg.stride, cfg.padding, algebra=algebra)
        return PHMLayer(d_in, d_out, n, rng, algebra=algebra)

    def forward(self, x: Tensor, train: bool) -> Tensor:
        # conv stages run channel-major; x is model input, so it needs no gradient
        if self.conv and not train:
            wbs = [bn.fold(*layer.weight_and_bias()) for layer, bn in self.stages]
            pooled = []
            for start in range(0, x.shape[0] or 1, EVAL_CHUNK):  # an empty batch is one empty chunk
                h = Tensor(x.data[start : start + EVAL_CHUNK].transpose(1, 0, 2))
                for (layer, _), wb in zip(self.stages, wbs):
                    h = relu_(layer(h, wb))
                pooled.append(global_avg_pool(h))
            return concat(pooled, axis=0)
        h = Tensor(x.data.transpose(1, 0, 2)) if self.conv else reshape(x, (x.shape[0], self.d_flat))
        for layer, bn in self.stages:
            h = relu_(bn(layer(h), train))
        return global_avg_pool(h) if self.conv else h

    def submodules(self):
        return [(name, getattr(self, name)) for names in self.stage_names for name in names]


class _Fusion:
    """[dropout -> PHM -> ReLU] x k -> dropout -> dense head -> logits."""

    def __init__(self, in_width, cfg: ModelConfig, rng):
        self.dropout = Dropout(cfg.dropout_p)
        self.phms = []
        prev = in_width
        for w in cfg.fusion_widths:
            self.phms.append(PHMLayer(prev, w, cfg.fusion_n, rng))
            prev = w
        self.head = PHMLayer(prev, cfg.num_classes, None, rng)

    def forward(self, h: Tensor, train: bool, rng) -> Tensor:
        for phm in self.phms:
            h = relu_(phm(self.dropout(h, train, rng)))
        logits = self.head(self.dropout(h, train, rng))
        # the argmax of NaN or inf logits would name one class for every segment
        if not train and not np.isfinite(logits.data).all():
            raise GradientError("eval logits are not finite; the weights overflow or hold NaN")
        return logits

    def submodules(self):
        mods = [(f"phm{i + 1}", phm) for i, phm in enumerate(self.phms)]
        mods.append(("head", self.head))
        return mods


class H2Model:
    """Four modality encoders, hypercomplex fusion, dense classifier head."""

    def __init__(self, cfg: ModelConfig | None = None, seed: int = 0):
        self.cfg = cfg or ModelConfig()
        rng = np.random.default_rng(seed)
        for m in FUSION_ORDER:
            setattr(self, f"enc_{m}", _Encoder(self.cfg, m, rng))
        self.fusion = _Fusion(self.cfg.fusion_input_width(), self.cfg, rng)

    # -- forward ------------------------------------------------------------

    def _validate_inputs(self, **arrays) -> dict:
        """The named batches as float64 arrays, once each is real, finite and
        shaped [B, *SEGMENT_SHAPES[name]] with one B."""
        batch = None
        for name, arr in arrays.items():
            arr = np.asarray(arr)
            if arr.dtype.kind not in "fiu":
                raise InputError(f"{name} input has dtype {arr.dtype}; want real numbers")
            arrays[name] = arr = arr.astype(np.float64, copy=False)
            want = SEGMENT_SHAPES[name]
            if arr.ndim != 3 or arr.shape[1:] != want:
                raise InputError(f"{name} batch has shape {arr.shape}, want [B, {want[0]}, {want[1]}]")
            if batch is None:
                batch = arr.shape[0]
            elif arr.shape[0] != batch:
                raise InputError(f"{name} batch size {arr.shape[0]} != {batch}")
            if not np.isfinite(arr).all():
                raise InputError(f"{name} input contains non-finite values")
        return arrays

    def embed(self, eeg, ecg, gsr, eye, train: bool = False) -> Tensor:
        """Concatenated encoder embeddings [B, fusion_input_width]."""
        arrays = self._validate_inputs(eeg=eeg, ecg=ecg, gsr=gsr, eye=eye)
        return concat([getattr(self, f"enc_{m}").forward(Tensor(arrays[m]), train) for m in FUSION_ORDER], axis=1)

    def forward(self, eeg, ecg, gsr, eye, train: bool = False, rng=None) -> Tensor:
        """Logits [B, num_classes]; deterministic when train=False."""
        return self.fusion.forward(self.embed(eeg, ecg, gsr, eye, train), train, rng)

    __call__ = forward

    def forward_segments(self, segs, idx, train: bool = False, rng=None) -> Tensor:
        """Logits of the segments ``segs[idx]``."""
        return self.forward(segs.eeg[idx], segs.ecg[idx], segs.gsr[idx], segs.eye[idx], train, rng)

    # -- parameter registry ---------------------------------------------------

    def _modules(self):
        return [(m, getattr(self, f"enc_{m}")) for m in FUSION_ORDER] + [("fusion", self.fusion)]

    def _named(self, kind: str):
        """Qualified (name, array) pairs of every submodule's ``params`` or ``buffers``."""
        for mod_name, mod in self._modules():
            for sub_name, sub in mod.submodules():
                for name, t in getattr(sub, kind, list)():
                    yield f"{mod_name}.{sub_name}.{name}", t

    def named_parameters(self):
        """Ordered unique (name, Tensor) pairs; shared tensors appear once."""
        out, seen = [], set()
        for name, p in self._named("params"):
            if id(p) not in seen:
                seen.add(id(p))
                out.append((name, p))
        return out

    def named_buffers(self):
        return list(self._named("buffers"))

    def count_parameters(self) -> dict:
        """Learnable-scalar counts per module plus the total."""
        counts = {}
        for name, p in self.named_parameters():
            mod_name, sub_name, _ = name.split(".")
            bucket = "head" if sub_name == "head" else mod_name
            counts[bucket] = counts.get(bucket, 0) + p.size
        counts["total"] = sum(counts.values())
        return counts


# ---------------------------------------------------------------------------
# Checkpoint container
# ---------------------------------------------------------------------------


def _entries(model: H2Model) -> list:
    """The checkpoint's (name, array) entries in file order: parameters, then buffers."""
    return [(n, p.data) for n, p in model.named_parameters()] + model.named_buffers()


def serialize_model(model: H2Model, extra: dict | None = None) -> bytes:
    """Deterministic binary image of config, parameters and BN buffers."""
    config = {"model": model.cfg.to_dict(), "extra": extra or {}}
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    chunks = [_MAGIC, struct.pack("<I", _VERSION), struct.pack("<I", len(blob)), blob]
    entries = _entries(model)
    chunks.append(struct.pack("<I", len(entries)))
    for name, arr in entries:
        nb = name.encode()
        chunks.append(struct.pack("<I", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return b"".join(chunks)


class _Reader:
    """Sequential reads from a checkpoint image; any overrun is a FormatError."""

    def __init__(self, data: bytes):
        self.view = memoryview(data)
        self.off = 0

    def take(self, size: int, what: str) -> memoryview:
        if self.off + size > len(self.view):
            raise FormatError(f"checkpoint truncated in {what} at byte {self.off} of {len(self.view)}")
        self.off += size
        return self.view[self.off - size : self.off]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def deserialize_model(data: bytes) -> tuple[H2Model, dict]:
    r = _Reader(data)
    magic = bytes(r.take(4, "magic"))
    if magic != _MAGIC:
        raise FormatError(f"bad checkpoint magic {magic!r}")
    version = r.u32("version")
    if version != _VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    blob = bytes(r.take(r.u32("config length"), "config block"))
    try:
        config = json.loads(blob)  # a block that is not UTF-8 raises UnicodeDecodeError
    except ValueError as e:
        raise FormatError(f"checkpoint config block is malformed: {e!r}") from e
    if not isinstance(config, dict) or not isinstance(extra := config.get("extra", {}), dict):
        raise FormatError("checkpoint config block is not a JSON object with an object 'extra'")
    try:
        model = H2Model(ModelConfig.from_dict(config.get("model"), "checkpoint config block 'model'"), seed=0)
    except FormatError:  # a key or JSON type from_dict rejects; it names the key
        raise
    except (TypeError, ValueError) as e:  # a value out of range, or an encoder width the layers cannot split by n
        raise FormatError(f"checkpoint config block is malformed: {e!r}") from e
    tensors = {}
    for _ in range(r.u32("tensor count")):
        # a name that is not UTF-8 decodes with U+FFFD and then matches no tensor below
        name = str(r.take(r.u32("tensor name length"), "tensor name"), "utf-8", "replace")
        if name in tensors:
            raise FormatError(f"checkpoint lists tensor {name} twice")
        rank = r.u32(f"rank of {name}")
        dims = struct.unpack(f"<{rank}I", r.take(4 * rank, f"dims of {name}"))
        data_bytes = r.take(8 * math.prod(dims), f"data of {name}")
        try:
            arr = np.frombuffer(data_bytes, dtype="<f8").reshape(dims)
        except ValueError as e:  # a zero dim lets the other dims overflow numpy's size
            raise FormatError(f"tensor {name} has shape {dims}: {e}") from e
        if not np.isfinite(arr).all():
            raise FormatError(f"tensor {name} holds a non-finite value")
        if name.endswith(".running_var") and (arr < 0).any():
            raise FormatError(f"tensor {name} holds a negative variance")
        tensors[name] = arr

    for name, arr in _entries(model):
        if name not in tensors:
            raise FormatError(f"checkpoint is missing tensor {name}")
        got = tensors.pop(name)
        if got.shape != arr.shape:
            raise FormatError(f"tensor {name} has shape {got.shape}, want {arr.shape}")
        arr[...] = got
    if tensors:
        raise FormatError(f"checkpoint has unknown tensors: {sorted(tensors)[:3]}")
    return model, extra


def save_checkpoint(model: H2Model, path, extra: dict | None = None):
    Path(path).write_bytes(serialize_model(model, extra))


def load_checkpoint(path) -> tuple[H2Model, dict]:
    return deserialize_model(Path(path).read_bytes())
