"""Adam optimization with a one-cycle schedule, metrics and the train loop.

The learning rate rises linearly from max_lr/div_factor to max_lr over the
first pct_start of steps, then falls linearly to max_lr/(div_factor *
final_div_factor); Adam's beta1 moves inversely between momentum_max and
momentum_min.  pct_start defaults to 0.475 so that both linear slopes stay
below 2 * max_lr / total_steps; the warm-up fraction is configurable.

Training evaluates the held-out split after each epoch.  The best epoch
is the first one with the highest test macro-F1; its checkpoint is kept,
and training stops once ``patience`` epochs have passed without a new
best.  A non-finite gradient raises ``GradientError``, and so does a
non-finite loss before the first epoch has finished; a non-finite loss in
a later epoch ends the run with the best epoch's checkpoint.  Everything
is deterministic for a fixed seed: shuffling, augmentation and dropout
draw from generators derived from it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .config import JsonConfig
from .dataset import CLASSES, SPLIT_UNITS, TARGETS, SegmentSet, augment_segments
from .errors import ConfigError, GradientError
from .model import H2Model, serialize_model
from .tensor import clear_tape, no_grad, softmax_cross_entropy, zero_grads

__all__ = [
    "TrainConfig",
    "EVAL_BATCH_SIZE",
    "one_cycle",
    "adam_step",
    "Adam",
    "MetricsReport",
    "compute_metrics",
    "evaluate",
    "predict",
    "TrainResult",
    "train",
]

EVAL_BATCH_SIZE = 256  # segments per forward pass of predict, evaluate and `hyperx eval`


@dataclass(frozen=True)
class TrainConfig(JsonConfig):
    max_lr: float = 7.96e-6
    pct_start: float = 0.475
    div_factor: float = 10.0
    final_div_factor: float = 10.0
    momentum_min: float = 0.7403
    momentum_max: float = 0.8314
    beta2: float = 0.999
    eps: float = 1e-8
    epochs: int = 50
    patience: int = 10
    batch_size: int = 64
    seed: int = 0
    target: str = "arousal"
    train_frac: float = 0.8
    split_unit: str = "segment"
    split_seed: int = 0
    augment: bool = True
    track_train_accuracy: bool = False

    def validate(self):
        if not 0.0 < self.pct_start < 1.0:
            raise ConfigError(f"pct_start must be in (0, 1), got {self.pct_start}")
        if self.max_lr <= 0:
            raise ConfigError(f"max_lr must be positive, got {self.max_lr}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2 (train-mode batch norm), got {self.batch_size}")
        if not 0.0 < self.train_frac < 1.0:
            raise ConfigError(f"train_frac must be in (0, 1), got {self.train_frac}")
        if self.split_unit not in SPLIT_UNITS:
            raise ConfigError(f"split_unit must be {' or '.join(SPLIT_UNITS)}, got {self.split_unit!r}")
        if self.patience > self.epochs:
            raise ConfigError(f"patience {self.patience} exceeds epochs {self.epochs}")
        if self.target not in TARGETS:
            raise ConfigError(f"target must be {' or '.join(TARGETS)}, got {self.target!r}")


def one_cycle(step: int, total_steps: int, cfg: TrainConfig) -> tuple[float, float]:
    """(learning rate, beta1) at ``step`` of a ``total_steps`` run.

    Anchors: step 0 gives max_lr/div_factor and momentum_max; the peak step
    gives max_lr and momentum_min; the last step gives
    max_lr/(div_factor*final_div_factor) and momentum_max.  Both traces are
    piecewise linear between the anchors, which hold exactly.
    """
    if total_steps < 3:
        raise ConfigError(f"one_cycle needs total_steps >= 3, got {total_steps}")
    if not 0 <= step < total_steps:
        raise ConfigError(f"step {step} outside [0, {total_steps})")
    lr_start = cfg.max_lr / cfg.div_factor
    peak = int(round(cfg.pct_start * (total_steps - 1)))
    peak = min(max(peak, 1), total_steps - 2)
    anchors = (0, peak, total_steps - 1)
    lr = np.interp(step, anchors, (lr_start, cfg.max_lr, lr_start / cfg.final_div_factor))
    beta1 = np.interp(step, anchors, (cfg.momentum_max, cfg.momentum_min, cfg.momentum_max))
    return float(lr), float(beta1)


def adam_step(param, grad, state: dict, lr: float, beta1: float, beta2: float = 0.999, eps: float = 1e-8):
    """One bias-corrected Adam update, in place on ``param``.

    ``state`` holds m, v and the step counter t; beta1 may change per step
    (bias correction uses the current value's t-th power).
    """
    if not np.isfinite(grad).all():
        raise GradientError("non-finite gradient in adam_step")
    if not state:
        state["m"] = np.zeros_like(param)
        state["v"] = np.zeros_like(param)
        state["t"] = 0
    state["t"] += 1
    t = state["t"]
    # m = beta1*m + (1-beta1)*g, v = beta2*v + (1-beta2)*g*g and
    # param -= lr*m_hat / (sqrt(v_hat) + eps), each product and sum in that
    # order, written in place through two scratch arrays
    m, v = state["m"], state["v"]
    upd, denom = np.empty_like(param), np.empty_like(param)
    m *= beta1
    m += np.multiply(1.0 - beta1, grad, out=upd)
    v *= beta2
    np.multiply(1.0 - beta2, grad, out=upd)
    v += np.multiply(upd, grad, out=upd)
    np.divide(v, 1.0 - beta2**t, out=denom)
    np.sqrt(denom, out=denom)
    denom += eps
    np.divide(m, 1.0 - beta1**t, out=upd)
    upd *= lr
    upd /= denom
    param -= upd
    return state


class Adam:
    """Adam over a model's named parameters; skips parameters with no grad."""

    def __init__(self, named_params, beta2: float = 0.999, eps: float = 1e-8):
        self.named_params = list(named_params)
        self.beta2 = beta2
        self.eps = eps
        self.state = {name: {} for name, _ in self.named_params}

    def step(self, lr: float, beta1: float):
        for name, p in self.named_params:
            if p.grad is None:
                continue
            try:
                adam_step(p.data, p.grad, self.state[name], lr, beta1, self.beta2, self.eps)
            except GradientError as e:
                raise GradientError(f"non-finite gradient in parameter {name}") from e

    def zero_grads(self):
        zero_grads(p for _, p in self.named_params)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


@dataclass
class MetricsReport:
    accuracy: float
    macro_f1: float
    per_class: list  # per class: {precision, recall, f1, support}
    confusion: list  # rows = true class, columns = predicted
    n: int

    @property
    def accuracy_percent(self) -> float:
        return 100.0 * self.accuracy

    def to_dict(self):
        return {**asdict(self), "accuracy_percent": self.accuracy_percent}


def compute_metrics(y_true, y_pred) -> MetricsReport:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    cm = np.zeros((len(CLASSES), len(CLASSES)), dtype=np.int64)
    np.add.at(cm, (y_true, y_pred), 1)
    per_class = []
    f1s = []
    for c in range(len(CLASSES)):
        tp = cm[c, c]
        support = int(cm[c].sum())
        pred_c = int(cm[:, c].sum())
        precision = tp / pred_c if pred_c else 0.0
        recall = tp / support if support else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append(
            {"precision": float(precision), "recall": float(recall), "f1": float(f1), "support": support}
        )
        f1s.append(f1)
    n = int(cm.sum())
    accuracy = float(np.trace(cm) / n) if n else 0.0
    return MetricsReport(accuracy, float(np.mean(f1s)), per_class, cm.tolist(), n)


def predict(model: H2Model, segs: SegmentSet, batch_size: int = EVAL_BATCH_SIZE) -> np.ndarray:
    """Eval-mode class predictions for every segment; non-finite logits raise ``GradientError``."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    preds = []
    with no_grad():
        for start in range(0, len(segs), batch_size):
            idx = slice(start, start + batch_size)
            logits = model.forward_segments(segs, idx, train=False)
            preds.append(np.argmax(logits.data, axis=1))
    return np.concatenate(preds) if preds else np.empty(0, dtype=np.int64)


def evaluate(model: H2Model, segs: SegmentSet, target: str, batch_size: int = EVAL_BATCH_SIZE) -> MetricsReport:
    """Pure eval-mode metrics of ``model`` on ``segs`` for one target."""
    if len(segs) == 0:
        raise ConfigError("evaluate needs a non-empty split")
    return compute_metrics(segs.labels(target), predict(model, segs, batch_size))


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    best_checkpoint: bytes
    best_epoch: int
    best_metrics: MetricsReport
    history: list  # one dict per epoch
    epochs_run: int
    aborted: str | None = None

    def history_csv(self) -> str:
        cols = list(self.history[0])  # train() names each column once, in its epoch record
        lines = [",".join(cols)]
        for row in self.history:
            lines.append(",".join("" if row[c] is None else repr(row[c]) for c in cols))
        return "\n".join(lines) + "\n"


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    out = [order[s : s + batch_size] for s in range(0, n, batch_size)]
    if len(out) > 1 and out[-1].size == 1:
        # batch norm cannot standardize a single sample
        out[-2] = np.concatenate([out[-2], out[-1]])
        out.pop()
    return out


def train(
    model: H2Model,
    train_segs: SegmentSet,
    test_segs: SegmentSet,
    cfg: TrainConfig,
    callback=None,
) -> TrainResult:
    """Optimize ``model``; returns the best epoch's checkpoint and the history.

    The best epoch is the first one with the highest test macro-F1, and
    training stops once ``cfg.patience`` epochs have passed without a new
    best.  ``callback(epoch, record)`` runs after each epoch and may return
    the string "stop" to end training early (used by capability checks).
    A non-finite loss raises ``GradientError`` if no epoch has finished yet;
    later, it ends the run with ``aborted="nan-loss"``.
    """
    if len(train_segs) == 0 or len(test_segs) == 0:
        raise ConfigError("train needs non-empty train and test splits")
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    augment_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2]))
    dropout_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 3]))

    optimizer = Adam(model.named_parameters(), beta2=cfg.beta2, eps=cfg.eps)
    steps_per_epoch = math.ceil(len(train_segs) / cfg.batch_size)
    total_steps = max(cfg.epochs * steps_per_epoch, 3)

    history = []
    best = None  # (checkpoint, epoch, test metrics) of the best epoch, as TrainResult orders them
    aborted = None
    step = 0
    labels_all = train_segs.labels(cfg.target)

    for epoch in range(1, cfg.epochs + 1):
        epoch_segs = augment_segments(train_segs, augment_rng) if cfg.augment else train_segs
        losses = []
        lr = beta1 = None
        for idx in _batches(len(train_segs), cfg.batch_size, shuffle_rng):
            clear_tape()
            optimizer.zero_grads()
            logits = model.forward_segments(epoch_segs, idx, train=True, rng=dropout_rng)
            loss = softmax_cross_entropy(logits, labels_all[idx])
            loss_val = loss.item()
            if not math.isfinite(loss_val):
                aborted = "nan-loss"
                break
            loss.backward()
            lr, beta1 = one_cycle(step, total_steps, cfg)
            optimizer.step(lr, beta1)
            step += 1
            losses.append(loss_val)
        clear_tape()
        if aborted:
            if best is None:
                raise GradientError(f"non-finite loss at epoch {epoch}, step {step + 1}, before any epoch finished")
            break

        test_metrics = evaluate(model, test_segs, cfg.target)
        record = {
            "epoch": epoch,
            "train_loss": float(np.mean(losses)),
            "train_accuracy": None,
            "test_accuracy": test_metrics.accuracy,
            "test_macro_f1": test_metrics.macro_f1,
            "lr_last": lr,
            "beta1_last": beta1,
        }
        if cfg.track_train_accuracy:
            record["train_accuracy"] = evaluate(model, train_segs, cfg.target).accuracy
        history.append(record)

        if best is None or test_metrics.macro_f1 > best[2].macro_f1:
            extra = {"train_config": cfg.to_dict(), "epoch": epoch, "test_metrics": test_metrics.to_dict()}
            best = (serialize_model(model, extra=extra), epoch, test_metrics)
        if callback is not None and callback(epoch, record) == "stop":
            break
        if epoch - best[1] >= cfg.patience:
            break

    return TrainResult(*best, history=history, epochs_run=len(history), aborted=aborted)
