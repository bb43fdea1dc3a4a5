import numpy as np
import pytest

from hyperx import trainer
from hyperx.dataset import split_segments
from hyperx.errors import ConfigError, GradientError
from hyperx.model import EVAL_CHUNK, H2Model, deserialize_model
from hyperx.trainer import (
    Adam,
    MetricsReport,
    TrainConfig,
    adam_step,
    compute_metrics,
    evaluate,
    one_cycle,
    predict,
    train,
)

from tests.conftest import tiny_model_config


# ---------------------------------------------------------------------------
# one-cycle schedule
# ---------------------------------------------------------------------------


def test_one_cycle_anchor_points():
    cfg = TrainConfig()
    total = 1000
    lr0, b0 = one_cycle(0, total, cfg)
    assert lr0 == pytest.approx(7.96e-7, abs=0.0)
    assert b0 == 0.8314
    peak = int(round(cfg.pct_start * (total - 1)))
    lrp, bp = one_cycle(peak, total, cfg)
    assert lrp == 7.96e-6
    assert bp == 0.7403
    lrl, bl = one_cycle(total - 1, total, cfg)
    assert lrl == pytest.approx(7.96e-8, abs=0.0)
    assert bl == 0.8314


def test_one_cycle_max_is_max_lr_exactly():
    cfg = TrainConfig()
    total = 640
    lrs = np.array([one_cycle(s, total, cfg)[0] for s in range(total)])
    assert lrs.max() == cfg.max_lr
    peak = int(lrs.argmax())
    assert abs(peak - round(cfg.pct_start * total)) <= 1


@pytest.mark.parametrize("total", [64, 100, 1000, 5000])
def test_one_cycle_piecewise_linear_and_continuous(total):
    cfg = TrainConfig()
    lrs = np.array([one_cycle(s, total, cfg)[0] for s in range(total)])
    betas = np.array([one_cycle(s, total, cfg)[1] for s in range(total)])
    jumps = np.abs(np.diff(lrs))
    assert jumps.max() < 2.0 * cfg.max_lr / total
    peak = int(lrs.argmax())
    assert (np.diff(lrs[: peak + 1]) > 0).all()
    assert (np.diff(lrs[peak:]) < 0).all()
    # momentum moves inversely to the learning rate
    assert betas.argmin() == peak
    assert (np.diff(betas[: peak + 1]) < 0).all()
    assert (np.diff(betas[peak:]) > 0).all()


def test_one_cycle_respects_custom_pct_start():
    cfg = TrainConfig(pct_start=0.425)
    total = 1000
    lrs = np.array([one_cycle(s, total, cfg)[0] for s in range(total)])
    assert abs(int(lrs.argmax()) - round(0.425 * total)) <= 1
    assert lrs.max() == cfg.max_lr


def test_one_cycle_step_out_of_range():
    cfg = TrainConfig()
    with pytest.raises(ConfigError):
        one_cycle(100, 100, cfg)
    with pytest.raises(ConfigError):
        one_cycle(-1, 100, cfg)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_leaves_param_unchanged():
    p = np.array([1.0, -2.0])
    state = {}
    adam_step(p, np.zeros(2), state, lr=0.1, beta1=0.9)
    np.testing.assert_array_equal(p, [1.0, -2.0])


def test_adam_constant_gradient_hand_trajectory():
    # w=1, grad=1, lr=0.1: bias correction makes m_hat/sqrt(v_hat)=1 each
    # step, so w decreases by 0.1/(1+1e-8) per step.
    p = np.array([1.0])
    state = {}
    expected = 1.0
    for step in range(1, 4):
        adam_step(p, np.ones(1), state, lr=0.1, beta1=0.9)
        expected -= 0.1 / (1.0 + 1e-8)
        assert abs(p[0] - expected) < 1e-12
    assert abs(p[0] - 0.700000003) < 1e-9


def test_adam_quadratic_bowl_converges_monotonically():
    p = np.array([3.0])
    state = {}
    history = [p[0]]
    for _ in range(200):
        grad = 2.0 * p
        adam_step(p, grad.copy(), state, lr=0.01, beta1=0.9)
        history.append(p[0])
    tail = np.abs(np.array(history[5:]))
    assert (np.diff(tail) < 0).all()
    assert abs(p[0]) < abs(history[0]) / 2


def test_adam_in_place_update_is_bitwise_the_textbook_expression():
    # the allocating form adam_step replaced, kept here as the oracle
    def oracle(param, grad, state, lr, beta1, beta2=0.999, eps=1e-8):
        state["t"] = t = state.get("t", 0) + 1
        state["m"] = beta1 * state.get("m", 0.0) + (1.0 - beta1) * grad
        state["v"] = beta2 * state.get("v", 0.0) + (1.0 - beta2) * grad * grad
        m_hat = state["m"] / (1.0 - beta1**t)
        v_hat = state["v"] / (1.0 - beta2**t)
        param -= lr * m_hat / (np.sqrt(v_hat) + eps)

    rng = np.random.default_rng(5)
    p = rng.standard_normal((7, 5))
    q = p.copy()
    state, want = {}, {}
    for step in range(6):
        grad = rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 3)
        lr, beta1 = 1e-3 * (step + 1), 0.9 - 0.02 * step
        adam_step(p, grad, state, lr, beta1)
        oracle(q, grad, want, lr, beta1)
        np.testing.assert_array_equal(p, q)
        np.testing.assert_array_equal(state["m"], want["m"])
        np.testing.assert_array_equal(state["v"], want["v"])


def test_adam_nan_gradient_aborts():
    with pytest.raises(GradientError):
        adam_step(np.ones(2), np.array([1.0, np.nan]), {}, lr=0.1, beta1=0.9)


def test_adam_optimizer_skips_gradless_params():
    from hyperx.tensor import Tensor

    p1 = Tensor(np.ones(3), requires_grad=True)
    p2 = Tensor(np.ones(3), requires_grad=True)
    p1.grad = np.full(3, 0.5)
    opt = Adam([("a", p1), ("b", p2)])
    opt.step(0.1, 0.9)
    assert not np.array_equal(p1.data, np.ones(3))
    np.testing.assert_array_equal(p2.data, np.ones(3))


def test_adam_optimizer_names_the_non_finite_parameter():
    from hyperx.tensor import Tensor

    p = Tensor(np.ones(2), requires_grad=True)
    p.grad = np.array([1.0, np.inf])
    opt = Adam([("fusion.head.W", p)])
    with pytest.raises(GradientError, match="fusion.head.W"):
        opt.step(0.1, 0.9)
    np.testing.assert_array_equal(p.data, np.ones(2))
    assert opt.state["fusion.head.W"] == {}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_metrics_perfect_predictions():
    y = np.array([0, 1, 2, 0, 1, 2])
    report = compute_metrics(y, y)
    assert report.accuracy == 1.0
    assert report.macro_f1 == 1.0
    assert report.accuracy_percent == 100.0


def test_metrics_all_class_zero_on_balanced_data():
    y_true = np.array([0, 1, 2] * 10)
    y_pred = np.zeros(30, dtype=int)
    report = compute_metrics(y_true, y_pred)
    assert report.accuracy == pytest.approx(1 / 3)
    assert report.macro_f1 == pytest.approx(0.5 / 3)
    assert report.per_class[1]["f1"] == 0.0


def test_metrics_confusion_matrix_identities():
    rng = np.random.default_rng(0)
    y_true = rng.integers(0, 3, 100)
    y_pred = rng.integers(0, 3, 100)
    report = compute_metrics(y_true, y_pred)
    cm = np.array(report.confusion)
    assert np.trace(cm) / cm.sum() == pytest.approx(report.accuracy)
    for c in range(3):
        assert cm[c].sum() == report.per_class[c]["support"] == (y_true == c).sum()


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def _tiny_train_cfg(**overrides):
    base = dict(max_lr=2e-3, epochs=2, patience=2, batch_size=16, seed=0, target="arousal")
    base.update(overrides)
    return TrainConfig(**base)


def test_evaluate_is_pure(tiny_segments):
    model = H2Model(tiny_model_config(), seed=0)
    a = evaluate(model, tiny_segments, "arousal")
    b = evaluate(model, tiny_segments, "arousal")
    assert a.to_dict() == b.to_dict()


def test_predict_is_the_same_at_any_batch_size(tiny_segments):
    """Batches that end inside, at and across the encoders' eval chunks all
    give the predictions of one batch of 256."""
    assert len(tiny_segments) >= 2 * EVAL_CHUNK + 1
    model = H2Model(tiny_model_config(variant="phc"), seed=0)
    want = predict(model, tiny_segments, batch_size=256)
    assert len(np.unique(want)) > 1  # a constant prediction would show nothing
    for batch_size in (1, EVAL_CHUNK - 1, EVAL_CHUNK + 1):
        np.testing.assert_array_equal(predict(model, tiny_segments, batch_size), want, err_msg=str(batch_size))


@pytest.mark.parametrize("batch_size", [0, -4])
@pytest.mark.parametrize("run", [predict, lambda m, s, b: evaluate(m, s, "arousal", b)], ids=["predict", "evaluate"])
def test_eval_batch_size_below_1_is_a_config_error(tiny_segments, run, batch_size):
    model = H2Model(tiny_model_config(), seed=0)
    with pytest.raises(ConfigError, match=f"batch_size must be >= 1, got {batch_size}"):
        run(model, tiny_segments, batch_size)


def test_predict_raises_on_non_finite_logits(tiny_segments):
    """Finite weights whose product overflows: class 0 for every segment would
    be the argmax of the inf/NaN logits."""
    model = H2Model(tiny_model_config(variant="phm"), seed=0)
    model.fusion.head.w.data[...] = 1e308
    model.fusion.phms[0].weight.f.data[...] = 1e300
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(GradientError, match="eval logits are not finite"):
        predict(model, tiny_segments)


def test_train_is_deterministic(tiny_segments):
    cfg = _tiny_train_cfg()
    tr, te = split_segments(tiny_segments, cfg.target, cfg.train_frac, cfg.split_seed)

    def run():
        model = H2Model(tiny_model_config(), seed=cfg.seed)
        return train(model, tr, te, cfg)

    r1, r2 = run(), run()
    assert r1.history_csv() == r2.history_csv()
    assert r1.best_checkpoint == r2.best_checkpoint


def test_train_different_seed_differs(tiny_segments):
    tr, te = split_segments(tiny_segments, "arousal", 0.8, 0)
    r1 = train(H2Model(tiny_model_config(), seed=0), tr, te, _tiny_train_cfg(seed=0))
    r2 = train(H2Model(tiny_model_config(), seed=1), tr, te, _tiny_train_cfg(seed=1))
    assert r1.best_checkpoint != r2.best_checkpoint


def test_train_history_and_early_stop_budget(tiny_segments):
    cfg = _tiny_train_cfg(epochs=3, patience=3)
    tr, te = split_segments(tiny_segments, cfg.target, cfg.train_frac, cfg.split_seed)
    result = train(H2Model(tiny_model_config(), seed=2), tr, te, cfg)
    assert result.epochs_run <= cfg.epochs
    assert len(result.history) == result.epochs_run
    header = result.history_csv().splitlines()[0]
    assert header.startswith("epoch,train_loss")
    assert result.best_metrics is not None
    assert 0.0 <= result.best_metrics.macro_f1 <= 1.0


def test_train_callback_can_stop(tiny_segments):
    cfg = _tiny_train_cfg(epochs=5, patience=5)
    tr, te = split_segments(tiny_segments, cfg.target, cfg.train_frac, cfg.split_seed)
    result = train(
        H2Model(tiny_model_config(), seed=0), tr, te, cfg, callback=lambda epoch, rec: "stop"
    )
    assert result.epochs_run == 1


def test_train_rejects_empty_split(tiny_segments):
    cfg = _tiny_train_cfg()
    with pytest.raises(ConfigError):
        train(H2Model(tiny_model_config(), seed=0), tiny_segments.take([]), tiny_segments, cfg)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(pct_start=1.5).validate()
    with pytest.raises(ConfigError):
        TrainConfig(patience=100, epochs=50).validate()
    with pytest.raises(ConfigError):
        TrainConfig(target="both").validate()


def _train_on_scripted_scores(monkeypatch, segs, scores, epochs, patience):
    """A linear-variant run whose per-epoch test macro-F1 is read from ``scores``."""
    scores = iter(scores)
    monkeypatch.setattr(trainer, "evaluate", lambda *a, **k: MetricsReport(0.0, next(scores), [], [], 0))
    cfg = _tiny_train_cfg(epochs=epochs, patience=patience)
    tr, te = split_segments(segs, cfg.target, cfg.train_frac, cfg.split_seed)
    return train(H2Model(tiny_model_config(variant="linear"), seed=0), tr, te, cfg)


def test_train_stops_patience_epochs_after_the_first_best(monkeypatch, tiny_segments):
    f1 = [0.1, 0.2, 0.3, 0.4, 0.5] + [0.5] * 40
    result = _train_on_scripted_scores(monkeypatch, tiny_segments, f1, epochs=45, patience=10)
    assert result.epochs_run == 15
    assert result.best_epoch == 5
    assert result.best_metrics.macro_f1 == 0.5
    assert result.aborted is None


def test_train_never_stops_before_patience_epochs_without_a_new_best(monkeypatch, tiny_segments):
    result = _train_on_scripted_scores(monkeypatch, tiny_segments, [1.0, 0.9, 0.9, 0.9, 0.9], epochs=5, patience=3)
    assert result.epochs_run == 4
    assert result.best_epoch == 1


def test_train_nan_loss_in_the_first_epoch_raises(tiny_segments):
    cfg = _tiny_train_cfg(epochs=3, patience=3)
    tr, te = split_segments(tiny_segments, cfg.target, cfg.train_frac, cfg.split_seed)
    model = H2Model(tiny_model_config(), seed=0)
    model.fusion.head.w.data[:] = np.inf
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(GradientError, match="epoch 1, step 1"):
        train(model, tr, te, cfg)


def test_train_nan_loss_after_the_first_epoch_keeps_the_best_checkpoint(tiny_segments):
    cfg = _tiny_train_cfg(epochs=3, patience=3)
    tr, te = split_segments(tiny_segments, cfg.target, cfg.train_frac, cfg.split_seed)
    model = H2Model(tiny_model_config(), seed=0)

    def diverge(epoch, record):
        model.fusion.head.w.data[:] = np.inf

    with np.errstate(invalid="ignore", over="ignore"):
        result = train(model, tr, te, cfg, callback=diverge)
    assert result.aborted == "nan-loss"
    assert result.best_epoch == result.epochs_run == 1
    reloaded, _ = deserialize_model(result.best_checkpoint)
    assert all(np.isfinite(p.data).all() for _, p in reloaded.named_parameters())


# A fixed-seed one-epoch phc run. Rewriting a hot-path op may reorder float64
# sums, which moves the loss by rounding only, and must change no prediction.
PINNED_PHC_LOSS = 2.3576811396844324
PINNED_PHC_METRICS = {
    "accuracy": 1 / 3,
    "macro_f1": 0.3,
    "confusion": [[0, 0, 4], [2, 1, 1], [1, 0, 3]],
    "n": 12,
}


def test_phc_one_epoch_train_is_pinned(tiny_segments):
    cfg = _tiny_train_cfg(epochs=1, patience=1)
    tr, te = split_segments(tiny_segments, cfg.target, cfg.train_frac, cfg.split_seed)
    result = train(H2Model(tiny_model_config(variant="phc"), seed=0), tr, te, cfg)
    assert result.history[-1]["train_loss"] == pytest.approx(PINNED_PHC_LOSS, rel=1e-9, abs=0.0)
    got = result.best_metrics.to_dict()
    assert {k: got[k] for k in PINNED_PHC_METRICS} == PINNED_PHC_METRICS
