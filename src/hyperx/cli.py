"""Command-line entry point.

Subcommands: synth, preprocess, train, eval, gradcheck.  Exit codes:
0 success, 1 any other error (a setting, an input, a diverged model),
2 a ``FormatError`` (a stored file) or a path the OS rejects, 3 check
failure; ``hyperx.errors`` tables the error types.

Every run writes a run.json capturing the fully resolved configuration, a
content hash of the dataset manifest when one is involved, and the
environment (Python, numpy, scipy and BLAS versions, CPU count).  Config
precedence is defaults < --config file < explicit flags.  A flag that sets a
config field stores under the field's own name and is absent unless given.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import scipy

from . import dataset as ds
from . import sigproc
from .errors import ConfigError, FormatError, HyperxError
from .layers import (
    BatchNorm1d,
    PHCLayer,
    PHMLayer,
    hamilton_matrices,
)
from .model import H2Model, ModelConfig, VARIANTS, load_checkpoint
from .tensor import (
    Tensor,
    add,
    dropout,
    grad_check,
    mul,
    no_grad,
    relu,
    softmax_cross_entropy,
    tensor_sum,
)
from .trainer import EVAL_BATCH_SIZE, TrainConfig, compute_metrics, train

USAGE_ERROR, DATA_ERROR, CHECK_FAILURE = 1, 2, 3
_SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(USAGE_ERROR)


def _write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"schema_version": _SCHEMA_VERSION, **payload}, indent=1, sort_keys=True))


def _environment() -> dict:
    """The versions and machine that produced a run's bytes."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode; a build may not name its BLAS
        blas = {}
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")}, "cpu_count": os.cpu_count()}


def _write_run_json(outdir: Path, command: str, resolved: dict, data_path=None, results=None):
    manifest_sha = None
    if data_path is not None:
        manifest = Path(data_path) / "manifest.json"
        if manifest.exists():
            manifest_sha = ds.manifest_hash(data_path)
    _write_json(
        outdir / "run.json",
        {
            "command": command,
            "resolved_config": resolved,
            "dataset": {"path": str(data_path) if data_path else None, "manifest_sha256": manifest_sha},
            "environment": _environment(),
            "results": results or {},
        },
    )


_SECTIONS = {"model": ModelConfig, "train": TrainConfig, "preprocess": sigproc.PreprocessConfig}


def _flags(cls, args: argparse.Namespace) -> dict:
    """Every given flag whose dest names a field of ``cls``."""
    return {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}


def _load_config_file(args: argparse.Namespace) -> dict:
    """The ``model``, ``train`` and ``preprocess`` sections of the JSON file at ``args.config``
    (defaults where absent), each overlaid with the given flags and then built, so checked."""
    config, path = {}, args.config
    if path is not None:
        try:
            config = json.loads(Path(path).read_bytes())
        except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
            raise FormatError(f"config file {path} is not valid UTF-8 JSON: {e}") from e
        if not isinstance(config, dict):
            raise FormatError(f"config file {path} is not a JSON object")
        for name in config:
            if name not in _SECTIONS:
                raise FormatError(f"config file {path}: unknown section {name!r}; want {sorted(_SECTIONS)}")
    return {name: cls.from_dict(config.get(name, {}), f"config file section {name!r}", **_flags(cls, args))
            for name, cls in _SECTIONS.items()}


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    out = Path(args.out)
    if out.exists() and not out.is_dir():
        print(f"error: output path {out} is not a directory", file=sys.stderr)
        return DATA_ERROR
    if out.exists() and any(out.iterdir()) and not args.force:
        print(f"error: output directory {out} is not empty (use --force)", file=sys.stderr)
        return DATA_ERROR
    spec = ds.SyntheticSpec(**_flags(ds.SyntheticSpec, args))
    data = ds.generate_synthetic(spec)
    ds.save_dataset(data, out)
    n_classes_a = np.bincount([t.arousal for t in data.trials], minlength=len(ds.CLASSES))
    print(f"wrote {len(data.trials)} trials to {out}")
    print(f"subjects={spec.num_subjects} trials/subject={spec.trials_per_subject} noise={spec.noise_level}")
    print(f"arousal class counts: {n_classes_a.tolist()}")
    _write_run_json(out, "synth", {"synthetic_spec": spec.to_dict()}, data_path=out)
    return 0


# ---------------------------------------------------------------------------
# preprocess
# ---------------------------------------------------------------------------


def _load_segments_any(path, preprocess_cfg=None):
    """Accept a raw dataset directory or, under any file name, a preprocessed segment archive."""
    p = Path(path)
    if p.is_dir():
        raw = ds.load_dataset(p)
        return sigproc.preprocess_dataset(raw, preprocess_cfg), p
    segs, _ = ds.load_segments(p)
    return segs, None


def cmd_preprocess(args) -> int:
    cfg = _load_config_file(args)["preprocess"]
    raw = ds.load_dataset(args.data)
    segs = sigproc.preprocess_dataset(raw, cfg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    ds.save_segments(segs, out, meta={"preprocess": cfg.to_dict(), "source": str(args.data)})
    print(f"wrote {len(segs)} segments from {len(raw.trials)} trials to {out}")
    _write_run_json(out.parent, "preprocess", {"preprocess": cfg.to_dict()}, data_path=args.data)
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _train_once(segs, model_cfg: ModelConfig, train_cfg: TrainConfig, outdir: Path):
    train_segs, test_segs = ds.split_segments(
        segs, train_cfg.target, train_cfg.train_frac, train_cfg.split_seed, train_cfg.split_unit
    )
    model = H2Model(model_cfg, seed=train_cfg.seed)
    result = train(model, train_segs, test_segs, train_cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "checkpoint.h2ck").write_bytes(result.best_checkpoint)
    (outdir / "history.csv").write_text(result.history_csv())
    metrics = result.best_metrics.to_dict()
    metrics.update(
        {
            "best_epoch": result.best_epoch,
            "epochs_run": result.epochs_run,
            "aborted": result.aborted,
            "param_count": model.count_parameters(),
            "variant": model_cfg.variant,
            "seed": train_cfg.seed,
            "target": train_cfg.target,
        }
    )
    _write_json(outdir / "metrics.json", metrics)
    return metrics


def cmd_train(args) -> int:
    cfg = _load_config_file(args)
    model_cfg, train_cfg, pre_cfg = cfg["model"], cfg["train"], cfg["preprocess"]
    try:
        seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [train_cfg.seed]
    except ValueError:
        raise ConfigError(f"--seeds must be comma-separated integers, got {args.seeds!r}") from None
    repeated = [s for i, s in enumerate(seeds) if s in seeds[:i]]
    if repeated:
        raise ConfigError(f"--seeds lists seed {repeated[0]} more than once, got {args.seeds!r}")
    variants = list(VARIANTS) if args.sweep_variants else [model_cfg.variant]

    segs, raw_path = _load_segments_any(args.data, pre_cfg)
    outdir = Path(args.out)
    rows = []
    for variant in variants:
        per_seed = []
        for seed in seeds:
            mc = replace(model_cfg, variant=variant)
            tc = replace(train_cfg, seed=seed)
            subdir = outdir if len(variants) == 1 and len(seeds) == 1 else outdir / f"variant_{variant}_seed_{seed}"
            metrics = _train_once(segs, mc, tc, subdir)
            per_seed.append(metrics)
            print(
                f"[{variant} seed={seed}] params={metrics['param_count']['total']} "
                f"macro_f1={metrics['macro_f1']:.4f} acc={metrics['accuracy_percent']:.2f}%"
            )
        f1s = np.array([m["macro_f1"] for m in per_seed])
        accs = np.array([m["accuracy_percent"] for m in per_seed])
        rows.append(
            {
                "variant": variant,
                "params": per_seed[0]["param_count"]["total"],
                "macro_f1_mean": float(f1s.mean()),
                "macro_f1_std": float(f1s.std()),
                "accuracy_mean": float(accs.mean()),
                "accuracy_std": float(accs.std()),
                "seeds": seeds,
            }
        )
    if len(seeds) > 1 or len(variants) > 1:
        print(f"{'variant':<8} {'params':>10} {'F1 (mean±std)':>18} {'acc% (mean±std)':>18}")
        for r in rows:
            print(
                f"{r['variant']:<8} {r['params']:>10} "
                f"{r['macro_f1_mean']:.4f} ± {r['macro_f1_std']:.4f} "
                f"{r['accuracy_mean']:6.2f} ± {r['accuracy_std']:.2f}"
            )
    summary = {"rows": rows, "target": train_cfg.target}
    _write_json(outdir / "summary.json", summary)
    _write_run_json(
        outdir,
        "train",
        {"model": model_cfg.to_dict(), "train": train_cfg.to_dict(), "preprocess": pre_cfg.to_dict(),
         "variants": variants, "seeds": seeds},
        data_path=raw_path,
        results=summary,
    )
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def cmd_eval(args) -> int:
    pre_cfg = _load_config_file(args)["preprocess"]
    model, extra = load_checkpoint(args.checkpoint)
    saved = extra.get("train_config", {})
    # the test split is stratified by target: another target re-derives one that holds training segments
    if isinstance(saved, dict) and "target" in saved and getattr(args, "target", saved["target"]) != saved["target"]:
        raise ConfigError(f"--target {args.target} differs from the checkpoint's trained target {saved['target']}")
    try:
        train_cfg = TrainConfig.from_dict(saved, "checkpoint train_config", **_flags(TrainConfig, args))
    except ConfigError as e:
        raise FormatError(f"checkpoint train_config: {e}") from e
    segs, raw_path = _load_segments_any(args.data, pre_cfg)
    _, test_segs = ds.split_segments(
        segs, train_cfg.target, train_cfg.train_frac, train_cfg.split_seed, train_cfg.split_unit
    )
    # one encoder pass per batch serves both the predictions and the embeddings
    labels = test_segs.labels(train_cfg.target)
    embs, preds = [], []
    with no_grad():
        for start in range(0, len(test_segs), EVAL_BATCH_SIZE):
            idx = slice(start, start + EVAL_BATCH_SIZE)
            emb = model.embed(test_segs.eeg[idx], test_segs.ecg[idx], test_segs.gsr[idx], test_segs.eye[idx])
            preds.append(np.argmax(model.fusion.forward(emb, False, None).data, axis=1))
            embs.append(emb.data)
    report = compute_metrics(labels, np.concatenate(preds))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "metrics.json", {**report.to_dict(), "target": train_cfg.target})
    with (outdir / "confusion.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["true\\pred", *ds.CLASSES])
        for i, row in enumerate(report.confusion):
            writer.writerow([i, *row])
    print(f"n={report.n} accuracy={report.accuracy_percent:.2f}% macro_f1={report.macro_f1:.4f}")

    if args.emit_embeddings:
        emb_path = outdir / "embeddings.csv"
        with emb_path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"emb_{i}" for i in range(model.cfg.fusion_input_width())] + ["label"])
            for row, lab in zip(np.concatenate(embs), labels):
                writer.writerow([*row.tolist(), int(lab)])
        print(f"wrote embeddings to {emb_path}")
    _write_run_json(outdir, "eval", {"train": train_cfg.to_dict(), "preprocess": pre_cfg.to_dict()}, data_path=raw_path,
                    results={"macro_f1": report.macro_f1, "accuracy": report.accuracy})
    return 0


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


# tolerance and probe count of the layer checks and of the whole-model checks
GRAD_TOL, GRAD_PROBES = 1e-6, 24
FULL_TOL, FULL_PROBES = 1e-4, 6


def _broken_relu(x: Tensor) -> Tensor:
    """relu whose backward is 1.01 times too large (harness self-test)."""
    y = relu(x)
    return add(mul(y, Tensor(1.01)), Tensor(-0.01 * y.data))


def _quaternion_oracle_check(n_pairs: int = 200, tol: float = 1e-12) -> tuple[str, bool, float]:
    """``PHMLayer.forward`` with Hamilton-frozen A against direct quaternion products."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(n_pairs):
        q = rng.standard_normal(4)
        p = rng.standard_normal(4)
        layer = PHMLayer(4, 4, 4, rng, bias=False, algebra=hamilton_matrices(4))
        layer.weight.f.data = q.reshape(4, 1, 1)
        out = layer.forward(Tensor(p.reshape(1, 4))).data[0]
        a, b, c, d = q
        w, x, y, z = p
        oracle = np.array(
            [
                a * w - b * x - c * y - d * z,
                a * x + b * w + c * z - d * y,
                a * y - b * z + c * w + d * x,
                a * z + b * y - c * x + d * w,
            ]
        )
        worst = max(worst, float(np.abs(out - oracle).max()))
    return "phm n=4 hamilton vs quaternion oracle", worst < tol, worst


def _gradcheck_battery(layer, n, break_backward):
    """(name, GradCheckReport) of every check ``--layer``/``--n`` select.  Each
    layer is built only when selected, so the rng-5 draws of the others stay put."""
    rng = np.random.default_rng(5)
    act = _broken_relu if break_backward else relu
    checks = []

    def run(f, targets, tol=GRAD_TOL, probes=GRAD_PROBES):
        checks.extend((name, grad_check(f, t, tol=tol, max_probes=probes)) for name, t in targets)

    def module_check(name, module, x_shape, *args):
        x = Tensor(rng.standard_normal(x_shape), requires_grad=True)
        targets = [(f"{name}.{pn}", p) for pn, p in [("x", x), *module.params()]]
        run(lambda _t: tensor_sum(act(module(x, *args))), targets)

    if layer in (None, "dense"):
        module_check("dense", PHMLayer(9, 7, None, rng), (4, 9))
    if layer in (None, "conv"):
        module_check("conv", PHCLayer(3, 5, None, 3, rng, stride=2, padding=1), (3, 2, 12))
    if layer in (None, "phm"):
        for k in [n] if n else [2, 3, 4, 10]:
            module_check(f"phm n={k}", PHMLayer(4 * k, 2 * k, k, rng), (3, 4 * k))
    if layer in (None, "phc"):
        for k in [n] if n else [2, 4]:
            module_check(f"phc n={k}", PHCLayer(k, 2 * k, k, 3, rng, stride=1, padding=1), (k, 2, 10))
            # the encoders' own geometry
            module_check(f"phc n={k} k=7 stride=2 padding=3", PHCLayer(k, 2 * k, k, 7, rng, stride=2, padding=3), (k, 2, 20))
    if layer in (None, "bn"):
        module_check("bn3d", BatchNorm1d(5), (5, 4, 6), True)
    if layer in (None, "dropout"):
        xd = Tensor(rng.standard_normal((6, 8)), requires_grad=True)
        run(lambda t: tensor_sum(dropout(t, 0.5, np.random.default_rng(123))), [("dropout", xd)])
    if layer in (None, "loss"):
        xl = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        labels = rng.integers(0, 3, 5)
        run(lambda t: softmax_cross_entropy(t, labels), [("softmax_ce", xl)])
    if layer in (None, "full"):
        model = H2Model(ModelConfig(), seed=3)
        B = 2
        # dedicated stream: central differences are only meaningful where no
        # relu kink sits inside the probe interval, so the evaluation point
        # must stay fixed regardless of which layer checks ran before
        batch_rng = np.random.default_rng(501)
        batch = {name: batch_rng.standard_normal((B, *shape)) for name, shape in ds.SEGMENT_SHAPES.items()}
        labels = batch_rng.integers(0, 3, B)

        def f_full(_t):
            logits = model.forward(**batch, train=True, rng=np.random.default_rng(77))
            return softmax_cross_entropy(logits, labels)

        named = dict(model.named_parameters())
        full_targets = [
            "eeg.conv1.A", "eeg.conv1.F", "ecg.conv2.F", "eye.bn1.gamma",
            "gsr.fc.F", "fusion.phm1.A", "fusion.phm1.F", "fusion.head.W", "fusion.head.b",
        ]
        run(f_full, [(f"full.{name}", named[name]) for name in full_targets], FULL_TOL, FULL_PROBES)
    return checks


def cmd_gradcheck(args) -> int:
    checks = _gradcheck_battery(args.layer, args.n, args.break_backward)
    failures = 0
    # the quaternion oracle rides along whenever phm at n=4 is checked
    if args.layer in (None, "phm") and args.n in (None, 4):
        name, ok, worst = _quaternion_oracle_check()
        print(f"{'PASS' if ok else 'FAIL'} {name}: max_abs_err={worst:.3e}")
        failures += 0 if ok else 1
    for name, report in checks:
        print(f"{'PASS' if report.passed else 'FAIL'} {name}: {report}")
        failures += 0 if report.passed else 1
    print(f"{len(checks) - failures}/{len(checks)} gradient checks passed")
    return 0 if failures == 0 else CHECK_FAILURE


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="hyperx", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic raw dataset", argument_default=argparse.SUPPRESS)
    p.add_argument("--out", required=True)
    p.add_argument("--subjects", type=int, dest="num_subjects")
    p.add_argument("--trials", type=int, dest="trials_per_subject")
    p.add_argument("--seed", type=int)
    p.add_argument("--noise", type=float, dest="noise_level")
    p.add_argument("--blink-rate", type=float)
    p.add_argument("--pre-trial-ms", type=int)
    p.add_argument("--force", action="store_true", default=False)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="preprocess a raw dataset into segments")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train the classifier", argument_default=argparse.SUPPRESS)
    p.add_argument("--data", required=True, help="raw dataset directory or preprocessed segment archive")
    p.add_argument("--out", required=True)
    p.add_argument("--target", choices=ds.TARGETS)
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--sweep-variants", action="store_true", default=False)
    p.add_argument("--seeds", default=None, help="comma-separated seed list")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--max-lr", type=float)
    p.add_argument("--pct-start", type=float)
    p.add_argument("--patience", type=int)
    p.add_argument("--dropout", type=float, dest="dropout_p")
    p.add_argument("--train-frac", type=float)
    p.add_argument("--split-unit", choices=ds.SPLIT_UNITS)
    p.add_argument("--split-seed", type=int)
    p.add_argument("--no-augment", action="store_false", dest="augment")
    p.add_argument("--track-train-accuracy", action="store_true")
    p.add_argument("--config", default=None, help="JSON file with model/train/preprocess sections")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint", argument_default=argparse.SUPPRESS)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--target", choices=ds.TARGETS)
    p.add_argument("--emit-embeddings", action="store_true", default=False)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="compare tape gradients against finite differences")
    p.add_argument("--layer", choices=["dense", "conv", "phm", "phc", "bn", "dropout", "loss", "full"])
    p.add_argument("--n", type=int)
    p.add_argument("--break-backward", action="store_true")
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return DATA_ERROR
    except (HyperxError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
