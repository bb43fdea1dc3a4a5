import csv
import json
import math
import os
import platform
import shutil
import struct

import numpy as np
import pytest
import scipy

from hyperx.cli import main
from hyperx.dataset import load_dataset, split_segments
from hyperx.dataset import SyntheticSpec
from hyperx.model import H2Model, load_checkpoint, save_checkpoint, serialize_model
from hyperx.sigproc import PreprocessConfig, preprocess_dataset
from hyperx.tensor import no_grad
from hyperx.trainer import TrainConfig

from tests.conftest import tiny_model_config


@pytest.fixture(scope="module")
def raw_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "raw"
    code = main(["synth", "--out", str(out), "--subjects", "2", "--trials", "6", "--seed", "5", "--noise", "0.3"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.json"
    payload = {
        "model": tiny_model_config().to_dict(),
        "train": {"max_lr": 2e-3, "epochs": 2, "patience": 2, "batch_size": 16},
    }
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, raw_dir, config_file):
    out = tmp_path_factory.mktemp("cli") / "run1"
    code = main(
        ["train", "--data", str(raw_dir), "--out", str(out), "--variant", "phc",
         "--target", "arousal", "--config", str(config_file)]
    )
    assert code == 0
    return out


def test_synth_writes_loadable_dataset(raw_dir):
    ds = load_dataset(raw_dir)
    assert len(ds.trials) == 12
    assert (raw_dir / "run.json").exists()


def test_run_json_records_the_environment(raw_dir):
    env = json.loads((raw_dir / "run.json").read_text())["environment"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env == {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
                   "blas": {"name": blas["name"], "version": blas["version"]}, "cpu_count": os.cpu_count()}


def test_synth_refuses_to_overwrite(raw_dir):
    assert main(["synth", "--out", str(raw_dir), "--subjects", "1", "--trials", "3"]) == 2


def test_synth_rerun_is_byte_identical(tmp_path, raw_dir):
    other = tmp_path / "again"
    assert main(["synth", "--out", str(other), "--subjects", "2", "--trials", "6", "--seed", "5", "--noise", "0.3"]) == 0
    for f in sorted((raw_dir / "trials").iterdir()):
        assert f.read_bytes() == (other / "trials" / f.name).read_bytes()


def test_synth_out_naming_a_file_is_data_error(tmp_path, capsys):
    out = tmp_path / "file"
    out.write_text("x")
    assert main(["synth", "--out", str(out), "--subjects", "1", "--trials", "3"]) == 2
    assert f"output path {out} is not a directory" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags,match",
    [
        (["--subjects", "0"], "num_subjects must be >= 1"),
        (["--trials", "-2"], "trials_per_subject must be >= 1"),
        (["--pre-trial-ms", "7"], "pre_trial_ms must be >= 0 and give whole sample counts at [256, 60] Hz"),
        (["--pre-trial-ms", "-250"], "pre_trial_ms must be >= 0"),
        (["--blink-rate", "-1"], "blink_rate must be >= 0"),
    ],
)
def test_synth_out_of_range_flag_is_usage_error(tmp_path, capsys, flags, match):
    out = tmp_path / "raw"
    assert main(["synth", "--out", str(out), *flags]) == 1
    assert match in capsys.readouterr().err
    assert not out.exists()


def test_preprocess_writes_segments(tmp_path, raw_dir):
    out = tmp_path / "segs.npz"
    assert main(["preprocess", "--data", str(raw_dir), "--out", str(out)]) == 0
    from hyperx.dataset import load_segments

    segs, meta = load_segments(out)
    assert len(segs) == 36
    assert "preprocess" in meta


def test_train_outputs(trained_dir):
    assert (trained_dir / "checkpoint.h2ck").exists()
    metrics = json.loads((trained_dir / "metrics.json").read_text())
    assert {"macro_f1", "accuracy", "accuracy_percent", "param_count", "confusion"} <= set(metrics)
    history = (trained_dir / "history.csv").read_text().splitlines()
    assert len(history) == 1 + metrics["epochs_run"]
    run = json.loads((trained_dir / "run.json").read_text())
    assert run["dataset"]["manifest_sha256"]
    assert run["resolved_config"]["train"]["epochs"] == 2


def test_train_accepts_preprocessed_npz(tmp_path, raw_dir, config_file, capsys):
    segs_path = tmp_path / "segs"  # any file name: preprocess writes exactly this path
    assert main(["preprocess", "--data", str(raw_dir), "--out", str(segs_path)]) == 0
    assert segs_path.is_file()
    assert not (tmp_path / "segs.npz").exists()
    out = tmp_path / "run_npz"
    code = main(
        ["train", "--data", str(segs_path), "--out", str(out), "--variant", "phc",
         "--config", str(config_file), "--epochs", "1", "--patience", "1"]
    )
    assert code == 0
    assert (out / "checkpoint.h2ck").exists()
    notes = tmp_path / "notes.txt"
    notes.write_text("not an archive")
    assert main(["train", "--data", str(notes), "--out", str(tmp_path / "o")]) == 2
    assert f"segment archive {notes} is not a readable .npz" in capsys.readouterr().err


def test_train_determinism_via_cli(tmp_path, raw_dir, config_file, trained_dir):
    out2 = tmp_path / "run2"
    code = main(
        ["train", "--data", str(raw_dir), "--out", str(out2), "--variant", "phc",
         "--target", "arousal", "--config", str(config_file)]
    )
    assert code == 0
    assert (out2 / "history.csv").read_bytes() == (trained_dir / "history.csv").read_bytes()
    assert (out2 / "checkpoint.h2ck").read_bytes() == (trained_dir / "checkpoint.h2ck").read_bytes()


def test_eval_reproduces_training_metrics(tmp_path, raw_dir, trained_dir):
    out = tmp_path / "eval"
    code = main(
        ["eval", "--checkpoint", str(trained_dir / "checkpoint.h2ck"), "--data", str(raw_dir), "--out", str(out)]
    )
    assert code == 0
    train_metrics = json.loads((trained_dir / "metrics.json").read_text())
    eval_metrics = json.loads((out / "metrics.json").read_text())
    assert eval_metrics["macro_f1"] == train_metrics["macro_f1"]
    assert eval_metrics["accuracy"] == train_metrics["accuracy"]
    assert eval_metrics["confusion"] == train_metrics["confusion"]


def test_eval_emits_embeddings_with_label_column(tmp_path, raw_dir, trained_dir):
    out = tmp_path / "eval_emb"
    code = main(
        ["eval", "--checkpoint", str(trained_dir / "checkpoint.h2ck"), "--data", str(raw_dir),
         "--out", str(out), "--emit-embeddings"]
    )
    assert code == 0
    with (out / "embeddings.csv").open() as fh:
        rows = list(csv.reader(fh))
    width = tiny_model_config().fusion_input_width()
    assert rows[0] == [f"emb_{i}" for i in range(width)] + ["label"]
    eval_metrics = json.loads((out / "metrics.json").read_text())
    assert len(rows) - 1 == eval_metrics["n"]
    assert all(len(r) == width + 1 for r in rows[1:])
    # every cell reads back as a number, equal to the model's own embedding of the test split
    values = np.array([[float(v) for v in r] for r in rows[1:]])
    model, extra = load_checkpoint(trained_dir / "checkpoint.h2ck")
    cfg = TrainConfig.from_dict(extra["train_config"])
    segs = preprocess_dataset(load_dataset(raw_dir))
    _, test = split_segments(segs, cfg.target, cfg.train_frac, cfg.split_seed, cfg.split_unit)
    with no_grad():
        emb = model.embed(test.eeg, test.ecg, test.gsr, test.eye).data
    np.testing.assert_array_equal(values[:, :-1], emb)
    np.testing.assert_array_equal(values[:, -1], test.labels(cfg.target))


def test_eval_embeds_each_test_batch_once(tmp_path, raw_dir, trained_dir, monkeypatch):
    calls = []
    embed = H2Model.embed
    monkeypatch.setattr(H2Model, "embed", lambda self, *a, **k: calls.append(1) or embed(self, *a, **k))
    out = tmp_path / "eval_once"
    code = main(
        ["eval", "--checkpoint", str(trained_dir / "checkpoint.h2ck"), "--data", str(raw_dir),
         "--out", str(out), "--emit-embeddings"]
    )
    assert code == 0
    n = json.loads((out / "metrics.json").read_text())["n"]
    assert len(calls) == math.ceil(n / 256)


def test_eval_refuses_a_target_the_checkpoint_was_not_trained_on(tmp_path, raw_dir, trained_dir, capsys, monkeypatch):
    # split_segments stratifies by target, so another target's "test" split holds training segments
    loads = []
    monkeypatch.setattr("hyperx.cli._load_segments_any", lambda *a: loads.append(a))
    out = tmp_path / "eval_valence"
    code = main(["eval", "--checkpoint", str(trained_dir / "checkpoint.h2ck"), "--data", str(raw_dir),
                 "--out", str(out), "--target", "valence"])
    assert code == 1
    assert "--target valence differs from the checkpoint's trained target arousal" in capsys.readouterr().err
    assert not loads and not out.exists()


def test_eval_missing_checkpoint_is_data_error(tmp_path, raw_dir):
    code = main(["eval", "--checkpoint", str(tmp_path / "nope.h2ck"), "--data", str(raw_dir), "--out", str(tmp_path)])
    assert code == 2


def test_sweep_variants_table(tmp_path, raw_dir, config_file):
    out = tmp_path / "sweep"
    code = main(
        ["train", "--data", str(raw_dir), "--out", str(out), "--sweep-variants",
         "--config", str(config_file), "--epochs", "1", "--patience", "1"]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    variants = [r["variant"] for r in summary["rows"]]
    assert variants == ["linear", "phm", "conv", "phc"]
    params = {r["variant"]: r["params"] for r in summary["rows"]}
    assert params["phc"] < params["conv"]
    for row in summary["rows"]:
        assert {"macro_f1_mean", "macro_f1_std", "accuracy_mean"} <= set(row)


def test_multi_seed_summary(tmp_path, raw_dir, config_file):
    out = tmp_path / "seeds"
    code = main(
        ["train", "--data", str(raw_dir), "--out", str(out), "--variant", "phc",
         "--config", str(config_file), "--epochs", "1", "--patience", "1", "--seeds", "1,2"]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rows"][0]["seeds"] == [1, 2]
    assert (out / "variant_phc_seed_1" / "checkpoint.h2ck").exists()
    assert (out / "variant_phc_seed_2" / "checkpoint.h2ck").exists()


@pytest.mark.parametrize(
    "seeds,match",
    [
        ("1,x", "--seeds must be comma-separated integers"),
        (",", "--seeds must be comma-separated integers"),
        ("1,2,1", "--seeds lists seed 1 more than once, got '1,2,1'"),
    ],
    ids=["1,x", ",", "1,2,1"],
)
def test_malformed_seeds_is_usage_error(tmp_path, raw_dir, capsys, seeds, match):
    assert main(["train", "--data", str(raw_dir), "--out", str(tmp_path / "o"), "--seeds", seeds]) == 1
    assert match in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["train"])  # missing required flags
    assert exc.value.code == 1


@pytest.mark.parametrize("command", [[], ["synth"], ["preprocess"], ["train"], ["eval"], ["gradcheck"]])
def test_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    assert "usage: hyperx" in capsys.readouterr().out


# flag and value -> (run.json section, config field, resolved value)
SYNTH_FLAGS = {
    ("--subjects", "1"): ("synthetic_spec", "num_subjects", 1),
    ("--trials", "3"): ("synthetic_spec", "trials_per_subject", 3),
    ("--seed", "9"): ("synthetic_spec", "seed", 9),
    ("--noise", "0.25"): ("synthetic_spec", "noise_level", 0.25),
    ("--blink-rate", "0.5"): ("synthetic_spec", "blink_rate", 0.5),
    ("--pre-trial-ms", "500"): ("synthetic_spec", "pre_trial_ms", 500),
}
TRAIN_FLAGS = {
    ("--target", "valence"): ("train", "target", "valence"),
    ("--variant", "linear"): ("model", "variant", "linear"),
    ("--epochs", "1"): ("train", "epochs", 1),
    ("--batch-size", "8"): ("train", "batch_size", 8),
    ("--max-lr", "0.001"): ("train", "max_lr", 0.001),
    ("--pct-start", "0.3"): ("train", "pct_start", 0.3),
    ("--patience", "1"): ("train", "patience", 1),
    ("--dropout", "0.25"): ("model", "dropout_p", 0.25),
    ("--train-frac", "0.7"): ("train", "train_frac", 0.7),
    ("--split-unit", "trial"): ("train", "split_unit", "trial"),
    ("--split-seed", "3"): ("train", "split_seed", 3),
    ("--no-augment",): ("train", "augment", False),
    ("--track-train-accuracy",): ("train", "track_train_accuracy", True),
}
EVAL_FLAGS = {("--target", "valence"): ("train", "target", "valence")}  # the target TRAIN_FLAGS trains on


def _resolved_with(defaults: dict, flags: dict) -> dict:
    """``defaults`` ({section: {field: value}}) overlaid with the resolved values of ``flags``."""
    out = {section: dict(fields) for section, fields in defaults.items()}
    for section, field, value in flags.values():
        out[section][field] = value
    return out


def test_config_flags_land_under_their_field_names(tmp_path, raw_dir, config_file):
    out = tmp_path / "synth"
    assert main(["synth", "--out", str(out), *(a for flag in SYNTH_FLAGS for a in flag)]) == 0
    run = json.loads((out / "run.json").read_text())["resolved_config"]
    assert run == _resolved_with({"synthetic_spec": SyntheticSpec().to_dict()}, SYNTH_FLAGS)

    file_cfg = json.loads(config_file.read_text())
    out = tmp_path / "train"
    argv = ["train", "--data", str(raw_dir), "--out", str(out), "--config", str(config_file)]
    assert main([*argv, *(a for flag in TRAIN_FLAGS for a in flag)]) == 0
    run = json.loads((out / "run.json").read_text())["resolved_config"]
    defaults = {"model": file_cfg["model"], "train": {**TrainConfig().to_dict(), **file_cfg["train"]}}
    assert {k: run[k] for k in defaults} == _resolved_with(defaults, TRAIN_FLAGS)

    trained = run["train"]  # saved in the checkpoint; eval's --target may only repeat its target
    argv = ["eval", "--checkpoint", str(out / "checkpoint.h2ck"), "--data", str(raw_dir), "--out", str(tmp_path / "e")]
    assert main([*argv, *(a for flag in EVAL_FLAGS for a in flag)]) == 0
    run = json.loads((tmp_path / "e" / "run.json").read_text())["resolved_config"]
    assert run == _resolved_with({"train": trained, "preprocess": PreprocessConfig().to_dict()}, EVAL_FLAGS)

    # a flag that is not given leaves the file's value alone, a false boolean included
    cfg = tmp_path / "cfg.json"
    train_file = {"epochs": 1, "patience": 1, "batch_size": 8, "augment": False, "track_train_accuracy": True}
    cfg.write_text(json.dumps({"model": {**file_cfg["model"], "variant": "linear"}, "train": train_file}))
    out = tmp_path / "train_file_only"
    assert main(["train", "--data", str(raw_dir), "--out", str(out), "--config", str(cfg)]) == 0
    run = json.loads((out / "run.json").read_text())["resolved_config"]
    assert run["train"] == {**TrainConfig().to_dict(), **train_file}
    assert run["model"]["variant"] == "linear"


def test_gradcheck_quick_layers_pass(capsys):
    assert main(["gradcheck", "--layer", "dense"]) == 0
    assert main(["gradcheck", "--layer", "phm", "--n", "4"]) == 0
    assert "PASS phm n=4 hamilton vs quaternion oracle" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag", [["--hamilton"], ["--tol", "1e-6"], ["--full-tol", "1e-4"], ["--probes", "24"], ["--full-probes", "6"]]
)
def test_gradcheck_tolerance_and_oracle_flags_are_gone(flag):
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", "--layer", "dense", *flag])
    assert exc.value.code == 1


def test_gradcheck_covers_the_encoder_conv_geometry(capsys):
    assert main(["gradcheck", "--layer", "phc", "--n", "2"]) == 0
    out = capsys.readouterr().out
    for target in ("x", "A", "F", "b"):
        assert f"PASS phc n=2 k=7 stride=2 padding=3.{target}:" in out


def test_gradcheck_break_backward_fails():
    assert main(["gradcheck", "--layer", "dense", "--break-backward"]) == 3


def test_bad_data_path_is_data_error(tmp_path):
    assert main(["train", "--data", str(tmp_path / "missing.npz"), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "argv,rejected",
    [
        (["eval", "--checkpoint", "{bad}", "--data", "{raw}", "--out", "{tmp}/o"], "{tmp}"),
        (["eval", "--checkpoint", "{bad}", "--data", "{raw}", "--out", "{tmp}/o"], "{tmp}/nope.h2ck"),
        (["train", "--data", "{raw}", "--out", "{tmp}/o", "--config", "{bad}"], "{tmp}"),
        (["preprocess", "--data", "{raw}", "--out", "{bad}/x.npz"], "{tmp}/file"),
    ],
    ids=["checkpoint_is_a_directory", "checkpoint_is_missing", "config_is_a_directory", "out_under_a_file"],
)
def test_path_the_os_rejects_is_data_error(tmp_path, raw_dir, capsys, argv, rejected):
    (tmp_path / "file").write_text("x")
    bad = rejected.format(tmp=tmp_path)
    assert main([a.format(bad=bad, raw=raw_dir, tmp=tmp_path) for a in argv]) == 2
    assert bad in capsys.readouterr().err


def test_eval_corrupt_checkpoint_is_data_error(tmp_path, raw_dir):
    bad = tmp_path / "bad.h2ck"
    bad.write_bytes(b"NOPE" + b"\x00" * 64)
    assert main(["eval", "--checkpoint", str(bad), "--data", str(raw_dir), "--out", str(tmp_path / "o")]) == 2


def test_eval_truncated_checkpoint_is_data_error(tmp_path, raw_dir, trained_dir):
    blob = (trained_dir / "checkpoint.h2ck").read_bytes()
    for cut in (10, 50, 100, len(blob) // 2):
        bad = tmp_path / f"cut{cut}.h2ck"
        bad.write_bytes(blob[:cut])
        assert main(["eval", "--checkpoint", str(bad), "--data", str(raw_dir), "--out", str(tmp_path / "o")]) == 2


def test_eval_checkpoint_listing_a_tensor_twice_is_data_error(tmp_path, raw_dir, capsys):
    model = H2Model(tiny_model_config(), seed=6)
    blob = serialize_model(model)
    # append a second eeg.conv1.A entry with other values and count it
    count_at = 12 + struct.unpack_from("<I", blob, 8)[0]
    count = struct.unpack_from("<I", blob, count_at)[0]
    name, arr = model.named_parameters()[0]
    assert name == "eeg.conv1.A"
    entry = struct.pack(f"<I{len(name)}sI{arr.ndim}I", len(name), name.encode(), arr.ndim, *arr.shape)
    entry += (arr.data + 1.0).astype("<f8").tobytes()
    bad = tmp_path / "twice.h2ck"
    bad.write_bytes(blob[:count_at] + struct.pack("<I", count + 1) + blob[count_at + 4 :] + entry)
    assert main(["eval", "--checkpoint", str(bad), "--data", str(raw_dir), "--out", str(tmp_path / "o")]) == 2
    assert "checkpoint lists tensor eeg.conv1.A twice" in capsys.readouterr().err


def test_manifest_without_pre_trial_ms_is_data_error(tmp_path, raw_dir):
    broken = tmp_path / "raw"
    shutil.copytree(raw_dir, broken)
    manifest = json.loads((broken / "manifest.json").read_text())
    del manifest["pre_trial_ms"]
    (broken / "manifest.json").write_text(json.dumps(manifest))
    assert main(["preprocess", "--data", str(broken), "--out", str(tmp_path / "segs.npz")]) == 2


def test_manifest_with_a_negative_pre_trial_ms_is_data_error(tmp_path, raw_dir, capsys):
    broken = tmp_path / "raw"
    shutil.copytree(raw_dir, broken)
    manifest = json.loads((broken / "manifest.json").read_text())
    # cut every payload to the length a -250 ms manifest describes, so that only the sign is wrong
    old_ms, new_ms, trial_ms = manifest["pre_trial_ms"], -250, 1000 * manifest["trial_seconds"]
    for entry in manifest["trials"]:
        payload, blocks = np.fromfile(broken / entry["file"], dtype="<f4"), []
        for m in manifest["modalities"]:
            channels, rate = m["channels"], m["rate"]
            old_len, new_len = rate * (old_ms + trial_ms) // 1000, rate * (new_ms + trial_ms) // 1000
            block, payload = np.split(payload, [channels * old_len])
            blocks.append(block.reshape(channels, old_len)[:, old_len - new_len :].ravel())
        data = np.concatenate(blocks).astype("<f4").tobytes()
        (broken / entry["file"]).write_bytes(data)
        entry["bytes"] = len(data)
    manifest["pre_trial_ms"] = new_ms
    (broken / "manifest.json").write_text(json.dumps(manifest))
    assert main(["preprocess", "--data", str(broken), "--out", str(tmp_path / "segs.npz")]) == 2
    assert "pre_trial_ms must be >= 0, got -250" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload,match",
    [
        ({"preprocess": {"bogus": 1}}, "bogus"),
        ({"preprocess": {"gsr_lowpass_at_native_rate": False}}, "gsr_lowpass_at_native_rate"),
        ({"preprocess": [1]}, "'preprocess' is not a JSON object"),
        ([1, 2], "is not a JSON object"),
        ({"model": {"fusion_n": "4"}}, "fusion_n"),
        ({"preprocess": {"filter_order": "4"}}, "filter_order"),
        ({"train": {"train_frac": "x"}}, "train_frac"),
        ({"model": {"eeg_channels": 5}}, "eeg_channels"),
        ({"modle": {"fusion_n": 3}}, "unknown section 'modle'"),
        ({"preprocess": {"segment_seconds": 5.0}}, "segment_seconds"),
    ],
)
def test_bad_config_file_is_data_error(tmp_path, raw_dir, capsys, payload, match):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "o"
    for argv in (
        ["preprocess", "--data", str(raw_dir), "--out", str(out / "segs.npz"), "--config", str(cfg)],
        ["train", "--data", str(raw_dir), "--out", str(out), "--config", str(cfg)],
    ):
        assert main(argv) == 2
        assert match in capsys.readouterr().err


def test_non_utf8_config_file_is_data_error(tmp_path, raw_dir, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"train": {"target": "\xff"}}')
    assert main(["preprocess", "--data", str(raw_dir), "--out", str(tmp_path / "s.npz"), "--config", str(cfg)]) == 2
    assert "UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("model", "eeg_channels", []),
        ("model", "eeg_channels", [40, 160, 320]),
        ("preprocess", "eeg_band", [1, 45, 3]),
    ],
)
def test_wrong_length_tuple_field_is_config_error(tmp_path, raw_dir, capsys, section, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: {key: value}}))
    assert main(["train", "--data", str(raw_dir), "--out", str(tmp_path / "o"), "--config", str(cfg)]) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload,match",
    [
        ({"model": {"fusion_n": 0}}, "fusion_n must be >= 1"),
        ({"train": {"batch_size": 0}}, "batch_size must be >= 2"),
        ({"train": {"batch_size": 1}}, "batch_size must be >= 2"),
        ({"train": {"epochs": 0, "patience": 0}}, "epochs must be >= 1"),
        ({"train": {"train_frac": 1.5}}, "train_frac must be in (0, 1)"),
        ({"train": {"split_unit": "subject"}}, "split_unit must be segment or trial"),
        ({"train": {"patience": 0, "epochs": 3}}, "patience must be >= 1"),
        ({"model": {"n_gsr": 0}}, "n_gsr must be >= 1"),
        ({"model": {"kernel_size": 0}}, "kernel_size must be >= 1"),
        # conv1d rejects these too, but only at the first forward: the message names the config field
        ({"model": {"stride": 0}}, "error: stride must be >= 1"),
        ({"model": {"padding": -1}}, "error: padding must be >= 0"),
        ({"model": {"eeg_channels": [40, 0]}}, "eeg_channels must all be >= 1"),
        ({"model": {"eye_hidden": 0}}, "eye_hidden must be >= 1"),
        ({"model": {"gsr_width": 0}}, "gsr_width must be >= 1"),
        ({"model": {"fusion_widths": [4096, 1024, 0]}}, "fusion_widths must all be >= 1"),
        ({"model": {"num_classes": 4}}, "num_classes must be 3 (labels [0, 1, 2]), got 4"),
        ({"model": {"num_classes": 2}}, "num_classes must be 3 (labels [0, 1, 2]), got 2"),
        ({"preprocess": {"filter_order": 0}}, "filter_order must be in (0, inf), got 0"),
        ({"preprocess": {"eeg_band": [45, 1]}}, "eeg_band must be two increasing corners in (0, 64) Hz"),
        ({"preprocess": {"ecg_band": [0.5, 64]}}, "ecg_band must be two increasing corners in (0, 64) Hz"),
        ({"preprocess": {"gsr_lowpass_hz": 128}}, "gsr_lowpass_hz must be in (0, 128), got 128"),
        ({"preprocess": {"notch_hz": 0}}, "notch_hz must be in (0, 64), got 0"),
        ({"preprocess": {"notch_q": 0}}, "notch_q must be in (0, inf), got 0"),
        # an empty baseline window made every GSR segment NaN; 3 ms rounds to 0 samples at 128 Hz
        ({"preprocess": {"baseline_ms": 0}}, "baseline_ms must be in (3.90625, inf), got 0"),
        ({"preprocess": {"baseline_ms": 3}}, "baseline_ms must be in (3.90625, inf), got 3"),
        ({"preprocess": {"segment_overlap_seconds": -2}}, "segment_overlap_seconds must be in [0, 10), got -2"),
        ({"preprocess": {"segment_overlap_seconds": 10}}, "segment_overlap_seconds must be in [0, 10), got 10"),
        # hops of 3 samples at 128 Hz and 2 at 60 Hz would drift the eye windows away from the others
        ({"preprocess": {"segment_overlap_seconds": 9.975}},
         "segment_overlap_seconds must be a multiple of 0.25 s, got 9.975"),
    ],
)
def test_out_of_range_config_value_is_usage_error(tmp_path, raw_dir, capsys, payload, match):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    assert main(["train", "--data", str(raw_dir), "--out", str(tmp_path / "o"), "--config", str(cfg)]) == 1
    assert match in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [["preprocess"], ["eval", "--checkpoint", "missing.h2ck"], ["train"]])
@pytest.mark.parametrize(
    "payload,match",
    [({"notch_q": 0}, "notch_q must be in (0, inf), got 0"),
     ({"segment_overlap_seconds": -2}, "segment_overlap_seconds must be in [0, 10), got -2")],
)
def test_out_of_range_preprocess_config_is_usage_error_before_data_loads(tmp_path, capsys, command, payload, match):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preprocess": payload}))
    # neither --data nor --checkpoint exists: reading either first would exit 2
    argv = [*command, "--data", str(tmp_path / "missing"), "--out", str(tmp_path / "o"), "--config", str(cfg)]
    assert main(argv) == 1
    assert match in capsys.readouterr().err


def test_flags_overlay_the_file_before_the_config_is_checked(tmp_path, raw_dir, config_file):
    # the file alone fails "patience 10 exceeds epochs 5"; the merged config is in range
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": json.loads(config_file.read_text())["model"], "train": {"epochs": 5}}))
    out = tmp_path / "o"
    argv = ["train", "--data", str(raw_dir), "--out", str(out), "--config", str(cfg), "--variant", "linear"]
    assert main([*argv, "--patience", "3"]) == 0
    run = json.loads((out / "run.json").read_text())["resolved_config"]
    assert (run["train"]["epochs"], run["train"]["patience"]) == (5, 3)


def test_preprocess_range_checks_the_files_other_sections(tmp_path, raw_dir, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"train_frac": 1.5}}))
    out = tmp_path / "o" / "s.npz"
    assert main(["preprocess", "--data", str(raw_dir), "--out", str(out), "--config", str(cfg)]) == 1
    assert "train_frac must be in (0, 1), got 1.5" in capsys.readouterr().err
    assert not out.parent.exists()


@pytest.mark.parametrize(
    "train_config,match",
    [({"bogus": 1}, "bogus"), ([1, 2], "train_config is not a JSON object"), ({"train_frac": "x"}, "train_frac")],
)
def test_eval_malformed_checkpoint_train_config_is_data_error(tmp_path, raw_dir, capsys, train_config, match):
    ckpt = tmp_path / "bad.h2ck"
    save_checkpoint(H2Model(tiny_model_config(), seed=0), ckpt, extra={"train_config": train_config})
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(raw_dir), "--out", str(tmp_path / "o")]) == 2
    assert match in capsys.readouterr().err


@pytest.mark.parametrize(
    "train_config,match",
    [({"train_frac": 1.5}, "train_frac must be in (0, 1), got 1.5"),
     ({"split_unit": "subject"}, "split_unit must be segment or trial, got 'subject'"),
     ({"target": "both"}, "target must be arousal or valence, got 'both'")],
)
def test_eval_out_of_range_checkpoint_train_config_is_data_error(tmp_path, raw_dir, capsys, train_config, match):
    ckpt = tmp_path / "bad.h2ck"
    save_checkpoint(H2Model(tiny_model_config(), seed=0), ckpt, extra={"train_config": train_config})
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(raw_dir), "--out", str(tmp_path / "o")]) == 2
    assert f"checkpoint train_config: {match}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "old,new,match",
    [(b'"kernel_size":7', b'"kernel_size":0', "kernel_size"), (b'"n_gsr":1', b'"n_gsr":0', "n_gsr"),
     (b'"stride":2', b'"stride":0', "stride")],
)
def test_eval_out_of_range_checkpoint_config_is_data_error(tmp_path, raw_dir, capsys, old, new, match):
    ckpt = tmp_path / "bad.h2ck"
    blob = serialize_model(H2Model(tiny_model_config(), seed=0))
    assert old in blob
    ckpt.write_bytes(blob.replace(old, new, 1))
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(raw_dir), "--out", str(tmp_path / "o")]) == 2
    assert f"{match} must be >= 1" in capsys.readouterr().err


def test_eval_checkpoint_with_another_num_classes_is_data_error(tmp_path, raw_dir, capsys):
    ckpt = tmp_path / "bad.h2ck"
    blob = serialize_model(H2Model(tiny_model_config(), seed=0))
    assert b'"num_classes":3' in blob
    ckpt.write_bytes(blob.replace(b'"num_classes":3', b'"num_classes":4', 1))
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(raw_dir), "--out", str(tmp_path / "o")]) == 2
    assert "num_classes must be 3" in capsys.readouterr().err


@pytest.fixture(scope="module")
def phm_checkpoint(tmp_path_factory, raw_dir, config_file):
    out = tmp_path_factory.mktemp("cli") / "phm"
    code = main(
        ["train", "--data", str(raw_dir), "--out", str(out), "--variant", "phm",
         "--config", str(config_file), "--epochs", "1", "--patience", "1"]
    )
    assert code == 0
    return out / "checkpoint.h2ck"


@pytest.mark.parametrize(
    "tensor,value,match",
    [("eeg.fc1.A", np.nan, "non-finite value"), ("eeg.bn1.running_var", -1.0, "negative variance")],
    ids=["nan-weight", "negative-running-var"],
)
def test_eval_checkpoint_with_bad_numbers_is_data_error(
    tmp_path, raw_dir, capsys, phm_checkpoint, tensor, value, match
):
    model, extra = load_checkpoint(phm_checkpoint)
    arrays = {name: p.data for name, p in model.named_parameters()} | dict(model.named_buffers())
    arrays[tensor][...] = value
    bad = tmp_path / "bad.h2ck"
    save_checkpoint(model, bad, extra=extra)
    assert main(["eval", "--checkpoint", str(bad), "--data", str(raw_dir), "--out", str(tmp_path / "o")]) == 2
    assert f"tensor {tensor} holds a {match}" in capsys.readouterr().err


def test_eval_checkpoint_whose_logits_overflow_is_usage_error(tmp_path, raw_dir, capsys, phm_checkpoint):
    # every weight is finite, so the checkpoint loads; the eval forward overflows
    model, extra = load_checkpoint(phm_checkpoint)
    model.fusion.head.w.data[...] = 1e308
    model.fusion.phms[0].weight.f.data[...] = 1e300
    huge = tmp_path / "huge.h2ck"
    save_checkpoint(model, huge, extra=extra)
    out = tmp_path / "o"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["eval", "--checkpoint", str(huge), "--data", str(raw_dir), "--out", str(out)]) == 1
    assert "eval logits are not finite" in capsys.readouterr().err
    assert not (out / "metrics.json").exists()


def test_pre_trial_window_shorter_than_the_gsr_baseline_is_usage_error(tmp_path, capsys):
    raw = tmp_path / "raw"
    assert main(["synth", "--out", str(raw), "--subjects", "1", "--trials", "2", "--pre-trial-ms", "0"]) == 0
    assert main(["preprocess", "--data", str(raw), "--out", str(tmp_path / "s.npz")]) == 1
    assert "pre_trial_ms=0 is shorter than the GSR baseline, baseline_ms=200.0" in capsys.readouterr().err


def test_workers_flag_is_gone(tmp_path, raw_dir):
    with pytest.raises(SystemExit) as exc:
        main(["preprocess", "--data", str(raw_dir), "--out", str(tmp_path / "s.npz"), "--workers", "2"])
    assert exc.value.code == 1


def test_worker_count_respects_env(monkeypatch):
    from hyperx.sigproc import worker_count

    monkeypatch.setenv("HYPERX_THREADS", "2")
    assert worker_count(16) == 2
    monkeypatch.delenv("HYPERX_THREADS")
    assert worker_count(3) == 3
