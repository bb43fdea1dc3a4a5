import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperx.cli import main
from hyperx.dataset import (
    SegmentSet,
    SyntheticSpec,
    TrialDataset,
    augment_segments,
    generate_synthetic,
    load_dataset,
    load_segments,
    manifest_hash,
    phase_oracle_labels,
    save_dataset,
    save_segments,
    segment_phase_oracle,
    split_segments,
    stratified_split,
)
from hyperx.errors import ConfigError, FormatError, InputError
from hyperx.sigproc import preprocess_dataset


SMALL = SyntheticSpec(num_subjects=2, trials_per_subject=9, seed=3, noise_level=0.0, blink_rate=0.5)


def test_generation_is_deterministic():
    a = generate_synthetic(SMALL)
    b = generate_synthetic(SMALL)
    for ta, tb in zip(a.trials, b.trials):
        np.testing.assert_array_equal(ta.eeg, tb.eeg)
        np.testing.assert_array_equal(ta.eye, tb.eye)
        assert (ta.arousal, ta.valence) == (tb.arousal, tb.valence)


@pytest.mark.parametrize(
    "field,value", [("num_subjects", 0), ("trials_per_subject", -2), ("blink_rate", -1.0), ("pre_trial_ms", 7),
                    ("pre_trial_ms", 125), ("pre_trial_ms", -250)]
)
def test_generate_synthetic_rejects_out_of_range_spec(field, value):
    with pytest.raises(ConfigError, match=field):
        generate_synthetic(SyntheticSpec(**{field: value}))


def test_trial_counts_and_balanced_labels():
    data = generate_synthetic(SMALL)
    assert len(data.trials) == 18
    arousal = np.bincount([t.arousal for t in data.trials], minlength=3)
    valence = np.bincount([t.valence for t in data.trials], minlength=3)
    np.testing.assert_array_equal(arousal, [6, 6, 6])
    np.testing.assert_array_equal(valence, [6, 6, 6])


def test_segments_per_trial():
    data = generate_synthetic(SMALL)
    segs = preprocess_dataset(data)
    assert len(segs) == 3 * len(data.trials)


def test_phase_oracle_perfect_at_zero_noise_raw():
    data = generate_synthetic(SMALL)
    for target in ("arousal", "valence"):
        want = np.array([getattr(t, target) for t in data.trials])
        got = phase_oracle_labels(data, target)
        np.testing.assert_array_equal(got, want)


def test_phase_oracle_perfect_after_preprocessing():
    data = generate_synthetic(SMALL)
    spec = SyntheticSpec.from_dict(data.synthetic_spec)
    segs = preprocess_dataset(data)
    for target, freq in (("arousal", spec.arousal_freq), ("valence", spec.valence_freq)):
        got = segment_phase_oracle(segs, target, freq)
        np.testing.assert_array_equal(got, segs.labels(target))


def test_single_channel_spectra_are_class_independent():
    # same seed phases differ per trial, so compare carrier-bin magnitudes
    spec = SyntheticSpec(num_subjects=1, trials_per_subject=9, seed=5, noise_level=0.0, blink_rate=0.0)
    data = generate_synthetic(spec)
    pre = int(256 * spec.pre_trial_ms / 1000)
    mags = []
    for t in data.trials:
        x = t.eeg[0, pre:]
        bins = np.abs(np.fft.rfft(x))
        k = int(spec.arousal_freq * x.size / 256)
        mags.append(bins[k])
    mags = np.array(mags)
    # all classes produce the same per-channel carrier magnitude (f32 rounding)
    assert mags.std() / mags.mean() < 1e-4


# ---------------------------------------------------------------------------
# stratified splitting
# ---------------------------------------------------------------------------


def test_stratified_split_exact_proportions():
    labels = np.array([0] * 50 + [1] * 30 + [2] * 20)
    tr, te = stratified_split(labels, 0.8, seed=0)
    assert len(tr) == 80 and len(te) == 20
    np.testing.assert_array_equal(np.bincount(labels[tr]), [40, 24, 16])
    np.testing.assert_array_equal(np.bincount(labels[te]), [10, 6, 4])
    assert np.intersect1d(tr, te).size == 0


def test_stratified_split_deterministic():
    labels = np.random.default_rng(1).integers(0, 3, 200)
    a = stratified_split(labels, 0.8, seed=42)
    b = stratified_split(labels, 0.8, seed=42)
    np.testing.assert_array_equal(a[0], b[0])
    c = stratified_split(labels, 0.8, seed=43)
    assert not np.array_equal(a[0], c[0])


def test_stratified_split_proportions_random_label_mixes():
    rng = np.random.default_rng(2)
    for _ in range(25):
        counts = rng.integers(5, 60, size=3)
        labels = np.repeat([0, 1, 2], counts)
        rng.shuffle(labels)
        tr, _ = stratified_split(labels, 0.8, seed=int(rng.integers(1e6)))
        got = np.bincount(labels[tr], minlength=3)
        want = np.round(0.8 * counts)
        assert np.abs(got - want).max() <= 1


def test_stratified_split_small_class_error():
    with pytest.raises(InputError):
        stratified_split(np.array([0, 0, 0, 1]), 0.8, seed=0)


def test_trial_unit_split_has_no_leakage(tiny_segments):
    tr, te = split_segments(tiny_segments, "arousal", 0.8, seed=0, unit="trial")
    assert set(tr.trial_ids) & set(te.trial_ids) == set()
    assert len(tr) + len(te) == len(tiny_segments)


def test_segment_unit_split_sizes(tiny_segments):
    tr, te = split_segments(tiny_segments, "arousal", 0.8, seed=0, unit="segment")
    assert len(tr) + len(te) == len(tiny_segments)
    assert abs(len(tr) - 0.8 * len(tiny_segments)) <= 3


def test_split_segments_is_pinned(tiny_segments):
    """Both units, both targets, three seeds: each side's trial ids and the
    first EEG sample of each of its segments, hashed in order."""
    h = hashlib.sha256()
    for unit in ("segment", "trial"):
        for target in ("arousal", "valence"):
            for seed in (0, 1, 2):
                for side in split_segments(tiny_segments, target, 0.8, seed, unit):
                    h.update("\n".join(side.trial_ids.tolist()).encode() + b"\n--\n")
                    h.update(side.eeg[:, 0, 0].tobytes())
    assert h.hexdigest() == "2dab845d2e3cf53b8d12d7de855988d7bd058e8d0197576cd96eff9d55452378"


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------


def _one_segment_set(rng):
    return SegmentSet(
        eeg=rng.standard_normal((2, 10, 1280)),
        ecg=rng.standard_normal((2, 3, 1280)),
        gsr=rng.standard_normal((2, 1, 1280)),
        eye=rng.standard_normal((2, 4, 600)),
        arousal=np.array([0, 2]),
        valence=np.array([1, 1]),
        trial_ids=np.array(["a", "b"]),
        subjects=np.array([0, 0]),
    )


def test_augment_preserves_labels_and_shapes():
    segs = _one_segment_set(np.random.default_rng(3))
    out = augment_segments(segs, np.random.default_rng(0))
    assert out.eeg.shape == segs.eeg.shape
    np.testing.assert_array_equal(out.arousal, segs.arousal)
    np.testing.assert_array_equal(out.valence, segs.valence)


def test_augment_scale_recoverable_and_noise_sized():
    segs = _one_segment_set(np.random.default_rng(4))
    out = augment_segments(segs, np.random.default_rng(1))
    for si in range(2):
        x = segs.eeg[si].ravel()
        y = out.eeg[si].ravel()
        s_hat = float(np.dot(y, x) / np.dot(x, x))  # noise is orthogonal to x in expectation
        assert 0.8 - 0.02 <= s_hat <= 1.2 + 0.02
        residual = y - s_hat * x
        per_channel = residual.reshape(10, 1280).std(axis=1)
        want = 0.05 * segs.eeg[si].std(axis=1)
        np.testing.assert_allclose(per_channel, want, rtol=0.10)


def test_augment_noise_centered():
    segs = _one_segment_set(np.random.default_rng(5))
    out = augment_segments(segs, np.random.default_rng(2))
    diff = out.ecg - segs.ecg * (out.ecg.sum(axis=(1, 2), keepdims=True) / segs.ecg.sum(axis=(1, 2), keepdims=True))
    assert abs(diff.mean()) < 0.01


def test_augment_keeps_blink_markers_exactly():
    segs = _one_segment_set(np.random.default_rng(6))
    segs.eye[0, 1, 5:25] = -1.0
    segs.eye[1, 3, :] = -1.0
    out = augment_segments(segs, np.random.default_rng(3))
    np.testing.assert_array_equal(out.eye[0, 1, 5:25], -1.0)
    np.testing.assert_array_equal(out.eye[1, 3], -1.0)
    assert not np.array_equal(out.eye[0, 0], segs.eye[0, 0])


def test_augment_deterministic_per_rng():
    segs = _one_segment_set(np.random.default_rng(7))
    a = augment_segments(segs, np.random.default_rng(9)).eeg
    b = augment_segments(segs, np.random.default_rng(9)).eeg
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# disk format
# ---------------------------------------------------------------------------


def test_save_load_roundtrip(tmp_path):
    data = generate_synthetic(SMALL)
    root = save_dataset(data, tmp_path / "ds")
    loaded = load_dataset(root)
    assert len(loaded.trials) == len(data.trials)
    for a, b in zip(data.trials, loaded.trials):
        np.testing.assert_array_equal(a.eeg, b.eeg)
        np.testing.assert_array_equal(a.eye, b.eye)
        assert a.trial_id == b.trial_id and a.subject == b.subject
    assert loaded.synthetic_spec == data.synthetic_spec


def test_manifest_splits_key_is_gone_but_old_manifests_still_load(tmp_path):
    data = generate_synthetic(SMALL)
    root = save_dataset(data, tmp_path / "ds")
    manifest = json.loads((root / "manifest.json").read_text())
    assert "splits" not in manifest
    # manifests written before the key was dropped carry it as null
    manifest["splits"] = None
    (root / "manifest.json").write_text(json.dumps(manifest))
    assert len(load_dataset(root).trials) == len(data.trials)


def test_save_twice_is_byte_identical(tmp_path):
    a = save_dataset(generate_synthetic(SMALL), tmp_path / "a")
    b = save_dataset(generate_synthetic(SMALL), tmp_path / "b")
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
    for f in sorted((a / "trials").iterdir()):
        assert f.read_bytes() == (b / "trials" / f.name).read_bytes()
    assert manifest_hash(a) == manifest_hash(b)


def test_truncated_payload_names_trial(tmp_path):
    root = save_dataset(generate_synthetic(SMALL), tmp_path / "ds")
    victim = sorted((root / "trials").iterdir())[2]
    victim.write_bytes(victim.read_bytes()[:-8])
    with pytest.raises(FormatError, match=victim.stem):
        load_dataset(root)


def test_missing_payload_file(tmp_path):
    root = save_dataset(generate_synthetic(SMALL), tmp_path / "ds")
    victim = sorted((root / "trials").iterdir())[0]
    victim.unlink()
    with pytest.raises(FormatError, match="missing"):
        load_dataset(root)


def test_unknown_modality_rejected(tmp_path):
    root = save_dataset(generate_synthetic(SMALL), tmp_path / "ds")
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["modalities"][0]["name"] = "emg"
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="emg"):
        load_dataset(root)


def test_unknown_format_rejected(tmp_path):
    root = save_dataset(generate_synthetic(SMALL), tmp_path / "ds")
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["format"] = "other-v9"
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="format"):
        load_dataset(root)


def _drop_key(key):
    def mutate(root):
        manifest = json.loads((root / "manifest.json").read_text())
        del manifest[key]
        (root / "manifest.json").write_text(json.dumps(manifest))

    return mutate


def _retype_trial_subject(root):
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["trials"][1]["subject"] = "one"
    (root / "manifest.json").write_text(json.dumps(manifest))


def _not_json(root):
    (root / "manifest.json").write_bytes(b"\xff{")


def _nan_in_payload(root):
    victim = sorted((root / "trials").iterdir())[1]
    payload = victim.read_bytes()
    victim.write_bytes(payload[:40] + np.float32(np.nan).tobytes() + payload[44:])


@pytest.mark.parametrize(
    "mutate,error,match",
    [
        (_drop_key("pre_trial_ms"), FormatError, "pre_trial_ms"),
        (_drop_key("trials"), FormatError, "trials"),
        (_drop_key("modalities"), FormatError, "modalities"),
        (_retype_trial_subject, FormatError, "manifest trial 1: key 'subject' is missing or not of type int"),
        (_not_json, FormatError, "not UTF-8 JSON"),
        (_nan_in_payload, FormatError, "s000t00001: payload holds non-finite"),
    ],
    ids=["no_pre_trial_ms", "no_trials", "no_modalities", "str_subject", "not_json", "nan_payload"],
)
def test_malformed_manifest_or_payload_is_rejected_at_load(tmp_path, mutate, error, match):
    root = save_dataset(generate_synthetic(SyntheticSpec(num_subjects=1, trials_per_subject=3)), tmp_path / "ds")
    mutate(root)
    with pytest.raises(error, match=match):
        load_dataset(root)


@pytest.mark.parametrize("spelling", ["absolute", "parent"])
def test_payload_file_outside_the_dataset_directory_is_rejected(tmp_path, spelling):
    root = save_dataset(generate_synthetic(SyntheticSpec(num_subjects=1, trials_per_subject=3)), tmp_path / "ds")
    manifest = json.loads((root / "manifest.json").read_text())
    # a valid payload outside the directory, so only where it lies is wrong
    elsewhere = tmp_path / "elsewhere.bin"
    elsewhere.write_bytes((root / manifest["trials"][1]["file"]).read_bytes())
    manifest["trials"][1]["file"] = str(elsewhere) if spelling == "absolute" else "../elsewhere.bin"
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="s000t00001: payload file .*elsewhere.bin' lies outside"):
        load_dataset(root)
    assert main(["preprocess", "--data", str(root), "--out", str(tmp_path / "segs.npz")]) == 2


def test_save_dataset_rejects_a_trial_with_another_pre_trial_ms(tmp_path):
    # the manifest holds one pre_trial_ms, so such a directory would not load back
    trials = generate_synthetic(SyntheticSpec(num_subjects=1, trials_per_subject=2)).trials
    trials += generate_synthetic(SyntheticSpec(num_subjects=2, trials_per_subject=1, pre_trial_ms=500)).trials[1:]
    with pytest.raises(FormatError, match="s001t00001: pre_trial_ms 500"):
        save_dataset(TrialDataset(trials, pre_trial_ms=1000), tmp_path / "ds")
    assert not (tmp_path / "ds").exists()


TWO_TRIALS = SyntheticSpec(num_subjects=1, trials_per_subject=2)


def _manifest_with_trial_id(root, trial, trial_id):
    """Rewrite the manifest of ``root`` so that trial number ``trial`` has id ``trial_id``."""
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["trials"][trial]["id"] = trial_id
    (root / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("trial_id", ["", ".", "..", "../../escaped", "a/b", "a\\b", "a\0b"])
def test_trial_id_that_is_not_a_plain_file_name_is_rejected(tmp_path, trial_id):
    ds = generate_synthetic(TWO_TRIALS)
    ds.trials[0].trial_id = trial_id
    with pytest.raises(FormatError, match="is not a plain file name"):
        save_dataset(ds, tmp_path / "out" / "ds")
    # nothing was written, inside the dataset directory or next to it
    assert not (tmp_path / "out").exists()
    root = save_dataset(generate_synthetic(TWO_TRIALS), tmp_path / "ds")
    _manifest_with_trial_id(root, 0, trial_id)
    with pytest.raises(FormatError, match="is not a plain file name"):
        load_dataset(root)
    assert main(["preprocess", "--data", str(root), "--out", str(tmp_path / "segs.npz")]) == 2


def test_repeated_trial_id_is_rejected(tmp_path, capsys):
    ds = generate_synthetic(TWO_TRIALS)
    ds.trials[1].trial_id = ds.trials[0].trial_id
    # saved, the second payload would overwrite the first under one file name
    with pytest.raises(FormatError, match="dataset lists trial id 's000t00000' more than once"):
        save_dataset(ds, tmp_path / "out")
    assert not (tmp_path / "out").exists()
    root = save_dataset(generate_synthetic(TWO_TRIALS), tmp_path / "ds")
    _manifest_with_trial_id(root, 1, "s000t00000")
    with pytest.raises(FormatError, match="manifest lists trial id 's000t00000' more than once"):
        load_dataset(root)
    assert main(["preprocess", "--data", str(root), "--out", str(tmp_path / "segs.npz")]) == 2
    assert "manifest lists trial id 's000t00000' more than once" in capsys.readouterr().err


@pytest.fixture(scope="module")
def two_trial_dir(tmp_path_factory):
    return save_dataset(generate_synthetic(TWO_TRIALS), tmp_path_factory.mktemp("fuzz") / "ds")


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_a_dataset_with_one_bit_flipped_loads_or_is_a_format_error(two_trial_dir, data):
    """One bit of the manifest or of a payload flipped: the load returns a
    dataset or raises FormatError, never another exception."""
    path = data.draw(st.sampled_from(sorted(p for p in two_trial_dir.rglob("*") if p.is_file())), label="file")
    original = path.read_bytes()
    bit = data.draw(st.integers(0, 8 * len(original) - 1), label="bit")
    flipped = bytearray(original)
    flipped[bit // 8] ^= 1 << (bit % 8)
    path.write_bytes(flipped)
    try:
        load_dataset(two_trial_dir)
    except FormatError:
        pass
    finally:
        path.write_bytes(original)


def test_segment_archive_with_no_segments_is_data_error(tmp_path, tiny_segments, capsys):
    path = tmp_path / "empty.npz"
    save_segments(tiny_segments.take([]), path)
    with pytest.raises(FormatError, match="holds no segments"):
        load_segments(path)
    assert main(["train", "--data", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"segment archive {path} holds no segments" in capsys.readouterr().err


def _shorter_arousal(arrays):
    arrays["arousal"] = arrays["arousal"][:-1]


def _label_seven(arrays):
    arrays["arousal"][0] = 7


def _nan_in_eeg(arrays):
    arrays["eeg"][1, 2, 3] = np.nan


def _complex_eeg(arrays):
    arrays["eeg"] = arrays["eeg"].astype(np.complex64) * 1j


def _string_eeg(arrays):
    arrays["eeg"] = arrays["eeg"].astype("<U8")


def _meta_not_json(arrays):
    arrays["meta"] = np.frombuffer(b"{oops", dtype=np.uint8)


@pytest.mark.parametrize(
    "mutate,error,match",
    [
        (_shorter_arousal, FormatError, "array 'arousal' has shape"),
        (_label_seven, FormatError, "array 'arousal' holds labels outside"),
        (_nan_in_eeg, FormatError, "array 'eeg' holds non-finite values"),
        (_meta_not_json, FormatError, "array 'meta' is not UTF-8 JSON"),
        (_complex_eeg, FormatError, "array 'eeg' has dtype complex64"),
        (_string_eeg, FormatError, "array 'eeg' has dtype <U8"),
    ],
    ids=["short_arousal", "label_7", "nan_eeg", "meta_not_json", "complex_eeg", "string_eeg"],
)
def test_malformed_segment_archive_is_rejected_at_load(tmp_path, tiny_segments, capsys, mutate, error, match):
    path = tmp_path / "segs.npz"
    save_segments(tiny_segments, path)
    with np.load(path) as z:
        arrays = {name: z[name].copy() for name in z.files}
    mutate(arrays)
    np.savez(path, **arrays)
    with pytest.raises(error, match=match):
        load_segments(path)
    assert main(["train", "--data", str(path), "--out", str(tmp_path / "o")]) == 2
    assert match in capsys.readouterr().err


def test_unreadable_segment_archive_is_data_error(tmp_path, tiny_segments, capsys):
    good = tmp_path / "good.npz"
    save_segments(tiny_segments, good)
    blob = good.read_bytes()
    flipped = bytearray(blob)
    flipped[len(blob) // 2] ^= 0x10
    npy = io.BytesIO()
    np.save(npy, tiny_segments.eeg[:2])
    cases = {f"cut{c}": blob[:c] for c in (1, 100, len(blob) // 2, len(blob) - 1)}
    cases.update(flip=bytes(flipped), empty=b"", npy=npy.getvalue())
    for name, payload in cases.items():
        path = tmp_path / f"{name}.npz"
        path.write_bytes(payload)
        with pytest.raises(FormatError, match="is not a readable .npz"):
            load_segments(path)
        assert main(["train", "--data", str(path), "--out", str(tmp_path / "o")]) == 2, name
        assert f"segment archive {path} is not a readable .npz" in capsys.readouterr().err


def test_segment_archive_roundtrip(tmp_path, tiny_segments):
    path = tmp_path / "segs.npz"
    save_segments(tiny_segments, path, meta={"origin": "test"})
    loaded, meta = load_segments(path)
    assert meta == {"origin": "test"}
    assert len(loaded) == len(tiny_segments)
    np.testing.assert_allclose(loaded.eeg, tiny_segments.eeg, atol=1e-6)
    np.testing.assert_array_equal(loaded.arousal, tiny_segments.arousal)
