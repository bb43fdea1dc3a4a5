import hashlib
import warnings
from dataclasses import fields

import numpy as np
import pytest

from hyperx.dataset import SEGMENT_SHAPES, RawTrial, SegmentSet, SyntheticSpec, TrialDataset, generate_synthetic
from hyperx.errors import ConfigError, InputError
from hyperx.sigproc import (
    IIRFilterSpec,
    PreprocessConfig,
    PreprocessedTrial,
    apply_filter,
    average_reference,
    baseline_correct_gsr,
    downsample_by2,
    merge_eyes,
    preprocess_dataset,
    preprocess_trial,
    segment_trial,
)


def sine(freq, fs, seconds, phase=0.0):
    t = np.arange(int(round(fs * seconds))) / fs
    return np.sin(2 * np.pi * freq * t + phase)


def steady_amplitude(x, fs, trim_s=1.0):
    """Amplitude of a sinusoid from its interior RMS (transients trimmed)."""
    n = int(trim_s * fs)
    core = x[n:-n]
    return np.sqrt(2.0) * core.std()


# ---------------------------------------------------------------------------
# downsampling
# ---------------------------------------------------------------------------


def test_downsample_preserves_dc():
    x = np.full((2, 2048), 5.0)
    y = downsample_by2(x, 256.0)
    assert y.shape == (2, 1024)
    np.testing.assert_allclose(y, 5.0, atol=1e-9)


def test_downsample_keeps_10hz_amplitude():
    x = sine(10.0, 256.0, 8.0)[None, :]
    y = downsample_by2(x, 256.0)[0]
    amp = steady_amplitude(y, 128.0)
    assert abs(amp - 1.0) < 0.01
    # FFT-peak oracle: dominant bin stays at 10 Hz
    spec = np.abs(np.fft.rfft(y))
    freqs = np.fft.rfftfreq(y.size, 1 / 128.0)
    assert abs(freqs[spec.argmax()] - 10.0) < 0.2


def test_downsample_rejects_aliasing_100hz():
    x = sine(100.0, 256.0, 8.0)[None, :]
    y = downsample_by2(x, 256.0)[0]
    n = 128
    rms_out = y[n:-n].std()
    rms_in = x[0].std()
    assert rms_out < 0.01 * rms_in


def test_downsample_truncates_odd_length():
    y = downsample_by2(np.zeros((1, 2049)), 256.0)
    assert y.shape == (1, 1024)


def test_downsample_too_short():
    with pytest.raises(InputError):
        downsample_by2(np.zeros((1, 20)), 256.0)


# ---------------------------------------------------------------------------
# average reference
# ---------------------------------------------------------------------------


def test_average_reference_identical_channels_zero():
    x = np.tile(sine(5, 128, 2.0), (10, 1))
    np.testing.assert_allclose(average_reference(x), 0.0, atol=1e-12)


def test_average_reference_zero_mean_at_every_sample():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((10, 500))
    y = average_reference(x)
    np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-12)


def test_average_reference_impulse_distribution():
    x = np.zeros((10, 4))
    x[0, 2] = 10.0
    y = average_reference(x)
    assert y[0, 2] == pytest.approx(9.0)
    np.testing.assert_allclose(y[1:, 2], -1.0)


def test_average_reference_idempotent():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((10, 300))
    once = average_reference(x)
    np.testing.assert_allclose(average_reference(once), once, atol=1e-12)


# ---------------------------------------------------------------------------
# filters
# ---------------------------------------------------------------------------

BANDPASS = IIRFilterSpec("bandpass", 1.0, 45.0, order=4)
NOTCH = IIRFilterSpec("notch", high=50.0, notch_q=30.0)


def test_bandpass_passes_20hz_within_2pct():
    x = sine(20.0, 128.0, 10.0)[None, :]
    y = apply_filter(x, BANDPASS, 128.0)[0]
    assert abs(steady_amplitude(y, 128.0) - 1.0) < 0.02


def test_notch_suppresses_50hz():
    x = sine(50.0, 128.0, 10.0)[None, :]
    y = apply_filter(x, NOTCH, 128.0)[0]
    n = 128
    assert y[n:-n].std() < 0.05 * x[0].std()


def test_bandpass_removes_dc_offset():
    x = np.full((1, 1280), 3.0)
    y = apply_filter(x, BANDPASS, 128.0)[0]
    assert np.abs(y[128:-128]).mean() < 0.01 * 3.0


def test_filter_corner_beyond_nyquist_rejected():
    with pytest.raises(ConfigError):
        apply_filter(np.zeros((1, 1000)), IIRFilterSpec("bandpass", 1.0, 70.0), 128.0)
    with pytest.raises(ConfigError):
        apply_filter(np.zeros((1, 1000)), IIRFilterSpec("lowpass", high=64.0), 128.0)
    with pytest.raises(ConfigError):  # a zero Q divided by zero inside iirnotch
        apply_filter(np.zeros((1, 1000)), IIRFilterSpec("notch", high=50.0, notch_q=0.0), 128.0)


def test_bandpass_sweep_ripple_and_stopband():
    fs = 128.0
    gains = {}
    for f in range(3, 36):
        y = apply_filter(sine(f, fs, 12.0)[None, :], BANDPASS, fs)[0]
        gains[f] = steady_amplitude(y, fs, trim_s=2.0)
    ripple = max(abs(1.0 - g) for g in gains.values())
    assert ripple < 0.02, f"passband ripple {ripple:.4f}"
    y55 = apply_filter(sine(55.0, fs, 12.0)[None, :], BANDPASS, fs)[0]
    atten_db = -20.0 * np.log10(steady_amplitude(y55, fs, trim_s=2.0) + 1e-30)
    assert atten_db > 20.0, f"55 Hz attenuation {atten_db:.1f} dB"


def test_notch_depth_over_25db():
    fs = 128.0
    y = apply_filter(sine(50.0, fs, 12.0)[None, :], NOTCH, fs)[0]
    depth_db = -20.0 * np.log10(steady_amplitude(y, fs, trim_s=2.0) + 1e-30)
    assert depth_db > 25.0, f"notch depth {depth_db:.1f} dB"


def test_zero_phase_pulse_stays_symmetric():
    fs = 128.0
    t = np.arange(1280) / fs
    pulse = np.exp(-0.5 * ((t - 5.0) / 0.15) ** 2)
    y = apply_filter(pulse[None, :], BANDPASS, fs)[0]
    assert abs(int(np.argmax(y)) - int(np.argmax(pulse))) < 1


# ---------------------------------------------------------------------------
# baseline correction
# ---------------------------------------------------------------------------


def test_baseline_constant_signal_zeroed():
    gsr = np.full((1, 500), 7.0)
    y = baseline_correct_gsr(gsr, 128.0, pre_trial_samples=128)
    assert y.shape == (1, 372)
    np.testing.assert_allclose(y, 0.0, atol=1e-12)


def test_baseline_subtracts_window_mean():
    gsr = np.concatenate([np.full((1, 128), 2.0), np.full((1, 256), 5.0)], axis=1)
    y = baseline_correct_gsr(gsr, 128.0, pre_trial_samples=128)
    np.testing.assert_allclose(y, 3.0)


def test_baseline_ramp_hand_computed():
    fs = 128.0
    gsr = np.arange(512, dtype=float)[None, :]
    window = int(round(0.2 * fs))  # 26 samples
    base = gsr[0, 128 - window : 128].mean()
    y = baseline_correct_gsr(gsr, fs, pre_trial_samples=128)
    np.testing.assert_allclose(y[0], np.arange(128, 512) - base, atol=1e-12)


def test_baseline_insufficient_context():
    with pytest.raises(InputError):
        baseline_correct_gsr(np.zeros((1, 100)), 128.0, pre_trial_samples=10)


# ---------------------------------------------------------------------------
# eye merging
# ---------------------------------------------------------------------------


def test_merge_eyes_averages_pairs():
    eye = np.zeros((8, 3))
    eye[0] = 10.0  # left gaze-x
    eye[4] = 20.0  # right gaze-x
    merged = merge_eyes(eye)
    np.testing.assert_allclose(merged[0], 15.0)


def test_merge_eyes_one_eye_blink_propagates():
    eye = np.full((8, 4), 20.0)
    eye[0, 1] = -1.0
    merged = merge_eyes(eye)
    assert merged[0, 1] == -1.0
    assert merged[0, 0] == 20.0


def test_merge_eyes_both_eyes_blink():
    eye = np.full((8, 2), -1.0)
    np.testing.assert_array_equal(merge_eyes(eye), -1.0)


# ---------------------------------------------------------------------------
# segmentation
# ---------------------------------------------------------------------------


def _fake_preprocessed(seconds):
    n128, n60 = int(seconds * 128), int(seconds * 60)
    return PreprocessedTrial(
        "t0", 0, 1, 2,
        eeg=np.arange(10 * n128, dtype=float).reshape(10, n128),
        ecg=np.zeros((3, n128)),
        gsr=np.zeros((1, n128)),
        eye=np.zeros((4, n60)),
    )


def test_segment_30s_gives_three():
    segs = segment_trial(_fake_preprocessed(30))
    assert len(segs) == 3
    for k in range(len(segs)):
        assert segs.eeg[k].shape == (10, 1280)
        assert segs.eye[k].shape == (4, 600)
        assert (segs.arousal[k], segs.valence[k]) == (1, 2)


def test_segment_10s_gives_one():
    assert len(segment_trial(_fake_preprocessed(10))) == 1


def test_segment_25s_warns_and_floors():
    with pytest.warns(UserWarning):
        segs = segment_trial(_fake_preprocessed(25))
    assert len(segs) == 2
    # a 2 s overlap gives windows at 0, 8 and 16 s, so the last 4 s of 30 s go uncovered
    with pytest.warns(UserWarning, match="uncovered"):
        segs = segment_trial(_fake_preprocessed(30), overlap_seconds=2.0)
    assert len(segs) == 3


def test_segment_boundaries_are_contiguous_blocks():
    pt = _fake_preprocessed(30)
    segs = segment_trial(pt)
    for k in range(len(segs)):
        np.testing.assert_array_equal(segs.eeg[k, 0], pt.eeg[0, k * 1280 : (k + 1) * 1280])


def test_segment_overlap_increases_count():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # 5 s hops cover all 30 s
        segs = segment_trial(_fake_preprocessed(30), overlap_seconds=5.0)
    assert len(segs) == 5
    with pytest.raises(ConfigError, match="segment_overlap_seconds"):
        segment_trial(_fake_preprocessed(30), overlap_seconds=-1.0)


def test_every_allowed_overlap_starts_each_window_at_one_time_in_all_modalities():
    # every sample holds its own time in seconds, so a window's first value is its start time
    t128, t60 = np.arange(30 * 128) / 128, np.arange(30 * 60) / 60
    pt = PreprocessedTrial("t0", 0, 1, 2, eeg=np.tile(t128, (10, 1)), ecg=np.tile(t128, (3, 1)),
                           gsr=t128[None], eye=np.tile(t60, (4, 1)))
    for overlap in np.arange(0, 10, 0.25):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # most hops leave the end of the trial uncovered
            segs = segment_trial(pt, overlap_seconds=overlap)
        hop = 10 - overlap
        starts = np.arange(int(20 // hop) + 1) * hop
        for name in ("eeg", "ecg", "gsr", "eye"):
            np.testing.assert_allclose(getattr(segs, name)[:, 0, 0], starts, rtol=0, atol=1e-12, err_msg=name)
    # 9.975 s hops by 3 samples at 128 Hz and 2 at 60 Hz: window 600 started at 14.1 s and at 20.0 s
    with pytest.raises(ConfigError, match="segment_overlap_seconds must be a multiple of 0.25 s"):
        segment_trial(pt, overlap_seconds=9.975)


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


def test_preprocess_trial_output_shapes(tiny_raw_dataset):
    pt = preprocess_trial(tiny_raw_dataset.trials[0])
    assert pt.eeg.shape == (10, 3840)
    assert pt.ecg.shape == (3, 3840)
    assert pt.gsr.shape == (1, 3840)
    assert pt.eye.shape == (4, 1800)
    # the average reference leaves every time point with zero channel mean
    np.testing.assert_allclose(pt.eeg.mean(axis=0), 0.0, atol=1e-9)


def test_preprocess_keeps_blink_markers(tiny_raw_dataset):
    found = False
    for trial in tiny_raw_dataset.trials:
        pt = preprocess_trial(trial)
        if (pt.eye == -1.0).any():
            found = True
            break
    assert found, "expected at least one blink in the synthetic set"


def test_preprocess_dataset_counts_and_shapes(tiny_segments, tiny_raw_dataset):
    assert len(tiny_segments) == 3 * len(tiny_raw_dataset.trials)
    for name in ("eeg", "ecg", "gsr", "eye"):
        assert getattr(tiny_segments, name).shape[1:] == SEGMENT_SHAPES[name]
    # the encoders read C-contiguous batches; a strided layout is slower, not wrong
    assert all(getattr(tiny_segments, name).flags.c_contiguous for name in ("eeg", "ecg", "gsr", "eye"))


def test_preprocess_is_pure(tiny_raw_dataset):
    a = preprocess_trial(tiny_raw_dataset.trials[0])
    b = preprocess_trial(tiny_raw_dataset.trials[0])
    np.testing.assert_array_equal(a.eeg, b.eeg)
    np.testing.assert_array_equal(a.gsr, b.gsr)


def test_gsr_baseline_centers_trial_start(tiny_raw_dataset):
    pt = preprocess_trial(tiny_raw_dataset.trials[0])
    # after subtracting the pre-onset mean the first second sits near zero
    assert abs(pt.gsr[0, :128].mean()) < 1.0


# ---------------------------------------------------------------------------
# dataset pass: pinned bytes and the per-trial oracle
# ---------------------------------------------------------------------------

# SHA-256 of the <f8 bytes of eeg, ecg, gsr and eye, joined in that order, of
# preprocess_dataset over SyntheticSpec(num_subjects=1, trials_per_subject=11,
# seed=3): 33 segments.
SEGMENTS_GOLDEN_SHA256 = "be03a7a496f287046752c48a357ffda01e4c33cb5ba6f2379cd415ec958b3e0f"


@pytest.fixture(scope="module")
def eleven_trials():
    # 11 trials: not a multiple of the dataset pass's block size
    return generate_synthetic(SyntheticSpec(num_subjects=1, trials_per_subject=11, seed=3))


def test_preprocess_dataset_bytes_are_golden(eleven_trials):
    segs = preprocess_dataset(eleven_trials)
    assert len(segs) == 33
    digest = hashlib.sha256()
    for name in ("eeg", "ecg", "gsr", "eye"):
        digest.update(np.ascontiguousarray(getattr(segs, name), dtype="<f8").tobytes())
    assert digest.hexdigest() == SEGMENTS_GOLDEN_SHA256


def _assert_equals_per_trial_oracle(ds):
    got = preprocess_dataset(ds)
    per_trial = [segment_trial(preprocess_trial(t)) for t in ds.trials]
    for name in (f.name for f in fields(SegmentSet)):
        assert np.array_equal(getattr(got, name), np.concatenate([getattr(s, name) for s in per_trial])), name


def test_preprocess_dataset_equals_per_trial_oracle(eleven_trials):
    _assert_equals_per_trial_oracle(eleven_trials)


def test_preprocess_dataset_uses_each_trials_own_pre_trial_ms():
    short = generate_synthetic(SyntheticSpec(num_subjects=1, trials_per_subject=3, seed=4, pre_trial_ms=500))
    long = generate_synthetic(SyntheticSpec(num_subjects=1, trials_per_subject=3, seed=5)).trials
    # the dataset-level default matches none of the trials and must not be used
    _assert_equals_per_trial_oracle(TrialDataset(short.trials, pre_trial_ms=2000))
    # trials that disagree on pre_trial_ms, in runs that alternate, each keep their own
    mixed = long[:2] + short.trials + long[2:]
    _assert_equals_per_trial_oracle(TrialDataset(mixed, pre_trial_ms=2000))
