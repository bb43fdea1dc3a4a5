"""The preprocessing chain, measured with sine and pulse probes.

Shows the zero-phase band-pass/notch behavior, average referencing,
GSR baseline correction and the 30 s -> 3 x 10 s segmentation.
"""

import numpy as np

from hyperx.dataset import SyntheticSpec, generate_synthetic
from hyperx.sigproc import (
    IIRFilterSpec,
    apply_filter,
    average_reference,
    downsample_by2,
    preprocess_trial,
    segment_trial,
)

fs = 128.0
t = np.arange(int(12 * fs)) / fs


def amplitude(x):
    core = x[int(2 * fs) : -int(2 * fs)]
    return np.sqrt(2.0) * core.std()


print("== 1-45 Hz band-pass (4th-order Butterworth, forward-backward) ==")
band = IIRFilterSpec("bandpass", 1.0, 45.0, order=4)
for f in (5, 20, 35, 50, 55):
    x = np.sin(2 * np.pi * f * t)[None, :]
    gain = amplitude(apply_filter(x, band, fs)[0])
    print(f"  {f:2d} Hz: gain {gain:6.4f}  ({-20 * np.log10(gain + 1e-30):5.1f} dB attenuation)")

print("\n== 50 Hz notch (Q = 30) ==")
notch = IIRFilterSpec("notch", high=50.0, notch_q=30.0)
for f in (45, 49, 50, 51, 55):
    x = np.sin(2 * np.pi * f * t)[None, :]
    gain = amplitude(apply_filter(x, notch, fs)[0])
    print(f"  {f:2d} Hz: gain {gain:6.4f}")

print("\n== zero phase: a symmetric pulse stays put ==")
pulse = np.exp(-0.5 * ((t - 6.0) / 0.2) ** 2)[None, :]
filtered = apply_filter(pulse, band, fs)[0]
print(f"  peak moved by {abs(int(np.argmax(filtered)) - int(np.argmax(pulse[0])))} sample(s)")

print("\n== downsampling 256 -> 128 Hz ==")
t256 = np.arange(2048) / 256.0
clean = np.sin(2 * np.pi * 10 * t256)[None, :]
alias = np.sin(2 * np.pi * 100 * t256)[None, :]
print(f"  10 Hz survives:  amplitude {amplitude(downsample_by2(clean)[0]):.4f}")
print(f"  100 Hz rejected: rms {downsample_by2(alias)[0][128:-128].std():.2e}")

print("\n== full trial pipeline ==")
trial = generate_synthetic(SyntheticSpec(num_subjects=1, trials_per_subject=1, seed=4)).trials[0]
pt = preprocess_trial(trial)
print(f"  EEG  {trial.eeg.shape} @256 Hz -> {pt.eeg.shape} @128 Hz, channel-mean {np.abs(pt.eeg.mean(axis=0)).max():.1e}")
print(f"  GSR  baseline-corrected start: {pt.gsr[0, :5].round(3)}")
print(f"  eye  {trial.eye.shape} -> {pt.eye.shape} (left/right merged, blinks kept)")
ref_twice = average_reference(average_reference(trial.eeg))
print(f"  average reference idempotent: {np.abs(ref_twice - average_reference(trial.eeg)).max():.1e}")
segments = segment_trial(pt)
print(f"  segments: a SegmentSet of {len(segments)}, EEG {segments.eeg.shape}, eye {segments.eye.shape}")
