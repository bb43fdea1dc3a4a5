"""Zero-phase preprocessing chain for the multimodal recordings.

Pipeline per trial (pure function of the trial and the config):

1. GSR low-pass at 60 Hz, applied at the native 256 Hz rate (a 60 Hz
   corner is too close to the 64 Hz Nyquist of the downsampled signal).
2. Downsample EEG/ECG/GSR 256 -> 128 Hz (anti-alias + decimate).
3. EEG average reference.
4. Band-pass EEG 1-45 Hz, ECG 0.5-45 Hz.
5. Notch 50 Hz on EEG, ECG and GSR.
6. GSR baseline correction against the mean of the 200 ms window that
   precedes trial onset; EEG/ECG need none after high-pass filtering,
   so their pre-trial context is simply dropped.
7. Eye: average left/right per quantity, keeping -1 blink markers.
8. Cut into 10 s windows: a ``SegmentSet`` of views per trial, which
   ``preprocess_dataset`` concatenates into the one copy of each window.

All IIR filtering is forward-backward (zero phase) with odd-reflection
padding of three filter lengths at each end.

Steps 1-7 are one function of a trial's arrays, [C, L], or of a block of
trials stacked to [N, C, L]: every step works on the last two axes, and
filtering is independent per row, so a block gives bitwise the same
result as its trials one at a time.  ``preprocess_dataset`` runs the chain
once per block of ``BLOCK_TRIALS`` consecutive trials, which designs each
filter and sets up each ``sosfiltfilt`` once per block instead of once per
trial.  A block is kept small because its float64 intermediates live
together: stacking all trials at once doubled peak memory.
"""

from __future__ import annotations

import itertools
import os
import warnings
from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import signal as sps

from .config import JsonConfig
from .dataset import (
    EYE_RATE,
    SEGMENT_SECONDS,
    SEGMENT_SHAPES,
    TARGET_RATE,
    TARGETS,
    RawTrial,
    SegmentSet,
    TrialDataset,
)
from .errors import ConfigError, InputError

__all__ = [
    "IIRFilterSpec",
    "PreprocessConfig",
    "downsample_by2",
    "average_reference",
    "apply_filter",
    "baseline_correct_gsr",
    "merge_eyes",
    "PreprocessedTrial",
    "preprocess_trial",
    "segment_trial",
    "preprocess_dataset",
    "worker_count",
]


@dataclass
class IIRFilterSpec:
    """kind: 'bandpass', 'lowpass' or 'notch'; corners in Hz."""

    kind: str
    low: float = 0.0
    high: float = 0.0
    order: int = 4
    notch_q: float = 30.0

    def design_sos(self, fs: float) -> np.ndarray:
        nyq = fs / 2.0
        if self.order < 1:
            raise ConfigError(f"filter order must be >= 1, got {self.order}")
        if self.kind == "bandpass":
            if not 0 < self.low < self.high < nyq:
                raise ConfigError(f"bandpass corners ({self.low}, {self.high}) invalid for fs={fs}")
            return sps.butter(self.order, [self.low, self.high], btype="bandpass", fs=fs, output="sos")
        if self.kind == "lowpass":
            if not 0 < self.high < nyq:
                raise ConfigError(f"lowpass corner {self.high} invalid for fs={fs}")
            return sps.butter(self.order, self.high, btype="lowpass", fs=fs, output="sos")
        if self.kind == "notch":
            if not (0 < self.high < nyq and self.notch_q > 0):
                raise ConfigError(f"notch frequency {self.high} or Q {self.notch_q} invalid for fs={fs}")
            b, a = sps.iirnotch(self.high, self.notch_q, fs=fs)
            return sps.tf2sos(b, a)
        raise ConfigError(f"unknown filter kind {self.kind!r}")


def _zero_phase(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Forward-backward filtering with odd padding of 3 filter lengths."""
    padlen = 3 * (2 * sos.shape[0] + 1)
    if x.shape[-1] <= padlen:
        raise InputError(f"signal length {x.shape[-1]} <= filter warm-up {padlen}")
    return sps.sosfiltfilt(sos, x, axis=-1, padtype="odd", padlen=padlen)


def apply_filter(x: np.ndarray, spec: IIRFilterSpec, fs: float) -> np.ndarray:
    """Zero-phase application of ``spec`` along the last axis of x."""
    return _zero_phase(spec.design_sos(fs), np.asarray(x, dtype=np.float64))


def downsample_by2(x: np.ndarray, fs: float = 256.0) -> np.ndarray:
    """Anti-alias (8th-order Butterworth at 0.8 * new Nyquist, zero phase)
    then keep every second sample.  Odd trailing samples are truncated."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] % 2:
        x = x[..., :-1]
    cutoff = 0.8 * (fs / 4.0)
    sos = sps.butter(8, cutoff, btype="lowpass", fs=fs, output="sos")
    return _zero_phase(sos, x)[..., ::2]


def average_reference(eeg: np.ndarray) -> np.ndarray:
    """Subtract the instantaneous cross-channel mean from every channel of
    [C, L] or [N, C, L]."""
    eeg = np.asarray(eeg, dtype=np.float64)
    return eeg - eeg.mean(axis=-2, keepdims=True)


def baseline_correct_gsr(
    gsr: np.ndarray, fs: float, pre_trial_samples: int, baseline_ms: float = 200.0
) -> np.ndarray:
    """Subtract the mean of the window preceding trial onset; return the
    trial portion only."""
    window = int(round(baseline_ms / 1000.0 * fs))
    if pre_trial_samples < window:
        raise InputError(
            f"need {window} pre-trial samples for a {baseline_ms} ms baseline, have {pre_trial_samples}"
        )
    base = gsr[..., pre_trial_samples - window : pre_trial_samples].mean(axis=-1, keepdims=True)
    return gsr[..., pre_trial_samples:] - base


def merge_eyes(eye: np.ndarray) -> np.ndarray:
    """[..., 8, L] left/right quantity blocks -> [..., 4, L] means; any -1 stays -1.

    -1 marks blinks or tracking loss, which is itself informative, so it
    propagates: if either eye reads -1 the merged sample is -1.
    """
    left, right = eye[..., 0:4, :], eye[..., 4:8, :]
    merged = 0.5 * (left + right)
    merged[(left == -1.0) | (right == -1.0)] = -1.0
    return merged


def _check_overlap(overlap_seconds: float):
    """The overlap rule of ``PreprocessConfig`` and ``segment_trial``: a hop of whole samples at 128 and 60 Hz."""
    if not 0 <= overlap_seconds < SEGMENT_SECONDS:
        raise ConfigError(f"segment_overlap_seconds must be in [0, {SEGMENT_SECONDS}), got {overlap_seconds}")
    if any((SEGMENT_SECONDS - overlap_seconds) * rate % 1 for rate in (TARGET_RATE, EYE_RATE)):
        raise ConfigError(f"segment_overlap_seconds must be a multiple of 0.25 s, got {overlap_seconds}")


@dataclass(frozen=True)
class PreprocessConfig(JsonConfig):
    eeg_band: tuple = (1.0, 45.0)
    ecg_band: tuple = (0.5, 45.0)
    gsr_lowpass_hz: float = 60.0
    notch_hz: float = 50.0
    notch_q: float = 30.0
    filter_order: int = 4
    baseline_ms: float = 200.0
    segment_overlap_seconds: float = 0.0

    def validate(self):
        nyq = TARGET_RATE / 2
        for name in ("eeg_band", "ecg_band"):
            band = list(getattr(self, name))
            if len(band) != 2 or not 0 < band[0] < band[1] < nyq:
                raise ConfigError(f"{name} must be two increasing corners in (0, {nyq:g}) Hz, got {band}")
        # open ranges: the GSR low-pass runs at 256 Hz; the baseline must span one 128 Hz sample
        for name, low, high in (("filter_order", 0, np.inf), ("gsr_lowpass_hz", 0, 128), ("notch_hz", 0, nyq),
                                ("notch_q", 0, np.inf), ("baseline_ms", 500 / TARGET_RATE, np.inf)):
            if not low < getattr(self, name) < high:
                raise ConfigError(f"{name} must be in ({low:g}, {high:g}), got {getattr(self, name)}")
        _check_overlap(self.segment_overlap_seconds)


@dataclass
class PreprocessedTrial:
    trial_id: str
    subject: int
    arousal: int
    valence: int
    eeg: np.ndarray  # [10, 30 s * 128]
    ecg: np.ndarray  # [3,  30 s * 128]
    gsr: np.ndarray  # [1,  30 s * 128]
    eye: np.ndarray  # [4,  30 s * 60]


def _chain(eeg, ecg, gsr, eye, pre_trial_ms: int, cfg: PreprocessConfig):
    """Steps 1-7 of the module docstring on one trial's [C, L] arrays or a
    block's [N, C, L] arrays; returns (eeg, ecg, gsr, eye) of the trial portion."""
    pre128 = int(round(TARGET_RATE * pre_trial_ms / 1000.0))
    pre60 = int(round(EYE_RATE * pre_trial_ms / 1000.0))
    if pre128 < round(cfg.baseline_ms / 1000.0 * TARGET_RATE):
        raise ConfigError(f"pre_trial_ms={pre_trial_ms} is shorter than the GSR baseline, baseline_ms={cfg.baseline_ms}")

    gsr = apply_filter(gsr, IIRFilterSpec("lowpass", high=cfg.gsr_lowpass_hz, order=cfg.filter_order), 256.0)

    eeg = downsample_by2(eeg, 256.0)
    ecg = downsample_by2(ecg, 256.0)
    gsr = downsample_by2(gsr, 256.0)

    eeg = average_reference(eeg)
    eeg = apply_filter(eeg, IIRFilterSpec("bandpass", *cfg.eeg_band, order=cfg.filter_order), float(TARGET_RATE))
    ecg = apply_filter(ecg, IIRFilterSpec("bandpass", *cfg.ecg_band, order=cfg.filter_order), float(TARGET_RATE))

    notch = IIRFilterSpec("notch", high=cfg.notch_hz, notch_q=cfg.notch_q)
    eeg = apply_filter(eeg, notch, float(TARGET_RATE))
    ecg = apply_filter(ecg, notch, float(TARGET_RATE))
    gsr = apply_filter(gsr, notch, float(TARGET_RATE))

    gsr = baseline_correct_gsr(gsr, float(TARGET_RATE), pre128, cfg.baseline_ms)
    return eeg[..., pre128:], ecg[..., pre128:], gsr, merge_eyes(eye)[..., pre60:]


def preprocess_trial(trial: RawTrial, cfg: PreprocessConfig | None = None) -> PreprocessedTrial:
    arrays = _chain(trial.eeg, trial.ecg, trial.gsr, trial.eye, trial.pre_trial_ms, cfg or PreprocessConfig())
    return PreprocessedTrial(trial.trial_id, trial.subject, trial.arousal, trial.valence, *arrays)


def segment_trial(pt: PreprocessedTrial, overlap_seconds: float = 0.0) -> SegmentSet:
    """Cut a preprocessed trial into ``SEGMENT_SECONDS`` windows, the model's input:
    consecutive by default (3 per 30 s trial), closer by ``overlap_seconds``.  Windows
    that leave the trial's end uncovered warn.  The signals are read-only views of ``pt``'s arrays."""
    _check_overlap(overlap_seconds)
    hop_s = SEGMENT_SECONDS - overlap_seconds
    # (signal, window, hop) in samples at each modality's rate; whole hops start window k at one time in all
    cuts = {name: (getattr(pt, name), width, round(hop_s * (width // SEGMENT_SECONDS)))
            for name, (_, width) in SEGMENT_SHAPES.items()}
    n = max(0, min((x.shape[-1] - width) // hop + 1 for x, width, hop in cuts.values()))
    eeg, width, hop = cuts["eeg"]
    if n == 0 or (n - 1) * hop + width < eeg.shape[-1]:
        warnings.warn(f"trial {pt.trial_id}: {n} segment(s) leave the end of its {eeg.shape[-1] / TARGET_RATE:.1f} s "
                      f"uncovered", stacklevel=2)
    return SegmentSet(
        **{name: sliding_window_view(x, width, axis=-1)[:, : n * hop : hop].swapaxes(0, 1) if n
           else np.empty((0, len(x), width)) for name, (x, width, hop) in cuts.items()},
        **{name: np.full(n, getattr(pt, name), dtype=np.int64) for name in TARGETS},
        trial_ids=np.full(n, pt.trial_id), subjects=np.full(n, pt.subject, dtype=np.int64),
    )


def worker_count(requested: int | None = None) -> int:
    """Worker count capped by the HYPERX_THREADS environment variable; nothing in hyperx calls it."""
    n = requested or os.cpu_count() or 1
    cap = os.environ.get("HYPERX_THREADS")
    if cap:
        n = min(n, max(1, int(cap)))
    return max(1, n)


# Trials per filter pass of preprocess_dataset: one block of all trials doubled
# peak memory, while 8 stays within a few percent of filtering trial by trial.
BLOCK_TRIALS = 8


def preprocess_dataset(ds: TrialDataset, cfg: PreprocessConfig | None = None) -> SegmentSet:
    """Preprocess and segment every trial, one filter pass per block of trials.

    A block is at most ``BLOCK_TRIALS`` consecutive trials that share their
    own ``pre_trial_ms`` (never ``ds.pre_trial_ms``, which a hand-built
    dataset may not match); a trial whose value differs starts a new block.
    """
    cfg = cfg or PreprocessConfig()
    parts = []
    for pre_trial_ms, run in itertools.groupby(ds.trials, key=lambda t: t.pre_trial_ms):
        run = list(run)
        for start in range(0, len(run), BLOCK_TRIALS):
            block = run[start : start + BLOCK_TRIALS]
            stacked = (np.stack([getattr(t, name) for t in block]) for name in SEGMENT_SHAPES)
            arrays = _chain(*stacked, pre_trial_ms, cfg)
            for i, t in enumerate(block):
                pt = PreprocessedTrial(t.trial_id, t.subject, t.arousal, t.valence, *(a[i] for a in arrays))
                parts.append(segment_trial(pt, cfg.segment_overlap_seconds))
    columns = [[getattr(p, f.name) for p in parts] for f in fields(SegmentSet)]
    count = sum(map(len, columns[0]))
    if not count:
        raise ConfigError("no segments produced; are the trials long enough?")
    # np.concatenate keeps its inputs' memory order, [C, N, W] for window views: ``out`` makes it C order
    return SegmentSet(*(np.concatenate(c, out=np.empty((count, *c[0].shape[1:]), np.result_type(*c))) for c in columns))
