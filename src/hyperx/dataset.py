"""Multimodal trial container, synthetic generator, splits and augmentation.

Disk layout of a raw dataset directory::

    manifest.json     UTF-8, schema below
    trials/<id>.bin   per-modality concatenated channel-major float32
                      little-endian blocks, in manifest modality order

The manifest lists the modality table (name, channels, rate), the trial
records (id, subject, labels, file, byte length) and optional split
assignments.  Payloads are float32 on disk and float64 in memory.

The synthetic generator stands in for gated recordings: each class label
controls the pairwise phase offsets between channels of the multi-channel
modalities (see ``class_phase_step``), at one carrier frequency per
classification target.  Per-channel amplitude spectra are identical across
classes, so labels are recoverable only from inter-channel relations;
``phase_oracle_labels`` recovers them analytically.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
import zipfile
import zlib
from collections import Counter
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .config import JsonConfig
from .errors import ConfigError, FormatError, InputError

__all__ = [
    "TARGETS",
    "CLASSES",
    "SPLIT_UNITS",
    "RAW_MODALITIES",
    "SEGMENT_SHAPES",
    "TRIAL_SECONDS",
    "SEGMENT_SECONDS",
    "TARGET_RATE",
    "EYE_RATE",
    "RawTrial",
    "TrialDataset",
    "SyntheticSpec",
    "generate_synthetic",
    "class_phase_step",
    "phase_oracle_labels",
    "segment_phase_oracle",
    "SegmentSet",
    "stratified_split",
    "split_segments",
    "augment_segments",
    "save_dataset",
    "load_dataset",
    "manifest_hash",
    "save_segments",
    "load_segments",
]

# The classification targets, their label classes and the units a split may keep whole.
TARGETS = ("arousal", "valence")
CLASSES = (0, 1, 2)
SPLIT_UNITS = ("segment", "trial")

# (name, channels, native rate). Raw eye data carries left and right eye
# blocks of four quantities each: gaze-x, gaze-y, distance, pupil.
RAW_MODALITIES = (("eeg", 10, 256), ("ecg", 3, 256), ("gsr", 1, 256), ("eye", 8, 60))

TRIAL_SECONDS = 30
SEGMENT_SECONDS = 10
TARGET_RATE = 128
EYE_RATE = 60

SEGMENT_SHAPES = {
    "eeg": (10, SEGMENT_SECONDS * TARGET_RATE),
    "ecg": (3, SEGMENT_SECONDS * TARGET_RATE),
    "gsr": (1, SEGMENT_SECONDS * TARGET_RATE),
    "eye": (4, SEGMENT_SECONDS * EYE_RATE),
}

_FORMAT_NAME = "hyperx-raw-v1"


@dataclass
class RawTrial:
    """One synchronized recording at native rates, labels in ``CLASSES``.

    Arrays cover pre_trial_ms of leading context followed by the 30 s trial.
    """

    trial_id: str
    subject: int
    eeg: np.ndarray
    ecg: np.ndarray
    gsr: np.ndarray
    eye: np.ndarray
    arousal: int
    valence: int
    pre_trial_ms: int = 1000

    def validate(self):
        # the id names the payload file trials/<id>.bin, so it must be one plain file name
        if self.trial_id in ("", ".", "..") or any(c in self.trial_id for c in "/\\\0"):
            raise FormatError(f"trial id {self.trial_id!r} is not a plain file name")
        for name, channels, rate in RAW_MODALITIES:
            arr = getattr(self, name)
            want_len = _samples(rate, self.pre_trial_ms)
            if arr.shape != (channels, want_len):
                raise FormatError(
                    f"trial {self.trial_id}: {name} shape {arr.shape} != ({channels}, {want_len})"
                )
        for label_name in TARGETS:
            v = getattr(self, label_name)
            if v not in CLASSES:
                raise FormatError(f"trial {self.trial_id}: {label_name}={v} not in {set(CLASSES)}")


def _samples(rate: int, pre_trial_ms: int) -> int:
    total_ms = pre_trial_ms + TRIAL_SECONDS * 1000
    n = rate * total_ms / 1000.0
    if abs(n - round(n)) > 1e-9:
        raise FormatError(f"pre_trial_ms={pre_trial_ms} gives non-integral sample count at {rate} Hz")
    return int(round(n))


@dataclass
class TrialDataset:
    trials: list[RawTrial]
    pre_trial_ms: int = 1000
    synthetic_spec: dict | None = None

    def __len__(self):
        return len(self.trials)


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec(JsonConfig):
    """Deterministic class-coupled multimodal signal generator settings.

    The arousal label sets inter-channel phase offsets at ``arousal_freq``,
    the valence label at ``valence_freq``; label combinations cycle so both
    targets are balanced.  GSR carries no class information (single channel).
    """

    num_subjects: int = 27
    trials_per_subject: int = 20
    seed: int = 0
    noise_level: float = 0.5
    arousal_freq: float = 16.0
    valence_freq: float = 24.0
    amplitude: float = 1.0
    gsr_offset: float = 5.0
    gsr_drift_freq: float = 0.3
    blink_rate: float = 1.0
    blink_ms: float = 150.0
    pre_trial_ms: int = 1000

    def validate(self):
        for name in ("num_subjects", "trials_per_subject"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.blink_rate < 0:
            raise ConfigError(f"blink_rate must be >= 0, got {self.blink_rate}")
        rates = sorted({rate for _, _, rate in RAW_MODALITIES}, reverse=True)
        if self.pre_trial_ms < 0 or any(rate * self.pre_trial_ms % 1000 for rate in rates):
            raise ConfigError(f"pre_trial_ms must be >= 0 and give whole sample counts at {rates} Hz, "
                              f"got {self.pre_trial_ms}")


def class_phase_step(label: int, n_channels: int) -> float:
    """Adjacent-channel phase increment encoding ``label``.

    For 10-channel EEG the steps are 2*pi*(1+3k)/10: every class's channel
    phasors sum to zero, so the carrier passes through average referencing
    unchanged.  Fewer-channel modalities use steps of k * 2*pi/3.
    """
    if n_channels == 10:
        return 2.0 * math.pi * (1 + 3 * label) / 10.0
    return label * 2.0 * math.pi / 3.0


def _class_signal(t, freq, label, n_channels, phase0, amplitude):
    """Channel c carries phase offset c * class_phase_step at the carrier."""
    offs = np.arange(n_channels)[:, None] * class_phase_step(label, n_channels)
    return amplitude * np.sin(2.0 * math.pi * freq * t[None, :] + phase0 + offs)


def generate_synthetic(spec: SyntheticSpec) -> TrialDataset:
    """Emit RawTrial-format trials; byte-deterministic for a given seed."""
    rng = np.random.default_rng(spec.seed)
    n256 = _samples(256, spec.pre_trial_ms)
    n60 = _samples(60, spec.pre_trial_ms)
    t256 = np.arange(n256) / 256.0
    t60 = np.arange(n60) / 60.0
    blink_len = max(1, int(round(spec.blink_ms / 1000.0 * 60)))

    trials = []
    idx = 0
    for subject in range(spec.num_subjects):
        for _ in range(spec.trials_per_subject):
            arousal = CLASSES[idx % len(CLASSES)]
            valence = CLASSES[(idx // len(CLASSES)) % len(CLASSES)]

            def tone_pair(t, n_ch):
                pa, pv = rng.uniform(0, 2 * math.pi, size=2)
                return _class_signal(t, spec.arousal_freq, arousal, n_ch, pa, spec.amplitude) + _class_signal(
                    t, spec.valence_freq, valence, n_ch, pv, spec.amplitude
                )

            eeg = tone_pair(t256, 10) + spec.noise_level * rng.standard_normal((10, n256))
            ecg = tone_pair(t256, 3) + spec.noise_level * rng.standard_normal((3, n256))
            gsr = (
                spec.gsr_offset
                + 0.5 * np.sin(2 * math.pi * spec.gsr_drift_freq * t256 + rng.uniform(0, 2 * math.pi))
                + spec.noise_level * rng.standard_normal((1, n256))
            ).reshape(1, n256)
            base = tone_pair(t60, 4)
            eye = np.empty((8, n60))
            eye[0:4] = base + spec.noise_level * rng.standard_normal((4, n60))
            eye[4:8] = base + spec.noise_level * rng.standard_normal((4, n60))
            for block in (slice(0, 4), slice(4, 8)):
                n_blinks = rng.poisson(spec.blink_rate)
                for _ in range(n_blinks):
                    start = int(rng.integers(0, max(1, n60 - blink_len)))
                    eye[block, start : start + blink_len] = -1.0

            trial = RawTrial(
                trial_id=f"s{subject:03d}t{idx:05d}",
                subject=subject,
                eeg=_disk_round(eeg),
                ecg=_disk_round(ecg),
                gsr=_disk_round(gsr),
                eye=_disk_round(eye),
                arousal=arousal,
                valence=valence,
                pre_trial_ms=spec.pre_trial_ms,
            )
            trials.append(trial)
            idx += 1
    return TrialDataset(trials, pre_trial_ms=spec.pre_trial_ms, synthetic_spec=spec.to_dict())


def _disk_round(x: np.ndarray) -> np.ndarray:
    """Round-trip through float32 so in-memory data equals its disk image."""
    return x.astype(np.float32).astype(np.float64)


# ---------------------------------------------------------------------------
# Phase oracle
# ---------------------------------------------------------------------------


def _phase_vote(x: np.ndarray, fs: float, freq: float) -> int:
    """Recover the class from adjacent-channel phase differences at ``freq``."""
    n = x.shape[1]
    k = freq * n / fs
    if abs(k - round(k)) > 1e-6:
        raise ConfigError(f"freq {freq} is not an exact DFT bin for length {n} at fs={fs}")
    spectrum = np.fft.rfft(x, axis=1)[:, int(round(k))]
    phases = np.angle(spectrum)
    candidates = [class_phase_step(label, x.shape[0]) for label in CLASSES]
    votes = []
    for c in range(x.shape[0] - 1):
        delta = phases[c + 1] - phases[c]
        dist = [abs(math.remainder(delta - theta, 2.0 * math.pi)) for theta in candidates]
        votes.append(int(np.argmin(dist)))
    return int(np.bincount(votes, minlength=len(CLASSES)).argmax())


def phase_oracle_labels(ds: TrialDataset, target: str, spec: SyntheticSpec | None = None) -> np.ndarray:
    """Analytic label recovery from raw EEG inter-channel phase differences."""
    spec = spec or SyntheticSpec.from_dict(ds.synthetic_spec, "manifest synthetic_spec")
    freq = spec.arousal_freq if target == "arousal" else spec.valence_freq
    pre = int(round(256 * ds.pre_trial_ms / 1000.0))
    return np.array([_phase_vote(tr.eeg[:, pre:], 256.0, freq) for tr in ds.trials])


def segment_phase_oracle(segs: "SegmentSet", target: str, freq: float) -> np.ndarray:
    """Same oracle on preprocessed 128 Hz EEG segments."""
    return np.array([_phase_vote(segs.eeg[i], float(TARGET_RATE), freq) for i in range(len(segs))])


# ---------------------------------------------------------------------------
# Segments
# ---------------------------------------------------------------------------


@dataclass
class SegmentSet:
    """Fixed-length training samples: EEG [N,10,1280], ECG [N,3,1280],
    GSR [N,1,1280] at 128 Hz and eye [N,4,600] at 60 Hz, with both labels."""

    eeg: np.ndarray
    ecg: np.ndarray
    gsr: np.ndarray
    eye: np.ndarray
    arousal: np.ndarray
    valence: np.ndarray
    trial_ids: np.ndarray
    subjects: np.ndarray

    def __len__(self):
        return self.eeg.shape[0]

    def labels(self, target: str) -> np.ndarray:
        if target not in TARGETS:
            raise ConfigError(f"target must be {' or '.join(TARGETS)}, got {target!r}")
        return getattr(self, target)

    def take(self, idx) -> "SegmentSet":
        idx = np.asarray(idx, dtype=np.int64)
        return SegmentSet(*(getattr(self, f.name)[idx] for f in fields(SegmentSet)))


def stratified_split(labels, train_frac: float = 0.8, seed: int = 0):
    """Split indices so per-class train counts are round(train_frac * n_c).

    Returns (train_idx, test_idx), each sorted, disjoint and exhaustive.
    """
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    train, test = [], []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if idx.size < 2:
            raise InputError(f"class {cls} has only {idx.size} item(s); cannot stratify")
        rng.shuffle(idx)
        n_train = int(round(train_frac * idx.size))
        n_train = min(max(n_train, 1), idx.size - 1)
        train.extend(idx[:n_train])
        test.extend(idx[n_train:])
    return np.sort(np.array(train)), np.sort(np.array(test))


def split_segments(
    segs: SegmentSet,
    target: str,
    train_frac: float = 0.8,
    seed: int = 0,
    unit: str = "segment",
):
    """Stratified train/test split of a SegmentSet that keeps each group of
    ``unit`` whole: a group is one segment for unit="segment" and one trial
    for unit="trial", so no trial then contributes segments to both sides.
    """
    if unit not in SPLIT_UNITS:
        raise ConfigError(f"unit must be {' or '.join(map(repr, SPLIT_UNITS))}, got {unit!r}")
    groups = np.arange(len(segs)) if unit == "segment" else segs.trial_ids
    keys, first = np.unique(groups, return_index=True)
    train_keys, _ = stratified_split(segs.labels(target)[first], train_frac, seed)
    mask = np.isin(groups, keys[train_keys])
    return segs.take(np.flatnonzero(mask)), segs.take(np.flatnonzero(~mask))


def augment_segments(segs: SegmentSet, rng: np.random.Generator) -> SegmentSet:
    """Per-segment random scaling plus Gaussian noise; labels unchanged.

    Each modality of each segment is multiplied by s ~ U(0.8, 1.2) and
    perturbed with noise of sigma = 0.05 * per-channel std.  Eye samples
    equal to -1 (blink markers) pass through exactly.
    """
    out = {}
    for name in SEGMENT_SHAPES:
        x = getattr(segs, name)
        mask = x == -1.0 if name == "eye" else None
        s = rng.uniform(0.8, 1.2, size=(x.shape[0], 1, 1))
        if mask is None:
            std = x.std(axis=2, keepdims=True)
        else:
            valid = np.where(mask, np.nan, x)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # all-blink channels
                std = np.nan_to_num(np.nanstd(valid, axis=2, keepdims=True))
        y = x * s + rng.standard_normal(x.shape) * (0.05 * std)
        if mask is not None:
            y[mask] = -1.0
        out[name] = y
    return replace(segs, **out)


# ---------------------------------------------------------------------------
# Disk format
# ---------------------------------------------------------------------------


def _check_unique_ids(ids, where: str):
    """A FormatError naming the first trial id that ``ids`` repeats."""
    repeated = [trial_id for trial_id, count in Counter(ids).items() if count > 1]
    if repeated:
        raise FormatError(f"{where} lists trial id {repeated[0]!r} more than once")


def save_dataset(ds: TrialDataset, path) -> Path:
    """Write manifest.json + trials/<id>.bin under ``path``; nothing is
    written unless every trial is valid and every id is unique."""
    bad = next((tr for tr in ds.trials if tr.pre_trial_ms != ds.pre_trial_ms), None)
    if bad is not None:
        raise FormatError(f"trial {bad.trial_id}: pre_trial_ms {bad.pre_trial_ms} != the manifest's {ds.pre_trial_ms}")
    for tr in ds.trials:
        tr.validate()
    _check_unique_ids((tr.trial_id for tr in ds.trials), "dataset")
    root = Path(path)
    (root / "trials").mkdir(parents=True, exist_ok=True)
    trial_entries = []
    for tr in ds.trials:
        blocks = [np.ascontiguousarray(getattr(tr, name), dtype="<f4").tobytes() for name, _, _ in RAW_MODALITIES]
        payload = b"".join(blocks)
        rel = f"trials/{tr.trial_id}.bin"
        (root / rel).write_bytes(payload)
        trial_entries.append(
            {
                "id": tr.trial_id,
                "subject": tr.subject,
                "arousal": tr.arousal,
                "valence": tr.valence,
                "file": rel,
                "bytes": len(payload),
            }
        )
    manifest = {
        "schema_version": 1,
        "format": _FORMAT_NAME,
        "modalities": [{"name": n, "channels": c, "rate": r} for n, c, r in RAW_MODALITIES],
        "trial_seconds": TRIAL_SECONDS,
        "pre_trial_ms": ds.pre_trial_ms,
        "synthetic_spec": ds.synthetic_spec,
        "trials": trial_entries,
    }
    (root / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return root


# Required manifest keys and their JSON types, at the top level and per entry.
_MANIFEST_KEYS = {"modalities": list, "pre_trial_ms": int, "trials": list}
_MODALITY_KEYS = {"name": str, "channels": int, "rate": int}
_TRIAL_KEYS = {"id": str, "subject": int, "arousal": int, "valence": int, "file": str, "bytes": int}


def _checked(obj, schema: dict, where: str) -> dict:
    """``obj`` if it is a JSON object holding every key of ``schema`` with its type."""
    if not isinstance(obj, dict):
        raise FormatError(f"{where} is not a JSON object")
    for key, kind in schema.items():
        if type(obj.get(key)) is not kind:
            raise FormatError(f"{where}: key {key!r} is missing or not of type {kind.__name__}")
    return obj


def load_dataset(path) -> TrialDataset:
    """Read a raw dataset directory; a malformed manifest, or a payload that
    disagrees with it or holds a non-finite value, is a FormatError."""
    root = Path(path).resolve()
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise FormatError(f"no manifest.json under {root}")
    try:
        manifest = json.loads(manifest_path.read_bytes())
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
        raise FormatError(f"{manifest_path} is not UTF-8 JSON: {e}") from e
    _checked(manifest, _MANIFEST_KEYS, "manifest")
    if manifest.get("format") != _FORMAT_NAME:
        raise FormatError(f"unknown dataset format {manifest.get('format')!r}")
    modalities = [_checked(m, _MODALITY_KEYS, f"manifest modality {i}") for i, m in enumerate(manifest["modalities"])]
    listed = [(m["name"], m["channels"], m["rate"]) for m in modalities]
    names = sorted(name for name, _, _ in listed)
    if names != sorted(n for n, _, _ in RAW_MODALITIES):
        raise FormatError(f"manifest lists modalities {names}; want each of eeg, ecg, gsr, eye once")
    pre_ms = manifest["pre_trial_ms"]
    if pre_ms < 0:
        raise FormatError(f"manifest pre_trial_ms must be >= 0, got {pre_ms}")
    trials = []
    for i, entry in enumerate(manifest["trials"]):
        _checked(entry, _TRIAL_KEYS, f"manifest trial {i}")
        fpath = (root / entry["file"]).resolve()
        if not fpath.is_relative_to(root):
            raise FormatError(f"trial {entry['id']}: payload file {entry['file']!r} lies outside {root}")
        if not fpath.exists():
            raise FormatError(f"trial {entry['id']}: missing payload file {entry['file']}")
        payload = fpath.read_bytes()
        want = sum(c * _samples(r, pre_ms) * 4 for _, c, r in listed)
        if len(payload) != want or entry["bytes"] != want:
            raise FormatError(
                f"trial {entry['id']}: payload is {len(payload)} bytes (manifest says {entry['bytes']}), expected {want}"
            )
        if not np.isfinite(np.frombuffer(payload, dtype="<f4")).all():
            raise FormatError(f"trial {entry['id']}: payload holds non-finite values")
        arrays = {}
        offset = 0
        for name, channels, rate in listed:
            count = channels * _samples(rate, pre_ms)
            block = np.frombuffer(payload, dtype="<f4", count=count, offset=offset)
            arrays[name] = block.astype(np.float64).reshape(channels, -1)
            offset += count * 4
        tr = RawTrial(
            trial_id=entry["id"],
            subject=entry["subject"],
            arousal=entry["arousal"],
            valence=entry["valence"],
            pre_trial_ms=pre_ms,
            **arrays,
        )
        tr.validate()
        trials.append(tr)
    _check_unique_ids((tr.trial_id for tr in trials), "manifest")
    return TrialDataset(trials, pre_trial_ms=pre_ms, synthetic_spec=manifest.get("synthetic_spec"))


def manifest_hash(path) -> str:
    """Content hash of a dataset's manifest, for run provenance."""
    return hashlib.sha256((Path(path) / "manifest.json").read_bytes()).hexdigest()


def save_segments(segs: SegmentSet, path, meta: dict | None = None):
    """Cache preprocessed segments as an .npz archive at exactly ``path``: every SegmentSet
    field (signals as float32, labels and subjects as int64) plus ``meta`` as JSON bytes."""
    arrays = {f.name: getattr(segs, f.name) for f in fields(SegmentSet)}
    for name in arrays.keys() - {"trial_ids"}:
        arrays[name] = arrays[name].astype(np.float32 if name in SEGMENT_SHAPES else np.int64)
    meta_bytes = np.frombuffer(json.dumps(meta or {}, sort_keys=True).encode(), dtype=np.uint8)
    with open(path, "wb") as f:  # np.savez appends .npz to a path, never to an open file
        np.savez(f, **arrays, meta=meta_bytes)


def load_segments(path) -> tuple[SegmentSet, dict]:
    """Read a ``save_segments`` archive.  A missing array, no segments, arrays of
    unequal length, a label outside ``CLASSES``, a signal that is not finite real numbers
    or has the wrong segment shape, or a ``meta`` that is not JSON is a FormatError, and
    so is a file that is no readable .npz (empty, truncated, corrupt or a bare .npy)."""
    try:
        with np.load(path, allow_pickle=False) as z:
            arrays = {f.name: z[f.name] for f in fields(SegmentSet)}
            meta_bytes = bytes(z["meta"])
    except KeyError as e:
        raise FormatError(f"segment archive {path} is missing array {e}") from e
    except (EOFError, TypeError, ValueError, zipfile.BadZipFile, zlib.error) as e:
        raise FormatError(f"segment archive {path} is not a readable .npz: {e}") from e
    where = f"segment archive {path}: array"
    try:
        meta = json.loads(meta_bytes.decode() or "{}")
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
        raise FormatError(f"{where} 'meta' is not UTF-8 JSON: {e}") from e
    count = arrays["eeg"].shape[:1]
    if count == (0,):
        raise FormatError(f"segment archive {path} holds no segments")
    for name, arr in arrays.items():
        if arr.shape[:1] != count:
            raise FormatError(f"{where} {name!r} has shape {arr.shape}; its length disagrees with eeg's")
        if name in SEGMENT_SHAPES:
            if arr.dtype.kind not in "fiu":
                raise FormatError(f"{where} {name!r} has dtype {arr.dtype}; want real numbers")
            if arr.shape[1:] != SEGMENT_SHAPES[name]:
                raise FormatError(f"{where} {name!r} has shape {arr.shape[1:]}, want {SEGMENT_SHAPES[name]}")
            arrays[name] = arr = arr.astype(np.float64)
            if not np.isfinite(arr).all():
                raise FormatError(f"{where} {name!r} holds non-finite values")
        elif name in TARGETS and (arr.dtype.kind not in "iu" or not np.isin(arr, CLASSES).all()):
            raise FormatError(f"{where} {name!r} holds labels outside {set(CLASSES)}")
    return SegmentSet(**arrays), meta
