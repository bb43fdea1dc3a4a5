import numpy as np
import pytest

from hyperx.dataset import SyntheticSpec, generate_synthetic
from hyperx.model import ModelConfig
from hyperx.sigproc import preprocess_dataset


def tiny_model_config(**overrides) -> ModelConfig:
    """Small widths that keep every divisibility constraint of the defaults."""
    base = dict(
        eeg_channels=(10, 20),
        ecg_channels=(6, 12),
        eye_channels=(8, 8),
        eeg_hidden=10,
        ecg_hidden=6,
        eye_hidden=8,
        gsr_width=8,
        fusion_widths=(32, 16, 8),
    )
    base.update(overrides)
    return ModelConfig(**base)


def kron_block_oracle(a, f):
    """Naive double loop over block indices of sum_i A_i (x) F_i."""
    n, p, q = a.shape
    _, r, s = f.shape
    out = np.zeros((p * r, q * s))
    for i in range(n):
        for bp in range(p):
            for bq in range(q):
                out[bp * r : (bp + 1) * r, bq * s : (bq + 1) * s] += a[i, bp, bq] * f[i]
    return out


def random_batch(rng, batch=2):
    return dict(
        eeg=rng.standard_normal((batch, 10, 1280)),
        ecg=rng.standard_normal((batch, 3, 1280)),
        gsr=rng.standard_normal((batch, 1, 1280)),
        eye=rng.standard_normal((batch, 4, 600)),
    )


@pytest.fixture(scope="session")
def tiny_raw_dataset():
    spec = SyntheticSpec(num_subjects=3, trials_per_subject=6, seed=7, noise_level=0.4)
    return generate_synthetic(spec)


@pytest.fixture(scope="session")
def tiny_segments(tiny_raw_dataset):
    return preprocess_dataset(tiny_raw_dataset)
