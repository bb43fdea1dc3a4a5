from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyperx.dataset import SyntheticSpec
from hyperx.errors import ConfigError, FormatError
from hyperx.model import ModelConfig
from hyperx.sigproc import PreprocessConfig
from hyperx.trainer import TrainConfig

from tests.conftest import tiny_model_config

CLASSES = (ModelConfig, TrainConfig, PreprocessConfig, SyntheticSpec)

# one small strategy per JSON type; sizes stay tiny so no draw is expensive
JSON_TYPES = {
    "string": st.text(max_size=4),
    "bool": st.booleans(),
    "null": st.none(),
    "object": st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
    "list": st.lists(st.integers(-3, 3), max_size=3),
    "int": st.integers(-3, 3),
    "float": st.floats(allow_nan=False, allow_infinity=False),
}


def wrong_values(default):
    """Values whose JSON type differs from ``default``'s (an int is a float)."""
    if isinstance(default, tuple):
        wrong_elements = st.lists(wrong_values(default[0]), min_size=1, max_size=3)
        return st.one_of(*(s for k, s in JSON_TYPES.items() if k != "list"), wrong_elements)
    if type(default) is bool:
        exclude = {"bool"}
    elif type(default) is int:
        exclude = {"int"}
    elif type(default) is float:
        exclude = {"int", "float"}
    else:
        exclude = {"string"}
    return st.one_of(*(s for k, s in JSON_TYPES.items() if k not in exclude))


@pytest.mark.parametrize(
    "cfg",
    [pytest.param(cls(), id=cls.__name__) for cls in CLASSES] + [pytest.param(tiny_model_config(), id="tiny")],
)
def test_roundtrip_at_defaults_and_tiny_config(cfg):
    assert type(cfg).from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize("cls", CLASSES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_one_wrong_typed_field_is_a_format_error_naming_it(cls, data):
    field = data.draw(st.sampled_from(fields(cls)))
    value = data.draw(wrong_values(field.default))
    d = {**cls().to_dict(), field.name: value}
    with pytest.raises(FormatError, match=repr(field.name)):
        cls.from_dict(d, "test")


@pytest.mark.parametrize("cls", CLASSES)
@settings(max_examples=10, deadline=None)
@given(key=st.text(min_size=1, max_size=6))
def test_unknown_key_is_a_format_error_naming_it(cls, key):
    assume(key not in {f.name for f in fields(cls)})
    with pytest.raises(FormatError, match="unknown"):
        cls.from_dict({key: 1}, "test")


def test_an_int_stands_for_a_float():
    assert TrainConfig.from_dict({"max_lr": 1}).max_lr == 1
    assert PreprocessConfig.from_dict({"eeg_band": [1, 45]}).eeg_band == (1, 45)


@pytest.mark.parametrize(
    "cls,field,value,match",
    [
        (ModelConfig, "fusion_n", 0, "fusion_n must be >= 1"),
        (TrainConfig, "train_frac", 1.5, "train_frac must be in"),
        (PreprocessConfig, "notch_q", 0.0, "notch_q must be in"),
        (SyntheticSpec, "num_subjects", 0, "num_subjects must be >= 1"),
    ],
)
def test_every_config_is_checked_when_built_and_cannot_be_assigned(cls, field, value, match):
    with pytest.raises(ConfigError, match=match):
        cls(**{field: value})
    with pytest.raises(ConfigError, match=match):
        replace(cls(), **{field: value})
    with pytest.raises(FrozenInstanceError):
        setattr(cls(), field, value)
