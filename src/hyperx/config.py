"""The config dataclasses' range check and JSON form.

``ModelConfig``, ``TrainConfig``, ``PreprocessConfig`` and ``SyntheticSpec``
are frozen, and ``JsonConfig.__post_init__`` runs their ``validate``, so every
instance, ``dataclasses.replace`` included, is in range or a ``ConfigError``
naming the field.  In JSON (config files, checkpoints, manifests, ``run.json``)
tuples are lists, and reading back checks every key and value against the
field's default, so a malformed object is a ``FormatError`` naming the key.
"""

from __future__ import annotations

import json
from dataclasses import fields

from .errors import FormatError

__all__ = ["JsonConfig"]


def _fits(value, default) -> bool:
    """True when ``value`` has the JSON type of ``default``: an int may stand
    for a float, a bool never counts as a number, and each list element must
    fit the default tuple's elements (tuple defaults are homogeneous)."""
    if isinstance(default, tuple):
        return isinstance(value, list) and all(_fits(v, default[0]) for v in value)
    if type(default) is float:
        return type(value) in (int, float)
    return type(value) is type(default)


class JsonConfig:
    """Range check and JSON codec for a dataclass whose fields all have defaults."""

    def __post_init__(self):
        self.validate()

    def to_dict(self) -> dict:
        return {f.name: list(v) if isinstance(v := getattr(self, f.name), tuple) else v for f in fields(self)}

    @classmethod
    def from_dict(cls, d, where: str | None = None, **flags):
        """The defaults overlaid with ``d``, then ``flags``, checked as one; ``where`` names the source in errors."""
        where = where or cls.__name__
        if not isinstance(d, dict):
            raise FormatError(f"{where} is not a JSON object")
        defaults = {f.name: f.default for f in fields(cls)}
        for key, value in d.items():
            if key not in defaults:
                raise FormatError(f"{where}: unknown {cls.__name__} key {key!r}")
            if not _fits(value, defaults[key]):
                want = json.dumps(defaults[key])
                raise FormatError(f"{where}: key {key!r} must have the JSON type of {want}, got {value!r}")
        return cls(**{**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()}, **flags})
