"""Run configuration: defaults, config file, command line, in that order."""

from __future__ import annotations

import json
import math
from pathlib import Path

from ._record import Record
from .errors import DocumentError
from .smatrix import _check_well


def _fits(value, annotation: str) -> bool:
    """Whether a config value has its field's annotated type; an int is
    accepted for a float, and a bool only for a bool."""
    if annotation == "tuple[float, ...]":
        return isinstance(value, tuple) and all(_fits(v, "float") for v in value)
    if annotation == "str | None":
        return value is None or isinstance(value, str)
    kind = {"float": (int, float), "int": int, "str": str, "bool": bool}[annotation]
    return isinstance(value, kind) and isinstance(value, bool) == (annotation == "bool")


class RunConfig(Record):
    """Everything a run needs, resolvable from defaults, file and flags.

    The effective values of the keys a command reads are embedded verbatim
    in its output document, so a result can be reproduced from its own
    provenance block. The keys and their types are the annotations of
    ``__init__``.
    """

    def __init__(self, m: float = 1.0, a: float = 1.5, U: float = 1.0, channel: str = "plus",
                 gamma: int = 1, index: int = 1, n: int = 1, depths: tuple[float, ...] = (),
                 samples: int = 200, seed: int = 20260816, certify: bool = True,
                 out: str | None = None, format: str = "json", svg: str | None = None):
        given = locals()
        for name, annotation in _FIELD_TYPES.items():
            value = given[name]
            if not _fits(value, annotation):
                raise ValueError(f"config key {name!r} must be {annotation}, got {value!r}")
            setattr(self, name, value)
        if self.m <= 0 or self.a <= 0:
            raise ValueError("mass and half width must be positive")
        if self.U < 0:
            raise ValueError("depth must be nonnegative")
        # nan passes both tests above; it and inf fail here as in PotentialSpec
        _check_well(self.m, self.a, self.U)
        if self.channel not in ("plus", "minus"):
            raise ValueError(f"unknown channel {self.channel!r}")
        if self.gamma not in (1, -1):
            raise ValueError("gamma selects a real coupling, +1 or -1")
        if self.format not in ("json", "csv"):
            raise ValueError(f"unknown format {self.format!r}")
        if self.samples < 1:
            raise ValueError("samples must be at least 1")

    __slots__ = tuple(__init__.__annotations__)

    @property
    def alpha(self) -> float:
        return 0.0 if self.gamma == 1 else math.pi

    def to_dict(self, keys: tuple[str, ...]) -> dict:
        """The values of the given keys, with depths as a list."""
        return {key: list(self.depths) if key == "depths" else getattr(self, key) for key in keys}


_FIELD_TYPES = RunConfig.__init__.__annotations__
_FIELD_NAMES = set(_FIELD_TYPES)


def load_config_file(path: str | Path) -> dict:
    """Read a JSON config file; only known keys are accepted."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DocumentError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DocumentError(f"config {path} must hold a JSON object")
    unknown = set(data) - _FIELD_NAMES
    if unknown:
        raise DocumentError(
            f"config {path} has unknown keys: {', '.join(sorted(unknown))}"
        )
    if "depths" in data:
        if not isinstance(data["depths"], list):
            raise DocumentError("config key 'depths' must be a list")
        data["depths"] = tuple(data["depths"])
    return data


def merge_config(file_values: dict | None = None, cli_values: dict | None = None) -> RunConfig:
    """Layer config sources: defaults, then file, then explicit flags.

    cli_values entries of None mean the flag was not given.
    """
    merged: dict = {}
    for source in (file_values or {}, cli_values or {}):
        for key, value in source.items():
            if value is None:
                continue
            if key not in _FIELD_NAMES:
                raise DocumentError(f"unknown configuration key {key!r}")
            merged[key] = value
    if "depths" in merged:
        merged["depths"] = tuple(merged["depths"])
    return RunConfig(**merged)
