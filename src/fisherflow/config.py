"""Plain key-value run configuration with dotted keys.

One file fully determines a run: task, dataset spec, training
hyperparameters, seeds. The canonical serialization is sorted key = value
lines, so persisting a resolved config and re-reading it round-trips
byte-for-byte and a re-launch reproduces the run exactly.

Keys are field names: a `RunConfig` field's first '_' becomes '.'
(`data_size` is `data.size`), a `RefineConfig` field `f` is `train.f`,
except `seed`, which each run takes from `seeds`. Every
value parses to the type of its field's default (lists and tuples
comma-separated, booleans true/false) and formats back (floats by repr).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

from .training import RefineConfig

_BOOL_STRINGS = {"true": True, "false": False, "1": True, "0": False,
                 "yes": True, "no": False}


def parse_config_text(text) -> dict:
    """key = value lines; '#' starts a comment; later keys win."""
    lines = ((n, raw, raw.split("#", 1)[0].strip()) for n, raw in enumerate(text.splitlines(), 1))
    return dict(_key_value(line, f"config line {n}: expected 'key = value', got {raw!r}")
                for n, raw, line in lines if line)


def parse_set_overrides(pairs) -> dict:
    return dict(_key_value(pair, f"--set expects key=value, got {pair!r}") for pair in pairs or ())


def _key_value(text, error):
    if "=" not in text:
        raise ValueError(error)
    key, value = text.split("=", 1)
    return key.strip(), value.strip()


@dataclass
class RunConfig:
    """Fully resolved run description: serializable and re-launchable."""

    task: str = "bimodal_asymmetric"
    out: str = ""
    seeds: list = field(default_factory=lambda: [0])
    data_size: int = 8192
    data_seed: int = 100
    data_mode: str = "bandit"
    data_noise: float = 0.0
    data_file: str = ""
    sweep_t_eps: list = field(default_factory=lambda: [0.70, 0.75, 0.80, 0.85, 0.90, 0.95])
    train: RefineConfig = field(default_factory=RefineConfig)

    @classmethod
    def from_entries(cls, entries: dict) -> "RunConfig":
        defaults = cls()._values()
        values = {}
        for key, text in entries.items():
            if key not in defaults:
                raise ValueError(f"unknown config key {key!r}")
            try:
                values[key] = _parse(text, defaults[key])
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from exc
        train = {k[len("train."):]: v for k, v in values.items() if k.startswith("train.")}
        top = {k.replace(".", "_"): v for k, v in values.items() if not k.startswith("train.")}
        return cls(**top, train=RefineConfig(**train))

    def _values(self) -> dict:
        """Config key -> field value, for every field but `train.seed`: `seeds` sets each run's."""
        values = asdict(self)
        train = values.pop("train")
        del train["seed"]
        keyed = {name.replace("_", ".", 1): value for name, value in values.items()}
        keyed.update((f"train.{name}", value) for name, value in train.items())
        return keyed

    def to_text(self) -> str:
        values = self._values()
        return "".join(f"{key} = {_format(values[key])}\n" for key in sorted(values))

    @classmethod
    def load(cls, path, overrides=None) -> "RunConfig":
        entries = parse_config_text(Path(path).read_text())
        entries.update(overrides or {})
        return cls.from_entries(entries)


def _parse(text, like):
    """`text` as a value of the type of `like`, the field's default."""
    if isinstance(like, bool):
        if text.lower() not in _BOOL_STRINGS:
            raise ValueError(f"expected a boolean, got {text!r}")
        return _BOOL_STRINGS[text.lower()]
    if isinstance(like, (list, tuple)):
        tokens = (tok.strip() for tok in text.split(","))
        return type(like)(_parse(tok, like[0]) for tok in tokens if tok)
    return type(like)(text)


def _format(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ",".join(_format(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)
