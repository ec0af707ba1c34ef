"""Plain key-value run configuration with dotted keys.

One file fully determines a run: task, dataset spec, training
hyperparameters, seeds. The canonical serialization is sorted key = value
lines, so persisting a resolved config and re-reading it round-trips
byte-for-byte and a re-launch reproduces the run exactly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .training import RefineConfig

_BOOL_STRINGS = {"true": True, "false": False, "1": True, "0": False,
                 "yes": True, "no": False}


def parse_config_text(text) -> dict:
    """key = value lines; '#' starts a comment; later keys win."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def format_config(entries: dict) -> str:
    return "".join(f"{k} = {entries[k]}\n" for k in sorted(entries))


def parse_set_overrides(pairs) -> dict:
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out


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
        cfg = cls()
        train_kwargs = {}
        train_fields = {f: type(getattr(cfg.train, f)) for f in asdict(cfg.train)}
        for key, value in entries.items():
            if key in _KEYS:
                attr, parse, _ = _KEYS[key]
                setattr(cfg, attr, parse(value))
            elif key.startswith("train."):
                name = key[len("train."):]
                if name not in train_fields:
                    raise ValueError(f"unknown training key {key!r}")
                train_kwargs[name] = _coerce(value, train_fields[name])
            else:
                raise ValueError(f"unknown config key {key!r}")
        cfg.train = RefineConfig(**train_kwargs)
        return cfg

    def to_entries(self) -> dict:
        entries = {key: fmt(getattr(self, attr)) for key, (attr, _, fmt) in _KEYS.items()}
        for name, value in asdict(self.train).items():
            entries[f"train.{name}"] = _format(value)
        return entries

    def to_text(self) -> str:
        return format_config(self.to_entries())

    @classmethod
    def load(cls, path, overrides=None) -> "RunConfig":
        with open(path) as fh:
            entries = parse_config_text(fh.read())
        entries.update(overrides or {})
        return cls.from_entries(entries)


def _split_list(value):
    return [v for v in (tok.strip() for tok in value.split(",")) if v]


def _list_of(cast, fmt=str):
    """(parse, format) for a comma-separated list."""
    return (lambda text: [cast(v) for v in _split_list(text)],
            lambda values: ",".join(fmt(v) for v in values))


def _float_text(value):
    return repr(float(value))


# config key -> (RunConfig attribute, parse, format); train.* keys follow RefineConfig
_KEYS = {
    "task": ("task", str, str),
    "out": ("out", str, str),
    "seeds": ("seeds", *_list_of(int)),
    "data.size": ("data_size", int, str),
    "data.seed": ("data_seed", int, str),
    "data.mode": ("data_mode", str, str),
    "data.noise": ("data_noise", float, _float_text),
    "data.file": ("data_file", str, str),
    "sweep.t_eps": ("sweep_t_eps", *_list_of(float, _float_text)),
}


def _format(value):
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _coerce(value, target_type):
    if target_type is bool:
        lowered = value.lower()
        if lowered not in _BOOL_STRINGS:
            raise ValueError(f"expected a boolean, got {value!r}")
        return _BOOL_STRINGS[lowered]
    if target_type is int:
        return int(value)
    if target_type is float:
        return float(value)
    if target_type is tuple:
        return tuple(int(v) for v in _split_list(value))
    return value
