"""Flat key-value experiment configuration with dotted sections.

The format is plain text, one `key = value` per line, `#` comments, values
parsed as int, float, comma list or string.  A `schema_version` key guards
against silent format drift.  Example::

    schema_version = 1
    kind = semigroup
    seed = 12345
    symbol.kind = stable
    symbol.alpha = 1.5
    bc = DN
    n = 9
    times = 0.1, 0.5, 1.0
    paths = 100000

`KEYS` is the one list of the keys a config may set, each with the type its
value must have: a whole number, a finite real, text, a label from a fixed
set, or a list of one of these (a single value is a list of one).
`load_config` checks every key and value against it and returns a `Config`;
an unknown key, a value of the wrong type and, when a runner reads it, a
missing key are `ConfigError`s.
"""

from __future__ import annotations

import math
from pathlib import Path

from .errors import OnesideLevyError
from .ratemat import ALL_PAIRS

SCHEMA_VERSION = 1

KINDS = ("coeffs", "matrix", "simulate", "semigroup", "resolvent", "scale",
         "exit", "convergence", "j1", "validate", "suite")

BC_LABELS = tuple(p.label for p in ALL_PAIRS)

# Scale-side exit problem -> grid pair under the bridge x_scale = 1 - x_grid:
# killing at the jump end of one chart is killing at the drift end of the
# other, and "reflect at a, kill at 0" is the grid N*D chain.
EXIT_GRID_PAIR = {"DN": "ND", "ND": "DN", "DNstar": "N*D"}


class ConfigError(OnesideLevyError):
    pass


def _whole(v):
    if isinstance(v, (int, float)) and math.isfinite(v) and v == int(v):
        return int(v)
    raise ValueError("a whole number")


def _real(v):
    if isinstance(v, (int, float)) and math.isfinite(v):
        return float(v)
    raise ValueError("a finite real")


def _text(v):
    if isinstance(v, str):
        return v
    raise ValueError("text")


def _one_of(*labels):
    def check(v):
        if isinstance(v, str) and v in labels:
            return v
        raise ValueError("one of " + ", ".join(labels))
    return check


def _list_of(item):
    def check(v):
        try:
            return [item(x) for x in (v if isinstance(v, list) else [v])]
        except ValueError as exc:
            raise ValueError(f"a list, each {exc}") from None
    return check


_BC = _one_of(*BC_LABELS)

# key -> check; a dict entry picks its check by the config's kind (None is
# every other kind).
KEYS = {
    **dict.fromkeys(("n", "j_max", "paths", "i0", "m", "seed",
                     "schema_version"), _whole),
    **dict.fromkeys(("h", "x0", "T", "tail_eps", "tv_tol", "a", "q", "x",
                     "dq", "tol", "symbol.alpha", "symbol.lambda"), _real),
    **dict.fromkeys(("path_a", "path_b"), _text),
    "kind": _one_of(*KINDS),
    "symbol.kind": _one_of("stable", "tempered_stable"),
    "exit.kind": _one_of(*EXIT_GRID_PAIR),
    "bc": {"validate": _list_of(_BC), None: _BC},
    "times": _list_of(_real),
    "n_list": _list_of(_whole),
}


class Config:
    """Checked values by key; `parsed` keeps them as parsed.

    `cfg[key]` is the checked value and a `ConfigError` when the file does
    not set it; `cfg.get(key, default)` falls back to default.  Both raise
    `KeyError` for a key that `KEYS` does not list, so no runner reads a key
    that no file may set.  `parsed` is what the report's params echo.
    """

    def __init__(self, parsed: dict):
        self.parsed = dict(parsed)
        self._values = {}
        for key, value in self.parsed.items():
            if key not in KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            check = KEYS[key]
            if isinstance(check, dict):
                check = check.get(self.parsed.get("kind"), check[None])
            try:
                self._values[key] = check(value)
            except ValueError as exc:
                raise ConfigError(f"{key} = {value!r}: expected {exc}") from None

    def __contains__(self, key) -> bool:
        return self._known(key) in self._values

    def __getitem__(self, key):
        if self._known(key) not in self._values:
            raise ConfigError(f"missing config key {key!r}")
        return self._values[key]

    def get(self, key, default=None):
        return self._values.get(self._known(key), default)

    @staticmethod
    def _known(key):
        if key not in KEYS:
            raise KeyError(f"{key!r} is not a config key")
        return key


def _parse_value(raw: str):
    raw = raw.strip()
    if "," in raw:
        return [_parse_value(tok) for tok in raw.split(",") if tok.strip()]
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def parse_config_text(text: str) -> dict:
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, raw = body.split("=", 1)
        out[key.strip()] = _parse_value(raw)
    version = out.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}")
    return out


def load_config(path, kind: str | None = None,
                seed: int | None = None) -> Config:
    """Parse and check the file at path; kind and seed, when given, replace
    the file's values before the check."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {p} does not exist")
    parsed = parse_config_text(p.read_text())
    if kind is not None:
        parsed["kind"] = kind
    if seed is not None:
        parsed["seed"] = seed
    return Config(parsed)
