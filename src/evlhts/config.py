"""Flat ``key = value`` experiment configuration with a typed schema.

A config file is plain text: one assignment per line, ``#`` starts a
comment, blank lines are skipped.  Every key belongs to a fixed schema
with a typed default; unknown keys are rejected with a closest-match
suggestion, so a typo never silently falls back to a default.  Resolving
a config materializes *every* default, which is what gets echoed into
report files — a report never depends on implicit state.

List values are comma separated (``0.5, 1, 2``); float lists also accept
``linspace:a:b:k`` for k evenly spaced points.  ``threads`` and
``out_dir`` steer execution only and are excluded from report echoes so
that reruns at different thread counts stay byte-identical.
"""

import difflib
import math
from dataclasses import dataclass
from typing import Callable

from .errors import ConfigError

#: Keys that steer execution but never change results; kept out of the
#: summary echo so thread-count reruns compare byte for byte.
EXECUTION_KEYS = frozenset({"threads", "out_dir"})


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _pos_int(text: str) -> int:
    v = _int(text)
    if v < 1:
        raise ConfigError(f"expected a positive integer, got {v}")
    return v


def _sample_count(text: str) -> int:
    """A sample size with a sample standard deviation: at least 2."""
    v = _int(text)
    if v < 2:
        raise ConfigError(f"expected at least 2 samples, got {v}")
    return v


def _nonneg_int(text: str) -> int:
    v = _int(text)
    if v < 0:
        raise ConfigError(f"expected a nonnegative integer, got {v}")
    return v


def _float(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None
    if not math.isfinite(v):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return v


def _pos_float(text: str) -> float:
    v = _float(text)
    if v <= 0.0:
        raise ConfigError(f"expected a positive number, got {v}")
    return v


def _unit_float(text: str) -> float:
    v = _float(text)
    if not 0.0 <= v <= 1.0:
        raise ConfigError(f"expected a number in [0, 1], got {v}")
    return v


def _open_unit_float(text: str) -> float:
    v = _float(text)
    if not 0.0 < v < 1.0:
        raise ConfigError(f"expected a number in (0, 1), got {v}")
    return v


_BOOL_WORDS = {"true": True, "yes": True, "1": True,
               "false": False, "no": False, "0": False}


def _bool(text: str) -> bool:
    try:
        return _BOOL_WORDS[text.strip().lower()]
    except KeyError:
        raise ConfigError(f"expected true/false, got {text!r}") from None


def _choice(*options: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in options:
            raise ConfigError(
                f"expected one of {', '.join(options)}; got {text!r}"
            )
        return text
    return parse


def _split_list(text: str) -> list:
    text = text.strip()
    if not text:
        raise ConfigError("expected at least one entry")
    return [piece.strip() for piece in text.split(",")]


def _pos_int_list(text: str) -> tuple:
    return tuple(_pos_int(piece) for piece in _split_list(text))


def _pos_int_list_or_empty(text: str) -> tuple:
    """A positive-integer list where an empty value means the default."""
    return _pos_int_list(text) if text.strip() else ()


def _float_list(text: str) -> tuple:
    text = text.strip()
    if text.startswith("linspace:"):
        parts = text[len("linspace:"):].split(":")
        if len(parts) != 3:
            raise ConfigError(f"linspace wants a:b:k, got {text!r}")
        a, b = _float(parts[0]), _float(parts[1])
        k = _pos_int(parts[2])
        if k == 1:
            return (a,)
        step = (b - a) / (k - 1)
        return tuple(a + i * step for i in range(k))
    return tuple(_float(piece) for piece in _split_list(text))


def _pos_float_list(text: str) -> tuple:
    values = _float_list(text)
    if any(v <= 0.0 for v in values):
        raise ConfigError(f"expected positive entries, got {values}")
    return values


def _mass_list(text: str) -> tuple:
    values = _float_list(text)
    if any(not 0.0 < v <= 1.0 for v in values):
        raise ConfigError(f"expected entries in (0, 1], got {values}")
    return values


def _angle(text: str) -> object:
    """Rotation angle: the named golden angle or a decimal in (0, 1)."""
    if text == "golden":
        return "golden"
    return _open_unit_float(text)


def _str(text: str) -> str:
    return text


@dataclass(frozen=True)
class Option:
    parse: Callable[[str], object]
    default: object
    doc: str


SCHEMA: dict[str, Option] = {
    "master_seed": Option(_nonneg_int, 42, "root of every RNG substream"),
    "threads": Option(_pos_int, 1, "worker threads (results never depend on it)"),
    "out_dir": Option(_str, "out", "directory for summary.json/data.csv/plot.csv"),

    "system.kind": Option(
        _choice("full_tent", "doubling", "rotation", "manneville_pomeau"),
        "full_tent", "which interval map to iterate"),
    "system.alpha": Option(_angle, "golden", "rotation angle (golden or decimal)"),
    "system.s": Option(_pos_float, 0.5, "intermittency exponent of x + x^(1+s)"),

    "measure.kind": Option(_choice("lebesgue", "bernoulli", "orbit"),
                           "lebesgue", "invariant measure model"),
    "measure.p": Option(_open_unit_float, 0.5, "digit-0 frequency of the Bernoulli measure"),
    "measure.burn_in": Option(_nonneg_int, 10_000, "discarded orbit prefix (orbit measure)"),
    "measure.orbit_len": Option(_pos_int, 1_000_000, "orbit sample size (orbit measure)"),

    "observable.type": Option(_choice("g1", "g2", "g3"), "g1",
                              "shape family: -log v, v^(-1/alpha), 1 - v^(1/alpha)"),
    "observable.alpha": Option(_pos_float, 1.0, "shape exponent for g2/g3"),
    "observable.mode": Option(_choice("ball", "cylinder"), "ball",
                              "small-mass coordinate: metric balls or partition cells"),
    "observable.zeta": Option(_unit_float, 0.3, "target point of the observable"),

    "cylinders.max_depth": Option(_pos_int, 10, "partition depth cap / conditions target depth"),

    "evl.n_list": Option(_pos_int_list, (1000,), "block lengths (cylinder anchor depths)"),
    "evl.samples": Option(_pos_int, 10_000, "Monte Carlo samples per block length"),
    "evl.y_grid": Option(_float_list, (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0),
                         "rescaled levels for maxima probabilities"),
    "evl.tau_grid": Option(_pos_float_list, (0.5, 1.0, 2.0),
                           "time scales tau; one first-entry scan per depth reads every tau"),
    "evl.iid_mode": Option(_bool, False, "also report the exact law (1 - m)^n of n independent draws"),
    "evl.tol": Option(_pos_float, 0.03, "declared band for maxima-law discrepancies"),

    "hts.t_grid": Option(_pos_float_list, (0.25, 0.5, 1.0, 1.5, 2.0, 3.0),
                         "normalized times at which the law is tabulated"),
    "hts.samples": Option(_sample_count, 10_000, "Monte Carlo samples per target"),
    "hts.target": Option(_choice("ball", "cylinder"), "cylinder", "target family"),
    "hts.mass_list": Option(_mass_list, (0.001,), "ball target masses"),
    "hts.depth_list": Option(_pos_int_list, (10,), "cylinder target depths"),
    "hts.tol": Option(_pos_float, 0.03, "declared band for the exponential-law distance"),

    "kac.tol": Option(_pos_float, 0.03, "declared band for |mass * mean return - 1|"),

    "conditions.k_list": Option(_pos_int_list, (10,), "separation factors for the recurrence scan"),
    "conditions.t_grid": Option(_pos_int_list_or_empty, (), "explicit gap probes (empty = ceil(n^0.7))"),
    "conditions.block_len": Option(_pos_int, 1024, "block length n of the condition windows"),
    "conditions.samples": Option(_sample_count, 20_000, "Monte Carlo samples per estimate"),
    "conditions.floor": Option(_pos_float, 0.02, "smallest excess treated as a real signal"),

    "smb.depth_list": Option(_pos_int_list, (10, 100, 1000, 2000),
                             "depths for the information-rate estimate"),
    "smb.samples": Option(_sample_count, 200, "sampled cylinders per depth (atomless measures)"),
    "smb.tol": Option(_pos_float, 0.05, "declared band around the entropy reference"),

    "equivalence.tol": Option(_pos_float, 0.04, "declared band for the level/time sup-discrepancy"),
    "rotation.ks_min": Option(_pos_float, 0.1,
                              "smallest exponential-law distance accepted as non-exponential"),
}


def parse_value(key: str, text: str):
    """Parse one raw value against the schema; unknown keys get suggestions."""
    option = SCHEMA.get(key)
    if option is None:
        close = difflib.get_close_matches(key, SCHEMA, n=3, cutoff=0.6)
        hint = f"; did you mean {' or '.join(close)}?" if close else ""
        raise ConfigError(f"unknown config key {key!r}{hint}")
    try:
        return option.parse(text)
    except ConfigError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def parse_text(text: str, source: str = "<config>") -> dict:
    """Typed key/value pairs from config text; only the keys present."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}"
            )
        key, _, value = line.partition("=")
        key = key.strip()
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = parse_value(key, value.strip())
    return out


def parse_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_text(text, source=path)


def resolve(overrides: dict | None = None) -> dict:
    """Full config dict: every schema default, then the given overrides."""
    values = {key: option.default for key, option in SCHEMA.items()}
    for key, value in (overrides or {}).items():
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = value
    return values


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment name plus a fully resolved value table."""

    experiment: str
    values: dict

    @classmethod
    def build(cls, experiment: str, overrides: dict | None = None,
              *, seed: int | None = None, threads: int | None = None,
              out_dir: str | None = None) -> "ExperimentConfig":
        values = resolve(overrides)
        if seed is not None:
            values["master_seed"] = _nonneg_int(str(seed))
        if threads is not None:
            values["threads"] = _pos_int(str(threads))
        if out_dir is not None:
            values["out_dir"] = str(out_dir)
        return cls(experiment, values)

    @classmethod
    def from_file(cls, experiment: str, path: str | None, *,
                  seed: int | None = None, threads: int | None = None,
                  out_dir: str | None = None) -> "ExperimentConfig":
        table = parse_file(path) if path is not None else {}
        return cls.build(experiment, table, seed=seed, threads=threads,
                         out_dir=out_dir)

    def __getitem__(self, key: str):
        try:
            return self.values[key]
        except KeyError:
            raise ConfigError(f"unknown config key {key!r}") from None

    def echo(self) -> dict:
        """Report-ready copy: every key except the execution-only ones.

        Lists become plain lists so the echo is JSON-serializable as is.
        """
        out = {}
        for key, value in self.values.items():
            if key in EXECUTION_KEYS:
                continue
            out[key] = list(value) if isinstance(value, tuple) else value
        return out
