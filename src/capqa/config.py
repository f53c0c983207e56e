"""Pipeline configuration: one flat record covering every stage.

Values resolve in precedence order: built-in defaults, then a JSON config
file, then the CAPQA_SEED environment variable (seed only), then explicit
command-line flags.
"""

from __future__ import annotations

import os
import re
import shlex
from dataclasses import dataclass, fields

from . import files
from .errors import MalformedInput

GENERATORS = ("yesno", "object", "number", "color", "location", "srl")
PRETRAIN_TASKS = ("mlm", "mqa", "itm")
NEGATIVE_MODES = ("auto", "negation", "adversarial")
AUGMENT_MODES = ("paraphrase", "backtranslate")
PIVOT_LANGUAGES = ("fr", "de", "es")

_DIMS_RE = re.compile(r"(\d+)x(\d+)", re.ASCII)

_DEFAULT_PREFIXES = ("is there", "is this", "is the", "are there")

SEED_ENV_VAR = "CAPQA_SEED"


@dataclass
class PipelineConfig:
    seed: int = 0
    captions: str = ""
    vectors: str = ""
    srl_frames: str = ""
    lexicons: str = ""
    rewriter: str = ""
    generators: tuple = GENERATORS
    yesno_prefixes: tuple = _DEFAULT_PREFIXES
    adversarial_threshold: float = 0.4
    max_questions_per_caption: int = 20
    negative_mode: str = "auto"
    levels: tuple = (1, 3, 5, 7)
    neg_ratio: float = 1.0
    min_count: int = 1
    questions_per_image_per_epoch: int = 5
    workers: int = 1
    vocab_limit: int = 5000
    augment_mode: str = "paraphrase"
    pivot_language: str = ""
    max_variants: int = 2
    keep_probability: float = 1.0
    fallback: bool = False
    timeout_s: float = 30.0
    batch_size: int = 64
    tasks: tuple = PRETRAIN_TASKS
    default_dims: str = ""

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, _typed(f, getattr(self, f.name)))
        for gen in self.generators:
            if gen not in GENERATORS:
                raise MalformedInput(f"unknown generator {gen!r}; choose from {GENERATORS}")
        for task in self.tasks:
            if task not in PRETRAIN_TASKS:
                raise MalformedInput(f"unknown task {task!r}; choose from {PRETRAIN_TASKS}")
        if not self.yesno_prefixes:
            raise MalformedInput("yesno_prefixes must be non-empty")
        if not 0.0 <= self.adversarial_threshold <= 1.0:
            raise MalformedInput("adversarial_threshold must lie in [0, 1]")
        if self.max_questions_per_caption < 1:
            raise MalformedInput("max_questions_per_caption must be at least 1")
        if self.negative_mode not in NEGATIVE_MODES:
            raise MalformedInput(f"negative_mode must be one of {NEGATIVE_MODES}")
        if self.vocab_limit < 1:
            raise MalformedInput("vocab_limit must be at least 1")
        if self.augment_mode not in AUGMENT_MODES:
            raise MalformedInput(f"augment_mode must be one of {AUGMENT_MODES}")
        if self.augment_mode == "backtranslate":
            if self.pivot_language not in PIVOT_LANGUAGES:
                raise MalformedInput(
                    f"pivot_language must be one of {PIVOT_LANGUAGES} with augment_mode "
                    f"'backtranslate', got {self.pivot_language!r}")
        elif self.pivot_language:
            raise MalformedInput("pivot_language applies only to augment_mode "
                                 f"'backtranslate', got {self.pivot_language!r}")
        _check_rewriter(self.rewriter)
        if self.max_variants < 0:
            raise MalformedInput("max_variants must be non-negative")
        if not 0.0 <= self.keep_probability <= 1.0:
            raise MalformedInput("keep_probability must lie in [0, 1]")
        if self.timeout_s <= 0:
            raise MalformedInput("timeout_s must be positive")
        if self.batch_size < 1:
            raise MalformedInput("batch_size must be at least 1")
        if self.workers < 1:
            raise MalformedInput("workers must be at least 1")
        if self.neg_ratio < 0:
            raise MalformedInput("neg_ratio must be non-negative")
        if self.questions_per_image_per_epoch < 1:
            raise MalformedInput("questions_per_image_per_epoch must be at least 1")
        lv = self.levels
        if not lv or lv[0] < 1 or any(b <= a for a, b in zip(lv, lv[1:])):
            raise MalformedInput("levels must be a non-empty, strictly ascending list "
                                 f"of integers at least 1, got {list(lv)}")
        m = _DIMS_RE.fullmatch(self.default_dims)
        if self.default_dims and not (m and int(m[1]) > 0 and int(m[2]) > 0):
            raise MalformedInput("default_dims must be empty or WIDTHxHEIGHT with positive "
                                 f"integers, e.g. 640x480, got {self.default_dims!r}")


def _check_rewriter(rewriter: str) -> None:
    """'', 'builtin', an http(s) URL, or a command line of at least one word."""
    if rewriter in ("", "builtin") or rewriter.startswith(("http://", "https://")):
        return
    try:
        words = shlex.split(rewriter)
    except ValueError as exc:
        raise MalformedInput(f"rewriter command {rewriter!r} cannot be split: {exc}") from None
    if not words:
        raise MalformedInput(f"rewriter must be 'builtin', a URL or a command, got {rewriter!r}")


def _typed(f, value):
    """`value` if it has the type of field `f`'s default; a list field's value
    as a tuple."""
    if isinstance(f.default, tuple):
        kind = type(f.default[0])
        if not isinstance(value, (list, tuple)) or not all(_fits(v, kind) for v in value):
            raise MalformedInput(f"bad config value: {f.name} must be a list "
                                 f"of {kind.__name__}, got {value!r}")
        return tuple(value)
    if not _fits(value, type(f.default)):
        raise MalformedInput(
            f"bad config value: {f.name} must be {type(f.default).__name__}, got {value!r}")
    return value


def _fits(value, kind) -> bool:
    """`value` can stand for a field whose default is a `kind`: a bool only
    for a bool, and an int for a float."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


_FIELDS = {f.name: f for f in fields(PipelineConfig)}
FIELD_NAMES = tuple(_FIELDS)


def load_config(path) -> dict:
    """Read a UTF-8 JSON object of config values; unknown keys and values of
    the wrong type fail. The rules on values are judged by resolve(), on the
    complete config, since a flag may complete or replace a file's values."""
    return files.read_json(path, _config_from)


def _config_from(doc) -> dict:
    if not isinstance(doc, dict):
        raise MalformedInput("config file must hold a JSON object")
    unknown = sorted(set(doc) - set(FIELD_NAMES))
    if unknown:
        raise MalformedInput(f"unknown config keys: {', '.join(unknown)}")
    return {key: _typed(_FIELDS[key], value) for key, value in doc.items()}


def resolve(file_values: dict = None, overrides: dict = None) -> PipelineConfig:
    """The config of a run: the defaults, then a config file's values, then
    CAPQA_SEED, then explicit flag overrides, checked as a whole."""
    values = dict(file_values or {})
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            values["seed"] = int(env_seed)
        except ValueError:
            raise MalformedInput(
                f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}"
            ) from None
    for key, value in (overrides or {}).items():
        if key not in FIELD_NAMES:
            raise MalformedInput(f"unknown config field {key!r}")
        values[key] = value
    return PipelineConfig(**values)


def require_file(path: str, what: str) -> str:
    if not path:
        raise MalformedInput(f"{what} is required but not configured")
    if not os.path.isfile(path):
        raise MalformedInput(f"{what} file does not exist: {path}")
    return path
