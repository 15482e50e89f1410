"""Experiment configuration: a nested YAML file validated before any compute.

Scalar values can be overridden by CLI flags; the file itself is copied
verbatim into the run directory so every run is self-describing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import yaml

from .encoder import CnnConfig, EncoderConfig, check_sizes
from .errors import ConfigError
from .model import ModelConfig
from .training import EmbeddingSpec, TrainConfig


@dataclass
class DataConfig:
    train_trees: list = field(default_factory=list)
    dev_trees: str = ""
    test_trees: str = ""
    alignments: str = ""
    frame_tracks: str = ""  # directory of <speaker>.csv files
    vector_store: str = ""
    word_vectors: str = ""
    features_cache: str = ""
    speechify: bool = False

    def __post_init__(self):
        # one tree file may be given as a plain string
        if isinstance(self.train_trees, str):
            self.train_trees = [self.train_trees]
        self.train_trees = list(self.train_trees)


@dataclass
class EvalConfig:
    delete_punctuation: bool = False
    n_resamples: int = 10000


@dataclass
class ExperimentConfig:
    data: DataConfig
    model: ModelConfig
    embedding: EmbeddingSpec
    train: TrainConfig
    eval: EvalConfig
    output_dir: str
    source_path: str = ""
    source_text: str = ""

    def uses_prosody(self):
        return self.model.encoder.use_prosody


# the keys of the top level, of the model section and of model.embedding
# (whose files are data.vector_store and data.word_vectors); every other
# section is checked by its dataclass
TOP_LEVEL_KEYS = ("data", "model", "train", "eval", "output_dir")
MODEL_KEYS = ("encoder", "cnn", "span_hidden", "embedding")
EMBEDDING_KEYS = ("mode", "dim", "min_count")


def _check_keys(raw, known, where):
    unknown = sorted(str(k) for k in raw if k not in known)
    if unknown:
        raise ConfigError(
            f"{where}: unknown key(s) {', '.join(unknown)} (known: {', '.join(known)})"
        )


def _section(raw, name):
    value = raw.get(name, {})
    if value is None:
        value = {}
    if not isinstance(value, dict):
        raise ConfigError(f"config section {name!r} must be a mapping")
    return value


def _build(cls, section, name, **overrides):
    known = {f: section[f] for f in section}
    known.update(overrides)
    try:
        return cls(**known)
    except TypeError as exc:
        raise ConfigError(f"config section {name!r}: {exc}") from None


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    try:
        raw = yaml.safe_load(text) or {}
    except (yaml.YAMLError, ValueError) as exc:
        # PyYAML raises ValueError for a scalar it resolves as an invalid date
        raise ConfigError(f"{path}: invalid YAML: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    _check_keys(raw, TOP_LEVEL_KEYS, str(path))

    data = _build(DataConfig, _section(raw, "data"), "data")

    model_raw = _section(raw, "model")
    _check_keys(model_raw, MODEL_KEYS, "config section 'model'")
    encoder = _build(EncoderConfig, _section(model_raw, "encoder"), "model.encoder")
    cnn = _build(CnnConfig, _section(model_raw, "cnn"), "model.cnn")
    try:
        model = ModelConfig(
            encoder=encoder, cnn=cnn, span_hidden=model_raw.get("span_hidden", 256)
        )
    except ConfigError as exc:
        raise ConfigError(f"model: {exc}") from None
    emb_raw = _section(model_raw, "embedding")
    _check_keys(emb_raw, EMBEDDING_KEYS, "config section 'model.embedding'")
    embedding = _build(
        EmbeddingSpec, emb_raw, "model.embedding",
        store_path=data.vector_store, vectors_path=data.word_vectors,
    )

    train = _build(TrainConfig, _section(raw, "train"), "train")
    eval_cfg = _build(EvalConfig, _section(raw, "eval"), "eval")

    output_dir = raw.get("output_dir", "")
    if not output_dir:
        raise ConfigError(f"{path}: output_dir is required")

    cfg = ExperimentConfig(
        data=data,
        model=model,
        embedding=embedding,
        train=train,
        eval=eval_cfg,
        output_dir=output_dir,
        source_path=str(path),
        source_text=text,
    )
    _validate(cfg)
    return cfg


def _validate(cfg):
    for name, flag in [("data.speechify", cfg.data.speechify),
                       ("eval.delete_punctuation", cfg.eval.delete_punctuation)]:
        if not isinstance(flag, bool):  # a quoted 'no' is a truthy string
            raise ConfigError(f"{name} must be true or false, got {flag!r}")
    check_sizes(1, **{"eval.n_resamples": cfg.eval.n_resamples})
    if len(cfg.data.train_trees) not in (0, len(cfg.train.corpus_weights)):
        raise ConfigError(
            f"{len(cfg.data.train_trees)} train tree files but "
            f"{len(cfg.train.corpus_weights)} corpus weights"
        )
    if cfg.embedding.mode == "frozen" and not cfg.embedding.store_path:
        raise ConfigError("embedding mode 'frozen' needs data.vector_store")
    if cfg.embedding.mode == "finetuned" and not cfg.embedding.vectors_path:
        raise ConfigError("embedding mode 'finetuned' needs data.word_vectors")


def validate_paths(cfg, need=(), flags=()):
    """Check that the input files a command opens exist, before any compute.

    ``need`` names what the command reads: tree splits ("train", "dev",
    "test"), "prosody" for the alignments and frame tracks, and "embedding"
    for the pretrained vector files.  ``flags`` holds (flag, path) pairs
    from the command line; an empty path is a flag left unset.
    """
    checks = list(flags)
    if "train" in need:
        checks += [("data.train_trees", p) for p in cfg.data.train_trees]
        if not cfg.data.train_trees:
            raise ConfigError("data.train_trees is required for this command")
    for split in ("dev", "test"):
        if split in need:
            checks.append((f"data.{split}_trees", getattr(cfg.data, f"{split}_trees")))
    if "prosody" in need:
        checks += [(f"data.{k}", getattr(cfg.data, k)) for k in ("alignments", "frame_tracks")]
    if "embedding" in need:
        checks += [(f"data.{k}", getattr(cfg.data, k)) for k in ("vector_store", "word_vectors")]
    for name, path in checks:
        if path and not os.path.exists(path):
            raise ConfigError(f"{name}: path does not exist: {path}")


def write_snapshot(cfg, run_dir):
    os.makedirs(run_dir, exist_ok=True)
    with open(os.path.join(run_dir, "config.yaml"), "w", encoding="utf-8") as fh:
        fh.write(cfg.source_text)
